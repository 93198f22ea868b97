"""Record the benchmark's fixtures from the current source tree.

    python3 perfbench/record_fixtures.py

Writes ``perfbench/fixtures/census_5_1000.cache`` (the census cache a cold
``sweep --pmin 5 --pmax 1000`` leaves behind, used as the warm-cache fixture)
and ``perfbench/fixtures/expected.json`` (digests of the sweep CSV, of the
sorted cache lines, of the ``sweep-cold`` CSV and of the ``verify`` stdout).  The committed fixtures were
recorded once from the seed commit; re-recording them replaces the reference
that later versions are checked against, so do it only on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    harness.require_source()
    from superspecial import cli

    harness.FIXTURES.mkdir(parents=True, exist_ok=True)
    with harness.temp_dir() as tmp:
        cache = tmp / "census.cache"
        argv = workloads.sweep_argv(workloads.SWEEP_PMIN, workloads.FULL.sweep_pmax, cache)
        rc, csv, _ = harness.run_cli(cli, argv)
        if rc != 0:
            raise SystemExit(f"sweep exited {rc}")
        primes = oracles.primes_between(workloads.SWEEP_PMIN, workloads.FULL.sweep_pmax)
        errors = oracles.check_sweep_csv(csv, primes)
        if errors:
            raise SystemExit("sweep output fails the oracles: " + "; ".join(errors[:5]))
        shutil.copyfile(cache, harness.WARM_FIXTURE)
    with harness.temp_dir() as tmp:
        argv = workloads.sweep_argv(workloads.SWEEP_PMIN, workloads.FULL.cold_pmax, tmp / "cold.cache")
        rc, cold_csv, _ = harness.run_cli(cli, argv)
        cold_primes = oracles.primes_between(workloads.SWEEP_PMIN, workloads.FULL.cold_pmax)
        if rc != 0 or oracles.check_sweep_csv(cold_csv, cold_primes):
            raise SystemExit(f"sweep to {workloads.FULL.cold_pmax} exited {rc} or fails the oracles")
    harness.clear_program_caches()
    rc_verify, verify_out, _ = harness.run_cli(cli, list(workloads.FULL.verify_args))
    expected = {
        "sweep_csv_sha256": oracles.sha256(csv),
        "cold_csv_sha256": oracles.sha256(cold_csv),
        "cache_sorted_sha256": oracles.sorted_lines_digest(harness.WARM_FIXTURE.read_text()),
        "verify_exit": rc_verify,
        "verify_stdout_sha256": oracles.sha256(verify_out),
        "verify_failed_criteria": workloads.failed_criteria(verify_out),
    }
    harness.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(json.dumps(expected, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
