"""Smoke check of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
traced and untraced, and that the oracles reject deliberately corrupted
outputs: a CSV row with F+1 (and other wrong fields), wrong kernel and
orbital counts, and sweep and verify outputs that differ from the recorded
digests; and that the bypass checks catch trace counts of the wrong path.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"smoke: FAILED: {what}", file=sys.stderr)
        raise SystemExit(1)
    print(f"smoke: ok: {what}")


def check_metrics_emitted() -> None:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        names = [m["name"] for m in spec[key]]
        tables = run.PER_LAYER if trace else run.END_TO_END
        expect(names == list(tables), f"BENCHMARK.json {key} lists the metrics run.py defines")
        units = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(all(units[n] == tables[n] for n in names), f"BENCHMARK.json {key} units and directions")
        for name in workloads.WORKLOADS:
            report, result = run.run_workload(name, 1, 0.0, trace, workloads.SMALL)
            got = result["metrics"]
            expect(list(got) == names, f"{name} trace={int(trace)} emits every {key} metric")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={int(trace)} is correct at tiny size")
            expect(all(isinstance(m["value"], (int, float)) for m in got.values()),
                   f"{name} trace={int(trace)} values are numbers")
            if not trace:
                expect(all(m["value"] > 0 for m in got.values()),
                       f"{name} end-to-end values are non-zero")
            expect(not report["broken"], f"{name} trace={int(trace)} passes its bypass checks")


def check_oracles_reject_corruption() -> None:
    expect([oracles.class_number(D) for D in (-3, -4, -20, -23, -47, -56)] == [1, 1, 2, 3, 5, 4],
           "class_number matches tabulated h(D)")

    from superspecial import cli, cosettrace

    primes = oracles.primes_between(5, 60)
    argv = ["sweep", "--pmin", "5", "--pmax", "60", "--jobs", "1"]
    rc, csv, _ = harness.run_cli(cli, argv)
    expect(rc == 0 and oracles.check_sweep_csv(csv, primes) == [], "oracles accept a real sweep")
    lines = csv.split("\n")
    for column, change in ((2, 1), (1, 1), (3, 1), (4, 2)):  # F+1, H+1, T+1, mass_num+2
        fields = lines[3].split(",")
        fields[column] = str(int(fields[column]) + change)
        bad = "\n".join(lines[:3] + [",".join(fields)] + lines[4:])
        errors = oracles.check_sweep_csv(bad, primes)
        expect(len(errors) == 1 and errors[0].startswith(f"p={fields[0]}:"),
               f"oracles reject column {column} changed by {change}: {errors}")
    expect(oracles.check_sweep_csv(csv.replace(",true\n", ",false\n", 1), primes) != [],
           "oracles reject checks=false")
    expect(oracles.check_sweep_csv("\n".join(lines[:2] + lines[3:]), primes) != [],
           "oracles reject a missing row")

    rng = random.Random(42)
    for i in range(20):
        m = cosettrace.random_model(rng)
        report = cosettrace.orbital_trace(m)
        want = oracles.kernel_count(m.group.table, m.gamma, m.k, m.pi)
        expect(want == report.kernel_trace == cosettrace.kernel_trace(m),
               f"kernel_count agrees with kernel_trace on seed-42 model {i}")
        good = workloads.ModelResult(report.kernel_trace, report.orbital_trace, None, (True, True))
        trivial = oracles.kernel_count(m.group.table, m.gamma, None, m.pi)
        expect(workloads.check_model(good, want, trivial) == [], f"model {i} result accepted")
        for bad in (workloads.ModelResult(want + 1, report.orbital_trace, None, (True, True)),
                    workloads.ModelResult(want, want + 1, None, (True, True)),
                    workloads.ModelResult(want, want, trivial + 1, (True, True)),
                    workloads.ModelResult(want, want, None, (True, False))):
            expect(workloads.check_model(bad, want, trivial) != [], f"model {i} rejects {bad}")

    cold = workloads.WORKLOADS["sweep-cold"]
    for key, error in (("want_cache", "cache written by the sweep differs from the recorded lines"),
                       ("want_csv", "sweep CSV differs from the recorded bytes")):
        state = cold.setup(42, workloads.FULL)
        cold.prepare_checks(state)
        expect(cold.run_pass(state).errors == [], "sweep-cold full pass matches the recording")
        state[key] = "0" * 64
        expect(cold.run_pass(state).errors == [error], f"sweep-cold rejects output unlike {key}")

    for name, key in (("sweep-warm", "sweep_csv_sha256"), ("verify", "verify_stdout_sha256"),
                      ("verify", "verify_failed_criteria")):
        workload = workloads.WORKLOADS[name]
        state = workload.setup(42, workloads.FULL)
        workload.prepare_checks(state)
        expect(workload.run_pass(state).errors == [], f"{name} full pass matches the recording")
        state["want"][key] = [] if key == "verify_failed_criteria" else "0" * 64
        expect(workload.run_pass(state).errors != [], f"{name} rejects output unlike the recorded {key}")


def check_bypass_detection() -> None:
    clean = {"spans": {}, "counters": {"sslocus.CensusCache.hits": 166}}
    expect(run.bypass_failures("sweep-warm", clean, 1, 166, 0) == [], "clean warm counts pass")
    for spans, counters, what in (
            ({"fppoly.roots_in_fp2": {"calls": 1}}, {"sslocus.CensusCache.hits": 166}, "a census call"),
            ({}, {"sslocus.CensusCache.hits": 165}, "a cache miss"),
            ({"finitegroup.Group.centralizer": {"calls": 1}}, {"sslocus.CensusCache.hits": 166},
             "a finitegroup call")):
        expect(run.bypass_failures("sweep-warm", {"spans": spans, "counters": counters}, 1, 166, 0),
               f"sweep-warm bypass check catches {what}")
    expect(run.bypass_failures("trace-models", {"spans": {"fppoly.hasse_poly": {"calls": 1}},
                                                "counters": {}}, 1, 0, 0),
           "trace-models bypass check catches an fppoly call")


def main() -> int:
    harness.require_source()
    check_metrics_emitted()
    check_oracles_reject_corruption()
    check_bypass_detection()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
