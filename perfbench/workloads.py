"""The four workloads: what one pass does and how its output is checked.

Each workload is a closed loop with one client: the next pass starts only
after the previous one has returned and been checked.  A pass runs in this
process; the benchmark never starts worker pools (``sweep --jobs 1``), so the
process-pool path of ``sweep`` is deliberately unmeasured.

* ``sweep-cold`` - ``superspecial sweep --pmin 5 --pmax 200 --jobs 1`` into a
  fresh, empty cache: the census end to end, root finding and cache appends.
* ``sweep-warm`` - ``superspecial sweep --pmin 5 --pmax 1000 --jobs 1`` against
  a copy of a cache that already holds those primes: load, decode, revalidate
  and CSV assembly, no census.
* ``trace-models`` - seeded ``random_model`` draws, ten from each family of
  ``TRIAL_FAMILIES`` so the family mix does not vary with the seed; per model
  ``orbital_trace``, ``factored_trace(with_trivial_k(m))`` and two
  ``volume_identity_check`` calls (the per-model work of ``trace-demo`` and of
  criteria 6-8).  No census code runs.
* ``verify`` - ``superspecial verify --pmax 200 --trials 100 --seed 42``
  with every program cache cleared before each pass, as a fresh CLI process
  would start.  Its seed is fixed at 42 whatever ``--seed`` says, because the
  recorded output (and the documented criterion-7 red it contains) belongs to
  that seed.

``setup`` prepares what a pass needs and is what ``setup_s`` times;
``prepare_checks`` computes the reference answers and is never timed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import harness
import oracles


@dataclass(frozen=True)
class Sizes:
    sweep_pmax: int
    cold_pmax: int
    per_family: int
    verify_args: tuple[str, ...]


SWEEP_PMIN = 5
# FULL is what the benchmark runs; SMALL only keeps smoke.py quick.
FULL = Sizes(sweep_pmax=1000, cold_pmax=200, per_family=10,
             verify_args=("verify", "--pmax", "200", "--trials", "100", "--seed", "42"))
SMALL = Sizes(sweep_pmax=60, cold_pmax=60, per_family=1,
              verify_args=("verify", "--pmax", "60", "--trials", "5", "--seed", "42"))


@dataclass
class PassOutcome:
    wall: float
    ops: int
    errors: list[str] = field(default_factory=list)
    output_bytes: int = 0
    criteria_failed: int = 0
    factored_absent: int = 0
    latencies: list[float] = field(default_factory=list)


def sweep_argv(pmin: int, pmax: int, cache) -> list[str]:
    return ["sweep", "--pmin", str(pmin), "--pmax", str(pmax), "--jobs", "1", "--cache", str(cache)]


def _check_sweep(out: str, rc: int, primes: list[int], full: bool, want: dict) -> list[str]:
    errors = [] if rc == 0 else [f"sweep exited {rc}"]
    errors += oracles.check_sweep_csv(out, primes)
    if full and not errors and oracles.sha256(out) != want["sweep_csv_sha256"]:
        errors.append("sweep CSV differs from the recorded bytes")
    return errors


def fixture_lines(primes: list[int]) -> str:
    """The recorded cache lines of ``primes``, from the warm-cache fixture."""
    wanted = {str(p) for p in primes}
    lines = harness.WARM_FIXTURE.read_text().splitlines()
    return "".join(line + "\n" for line in lines if line.split(";", 1)[0] in wanted)


def check_fixture() -> None:
    if (oracles.sorted_lines_digest(harness.WARM_FIXTURE.read_text())
            != harness.expected()["cache_sorted_sha256"]):
        raise SystemExit(f"perfbench: {harness.WARM_FIXTURE} differs from its recorded digest")


class SweepCold:
    name = "sweep-cold"

    def setup(self, seed: int, sizes: Sizes):
        from superspecial import cli

        return {"cli": cli, "sizes": sizes,
                "primes": oracles.primes_between(SWEEP_PMIN, sizes.cold_pmax)}

    def prepare_checks(self, state) -> None:
        check_fixture()
        state["want_cache"] = oracles.sorted_lines_digest(fixture_lines(state["primes"]))
        state["want_csv"] = harness.expected()["cold_csv_sha256"]
        for p in state["primes"]:
            oracles.expected_F(p)

    def run_pass(self, state) -> PassOutcome:
        sizes = state["sizes"]
        with harness.temp_dir() as tmp:
            cache = tmp / "census.cache"
            argv = sweep_argv(SWEEP_PMIN, sizes.cold_pmax, cache)
            t0 = time.perf_counter()
            rc, out, _ = harness.run_cli(state["cli"], argv)
            wall = time.perf_counter() - t0
            cache_text = cache.read_text() if cache.exists() else ""
        errors = [] if rc == 0 else [f"sweep exited {rc}"]
        errors += oracles.check_sweep_csv(out, state["primes"])
        if oracles.sorted_lines_digest(cache_text) != state["want_cache"]:
            errors.append("cache written by the sweep differs from the recorded lines")
        if sizes == FULL and not errors and oracles.sha256(out) != state["want_csv"]:
            errors.append("sweep CSV differs from the recorded bytes")
        return PassOutcome(wall, len(state["primes"]), errors, len(out.encode()))


class SweepWarm:
    name = "sweep-warm"

    def setup(self, seed: int, sizes: Sizes):
        from superspecial import cli

        primes = oracles.primes_between(SWEEP_PMIN, sizes.sweep_pmax)
        return {"cli": cli, "sizes": sizes, "primes": primes, "fixture": fixture_lines(primes)}

    def prepare_checks(self, state) -> None:
        check_fixture()
        state["want"] = harness.expected()
        for p in state["primes"]:
            oracles.expected_F(p)

    def run_pass(self, state) -> PassOutcome:
        sizes = state["sizes"]
        with harness.temp_dir() as tmp:
            cache = tmp / "census.cache"
            cache.write_text(state["fixture"])
            argv = sweep_argv(SWEEP_PMIN, sizes.sweep_pmax, cache)
            t0 = time.perf_counter()
            rc, out, _ = harness.run_cli(state["cli"], argv)
            wall = time.perf_counter() - t0
            cache_after = cache.read_text()
        errors = _check_sweep(out, rc, state["primes"], sizes == FULL, state["want"])
        if cache_after != state["fixture"]:
            errors.append("warm sweep wrote to a cache that already held every prime")
        return PassOutcome(wall, len(state["primes"]), errors, len(out.encode()))


@dataclass(frozen=True)
class ModelResult:
    kernel: int
    orbital: object
    factored: object
    volumes: tuple[bool, ...]


def check_model(result: ModelResult, kernel_want, trivial_kernel_want) -> list[str]:
    """Errors in one model's outputs against the benchmark's own kernel counts."""
    errors = []
    if result.kernel != kernel_want:
        errors.append(f"kernel_trace {result.kernel} != {kernel_want}")
    if result.orbital != kernel_want:
        errors.append(f"orbital_trace {result.orbital} != {kernel_want}")
    if result.factored is not None and result.factored != trivial_kernel_want:
        errors.append(f"factored value {result.factored} != {trivial_kernel_want}")
    if not all(result.volumes):
        errors.append("volume identity reported false")
    return errors


class TraceModels:
    name = "trace-models"

    def setup(self, seed: int, sizes: Sizes):
        from superspecial import cosettrace

        rng = random.Random(seed)
        models = []
        for family in cosettrace.TRIAL_FAMILIES:
            for _ in range(sizes.per_family):
                m = cosettrace.random_model(rng, (family,))
                picks = tuple((m.gamma[rng.randrange(len(m.gamma))], rng.randrange(m.group.n))
                              for _ in range(2))
                models.append((m, picks))
        return {"cosettrace": cosettrace, "models": models}

    def prepare_checks(self, state) -> None:
        refs = []
        for m, _ in state["models"]:
            table = m.group.table
            refs.append((oracles.kernel_count(table, m.gamma, m.k, m.pi),
                         oracles.kernel_count(table, m.gamma, None, m.pi)))
        state["refs"] = refs

    def run_pass(self, state) -> PassOutcome:
        ct = state["cosettrace"]
        results, latencies = [], []
        t0 = time.perf_counter()
        for m, picks in state["models"]:
            t = time.perf_counter()
            try:
                report = ct.orbital_trace(m)
                value, _ = ct.factored_trace(ct.with_trivial_k(m))
                volumes = tuple(ct.volume_identity_check(m, g, a) for g, a in picks)
                results.append(ModelResult(report.kernel_trace, report.orbital_trace, value, volumes))
            except ct.InvariantViolation as exc:
                results.append(exc)
            latencies.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
        errors, absent = [], 0
        for i, (res, (want, want_trivial)) in enumerate(zip(results, state["refs"])):
            if isinstance(res, Exception):
                errors.append(f"model {i}: {res}")
                continue
            absent += res.factored is None
            bad = check_model(res, want, want_trivial)
            if bad:
                errors.append(f"model {i}: " + "; ".join(bad))
        return PassOutcome(wall, len(results), errors, factored_absent=absent, latencies=latencies)


def failed_criteria(verify_stdout: str) -> list[int]:
    """Numbers of the criteria a ``verify`` run printed as FAIL."""
    return [int(line.split()[2].rstrip(":")) for line in verify_stdout.splitlines()
            if line.startswith("FAIL")]


class Verify:
    name = "verify"

    def setup(self, seed: int, sizes: Sizes):
        from superspecial import cli

        return {"cli": cli, "sizes": sizes}

    def prepare_checks(self, state) -> None:
        state["want"] = harness.expected()

    def run_pass(self, state) -> PassOutcome:
        sizes, want = state["sizes"], state["want"]
        harness.clear_program_caches()
        t0 = time.perf_counter()
        rc, out, _ = harness.run_cli(state["cli"], list(sizes.verify_args))
        wall = time.perf_counter() - t0
        lines = out.splitlines()
        failed = failed_criteria(out)
        errors = []
        if len(lines) != 9 or not all(line.startswith(("PASS", "FAIL")) for line in lines):
            errors.append(f"verify printed {len(lines)} lines, expected one per criterion")
        if rc != (2 if failed else 0):
            errors.append(f"verify exited {rc} with failed criteria {failed}")
        if sizes == FULL:
            if rc != want["verify_exit"]:
                errors.append(f"verify exited {rc}, recorded {want['verify_exit']}")
            errors += [f"criterion {n}: verdict differs from the recorded run"
                       for n in range(1, 10) if (n in failed) != (n in want["verify_failed_criteria"])]
            if not errors and oracles.sha256(out) != want["verify_stdout_sha256"]:
                errors.append("verify stdout differs from the recorded bytes")
        return PassOutcome(wall, 9, errors, len(out.encode()), criteria_failed=len(failed))


WORKLOADS = {w.name: w for w in (SweepCold(), SweepWarm(), TraceModels(), Verify())}
