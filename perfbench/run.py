"""Benchmark of the ``superspecial`` toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src``.  The
workloads are described in ``workloads.py``.  A run sets up, then repeats
passes of the workload until ``--seconds`` have gone by (at least one pass),
with the set-up probes spread evenly through that time and the reference
loop of ``reference.py`` timed before every pass, checks every pass's output
against the benchmark's own oracles, and prints one JSON report line followed
by one result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the run times half of ``--seconds`` untraced and half with
every public function of the package wrapped in a span (``tracer.py``), and
the metrics are the per-layer ones: set-up spans counted once plus one pass,
averaged over the traced passes.  The spans of the set-up and of the first
traced pass are written to ``.perfbench_out/<workload>-seed<N>.spans.jsonl``.

``--workload all`` runs the four workloads one after another, each in its own
process, and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 5
# Share of the time before each pass spent on the reference loop (at least one
# loop): one loop is about 10 ms, and a few dozen of them per run were too
# few to give the host's mean speed over passes of a second or more.
REFERENCE_SHARE = 0.1
SPAN_DIR = harness.ROOT / ".perfbench_out"

# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_ref_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_attempted": ("count", "higher"),
    "ok_share": ("share", "higher"),
}

_S, _N, _B, _SHARE = ("s", "lower"), ("count", "lower"), ("bytes", "lower"), ("share", "lower")

# name -> (unit, better), grouped by the package module each one measures.
# "<span>.s" is inclusive time, "<span>.self_s" self time and "<span>.calls"
# the call count of a traced function; the other names are read from tracer
# hook counters or from the passes' outputs (see ``layer_values``).
PER_LAYER = {
    "fppoly.hasse_poly.s": _S, "fppoly.roots_in_fp2.s": _S, "fppoly.roots_in_fp2.calls": _N,
    "fppoly.roots_found": ("count", "higher"),
    "ffield.lambda_to_j.calls": _N, "ffield.lambda_to_j.s": _S, "ffield.frobenius.calls": _N,
    "ffield.Fp2Field.parse.s": _S,
    "sslocus.census.s": _S, "sslocus.census.self_s": _S, "sslocus.Census.validate.calls": _N,
    "sslocus.Census.validate.s": _S, "sslocus.decode_census.s": _S,
    "sslocus.CensusCache.load_s": _S, "sslocus.CensusCache.hits": ("count", "higher"),
    "sslocus.CensusCache.misses": _N, "sslocus.CensusCache.put.s": _S,
    "sslocus.cache_bytes_written": _B,
    "massform.principal_mass.calls": _N, "massform.principal_mass.s": _S,
    "massform.class_number_level.calls": _N, "exactnum.zeta_negative.calls": _N,
    "finitegroup.group_from_kind.s": _S, "finitegroup.Group.normalizer_of.s": _S,
    "finitegroup.Group.subgroup.s": _S, "finitegroup.Group.conjugacy_partition.calls": _N,
    "finitegroup.Group.conjugacy_partition.s": _S, "finitegroup.Group.centralizer.calls": _N,
    "finitegroup.Group.centralizer.s": _S, "finitegroup.Group.conj_vector.calls": _N,
    "finitegroup.Group.conj_vector.s": _S,
    "cosettrace.random_model.s": _S, "cosettrace.double_cosets.calls": _N,
    "cosettrace.double_cosets.s": _S, "cosettrace.kernel_trace.calls": _N,
    "cosettrace.delta_sets.calls": _N, "cosettrace.delta_sets.s": _S,
    "cosettrace.orbital_trace.self_s": _S, "cosettrace.factored_trace.s": _S,
    "cosettrace.volume_identity_check.s": _S, "cosettrace.conj_vector_per_model": _N,
    "cosettrace.factored_absent": _N,
    **{f"acceptance.criterion_{n}.s": _S for n in range(1, 10)},
    "acceptance.sweep_censuses.s": _S, "acceptance.seeded_models.s": _S,
    "acceptance.criteria_failed": _N,
    "cli.main.s": _S, "cli.cmd_sweep.self_s": _S, "cli.output_bytes": _B,
    "trace_overhead_share": _SHARE,
}
_COUNTERS = {"fppoly.roots_found", "sslocus.CensusCache.hits", "sslocus.CensusCache.misses",
             "sslocus.cache_bytes_written", "cosettrace.factored_absent"}
_SPAN_FIELDS = {"s": "s", "self_s": "self_s", "calls": "calls", "load_s": "s"}

_FINITEGROUP_SPANS = ("finitegroup.group_from_kind", "finitegroup.Group.")
_FPPOLY_SPANS = ("fppoly.",)


def probe_setup(name: str, seed: int, small: bool) -> float:
    """Wall time of a fresh interpreter that imports the package and sets the workload up."""
    cmd = [sys.executable, str(harness.BENCH_DIR / "setup_probe.py"), name, str(seed),
           "small" if small else "full"]
    # No timeout: with one, the wait polls in steps of up to 50 ms, which the
    # measured time would be rounded up to.
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=harness.ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_passes(workload, state, deadline: float, outcomes=None, probe=None, probes=None,
               refs=None) -> list[workloads.PassOutcome]:
    """Closed loop: pass after pass until ``deadline`` (a ``perf_counter`` time),
    appended to ``outcomes``; at least one pass in all.

    With ``probe``, ``SETUP_PROBES`` calls of it are spread evenly over the
    time left, between passes, and their results appended to ``probes``.
    With ``refs``, the reference loop is timed into it before each pass, for
    ``REFERENCE_SHARE`` of the previous pass's time."""
    outcomes = [] if outcomes is None else outcomes
    start = time.perf_counter()
    step = max(deadline - start, 0.0) / SETUP_PROBES
    while True:
        now = time.perf_counter()
        if probe is not None and len(probes) < SETUP_PROBES and now >= start + len(probes) * step:
            probes.append(probe())
        elif not outcomes or now < deadline:
            if refs is not None:
                budget = REFERENCE_SHARE * (outcomes[-1].wall if outcomes else 0.0)
                spent = 0.0
                while not spent or spent < budget:
                    refs.append(reference.time_reference())
                    spent += refs[-1]
            outcomes.append(workload.run_pass(state))
        else:
            return outcomes


def mean_pass(outcomes) -> float:
    return sum(o.wall for o in outcomes) / len(outcomes)


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, sample count) at the highest of a fixed set of
    percentiles that leaves at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q, ordered[min(n - 1, int(n * q / 100.0))], n
    return 100.0, ordered[-1], n


def _span_value(summary: dict, span: str, field: str) -> float:
    return summary["spans"].get(span, {}).get(field, 0)


def layer_values(setup_sum: dict, pass_sum: dict, outcomes, overhead: float, name: str) -> dict:
    """Every per-layer metric: set-up once plus the per-pass average of the traced passes."""
    n = len(outcomes)
    values = {}
    for metric in PER_LAYER:
        if metric in _COUNTERS:
            values[metric] = (setup_sum["counters"].get(metric, 0)
                              + pass_sum["counters"].get(metric, 0) / n)
            continue
        span, _, suffix = metric.rpartition(".")
        if suffix == "load_s":
            span += ".load"
        if suffix in _SPAN_FIELDS and span:
            field = _SPAN_FIELDS[suffix]
            values[metric] = (_span_value(setup_sum, span, field)
                              + _span_value(pass_sum, span, field) / n)
    models = outcomes[0].ops if name == "trace-models" else 0
    conj = _span_value(pass_sum, "finitegroup.Group.conj_vector", "calls") / n
    values["cosettrace.conj_vector_per_model"] = conj / models if models else 0
    values["acceptance.criteria_failed"] = sum(o.criteria_failed for o in outcomes) / n
    values["cli.output_bytes"] = sum(o.output_bytes for o in outcomes) / n
    values["trace_overhead_share"] = overhead
    return values


def bypass_failures(name: str, pass_sum: dict, n: int, primes: int, roots_expected: int) -> list[str]:
    """The trace counts each workload must show per pass if it takes the path it is meant to."""
    spans, counters = pass_sum["spans"], pass_sum["counters"]

    def calls(prefixes):
        return sum(rec["calls"] for span, rec in spans.items() if span.startswith(prefixes))

    failures = []
    if name.startswith("sweep-") and calls(_FINITEGROUP_SPANS):
        failures.append(f"{name} called finitegroup {calls(_FINITEGROUP_SPANS)} times")
    if name == "sweep-warm":
        if calls(("fppoly.roots_in_fp2",)):
            failures.append("sweep-warm called fppoly.roots_in_fp2")
        if counters.get("sslocus.CensusCache.hits", 0) != primes * n:
            failures.append(f"sweep-warm: {counters.get('sslocus.CensusCache.hits', 0)} cache hits "
                            f"in {n} passes, expected {primes} per pass")
    if name == "sweep-cold":
        if counters.get("sslocus.CensusCache.misses", 0) != primes * n:
            failures.append(f"sweep-cold: {counters.get('sslocus.CensusCache.misses', 0)} cache "
                            f"misses in {n} passes, expected {primes} per pass")
        if counters.get("fppoly.roots_found", 0) != roots_expected * n:
            failures.append(f"sweep-cold: {counters.get('fppoly.roots_found', 0)} roots found "
                            f"in {n} passes, expected {roots_expected} per pass")
    if name == "trace-models" and calls(_FPPOLY_SPANS):
        failures.append(f"trace-models called fppoly {calls(_FPPOLY_SPANS)} times")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.FULL) -> tuple[dict, dict]:
    """One benchmark run in this process: (report, result line)."""
    workload = workloads.WORKLOADS[name]
    small = sizes != workloads.FULL

    setup_tracer = Tracer()
    if trace:
        setup_tracer.install()
    try:
        state = workload.setup(seed, sizes)
    finally:
        setup_tracer.restore()
    workload.prepare_checks(state)

    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": harness.env_stamp()}
    share = seconds / 2 if trace else seconds
    setup_walls: list[float] = []
    refs: list[float] = []
    probe = None if trace else (lambda: probe_setup(name, seed, small))
    outcomes = run_passes(workload, state, time.perf_counter() + share, probe=probe,
                          probes=setup_walls, refs=refs)
    report["setup_walls_s"] = setup_walls
    report["reference_walls_s"] = refs
    walls = [o.wall for o in outcomes]
    metrics: dict[str, float] = {}
    broken: list[str] = []
    if trace:
        pass_tracer = Tracer()
        pass_tracer.install()
        try:
            deadline = time.perf_counter() + share
            traced = [workload.run_pass(state)]
            first_pass_end = len(pass_tracer.spans)
            run_passes(workload, state, deadline, traced)
        finally:
            pass_tracer.restore()
        traced_walls = [o.wall for o in traced]
        untraced = mean_pass(outcomes)
        overhead = (mean_pass(traced) - untraced) / untraced
        pass_sum = pass_tracer.summary()
        primes = state.get("primes", [])
        broken = bypass_failures(name, pass_sum, len(traced), len(primes),
                                 sum((p - 1) // 2 for p in primes))
        metrics = layer_values(setup_tracer.summary(), pass_sum, traced, overhead, name)
        report["traced_walls_s"] = traced_walls
        _write_spans(name, seed, setup_tracer, pass_tracer, first_pass_end)
        outcomes = outcomes + traced
    else:
        wall = mean_pass(outcomes)
        ops = outcomes[0].ops
        report.update({"mean_pass_s": wall, "median_pass_s": statistics.median(walls),
                       "ops_per_s": ops / wall, "mean_reference_s": statistics.mean(refs)})
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "pass_ref_ratio": wall / statistics.mean(refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_attempted": ops,
        }
    attempted = sum(o.ops for o in outcomes)
    failed = sum(min(len(o.errors), o.ops) for o in outcomes)
    if not trace:
        metrics["ok_share"] = 1.0 - failed / attempted
    report.update({
        "passes": len(walls),
        "walls_s": walls,
        "errors": [e for o in outcomes for e in o.errors][:20],
        "broken": broken,
        "criteria_failed": outcomes[0].criteria_failed,
        "factored_absent": outcomes[0].factored_absent,
    })
    latencies = [x for o in outcomes[:len(walls)] for x in o.latencies]
    if latencies:
        q, value, n = tail_latency(latencies)
        report["model_latency_ms"] = {"p50": statistics.median(latencies) * 1e3,
                                      "tail": value * 1e3, "tail_percentile": q, "samples": n}
    units = END_TO_END if not trace else PER_LAYER
    result = {
        "correct": failed == 0 and not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in units.items()},
    }
    return report, result


def _write_spans(name: str, seed: int, setup_tracer: Tracer, pass_tracer: Tracer,
                 first_pass_end) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"{name}-seed{seed}.spans.jsonl"
    with open(path, "w") as fh:
        setup_tracer.dump(fh, "setup")
        pass_tracer.dump(fh, "pass", last=first_pass_end)


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric by name and unit."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        status |= not result["correct"]
        print(f"== {name}  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} passes={report['passes']}")
        for metric, rec in result["metrics"].items():
            print(f"  {metric:44s} {rec['value']:>14.6g} {rec['unit']}")
        if "mean_pass_s" in report:
            print(f"  {'mean_pass_s':44s} {report['mean_pass_s']:>14.6g} s")
            print(f"  {'ops_per_s':44s} {report['ops_per_s']:>14.6g} 1/s")
        if "model_latency_ms" in report:
            lat = report["model_latency_ms"]
            print(f"  {'model_p50_ms':44s} {lat['p50']:>14.6g} ms")
            print(f"  {'model_tail_ms':44s} {lat['tail']:>14.6g} ms "
                  f"(p{lat['tail_percentile']:g} of {lat['samples']} models)")
        print(f"  {'criteria_failed':44s} {report['criteria_failed']:>14d} count")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.require_source()
    if args.workload == "all":
        return run_all(args)
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    if report["broken"]:
        print("broken: " + "; ".join(report["broken"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
