"""The names the benchmark's tracer and workloads use must exist in the package.

perfbench/tracer.py wraps package functions and methods by name to take its
per-layer metrics, and perfbench/workloads.py calls the trace sandbox by name;
a renamed or deleted target would only show up in a benchmark run.  These
tests load the tracer by path and resolve every target, and read the
workloads' source to resolve every cosettrace attribute they use, and run a
traced sweep so that the tracer's cache hooks read a real CensusCache.  They
also load perfbench/harness.py, whose cache clearing keeps a pass from reusing
memos that a fresh process would not have.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_WORKLOADS = _TRACER.with_name("workloads.py")
_HARNESS = _TRACER.with_name("harness.py")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load(_TRACER, "perfbench_tracer")


def test_every_traced_name_resolves_in_the_package():
    tracer = _load_tracer()
    for mod, attr in tracer.FUNCTIONS:
        module = importlib.import_module(f"superspecial.{mod}")
        assert callable(getattr(module, attr, None)), f"{mod}.{attr}"
    for mod, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(f"superspecial.{mod}"), cls_name, None)
        assert cls is not None, f"{mod}.{cls_name}"
        assert callable(vars(cls).get(attr)), f"{mod}.{cls_name}.{attr}"


def test_every_cosettrace_name_the_workloads_use_resolves():
    # The workloads reach the trace sandbox as `cosettrace.<name>` or, inside
    # a pass, `ct.<name>`; a rename there would only fail the benchmark.
    tree = ast.parse(_WORKLOADS.read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("cosettrace", "ct")}
    assert used >= {"random_model", "TRIAL_FAMILIES", "orbital_trace", "factored_trace",
                    "with_trivial_k", "volume_identity_check", "InvariantViolation"}
    cosettrace = importlib.import_module("superspecial.cosettrace")
    missing = sorted(name for name in used if not hasattr(cosettrace, name))
    assert not missing, missing


def test_the_tracer_cache_hooks_count_a_traced_sweep(tmp_path):
    # The hooks read `p in cache`, cache.path.exists() and cache.path.stat()
    # on a cache opened on a file; a rename there would only break a traced
    # benchmark run.
    tracer = _load_tracer().Tracer()
    cache, out = tmp_path / "census.cache", tmp_path / "sweep.csv"
    argv = ["sweep", "--pmin", "5", "--pmax", "60", "--jobs", "1",
            "--cache", str(cache), "-o", str(out)]
    counts = []
    tracer.install()
    try:
        cli = importlib.import_module("superspecial.cli")
        for _ in range(2):
            assert cli.main(argv) == 0
            counts.append(dict(tracer.counters))
    finally:
        tracer.restore()
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert counts[0] == {"sslocus.CensusCache.misses": len(primes),
                         "sslocus.cache_bytes_written": cache.stat().st_size,
                         "fppoly.roots_found": sum((p - 1) // 2 for p in primes)}
    assert counts[1] == {**counts[0], "sslocus.CensusCache.hits": len(primes)}


def test_every_acceptance_criterion_is_traced():
    tracer = _load_tracer()
    acceptance = importlib.import_module("superspecial.acceptance")
    traced = {int(m.group(1)) for name in vars(acceptance)
              if (m := tracer._CRITERION.match(name)) and callable(getattr(acceptance, name))}
    assert traced == set(range(1, 10))


def test_clearing_the_program_caches_drops_the_genus_factors():
    # verify's passes each clear the caches first; a memo that survived would
    # make every pass after the first cheaper than a fresh process.
    harness = _load(_HARNESS, "perfbench_harness")
    massform = importlib.import_module("superspecial.massform")
    massform.principal_mass(3, 5)
    assert massform._zeta_factor.cache_info().currsize > 0
    harness.clear_program_caches()
    assert massform._zeta_factor.cache_info().currsize == 0
