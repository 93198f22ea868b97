import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import superspecial
from superspecial import massform, sslocus
from superspecial.cli import (EXIT_INVARIANT, EXIT_IO, EXIT_OK, EXIT_USAGE,
                              main)
from superspecial.ffield import is_prime

# The least strong pseudoprimes to the prime bases up to 37 and up to 41.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_export_list_resolves_without_duplicates():
    names = superspecial.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(superspecial, name)]
    assert not missing, missing


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_census_json(capsys):
    rc, out, _ = run_cli(capsys, "census", "-p", "11", "--format", "json")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["p"] == 11 and payload["H"] == 2
    assert payload["F"] == 2 and payload["T"] == 2
    assert payload["trace_R_pi0"] == 2
    assert payload["checks"] is True
    assert payload["mass"] == {"num": "5", "den": "12"}


def test_census_rejects_composite(capsys):
    rc, _, err = run_cli(capsys, "census", "-p", "12")
    assert rc == EXIT_USAGE
    assert "prime" in err


@pytest.mark.parametrize("argv", [("census", "-p", str(PSI_12)),
                                  ("mass", "-g", "1", "-p", str(PSI_12), "-N", "1")])
def test_strong_pseudoprime_to_the_bases_2_to_37_is_not_prime(capsys, argv):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on every prime
    # base up to 37; it is refused as composite, not by a size ceiling.
    rc, out, err = run_cli(capsys, *argv)
    assert rc == EXIT_USAGE and out == ""
    assert err == f"error: p must be prime, got {PSI_12}\n"


def test_census_and_sweep_refuse_primes_above_the_cost_ceiling(capsys, tmp_path):
    cache = tmp_path / "c.cache"
    rc, out, err = run_cli(capsys, "census", "-p", "2147483647", "--cache", str(cache))
    assert rc == EXIT_USAGE and out == ""
    assert "ceiling 1000000" in err
    assert not cache.exists()
    rc, out, err = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "2147483647",
                           "--jobs", "1", "--cache", str(cache))
    assert rc == EXIT_USAGE and out == ""
    assert "ceiling 1000000" in err
    assert not cache.exists()


def test_census_small_prime_constant(capsys):
    rc, out, _ = run_cli(capsys, "census", "-p", "2")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["H"] == 1 and payload["j_points"] == ["0"]


def test_census_csv(capsys):
    rc, out, _ = run_cli(capsys, "census", "-p", "13", "--format", "csv")
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "p,H,F,T,mass_num,mass_den,checks"
    assert lines[1] == "13,1,1,1,1,2,true"


def test_sweep_rows_and_determinism(capsys, tmp_path):
    rc, out1, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "50", "--jobs", "1")
    assert rc == EXIT_OK
    lines = out1.strip().split("\n")
    assert lines[0] == "p,H,F,T,mass_num,mass_den,checks"
    # primes in [5, 50]: 5 7 11 13 17 19 23 29 31 37 41 43 47
    assert len(lines) == 1 + 13
    assert all(line.endswith("true") for line in lines[1:])
    rc, out2, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "50", "--jobs", "1")
    assert out2 == out1  # byte-identical


def test_sweep_cache_warm_identical(capsys, tmp_path):
    cache = tmp_path / "c.cache"
    rc, out1, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "40",
                          "--jobs", "1", "--cache", str(cache))
    assert rc == EXIT_OK and cache.exists()
    size_before = cache.stat().st_size
    rc, out2, err = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "40",
                            "--jobs", "1", "--cache", str(cache), "--timing")
    assert rc == EXIT_OK
    assert out2 == out1
    assert cache.stat().st_size == size_before  # nothing recomputed or rewritten
    assert "0 computed" in err


def test_warm_sweep_validates_each_census_once(capsys, tmp_path, monkeypatch):
    from superspecial import massform, sslocus

    cache = tmp_path / "c.cache"
    rc, cold, _ = run_cli(capsys, "sweep", "--pmin", "2", "--pmax", "60",
                          "--jobs", "1", "--cache", str(cache))
    assert rc == EXIT_OK
    validated, masses = [], []
    real_validate, real_mass = sslocus.Census.validate, massform.principal_mass

    def validate(c):
        validated.append(c.p)
        real_validate(c)

    def principal_mass(g, p):
        masses.append(p)
        return real_mass(g, p)

    monkeypatch.setattr(sslocus.Census, "validate", validate)
    monkeypatch.setattr(massform, "principal_mass", principal_mass)
    rc, warm, _ = run_cli(capsys, "sweep", "--pmin", "2", "--pmax", "60",
                          "--jobs", "1", "--cache", str(cache))
    assert rc == EXIT_OK and warm == cold
    primes = [int(line.split(",")[0]) for line in warm.strip().split("\n")[1:]]
    assert validated == primes  # once each, by decode_census on cache load
    assert masses == primes  # once per CSV row


def test_warm_sweep_makes_no_modular_exponentiation(capsys, tmp_path, monkeypatch,
                                                    censuses_1000):
    # Counts operations, not time: a warm sweep to 1000 tests primality by
    # trial division alone (every p < 41^2) and derives nothing by powering.
    from superspecial import ffield

    cache = tmp_path / "c.cache"
    cache.write_text("".join(sslocus.encode_census(c) + "\n" for c in censuses_1000))
    calls = []
    monkeypatch.setattr(ffield, "pow", lambda *args: calls.append(args) or pow(*args),
                        raising=False)
    rc, out, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "1000",
                         "--jobs", "1", "--cache", str(cache))
    assert rc == EXIT_OK and len(out.strip().split("\n")) == 1 + len(censuses_1000) == 1 + 166
    assert calls == []


def test_warm_sweep_makes_no_frobenius_call(capsys, tmp_path, monkeypatch, censuses_1000):
    # Counts operations, not time: a warm read takes each census's involution
    # from the runs of equal a in its sorted j-set, with no call of the rule
    # ffield.frobenius per point, under whichever module name it is bound.
    from superspecial import ffield

    cache = tmp_path / "c.cache"
    cache.write_text("".join(sslocus.encode_census(c) + "\n" for c in censuses_1000))
    real, calls = ffield.frobenius, []

    def frobenius(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "superspecial" and getattr(module, "frobenius", None) is real:
            monkeypatch.setattr(module, "frobenius", frobenius)
    rc, out, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "1000",
                         "--jobs", "1", "--cache", str(cache))
    assert rc == EXIT_OK and len(out.strip().split("\n")) == 1 + 166
    assert ffield.frobenius is frobenius and calls == []


def test_census_and_warm_sweep_make_no_involution_census_call(capsys, tmp_path, monkeypatch,
                                                             censuses_1000):
    # Counts operations, not time: a Census takes H, F and T from the scan
    # that reads its involution, and recounts nothing with involution_census,
    # under whichever module name it is bound.
    cache = tmp_path / "c.cache"
    cache.write_text("".join(sslocus.encode_census(c) + "\n" for c in censuses_1000))
    real, calls = sslocus.involution_census, []

    def involution_census(inv):
        calls.append(inv)
        return real(inv)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "superspecial"
                and getattr(module, "involution_census", None) is real):
            monkeypatch.setattr(module, "involution_census", involution_census)
    assert sslocus.involution_census is superspecial.involution_census is involution_census
    c = sslocus.census(37)
    assert sslocus.Census(c.p, c.j_points) == c
    rc, out, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "1000",
                         "--jobs", "1", "--cache", str(cache))
    assert rc == EXIT_OK and len(out.strip().split("\n")) == 1 + 166
    assert calls == []


def test_sweep_env_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERSPECIAL_CACHE_DIR", str(tmp_path))
    rc, _, _ = run_cli(capsys, "census", "-p", "11")
    assert rc == EXIT_OK
    assert (tmp_path / "census.cache").read_text() == "11;0,1;2;2\n"


def test_sweep_reads_each_prime_through_one_cache_get(capsys, tmp_path, monkeypatch):
    # The benchmark's traced runs count hits and misses on CensusCache.get:
    # one call per prime, a miss into an empty cache file and a hit from a
    # full one.
    real_get, looked_up = sslocus.CensusCache.get, []

    def get(cache, p):
        looked_up.append((p, p in cache))
        return real_get(cache, p)

    monkeypatch.setattr(sslocus.CensusCache, "get", get)
    cache = tmp_path / "c.cache"
    cache.write_text("")
    primes = [p for p in range(5, 61) if is_prime(p)]
    for hit in (False, True):
        looked_up.clear()
        rc, out, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "60",
                             "--jobs", "1", "--cache", str(cache))
        assert rc == EXIT_OK and len(out.splitlines()) == 1 + len(primes)
        assert looked_up == [(p, hit) for p in primes]
    assert len(cache.read_text().splitlines()) == len(primes)


def test_runs_without_a_cache_write_no_file(capsys, tmp_path, monkeypatch):
    # No --cache and no SUPERSPECIAL_CACHE_DIR: the censuses stay in memory.
    monkeypatch.delenv("SUPERSPECIAL_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    real_open, created = os.open, []

    def spy(path, flags, *args, **kwargs):
        if flags & os.O_CREAT:
            created.append(path)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    for argv in (("census", "-p", "11"), ("sweep", "--pmin", "5", "--pmax", "60", "--jobs", "1")):
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == EXIT_OK and out
    assert created == [] and list(tmp_path.iterdir()) == []


def test_sweep_parallel_matches_serial(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool path on any host
    rc, serial, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "130", "--jobs", "1")
    assert rc == EXIT_OK
    rc, parallel, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "130", "--jobs", "2")
    assert rc == EXIT_OK
    assert serial == parallel


def test_sweep_pool_writes_the_serial_cache_bytes(capsys, tmp_path, monkeypatch):
    # 29 primes in 5..130 (the pool takes 16 or more), so --jobs 2 runs the
    # process pool, on any host with 2 CPUs reported, and the parent appends
    # each worker's census.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial, pooled = tmp_path / "serial.cache", tmp_path / "pooled.cache"
    for jobs, cache in (("1", serial), ("2", pooled)):
        rc, _, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "130",
                           "--jobs", jobs, "--cache", str(cache))
        assert rc == EXIT_OK
    assert len(serial.read_text().splitlines()) == 29
    assert pooled.read_bytes() == serial.read_bytes()


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that records max_workers and maps
    in this process, so that no worker is started."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cpus, started", [
    ("100000", 2, [2]),  # no more workers than CPUs
    ("100000", 64, [8]),  # nor than the 8 chunks of 4 among 29 primes
    ("0", 64, [8]),  # auto
    ("3", 64, [3]),
    ("0", None, []),  # an unknown CPU count counts one: serial
    ("100000", 1, []),
])
def test_sweep_pool_is_bounded_by_cpus_and_chunks(capsys, monkeypatch, jobs, cpus, started):
    from superspecial import cli

    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "started", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rc, out, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "130", "--jobs", jobs)
    assert rc == EXIT_OK and len(out.splitlines()) == 1 + 29
    assert _InlinePool.started == started


def test_small_primes_check_the_mass(capsys, monkeypatch):
    # p = 2, 3 compare the geometric mass with the arithmetic one like every
    # other prime; their checks column used to print true unchecked.
    rc, out, _ = run_cli(capsys, "sweep", "--pmin", "2", "--pmax", "3", "--jobs", "1")
    assert rc == EXIT_OK
    assert out.split("\n")[1:3] == ["2,1,1,1,1,24,true", "3,1,1,1,1,12,true"]
    monkeypatch.setattr(sslocus, "eichler_mass", lambda c: Fraction(1, 2))
    rc, out, _ = run_cli(capsys, "sweep", "--pmin", "2", "--pmax", "3", "--jobs", "1")
    assert rc == EXIT_OK
    assert out.split("\n")[1:3] == ["2,1,1,1,1,24,false", "3,1,1,1,1,12,false"]
    rc, out, _ = run_cli(capsys, "census", "-p", "2")
    assert rc == EXIT_OK and json.loads(out)["checks"] is False


def test_sweep_single_prime(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "5", "--jobs", "1")
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("5,")


def test_sweep_bad_range(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--pmin", "50", "--pmax", "5")
    assert rc == EXIT_USAGE


def test_mass_examples(capsys):
    rc, out, _ = run_cli(capsys, "mass", "-g", "1", "-p", "5", "-N", "3")
    assert rc == EXIT_OK
    assert json.loads(out)["class_number"] == 8
    rc, out, _ = run_cli(capsys, "mass", "-g", "2", "-p", "2", "-N", "3",
                         "--nonprincipal")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["class_number"] == 54
    assert payload["gsp_order"] == 103680
    assert payload["mass"] == {"num": "1", "den": "1920"}
    assert "polarization kernel" in payload["note"]  # non-principal caveat
    rc, out, _ = run_cli(capsys, "mass", "-g", "1", "-p", "11", "-N", "1")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["class_number"] is None  # no class number below level 3
    assert payload["mass"] == {"num": "5", "den": "12"}
    assert payload["gsp_order"] == 1 and payload["note"] == ""
    rc, _, err = run_cli(capsys, "mass", "-g", "1", "-p", "5", "-N", "2")
    assert rc == EXIT_USAGE
    assert "N >= 3" in err
    rc, out, err = run_cli(capsys, "mass", "-g", "1", "-p", "5", "-N", "1000000000000000003")
    assert rc == EXIT_USAGE and out == ""
    assert "factorization ceiling 1000000000000" in err
    rc, _, err = run_cli(capsys, "mass", "-g", "1", "-p", "5", "-N", "10")
    assert rc == EXIT_USAGE  # gcd(N, p) != 1


def test_mass_prints_every_accepted_genus_in_full(capsys):
    # The largest values mass accepts (g = GENUS_MAX, the largest p and N)
    # have more than 3000 digits, and print exactly.
    rc, out, _ = run_cli(capsys, "mass", "-g", "11", "-p", "2147483647", "-N", "999999999989")
    assert rc == EXIT_OK
    payload = json.loads(out)
    expected = massform.class_number_level(11, 2147483647, 999999999989)
    assert payload["class_number"] == expected and len(str(expected)) > 3000
    # g = 100 used to be computed and then fail to print, g = 1000 after 75 s;
    # a p beyond the word size at g = 1 has a class number too long to print.
    for argv, message in [(("-g", "12", "-p", "5", "-N", "1"), "ceiling 11"),
                          (("-g", "1000", "-p", "5", "-N", "1"), "ceiling 11"),
                          (("-g", "1", "-p", "2147483659", "-N", "3"), "word-size bound")]:
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "mass", *argv)
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_USAGE and out == "" and message in err, argv


@pytest.mark.parametrize("g", ["-2", "0", "3"])
def test_mass_nonprincipal_refuses_all_but_even_positive_genus(capsys, g):
    # The genus rule must refuse g = -2 before the mass formula runs (where it
    # would raise a TypeError) and g = 0 itself, not through gsp_order.
    rc, out, err = run_cli(capsys, "mass", "-g", g, "-p", "5", "-N", "1", "--nonprincipal")
    assert rc == EXIT_USAGE and out == ""
    assert f"error: non-principal genus requires even g >= 2, got g={g}" in err
    assert "Traceback" not in err


def test_mass_csv_bytes(capsys):
    rc, out, _ = run_cli(capsys, "mass", "-g", "1", "-p", "11", "-N", "1", "--format", "csv")
    assert rc == EXIT_OK
    assert out == ("g,p,N,genus,mass_num,mass_den,gsp_order,class_number\n"
                   "1,11,1,principal,5,12,1,None\n")
    rc, out, _ = run_cli(capsys, "mass", "-g", "2", "-p", "2", "-N", "3", "--nonprincipal",
                         "--format", "csv")
    assert rc == EXIT_OK
    assert out == ("g,p,N,genus,mass_num,mass_den,gsp_order,class_number\n"
                   "2,2,3,non-principal,1,1920,103680,54\n")


def test_mass_factorizes_the_level_once(capsys, monkeypatch):
    real = massform._factorize
    calls = []
    monkeypatch.setattr(massform, "_factorize", lambda n: calls.append(n) or real(n))
    rc, out, _ = run_cli(capsys, "mass", "-g", "2", "-p", "7", "-N", "15")
    assert rc == EXIT_OK and calls == [15]
    payload = json.loads(out)
    assert payload["gsp_order"] == massform.gsp_order(2, 15)
    assert payload["class_number"] == massform.class_number_level(2, 7, 15)
    # p = 5 divides N = 15: refused before any factorization.
    calls.clear()
    rc, out, err = run_cli(capsys, "mass", "-g", "2", "-p", "5", "-N", "15")
    assert rc == EXIT_USAGE and out == "" and "coprime" in err and calls == []


@pytest.mark.parametrize("flag, argv", [
    ("--jobs", ("sweep", "--pmin", "5", "--pmax", "7", "--jobs", "-3")),
    ("--trials", ("trace-demo", "--trials", "-3")),
    ("--volume-checks", ("trace-demo", "--trials", "1", "--volume-checks", "-4")),
    ("--trials", ("verify", "--trials", "-1")),
])
def test_negative_counts_are_usage_errors(capsys, flag, argv):
    # These used to run serially, fail as an invariant violation, run no
    # volume checks, and pass criteria 6 and 7 on no models.
    rc, out, err = run_cli(capsys, *argv)
    assert rc == EXIT_USAGE and out == ""
    assert f"error: argument {flag}: must not be negative" in err


@pytest.mark.parametrize("flag, argv, message", [
    ("--trials", ("verify", "--pmax", "20", "--trials", "0"), "must be positive, got 0"),
    ("--trials", ("trace-demo", "--trials", "0"), "must be positive, got 0"),
    ("--pmax", ("verify", "--pmax", "3", "--trials", "5"), "must be at least 5, got 3"),
])
def test_runs_that_would_check_nothing_are_usage_errors(capsys, flag, argv, message):
    # These used to print PASS (verify, all nine criteria or 1-3 on no
    # censuses) or exit 0 (trace-demo) having checked nothing.
    rc, out, err = run_cli(capsys, *argv)
    assert rc == EXIT_USAGE and out == ""
    assert f"error: argument {flag}: {message}" in err


def test_non_integer_jobs_is_a_usage_error(capsys):
    rc, out, err = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "7", "--jobs", "abc")
    assert rc == EXIT_USAGE and out == ""
    assert "error: argument --jobs: invalid int value: 'abc'" in err


def test_mass_refuses_a_level_below_one(capsys):
    rc, out, err = run_cli(capsys, "mass", "-g", "1", "-p", "5", "-N", "0")
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: N must be positive, got 0\n"


def test_mass_output_file(capsys, tmp_path):
    out_path = tmp_path / "mass.json"
    rc, out, _ = run_cli(capsys, "mass", "-g", "1", "-p", "11", "-N", "3",
                         "-o", str(out_path))
    assert rc == EXIT_OK and out == ""
    assert json.loads(out_path.read_text())["class_number"] == 20


def test_io_error_exit_code(capsys):
    rc, _, err = run_cli(capsys, "census", "-p", "11",
                         "-o", "/nonexistent-dir/x.json")
    assert rc == EXIT_IO


def test_unreadable_cache_is_an_io_error(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "census", "-p", "11", "--cache", str(tmp_path))
    assert rc == EXIT_IO and out == ""
    assert err.startswith(f"i/o error: cannot read census cache {tmp_path}: ")


def test_trace_demo_missing_model_is_an_io_error(capsys, tmp_path):
    path = tmp_path / "absent.json"
    rc, out, err = run_cli(capsys, "trace-demo", "--model", str(path))
    assert rc == EXIT_IO and out == ""
    assert err.startswith(f"i/o error: cannot read model spec {path}: ")


def test_trace_demo_model(capsys, tmp_path):
    spec = {"group": "cyclic:4", "gamma": [2], "k": [], "pi": 2}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    rc, out, _ = run_cli(capsys, "trace-demo", "--model", str(path))
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["kernel_trace"] == 2
    assert payload["orbital_trace"] == {"num": "2", "den": "1"}
    assert payload["factored_value"] == {"num": "2", "den": "1"}
    # emitted JSON round-trips
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("extra", [("--trials", "5", "--family", "sym"), ("--trials", "5"),
                                   ("--family", "sym")])
def test_trace_demo_model_refuses_trial_flags(capsys, tmp_path, extra):
    # These flags used to be ignored silently: the model report was printed.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"group": "cyclic:4", "gamma": [2], "k": [], "pi": 2}))
    rc, out, err = run_cli(capsys, "trace-demo", "--model", str(path), *extra)
    assert rc == EXIT_USAGE and out == ""
    assert err == ("error: trace-demo --model FILE takes neither --trials nor --family, "
                   "which only shape the random trials\n")


def test_trace_demo_model_refuses_seed(capsys, tmp_path):
    # --seed only seeds the random trials; it used to be ignored silently.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"group": "cyclic:4", "gamma": [2], "k": [], "pi": 2}))
    rc, out, err = run_cli(capsys, "trace-demo", "--model", str(path), "--seed", "42")
    assert rc == EXIT_USAGE and out == ""
    assert err == ("error: trace-demo --model FILE takes neither --seed nor --volume-checks, "
                   "which only apply to the random trials\n")


def test_trace_demo_model_refuses_volume_checks(capsys, tmp_path):
    # --volume-checks only counts checks per random model; it used to be ignored.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"group": "cyclic:4", "gamma": [2], "k": [], "pi": 2}))
    rc, out, err = run_cli(capsys, "trace-demo", "--model", str(path), "--volume-checks", "2")
    assert rc == EXIT_USAGE and out == ""
    assert err == ("error: trace-demo --model FILE takes neither --seed nor --volume-checks, "
                   "which only apply to the random trials\n")


def test_trace_demo_spec_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    rc, _, err = run_cli(capsys, "trace-demo", "--model", str(path))
    assert rc == EXIT_USAGE
    assert "line 1" in err
    # A "group" that is not a string, and huge or degenerate kinds, which are
    # refused by name before any group order is computed.
    for group, message in [
        (5, 'model spec "group" must be a string'),
        (["sym:3"], 'model spec "group" must be a string'),
        ("sym:3000000", "sym:3000000 has order at least 3000000"),
        ("gl2:1000000000000000003", "gl2:1000000000000000003 has order at least"),
        ("gsp2:1000000000000000003", "gsp2:1000000000000000003 has order at least"),
        ("gsp2:1", "gsp2:1: Z/1 is the zero ring"),
        ("sym:0", "sym:0: n must be at least 1"),
        ("sym:03", "malformed group kind 'sym:03'; want family:n"),
    ]:
        path.write_text(json.dumps({"group": group, "gamma": [], "k": [], "pi": 0}))
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "trace-demo", "--model", str(path))
        assert time.perf_counter() - start < 1.0, group
        assert rc == EXIT_USAGE and out == "" and err.startswith(f"error: {message}"), group
    # Element entries that are not JSON integers, in every family.
    for group, pi in [("sym:3", [1.0, 0.0, 2.0]), ("gl2:3", [[1, 0], [0, True]]),
                      ("cyclic:4", True)]:
        path.write_text(json.dumps({"group": group, "gamma": [], "k": [], "pi": pi}))
        rc, out, err = run_cli(capsys, "trace-demo", "--model", str(path))
        assert rc == EXIT_USAGE and out == "", group
        assert err == f"error: {group}: element entries must be integers, not {pi!r}\n", group
    # Literals of another shape than the element's, and "gamma" or "k" that
    # are not arrays: these used to run as the flattened element, or as {e}.
    for spec, message in [
        ({"group": "gl2:3", "gamma": [], "k": [], "pi": [[1], [1, 0, 1]]},
         "gl2:3: an element literal has shape [2, 2], not [[1], [1, 0, 1]]"),
        ({"group": "gsp2:2", "gamma": [[[1, 0, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0, 1]]],
          "k": [], "pi": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
         "gsp2:2: an element literal has shape [4, 4], not [[1, 0, 0, 0, 0, 1, 0, 0], "),
        ({"group": "sym:3", "gamma": "", "k": {}, "pi": [0, 1, 2]},
         "model spec \"gamma\" must be an array of element literals, not ''"),
        ({"group": "sym:3", "gamma": [], "k": {}, "pi": [0, 1, 2]},
         "model spec \"k\" must be an array of element literals, not {}"),
    ]:
        path.write_text(json.dumps(spec))
        rc, out, err = run_cli(capsys, "trace-demo", "--model", str(path))
        assert rc == EXIT_USAGE and out == "", spec
        assert err.startswith(f"error: {message}"), spec


def test_trace_demo_trials(capsys):
    rc, out, _ = run_cli(capsys, "trace-demo", "--trials", "15", "--seed", "42")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["trace_equality_pass"] == 15
    assert payload["volume_identity_pass"] == payload["volume_identity_total"]


def test_trace_demo_trials_default_to_seed_42_and_two_volume_checks(capsys):
    rc, implicit, _ = run_cli(capsys, "trace-demo", "--trials", "5")
    assert rc == EXIT_OK
    rc, explicit, _ = run_cli(capsys, "trace-demo", "--trials", "5", "--seed", "42",
                              "--volume-checks", "2")
    assert rc == EXIT_OK and implicit == explicit
    payload = json.loads(implicit)
    assert payload["seed"] == 42 and payload["volume_identity_total"] == 10


@pytest.mark.parametrize("family", ["cyclic:2", "cyc", "Sym", "gl2:", ""])
def test_trace_demo_family_is_a_family_name(capsys, family):
    # "cyclic:2" used to draw from cyclic:2 and cyclic:20..24, "cyc" from every
    # cyclic kind, by prefix, and "" from every kind.
    rc, out, err = run_cli(capsys, "trace-demo", "--trials", "2", "--family", family)
    assert rc == EXIT_USAGE and out == ""
    assert err == f"error: no trial family matches {family!r}\n"


def test_trace_demo_family_draws_only_its_kinds(capsys, monkeypatch):
    from superspecial import cosettrace

    real, drawn = cosettrace.random_model, []

    def recorded(rng, families):
        model = real(rng, families)
        drawn.append(model.group.kind)
        return model

    monkeypatch.setattr(cosettrace, "random_model", recorded)
    rc, out, _ = run_cli(capsys, "trace-demo", "--trials", "40", "--family", "cyclic")
    assert rc == EXIT_OK and json.loads(out)["trace_equality_pass"] == 40
    assert len(drawn) == 40 and all(kind.startswith("cyclic:") for kind in drawn)
    assert len(set(drawn)) > 5  # the draw spans the family


def test_trace_demo_requires_input(capsys):
    rc, _, err = run_cli(capsys, "trace-demo")
    assert rc == EXIT_USAGE


def test_usage_error_on_unknown_command(capsys):
    rc, _, _ = run_cli(capsys, "nonsense")
    assert rc == EXIT_USAGE


def test_corrupted_cache_is_invariant_violation(capsys, tmp_path):
    cache = tmp_path / "c.cache"
    cache.write_text("11;0,1;0;1\n")  # F contradicts the involution
    rc, _, err = run_cli(capsys, "census", "-p", "11", "--cache", str(cache))
    assert rc == EXIT_INVARIANT
    assert "invariant" in err


@pytest.mark.parametrize("line", [
    "11;0,1;x;2", "12;0;1;1", "1;0;1;1", "2147483659;0;1;1",
    "37;3+10*t,3+27*t,-8;1;2", "37;3+10*t,3+27*t,45;1;2", "37;3+10*t,3+27*t,1_0;1;2",
    "37;3+10*t,3+27*t,8+0*t;1;2", "037;3+10*t,3+27*t,8;1;2", "37;3+10*t,3+27*t,8;+1;2",
    "11;0,1;2;2   ", " 13;5;1;1\t", "   ", "11;0,1;2;2\r",
    "37;3+10*t,,3+27*t;1;2", f"{PSI_12};0;1;1", f"{PSI_13};0;1;1", f"{10**30 + 57};0;1;1",
])
def test_malformed_cache_line_is_invariant_violation(capsys, tmp_path, line):
    # A non-numeric F, a non-prime p and a prime beyond the word size used to
    # escape decode as ValueError (exit 1); the rest are lines encode_census
    # would not write (an unreduced, signed, '_' or "+0*t" j, a zero-padded p,
    # a signed F, surrounding whitespace, a whitespace-only line, a CRLF line
    # end, an empty j) that a lenient int() or strip() used to read as a
    # census, and p at psi_12 (composite), psi_13 and past it, where
    # primality is no longer decided.
    cache = tmp_path / "c.cache"
    cache.write_text(line + "\n")
    rc, out, err = run_cli(capsys, "census", "-p", "11", "--cache", str(cache))
    assert rc == EXIT_INVARIANT and out == ""
    assert f"invariant violation: malformed cache line: {line!r}" in err


def test_unterminated_final_cache_line_is_invariant_violation(capsys, tmp_path):
    # A final line without its newline is a torn write, even when its text
    # parses; the next put would extend it into garbage, so nothing is appended.
    cache = tmp_path / "c.cache"
    for torn in ("13;5;1", "13;5;1;1"):
        cache.write_text("11;0,1;2;2\n" + torn)
        rc, out, err = run_cli(capsys, "census", "-p", "37", "--cache", str(cache))
        assert rc == EXIT_INVARIANT and out == ""
        assert (f"invariant violation: census cache {cache}: final line is unterminated: "
                f"{torn!r}") in err
        assert cache.read_text() == "11;0,1;2;2\n" + torn


def test_verify_small_run(capsys):
    # A reduced-size verify run: all nine criteria print a line; with only the
    # first 10 seeded models the factored-trace clause has no counterexample.
    rc, out, _ = run_cli(capsys, "verify", "--pmax", "60", "--trials", "10")
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 9
    assert all(l.startswith(("PASS", "FAIL")) for l in lines)
    assert rc in (EXIT_OK, EXIT_INVARIANT)


# sha256 of the stdout of verify --pmax 200 --trials 100 --seed 42, the digest
# the benchmark's fixtures record for its verify workload.
_GOLDEN_VERIFY_200_SHA256 = "1622a92629c0fd4ae7d529f8f1429ce09e64790b94ab62f6237cd1f0beded69b"


def test_verify_output_golden(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--pmax", "200", "--trials", "100", "--seed", "42")
    assert rc == EXIT_INVARIANT  # the criterion-7 red
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_VERIFY_200_SHA256


def test_verify_refuses_pmax_above_the_census_ceiling(capsys, monkeypatch):
    # The ceiling must be checked before the censuses below it, which take hours.
    def reached(p):
        raise AssertionError(f"census({p}) computed before the ceiling check")

    monkeypatch.setattr(sslocus, "census", reached)
    rc, out, err = run_cli(capsys, "verify", "--pmax", "1000003", "--trials", "1")
    assert rc == EXIT_USAGE and out == ""
    assert "census ceiling" in err


def test_console_entry_point():
    # The child imports the same checkout as this process, installed or not.
    src = os.path.dirname(os.path.dirname(superspecial.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "superspecial.cli", "census", "-p", "7",
         "--format", "csv"],
        capture_output=True, text=True,
        env={**os.environ, "SUPERSPECIAL_CACHE_DIR": "", "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "7,1,1,1,1,4,true"


def test_mass_refuses_a_composite_p(capsys):
    rc, out, err = run_cli(capsys, "mass", "-g", "1", "-p", "4", "-N", "3")
    assert rc == EXIT_USAGE and out == ""
    assert err == "error: p must be prime, got 4\n"


def test_trace_demo_prints_its_counts_then_exits_2_on_a_failed_volume_check(capsys,
                                                                           monkeypatch):
    from superspecial import cosettrace

    monkeypatch.setattr(cosettrace, "volume_identity_check", lambda model, gamma, a: False)
    rc, out, err = run_cli(capsys, "trace-demo", "--trials", "2")
    assert rc == EXIT_INVARIANT
    assert json.loads(out) == {"seed": 42, "trials": 2, "trace_equality_pass": 2,
                               "volume_identity_pass": 0, "volume_identity_total": 4}
    assert err == "invariant violation: randomized volume identities failed\n"
