import json
import os
import subprocess
import sys
import time

import pytest

import superspecial
from superspecial import massform
from superspecial.cli import (EXIT_INVARIANT, EXIT_IO, EXIT_OK, EXIT_USAGE,
                              main)


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


def test_sweep_env_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERSPECIAL_CACHE_DIR", str(tmp_path))
    rc, _, _ = run_cli(capsys, "census", "-p", "11")
    assert rc == EXIT_OK
    assert (tmp_path / "census.cache").read_text() == "11;0,1;2;2\n"


def test_sweep_parallel_matches_serial(capsys):
    rc, serial, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "130", "--jobs", "1")
    assert rc == EXIT_OK
    rc, parallel, _ = run_cli(capsys, "sweep", "--pmin", "5", "--pmax", "130", "--jobs", "2")
    assert rc == EXIT_OK
    assert serial == parallel


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
    assert payload["note"]  # existence caveat for the non-principal genus
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
    ]:
        path.write_text(json.dumps({"group": group, "gamma": [], "k": [], "pi": 0}))
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "trace-demo", "--model", str(path))
        assert time.perf_counter() - start < 1.0, group
        assert rc == EXIT_USAGE and out == "" and err.startswith(f"error: {message}"), group


def test_trace_demo_trials(capsys):
    rc, out, _ = run_cli(capsys, "trace-demo", "--trials", "15", "--seed", "42")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["trace_equality_pass"] == 15
    assert payload["volume_identity_pass"] == payload["volume_identity_total"]


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
])
def test_malformed_cache_line_is_invariant_violation(capsys, tmp_path, line):
    # A non-numeric F, a non-prime p and a prime beyond the word size used to
    # escape decode as ValueError (exit 1); the rest are lines encode_census
    # would not write (an unreduced, signed, '_' or "+0*t" j, a zero-padded p,
    # a signed F) that a lenient int() used to read as the census at 37.
    cache = tmp_path / "c.cache"
    cache.write_text(line + "\n")
    rc, out, err = run_cli(capsys, "census", "-p", "11", "--cache", str(cache))
    assert rc == EXIT_INVARIANT and out == ""
    assert f"invariant violation: malformed cache line: {line!r}" in err


def test_verify_small_run(capsys):
    # A reduced-size verify run: all nine criteria print a line; with only the
    # first 10 seeded models the factored-trace clause has no counterexample.
    rc, out, _ = run_cli(capsys, "verify", "--pmax", "60", "--trials", "10")
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 9
    assert all(l.startswith(("PASS", "FAIL")) for l in lines)
    assert rc in (EXIT_OK, EXIT_INVARIANT)


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
