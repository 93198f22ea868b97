"""Batch front end: census sweeps, mass evaluation, trace-formula demos, verify.

Exit codes: 0 success, 1 usage error, 2 invariant violation (an exact identity
failed, which is build-breaking), 3 I/O error.  Output is deterministic: the
same flags against the same cache state produce byte-identical bytes on
stdout (timing, when requested, goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import acceptance, cosettrace, massform, sslocus
from .cosettrace import InvariantViolation, ModelSpecError
from .exactnum import frac_dict
from .ffield import is_prime
from .finitegroup import GroupConstructionError
from .massform import IntegralityError
from .sslocus import CensusInvariantError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

CSV_HEADER = "p,H,F,T,mass_num,mass_den,checks"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write output file {out_path}: {exc}") from exc


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _get_census(p: int, cache: sslocus.CensusCache | None) -> sslocus.Census:
    return cache.get(p) if cache is not None else sslocus.census(p)


def _open_cache(path_arg: str | None) -> sslocus.CensusCache | None:
    if path_arg:
        return sslocus.CensusCache(path_arg)
    default = sslocus.default_cache_path()
    if default is not None:
        return sslocus.CensusCache(default)
    return None


def _census_checks(c: sslocus.Census) -> bool:
    c.validate()
    if c.p <= 3:
        return True
    return (sslocus.class_number_crosscheck(c)
            and sslocus.eichler_mass(c) == massform.principal_mass(1, c.p))


def _census_payload(c: sslocus.Census) -> dict:
    mass = massform.principal_mass(1, c.p)
    return {
        "p": c.p,
        "H": c.H,
        "F": c.F,
        "T": c.T,
        "trace_R_pi0": sslocus.trace_R_pi0(c),
        "type_number": sslocus.type_number(c),
        "j_points": [str(j) for j in c.j_points],
        "involution": list(c.involution),
        "aut_orders": list(c.aut_orders),
        "mass": frac_dict(mass),
        "checks": _census_checks(c),
    }


def _census_csv_row(c: sslocus.Census) -> str:
    mass = massform.principal_mass(1, c.p)
    ok = _census_checks(c)
    return f"{c.p},{c.H},{c.F},{c.T},{mass.numerator},{mass.denominator},{str(ok).lower()}"


def cmd_census(args) -> int:
    if not is_prime(args.p):
        raise UsageError(f"p must be prime, got {args.p}")
    sslocus.check_census_cost(args.p)
    cache = _open_cache(args.cache)
    c = _get_census(args.p, cache)
    if args.format == "json":
        _emit(_json_text(_census_payload(c)), args.output)
    else:
        _emit(CSV_HEADER + "\n" + _census_csv_row(c) + "\n", args.output)
    return EXIT_OK


def _sweep_worker(p: int) -> str:
    return sslocus.encode_census(sslocus.census(p))


def cmd_sweep(args) -> int:
    if args.pmin > args.pmax:
        raise UsageError(f"pmin {args.pmin} exceeds pmax {args.pmax}")
    sslocus.check_census_cost(args.pmax)
    t0 = time.perf_counter()
    primes = [p for p in range(max(args.pmin, 2), args.pmax + 1) if is_prime(p)]
    cache = _open_cache(args.cache)
    censuses: dict[int, sslocus.Census] = {}
    todo = []
    for p in primes:
        if cache is not None and p in cache:
            censuses[p] = cache.get(p)
        else:
            todo.append(p)
    jobs = args.jobs if args.jobs else min(8, os.cpu_count() or 1)
    if jobs > 1 and len(todo) >= 16:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for line in pool.map(_sweep_worker, todo, chunksize=4):
                c = sslocus.decode_census(line)
                censuses[c.p] = c
                if cache is not None:
                    cache.put(c)
    else:
        for p in todo:
            censuses[p] = _get_census(p, cache)
    lines = [CSV_HEADER]
    for p in primes:
        lines.append(_census_csv_row(censuses[p]))
    _emit("\n".join(lines) + "\n", args.output)
    if args.timing:
        print(f"sweep: {len(primes)} primes, {len(todo)} computed, "
              f"{time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_mass(args) -> int:
    if not is_prime(args.p):
        raise UsageError(f"p must be prime, got {args.p}")
    if args.N == 2:
        raise UsageError(
            "class numbers need level N >= 3 (automorphisms are only rigid from "
            "level 3 on); use -N 1 for the bare mass")
    if args.N < 1:
        raise UsageError(f"N must be positive, got {args.N}")
    kind = massform.GenusKind.NON_PRINCIPAL if args.nonprincipal else massform.GenusKind.PRINCIPAL
    try:
        params = massform.MassParams(g=args.g, p=args.p, N=args.N, genus_kind=kind)
        result = massform.evaluate(params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "g": args.g,
        "p": args.p,
        "N": args.N,
        "genus": kind.value,
        "mass": frac_dict(result.mass),
        "gsp_order": result.gsp_order,
        "class_number": result.class_number,
        "note": result.note,
    }
    if args.format == "json":
        _emit(_json_text(payload), args.output)
    else:
        _emit(
            "g,p,N,genus,mass_num,mass_den,gsp_order,class_number\n"
            f"{args.g},{args.p},{args.N},{kind.value},{result.mass.numerator},"
            f"{result.mass.denominator},{result.gsp_order},{result.class_number}\n",
            args.output,
        )
    return EXIT_OK


def cmd_trace_demo(args) -> int:
    if args.model is None and args.trials is None:
        raise UsageError("trace-demo needs --model FILE or --trials N")
    if args.model is not None:
        try:
            text = Path(args.model).read_text()
        except OSError as exc:
            raise OSError(f"cannot read model spec {args.model}: {exc}") from exc
        model = cosettrace.parse_model_spec(text)
        report = cosettrace.orbital_trace(model)
        payload = cosettrace.report_to_dict(model, report)
        _emit(_json_text(payload), args.output)
        return EXIT_OK

    rng = random.Random(args.seed)
    families = cosettrace.TRIAL_FAMILIES
    if args.family:
        families = tuple(k for k in families if k.startswith(args.family))
        if not families:
            raise UsageError(f"no trial family matches {args.family!r}")
    trace_pass = 0
    volume_pass = 0
    volume_total = 0
    for _ in range(args.trials):
        model = cosettrace.random_model(rng, families)
        report = cosettrace.orbital_trace(model)  # raises on any mismatch
        if report.orbital_trace == report.kernel_trace:
            trace_pass += 1
        for _ in range(args.volume_checks):
            gamma = model.gamma[rng.randrange(len(model.gamma))]
            a = rng.randrange(model.group.n)
            volume_total += 1
            if cosettrace.volume_identity_check(model, gamma, a):
                volume_pass += 1
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "trace_equality_pass": trace_pass,
        "volume_identity_pass": volume_pass,
        "volume_identity_total": volume_total,
    }
    _emit(_json_text(payload), args.output)
    if trace_pass != args.trials or volume_pass != volume_total:
        raise InvariantViolation("randomized trace/volume properties failed")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = acceptance.run_all(pmax=args.pmax, seed=args.seed, trials=args.trials,
                                 log=lambda s: print(s, file=sys.stderr))
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} criterion {r.number}: {r.name}"
              + ("" if r.passed else f" -- {r.detail}"))
    if not all(r.passed for r in results):
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="superspecial",
                     description="Supersingular censuses, mass/class-number formulas, "
                                 "and a finite trace-formula sandbox (exact arithmetic)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_census = sub.add_parser("census", help="census at a single prime")
    p_census.add_argument("-p", type=int, required=True)
    p_census.add_argument("--format", choices=("csv", "json"), default="json")
    p_census.add_argument("--cache", default=None)
    p_census.add_argument("-o", "--output", default=None)
    p_census.set_defaults(func=cmd_census)

    p_sweep = sub.add_parser("sweep", help="census sweep over a prime range (CSV)")
    p_sweep.add_argument("--pmin", type=int, required=True)
    p_sweep.add_argument("--pmax", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=0, help="worker processes (0 = auto)")
    p_sweep.add_argument("--cache", default=None)
    p_sweep.add_argument("--timing", action="store_true", help="print timing to stderr")
    p_sweep.add_argument("-o", "--output", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_mass = sub.add_parser("mass", help="mass / class number at (g, p, N)")
    p_mass.add_argument("-g", type=int, required=True)
    p_mass.add_argument("-p", type=int, required=True)
    p_mass.add_argument("-N", type=int, required=True)
    p_mass.add_argument("--nonprincipal", action="store_true")
    p_mass.add_argument("--format", choices=("csv", "json"), default="json")
    p_mass.add_argument("-o", "--output", default=None)
    p_mass.set_defaults(func=cmd_mass)

    p_trace = sub.add_parser("trace-demo", help="trace formula on a finite model")
    p_trace.add_argument("--model", default=None, help="path to a JSON model spec")
    p_trace.add_argument("--trials", type=int, default=None,
                         help="run seeded random models instead of a spec")
    p_trace.add_argument("--seed", type=int, default=42)
    p_trace.add_argument("--family", default=None,
                         help="restrict random trials to one group family")
    p_trace.add_argument("--volume-checks", type=int, default=2,
                         help="volume identity checks per random model")
    p_trace.add_argument("-o", "--output", default=None)
    p_trace.set_defaults(func=cmd_trace_demo)

    p_verify = sub.add_parser("verify", help="run the full acceptance suite")
    p_verify.add_argument("--pmax", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelSpecError, GroupConstructionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvariantViolation, CensusInvariantError, IntegralityError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
