"""Output checks written independently of the program under test.

None of these functions imports ``superspecial``: each recomputes a published
quantity from first principles so that a wrong program output can fail it.

* Sweep rows: ``H = p//12 + eps(p mod 12)``; ``F`` against Delfs-Galbraith
  (``h(-4p)/2`` if p = 1 mod 4, ``h(-p)`` if p = 7 mod 8, ``2h(-p)`` if
  p = 3 mod 8) with ``h(D)`` from a reduced-binary-form count;
  ``T = (H + F)/2``; ``mass = (p - 1)/24``; ``checks`` is ``true``.
* Trace models: the fixed-point count of ``[x] -> [x pi]`` on
  ``Gamma \\ G / K``, as the sum of ``1/|Gamma x K|`` over the x with
  ``x pi`` in ``Gamma x K``, straight from the Cayley table.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

CSV_HEADER = "p,H,F,T,mass_num,mass_den,checks"


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def class_number(D: int) -> int:
    """h(D) for a negative discriminant: the number of reduced primitive forms
    (a, b, c) with b^2 - 4ac = D, |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"not a negative discriminant: {D}")
    h = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                h += 1
        a += 1
    return h


def expected_H(p: int) -> int:
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


@lru_cache(maxsize=None)
def expected_F(p: int) -> int:
    """Number of F_p-rational supersingular j-invariants (Delfs-Galbraith)."""
    if p % 4 == 1:
        return class_number(-4 * p) // 2
    if p % 8 == 7:
        return class_number(-p)
    return 2 * class_number(-p)


def check_sweep_csv(text: str, primes: list[int]) -> list[str]:
    """One message per wrong or missing row of a ``sweep`` CSV; [] when all hold."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        return ["missing or wrong CSV header"]
    rows = lines[1:]
    errors = []
    if len(rows) != len(primes):
        errors.append(f"{len(rows)} rows for {len(primes)} primes")
    for p, row in zip(primes, rows):
        fields = row.split(",")
        if len(fields) != 7 or fields[0] != str(p):
            errors.append(f"p={p}: malformed row {row!r}")
            continue
        try:
            H, F, T, num, den = map(int, fields[1:6])
        except ValueError:
            errors.append(f"p={p}: non-integer field in {row!r}")
            continue
        want_H, want_F = expected_H(p), expected_F(p)
        mass = Fraction(p - 1, 24)
        problems = []
        if H != want_H:
            problems.append(f"H={H}, expected {want_H}")
        if F != want_F:
            problems.append(f"F={F}, expected {want_F}")
        if 2 * T != want_H + want_F:
            problems.append(f"T={T}, expected {(want_H + want_F) // 2}")
        if (num, den) != (mass.numerator, mass.denominator):
            problems.append(f"mass {num}/{den}, expected {mass}")
        if fields[6] != "true":
            problems.append(f"checks={fields[6]}")
        if problems:
            errors.append(f"p={p}: " + "; ".join(problems))
    return errors


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def sorted_lines_digest(text: str) -> str:
    """Digest of a census cache independent of the order its lines were appended in."""
    return sha256("\n".join(sorted(line for line in text.splitlines() if line.strip())))


def kernel_count(table: np.ndarray, gamma, k, pi: int) -> Fraction:
    """#{Gamma x K : Gamma x pi K = Gamma x K}, summed as 1/|Gamma x K| over elements.

    ``k=None`` stands for the trivial level subgroup.

    x pi lies in Gamma x K iff x^{-1} Gamma x meets pi K, and
    |Gamma x K| = |Gamma| |K| / |Gamma ∩ x K x^{-1}|.
    """
    table = np.asarray(table, dtype=np.int64)
    n = len(table)
    identity = int(np.nonzero((table == np.arange(n)).all(axis=1))[0][0])
    inv = np.argmax(table == identity, axis=1)
    gam = np.asarray(gamma, dtype=np.int64)
    kk = np.asarray([identity] if k is None else k, dtype=np.int64)
    xs = np.arange(n)
    in_gamma = np.zeros(n, dtype=bool)
    in_gamma[gam] = True
    in_pik = np.zeros(n, dtype=bool)
    in_pik[table[pi, kk]] = True
    gamma_conj = table[table[inv[:, None], gam[None, :]], xs[:, None]]  # x^-1 g x
    hits = in_pik[gamma_conj].any(axis=1)
    k_conj = table[table[xs[:, None], kk[None, :]], inv[:, None]]  # x k x^-1
    stab = in_gamma[k_conj].sum(axis=1)
    total = Fraction(0)
    for x in np.nonzero(hits)[0]:
        total += Fraction(int(stab[x]), len(gam) * len(kk))
    return total
