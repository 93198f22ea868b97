"""Finite-model trace formula on double cosets Gamma \\ G / K.

The model: a finite group G, subgroups Gamma (the "rational" points) and K
(the level subgroup), and an element pi normalizing K.  The Hecke translation
is [x] -> [x pi] on the double-coset space.  Counting measure is normalized so
that vol(K) = 1 on G and vol(G_gamma ∩ K) = 1 on every centralizer G_gamma;
with those normalizations the two sides of the trace formula are exact
rational identities:

  kernel side    tr R(pi) = #{Gamma x K : Gamma x pi K = Gamma x K}

  orbital side   tr R(pi) = sum over Gamma-conjugacy classes gamma of
                     a(G_gamma) * O_gamma,  where
                     a(G_gamma) = |G_gamma| / (|Gamma_gamma| |G_gamma ∩ K|)
                     O_gamma    = |G_gamma ∩ K| / (|G_gamma| |K|)
                                  * #{x in G : x^{-1} gamma x in pi K}.

The orbital integral is additionally re-evaluated in its coset-decomposed
form  O_gamma = sum over G_gamma \\ E_gamma / K  of
vol(G_gamma ∩ a K a^{-1})^{-1}, and the two evaluations are required to
agree; any mismatch is an implementation bug and raises InvariantViolation.

Delta sets:  delta_K = classes of Gamma meeting some conjugate of pi K,
delta_f = classes of Gamma that are G-conjugate to pi; always
delta_f ⊆ delta_K, with equality once K is small enough (K trivial in
particular).  When delta_K = delta_f, every orbital term belongs to the
G-conjugacy class of pi and the sum may collapse to the factored form

    |delta_f| * a(G_pi) * O_pi.

The collapse replaces every class term by the pi-term, which is valid
exactly when all classes in delta_f have the same rational-centralizer size
|C_Gamma(gamma)| as pi (automatic in the arithmetic situation the model
shadows, where conjugations carry rational centralizers to rational
centralizers; NOT automatic for an arbitrary finite model).  Outside that
regime the factored value is reported as absent with a diagnostic naming the
obstruction, so a defined factored value always equals the kernel trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import frac_dict
from .finitegroup import Group, GroupConstructionError, group_from_kind


class InvariantViolation(Exception):
    """An exact identity of the model failed; indicates a bug or bad input."""


class ModelSpecError(ValueError):
    """A model specification could not be parsed or validated."""


@dataclass(frozen=True)
class FiniteGroupModel:
    group: Group
    gamma: tuple[int, ...]  # sorted subgroup of "rational" elements
    k: tuple[int, ...]  # sorted level subgroup
    pi: int


def build_model(group: Group, gamma_gens, k_gens, pi: int) -> FiniteGroupModel:
    """Close the generating sets and verify that pi normalizes K."""
    n = group.n
    for idx in (*gamma_gens, *k_gens, pi):
        if not 0 <= idx < n:
            raise ModelSpecError(f"element index {idx} outside group of order {n}")
    gamma = group.subgroup(gamma_gens)
    k = group.subgroup(k_gens)
    conj = np.unique(group.table[group.table[pi, k], group.inv[pi]])
    if not np.array_equal(conj, k):
        bad = next(int(x) for x in group.table[group.table[pi, k], group.inv[pi]]
                   if int(x) not in set(map(int, k)))
        raise ModelSpecError(
            f"pi does not normalize K: conjugate element {bad} escapes K"
        )
    return FiniteGroupModel(group=group,
                            gamma=tuple(map(int, gamma)),
                            k=tuple(map(int, k)),
                            pi=pi)


@dataclass(frozen=True)
class DoubleCosetSpace:
    representatives: tuple[int, ...]  # canonical: smallest element of each coset
    rep_of: np.ndarray  # element index -> its coset representative
    hecke_action: dict[int, int]  # rep -> rep, [x] -> [x pi]


def _mask(n: int, members) -> np.ndarray:
    """Boolean membership mask over the element indices 0..n-1."""
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    return mask


def _meet_conjugate(G: Group, cent: np.ndarray, in_k: np.ndarray, a: int) -> int:
    """|cent ∩ a K a^{-1}|, counted as #{c in cent : a^{-1} c a in K}."""
    return int(np.count_nonzero(in_k[G.table[G.table[G.inv[a], cent], a]]))


def double_cosets(model: FiniteGroupModel) -> DoubleCosetSpace:
    G = model.group
    gam = np.array(model.gamma)
    k = np.array(model.k)
    rep_of = np.full(G.n, -1, dtype=np.int64)
    reps = []
    for x in range(G.n):
        if rep_of[x] >= 0:
            continue
        # x is minimal: smaller indices already covered
        rep_of[G.table[np.ix_(gam, G.table[x, k])]] = x
        reps.append(x)
    hecke = {r: int(rep_of[G.table[r, model.pi]]) for r in reps}
    if sorted(hecke.values()) != sorted(reps):
        raise InvariantViolation("Hecke translation is not a bijection on cosets")
    return DoubleCosetSpace(tuple(reps), rep_of, hecke)


def kernel_trace(model: FiniteGroupModel) -> int:
    """Fixed points of [x] -> [x pi] on Gamma \\ G / K (the kernel side)."""
    space = double_cosets(model)
    return sum(1 for r, s in space.hecke_action.items() if r == s)


@dataclass(frozen=True)
class OrbitalTerm:
    gamma_rep: int
    a_value: Fraction
    orbital_integral: Fraction


@dataclass(frozen=True)
class TraceReport:
    kernel_trace: int
    orbital_terms: tuple[OrbitalTerm, ...]
    orbital_trace: Fraction
    delta_K: tuple[int, ...]
    delta_f: tuple[int, ...]
    factored_value: Fraction | None
    factored_diagnostic: str = ""


@dataclass(frozen=True)
class _GammaClass:
    rep: int  # smallest element of the Gamma-conjugacy class
    hits: np.ndarray  # hits[x]: x^{-1} rep x lies in pi K
    count: int  # number of hits
    meets_pi_class: bool  # rep is G-conjugate to pi


def _gamma_classes(model: FiniteGroupModel) -> list[_GammaClass]:
    """One walk over the Gamma-conjugacy classes, one conj_vector per class."""
    G = model.group
    in_pik = _mask(G.n, G.table[model.pi, np.array(model.k)])
    in_pi_class = _mask(G.n, G.conj_class(model.pi))
    classes = []
    for cls in G.conjugacy_partition(np.array(model.gamma)):
        rep = int(cls[0])
        hits = in_pik[G.conj_vector(rep)]  # conj_vector(rep)[x] = x^{-1} rep x
        classes.append(_GammaClass(rep, hits, int(np.count_nonzero(hits)),
                                   bool(in_pi_class[rep])))
    return classes


def _deltas(classes: list[_GammaClass]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (tuple(sorted(c.rep for c in classes if c.count)),
            tuple(sorted(c.rep for c in classes if c.meets_pi_class)))


def _orbital_by_cosets(G: Group, cent: np.ndarray, k: np.ndarray, in_k: np.ndarray,
                       hits: np.ndarray, cent_k: int) -> Fraction:
    """O_gamma in coset-decomposed form: decompose the support E into
    G_gamma \\ E / K double cosets and sum vol(G_gamma ∩ aKa^{-1})^{-1}."""
    remaining = hits.copy()
    total = Fraction(0)
    while remaining.any():
        a = int(np.argmax(remaining))
        remaining[G.table[np.ix_(cent, G.table[a, k])]] = False
        total += Fraction(cent_k, _meet_conjugate(G, cent, in_k, a))
    return total


def _orbital_for_class(G: Group, gam: np.ndarray, k: np.ndarray, in_k: np.ndarray,
                       cls: _GammaClass) -> tuple[Fraction, Fraction]:
    """(a(G_gamma), O_gamma) for one Gamma-class."""
    cent = G.centralizer(cls.rep)
    cent_gamma = G.centralizer(cls.rep, within=gam)
    cent_k = int(np.count_nonzero(in_k[cent]))

    a_val = Fraction(len(cent), len(cent_gamma) * cent_k)
    o_direct = Fraction(cent_k, len(cent) * len(k)) * cls.count

    o_cosets = _orbital_by_cosets(G, cent, k, in_k, cls.hits, cent_k)
    if o_cosets != o_direct:
        raise InvariantViolation(
            f"orbital integral mismatch at class {cls.rep}: {o_direct} vs {o_cosets}"
        )
    return a_val, o_direct


def delta_sets(model: FiniteGroupModel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(delta_K, delta_f) as sorted tuples of Gamma-class representatives."""
    return _deltas(_gamma_classes(model))


def orbital_trace(model: FiniteGroupModel) -> TraceReport:
    """Evaluate the orbital side, check it against the kernel side, and report."""
    G = model.group
    gam = np.array(model.gamma)
    k = np.array(model.k)
    in_k = _mask(G.n, k)
    classes = _gamma_classes(model)
    terms = []
    total = Fraction(0)
    for cls in classes:
        a_val, o_val = _orbital_for_class(G, gam, k, in_k, cls)
        if o_val != 0:
            terms.append(OrbitalTerm(cls.rep, a_val, o_val))
        total += a_val * o_val
    kernel = kernel_trace(model)
    if total != kernel:
        raise InvariantViolation(
            f"trace formula failed: orbital {total} != kernel {kernel}"
        )
    d_k, d_f = _deltas(classes)
    value, diagnostic = _factored(model, d_k, d_f, kernel)
    return TraceReport(kernel_trace=kernel,
                       orbital_terms=tuple(terms),
                       orbital_trace=total,
                       delta_K=d_k,
                       delta_f=d_f,
                       factored_value=value,
                       factored_diagnostic=diagnostic)


def _factored(model, d_k, d_f, kernel) -> tuple[Fraction | None, str]:
    if d_k != d_f:
        extra = [rep for rep in d_k if rep not in d_f]
        return None, (f"level subgroup not small enough: delta_K has classes {extra} "
                      "outside delta_f")
    G = model.group
    gam = np.array(model.gamma)
    k = np.array(model.k)
    in_k = _mask(G.n, k)
    cent_pi = G.centralizer(model.pi)
    cent_pi_gamma = G.centralizer(model.pi, within=gam)
    cent_pi_k = int(np.count_nonzero(in_k[cent_pi]))
    in_pik = _mask(G.n, G.table[model.pi, k])
    n_pi = int(np.count_nonzero(in_pik[G.conj_vector(model.pi)]))
    a_pi = Fraction(len(cent_pi), len(cent_pi_gamma) * cent_pi_k)
    o_pi = Fraction(cent_pi_k, len(cent_pi) * len(k)) * n_pi
    value = len(d_f) * a_pi * o_pi
    if value != kernel:
        sizes = {rep: len(G.centralizer(rep, within=gam)) for rep in d_f}
        return None, (
            "term collapse invalid for this model: rational-centralizer sizes "
            f"{sizes} across delta_f are not all equal to |C_Gamma(pi)| = "
            f"{len(cent_pi_gamma)}, so the common-term factorization does not apply"
        )
    return value, ""


def factored_trace(model: FiniteGroupModel) -> tuple[Fraction | None, str]:
    """The factored form |delta_f| * a(G_pi) * O_pi, or (None, why-not).

    Defined exactly when delta_K = delta_f and the per-class terms collapse
    to the pi-term; a returned value always equals the kernel trace.
    """
    kernel = kernel_trace(model)
    d_k, d_f = delta_sets(model)
    return _factored(model, d_k, d_f, kernel)


def volume_identity_check(model: FiniteGroupModel, gamma: int, a: int) -> bool:
    """Check vol(G_gamma \\ G_gamma a K) = vol(K) / vol(G_gamma ∩ a K a^{-1}).

    Left side from the quotient-measure definition: count the G_gamma-cosets
    inside the set G_gamma a K and weight each by vol(G_gamma ∩ K)/vol(K).
    Right side from the subgroup volumes directly.  Both sides are exact
    rationals under the model's normalizations.
    """
    G = model.group
    k = np.array(model.k)
    in_k = _mask(G.n, k)
    cent = G.centralizer(gamma)
    cent_k = int(np.count_nonzero(in_k[cent]))

    orbit = _mask(G.n, G.table[np.ix_(cent, G.table[a, k])])
    n_cosets = int(np.count_nonzero(orbit)) // len(cent)
    lhs = Fraction(n_cosets) * Fraction(cent_k, len(k))

    rhs = Fraction(cent_k, _meet_conjugate(G, cent, in_k, a))
    return lhs == rhs


def involution_census(points, inv) -> tuple[int, int, int]:
    """Counts (H, F, T) = (points, fixed points, orbits) of an involution.

    Verifies inv is genuinely an involution, and the Burnside-style identity
    F = 2T - H before returning.
    """
    pts = list(points)
    h = len(pts)
    fixed = 0
    seen = set()
    orbits = 0
    for x in pts:
        y = inv(x)
        if inv(y) != x:
            raise ValueError(f"map is not an involution at {x!r}")
        if x == y:
            fixed += 1
        if x in seen:
            continue
        seen.add(x)
        seen.add(y)
        orbits += 1
    if fixed != 2 * orbits - h:
        raise InvariantViolation("involution census failed F = 2T - H")
    return h, fixed, orbits


# ---------------------------------------------------------------------------
# Model specifications (JSON) and report serialization
# ---------------------------------------------------------------------------


def parse_model_spec(text: str) -> FiniteGroupModel:
    """Parse a JSON model spec:

    {"group": "sym:3", "gamma": [<element literals>],
     "k": [<element literals>], "pi": <element literal>}

    Permutations are image lists, matrix entries row lists, cyclic elements
    plain integers.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSpecError(
            f"model spec is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ModelSpecError("model spec must be a JSON object")
    missing = {"group", "gamma", "k", "pi"} - set(data)
    if missing:
        raise ModelSpecError(f"model spec missing keys: {sorted(missing)}")
    try:
        group = group_from_kind(data["group"])
    except GroupConstructionError as exc:
        raise ModelSpecError(str(exc)) from exc
    try:
        gamma_gens = [group.index_of_literal(lit) for lit in data["gamma"]]
        k_gens = [group.index_of_literal(lit) for lit in data["k"]]
        pi = group.index_of_literal(data["pi"])
    except (GroupConstructionError, TypeError) as exc:
        raise ModelSpecError(str(exc)) from exc
    return build_model(group, gamma_gens, k_gens, pi)


def report_to_dict(model: FiniteGroupModel, report: TraceReport) -> dict:
    G = model.group
    return {
        "group": G.kind,
        "order": G.n,
        "gamma_order": len(model.gamma),
        "k_order": len(model.k),
        "pi": G.literal(model.pi),
        "kernel_trace": report.kernel_trace,
        "orbital_trace": frac_dict(report.orbital_trace),
        "orbital_terms": [
            {
                "gamma": G.literal(t.gamma_rep),
                "a": frac_dict(t.a_value),
                "orbital_integral": frac_dict(t.orbital_integral),
            }
            for t in report.orbital_terms
        ],
        "delta_K": [G.literal(r) for r in report.delta_K],
        "delta_f": [G.literal(r) for r in report.delta_f],
        "factored_value": None if report.factored_value is None
        else frac_dict(report.factored_value),
        "factored_diagnostic": report.factored_diagnostic,
    }


# ---------------------------------------------------------------------------
# Randomized model harness (seeded, deterministic)
# ---------------------------------------------------------------------------

TRIAL_FAMILIES = tuple(
    [f"cyclic:{n}" for n in range(2, 25)]
    + [f"sym:{n}" for n in range(2, 7)]
    + [f"gl2:{n}" for n in range(2, 6)]
)


def random_model(rng, families=TRIAL_FAMILIES) -> FiniteGroupModel:
    """Draw a random model: random subgroups and a K-normalizing pi.

    pi is taken from Gamma ∩ N_G(K) half the time (mirroring the arithmetic
    situation, where the translating element is rational) and from the full
    normalizer otherwise.
    """
    group = group_from_kind(rng.choice(families))
    gamma_gens = [rng.randrange(group.n) for _ in range(rng.choice((1, 2)))]
    if rng.random() < 0.25:
        k_gens = []
    else:
        k_gens = [rng.randrange(group.n) for _ in range(rng.choice((1, 2)))]
    k = group.subgroup(k_gens)
    normalizer = group.normalizer_of(k)
    gamma = group.subgroup(gamma_gens)
    if rng.random() < 0.5:
        pool = np.intersect1d(normalizer, gamma, assume_unique=True)
    else:
        pool = normalizer
    pi = int(pool[rng.randrange(len(pool))])
    return build_model(group, gamma_gens, k_gens, pi)


def with_trivial_k(model: FiniteGroupModel) -> FiniteGroupModel:
    """The same model with its level subgroup shrunk to the identity."""
    return build_model(model.group, model.gamma, [], model.pi)
