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

    |delta_f| * a(G_pi) * O_pi  =  |delta_f| * n_pi / (|C_Gamma(pi)| |K|),

n_pi = #{x in G : x^{-1} pi x in pi K}, since |G_pi| and |G_pi ∩ K| cancel.

The collapse replaces every class term by the pi-term, which is valid
exactly when all classes in delta_f have the same rational-centralizer size
|C_Gamma(gamma)| as pi (automatic in the arithmetic situation the model
shadows, where conjugations carry rational centralizers to rational
centralizers; NOT automatic for an arbitrary finite model).  Outside that
regime the factored value is reported as absent with a diagnostic naming the
obstruction, so a defined factored value always equals the kernel trace.

Computation: x is labelled row_min[x] = min(xK), the least element of its
K-coset, by one (n x |K|) gather taken once per orbital_trace and shared by
both sides.  The kernel side labels each x min(Gamma x K), the least over
gamma of row_min[gamma x], by one (|Gamma| x n) gather.  The hits of the
Gamma-classes are (classes x n) gathers in row blocks, of which only the rows
of classes with hits are kept; a class without hits has O_gamma = 0 and lies
in neither delta set, so it contributes nothing and is skipped.  For the
others, |C_Gamma(gamma)| is a Gamma-mask counted over the G-centralizer, and
the coset form of O_gamma walks the K-coset labels inside
the support in ascending order: each label not yet covered is the least
element of a new G_gamma a K and covers that double coset's labels
row_min[c a], c in G_gamma, with one |G_gamma| gather.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .exactnum import frac_dict
from .finitegroup import _BLOCK_ENTRIES, Group, GroupConstructionError, group_from_kind


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
    _check_indices(group, (*gamma_gens, *k_gens, pi))
    gamma = group.subgroup(gamma_gens)
    k = group.subgroup(k_gens)
    # Conjugation is injective, so pi K pi^{-1} = K once it lies in K.
    conj = group.table[group.table[pi, k], group.inv[pi]]
    escapes = ~_mask(group.n, k)[conj]
    if escapes.any():
        raise ModelSpecError(
            f"pi does not normalize K: conjugate element {conj[escapes.argmax()]} escapes K")
    return FiniteGroupModel(group, tuple(gamma.tolist()), tuple(k.tolist()), pi)


def _check_indices(group: Group, indices) -> None:
    for idx in indices:
        if not 0 <= idx < group.n:
            raise ModelSpecError(f"element index {idx} outside group of order {group.n}")


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


def _k_labels(model: FiniteGroupModel) -> np.ndarray:
    """row_min[x] = min(xK), the label of the K-coset of x."""
    return model.group.table.take(np.array(model.k), axis=1).min(axis=1)


def _double_cosets(model: FiniteGroupModel, row_min: np.ndarray) -> DoubleCosetSpace:
    G = model.group
    rep_of = row_min[G.table[np.array(model.gamma)]].min(axis=0).astype(np.int64)
    reps = (rep_of == G.indices).nonzero()[0]
    images = rep_of[G.table[reps, model.pi]]
    if not _mask(G.n, images)[reps].all():
        raise InvariantViolation("Hecke translation is not a bijection on cosets")
    return DoubleCosetSpace(tuple(reps.tolist()), rep_of,
                            dict(zip(reps.tolist(), images.tolist())))


def double_cosets(model: FiniteGroupModel) -> DoubleCosetSpace:
    """Gamma \\ G / K, each x labelled min(Gamma x K) (see the module notes)."""
    return _double_cosets(model, _k_labels(model))


def _kernel_trace(space: DoubleCosetSpace) -> int:
    return sum(1 for r, s in space.hecke_action.items() if r == s)


def kernel_trace(model: FiniteGroupModel) -> int:
    """Fixed points of [x] -> [x pi] on Gamma \\ G / K (the kernel side)."""
    return _kernel_trace(double_cosets(model))


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
    hits: np.ndarray | None  # hits[x]: x^{-1} rep x lies in pi K; None without hits
    count: int  # number of hits
    meets_pi_class: bool  # rep is G-conjugate to pi


def _gamma_classes(model: FiniteGroupModel) -> list[_GammaClass]:
    """The Gamma-classes; row j of a block's gather holds x^{-1} rep_j x for every x."""
    G = model.group
    in_pik = _mask(G.n, G.table[model.pi, np.array(model.k)])
    in_pi_class = _mask(G.n, G.conj_class(model.pi))
    reps = np.array([int(cls[0]) for cls in G.conjugacy_partition(np.array(model.gamma))])
    classes = []
    # Row blocks bound the (rows, n) gathers, as in finitegroup.
    rows = max(1, _BLOCK_ENTRIES // G.n)
    for lo in range(0, len(reps), rows):
        block = reps[lo : lo + rows]
        hits = in_pik[G.table[G.table[G.inv, block[:, None]], G.indices]]
        counts = np.count_nonzero(hits, axis=1)
        kept = iter(hits[counts > 0])
        classes += [_GammaClass(rep, next(kept) if count else None, count, bool(in_pi_class[rep]))
                    for rep, count in zip(block.tolist(), counts.tolist())]
    return classes


def _deltas(classes: list[_GammaClass]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (tuple(sorted(c.rep for c in classes if c.count)),
            tuple(sorted(c.rep for c in classes if c.meets_pi_class)))


def _coset_walk(G: Group, cent: np.ndarray, in_k: np.ndarray, row_min: np.ndarray,
                starts: np.ndarray) -> list[tuple[int, int]]:
    """The double cosets G_gamma a K that meet the ascending K-coset labels
    `starts`, as (a, |G_gamma ∩ aKa^{-1}|) with a the least element of each."""
    covered = np.zeros(G.n, dtype=bool)
    walk = []
    for a in starts.tolist():
        if not covered[a]:
            covered[row_min[G.table[cent, a]]] = True  # the labels of c a K, c in G_gamma
            walk.append((a, _meet_conjugate(G, cent, in_k, a)))
    return walk


def _orbital_by_cosets(G: Group, cent: np.ndarray, in_k: np.ndarray, row_min: np.ndarray,
                       starts: np.ndarray, cent_k: int) -> Fraction:
    """O_gamma in coset-decomposed form: decompose the support E, given by the
    labels `starts` of its K-cosets, into G_gamma \\ E / K double cosets and sum
    vol(G_gamma ∩ aKa^{-1})^{-1} over them (see the module notes)."""
    return sum((Fraction(cent_k, meet) for _, meet in _coset_walk(G, cent, in_k, row_min, starts)),
               Fraction(0))


def _orbital_term(model: FiniteGroupModel, in_gamma: np.ndarray, in_k: np.ndarray,
                  row_min: np.ndarray, starts: np.ndarray, cls: _GammaClass) -> OrbitalTerm:
    """a(G_gamma) and O_gamma for one Gamma-class with support."""
    G = model.group
    cent = G.centralizer(cls.rep)
    cent_k = int(np.count_nonzero(in_k[cent]))
    a_val = Fraction(len(cent), int(np.count_nonzero(in_gamma[cent])) * cent_k)
    o_direct = Fraction(cent_k * cls.count, len(cent) * len(model.k))
    o_cosets = _orbital_by_cosets(G, cent, in_k, row_min, starts, cent_k)
    if o_cosets != o_direct:
        raise InvariantViolation(
            f"orbital integral mismatch at class {cls.rep}: {o_direct} vs {o_cosets}"
        )
    return OrbitalTerm(cls.rep, a_val, o_direct)


def delta_sets(model: FiniteGroupModel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(delta_K, delta_f) as sorted tuples of Gamma-class representatives."""
    return _deltas(_gamma_classes(model))


def orbital_trace(model: FiniteGroupModel) -> TraceReport:
    """Evaluate the orbital side, check it against the kernel side, and report."""
    G = model.group
    in_gamma = _mask(G.n, np.array(model.gamma))
    in_k = _mask(G.n, np.array(model.k))
    row_min = _k_labels(model)
    # The kernel side first: its (|Gamma| x n) gather is then freed before the
    # classes' hit rows are built.
    kernel = _kernel_trace(_double_cosets(model, row_min))
    labels = (row_min == G.indices).nonzero()[0]
    classes = _gamma_classes(model)
    # A class without hits has O_gamma = 0 and no term (see the module notes).
    terms = tuple(_orbital_term(model, in_gamma, in_k, row_min, labels[cls.hits[labels]], cls)
                  for cls in classes if cls.count)
    total = sum((t.a_value * t.orbital_integral for t in terms), Fraction(0))
    if total != kernel:
        raise InvariantViolation(
            f"trace formula failed: orbital {total} != kernel {kernel}"
        )
    d_k, d_f = _deltas(classes)
    value, diagnostic = _factored(model, d_k, d_f, kernel)
    return TraceReport(kernel_trace=kernel,
                       orbital_terms=terms,
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
    in_pik = _mask(G.n, G.table[model.pi, np.array(model.k)])
    n_pi = int(np.count_nonzero(in_pik[G.conj_vector(model.pi)]))
    c_pi = len(G.centralizer(model.pi, within=gam))
    value = Fraction(len(d_f) * n_pi, c_pi * len(model.k))
    if value != kernel:
        sizes = {rep: len(G.centralizer(rep, within=gam)) for rep in d_f}
        return None, (
            "term collapse invalid for this model: rational-centralizer sizes "
            f"{sizes} across delta_f are not all equal to |C_Gamma(pi)| = "
            f"{c_pi}, so the common-term factorization does not apply"
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
    _check_indices(G, (gamma, a))
    k = np.array(model.k)
    in_k = _mask(G.n, k)
    cent = G.centralizer(gamma)
    cent_k = int(np.count_nonzero(in_k[cent]))

    orbit = _mask(G.n, G.table[cent[:, None], G.table[a, k]])
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
    if not isinstance(data["group"], str):
        raise ModelSpecError(
            f'model spec "group" must be a string like "sym:3", not {data["group"]!r}'
        )
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
    """The same model with its level subgroup shrunk to the identity.

    Gamma and pi were checked when model was built, and every pi normalizes
    K = {e}, so nothing is re-closed or re-checked.
    """
    return replace(model, k=(model.group.identity,))
