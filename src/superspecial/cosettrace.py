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

Computation: the cosets of K and Gamma are listed once per model, when
`_model` builds it, by `_cosets`, and no trace call lists or labels one.  It
returns the cosets xK, or the right cosets Gamma x, as the rows of an
(n / |S|) x |S| array in ascending order of their least elements: one
(n x |S|) gather while S has fewer than COSET_WALK_MIN_ORDER elements, and
from there on a walk (the orbit algorithm of Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005, 4.1) in which the least
element not yet in a row starts the next row, one |S| gather per row and
O(n) memory, where the gather holds n |S| entries (25M at Gamma = K = S7).
The model keeps row_min[x] = min(xK), each K-coset's least element
scattered over its row (`FiniteGroupModel.k_labels`), and the rows Gamma x
(`FiniteGroupModel.gamma_cosets`).  The kernel side labels each x
min(Gamma x K), the least row_min on Gamma x, as Gamma x K is the union of
the yK, y in Gamma x: one gather of n entries.  It counts the labels r with
label(r pi) = r in one comparison; only `double_cosets` builds the Hecke
map as a dict.  Every per-class size is read
off class labels once per model, when it is built, into its class table
(`FiniteGroupModel.class_table`), which its trivial-K twin shares.  The
Gamma-labels (`Group.conjugacy_partition` over Gamma's generators) give
each class's least element (the members labelled by themselves) and size
(one bincount), and |C_Gamma(gamma)| = |Gamma| / |gamma^Gamma|; the
G-labels (`Group.class_labels`, once per group) give its G-label and
|C_G(gamma)| = n / |gamma^G|.  |C_Gamma(pi)| is the one centralizer taken
within Gamma, as pi may lie outside Gamma; it is stored with the table.
Per call, `_gamma_classes` reads off the table what depends on pi K:
delta_f membership, equality of gamma's and pi's G-labels, and the hit
count #{x in G : x^{-1} gamma x in pi K} = |C_G(gamma)| * #{y in pi K : y
is G-conjugate to gamma}, one bincount over pi K for every class.  Each
class in delta_f is G-conjugate to pi, so its count is n_pi.  A class
without hits has O_gamma = 0, lies in neither delta set, and is skipped.
The others are taken in one pass, in blocks of `Group.block_rows` classes,
the rows that bound any (rows x n) temporary of the group.  Per block:
since pi normalizes K, the hits of gamma are a union of K-cosets xK, so the
K-coset labels a with a^{-1} gamma a in pi K are its support, one (block x
n / |K|) gather; |K| times each class's number of labels must equal its
count.  The centralizers are the rows of table[reps] == table[:, reps]^T,
one (block x n) comparison; |G_gamma| and |G_gamma ∩ K| are row sums.  The
coset form of O_gamma depends on gamma only through G_gamma and the support,
so it is evaluated once per distinct (centralizer row, support row) pair of
the call, keyed by the packed bits of the two rows and remembered across
blocks.  The count, |K| times the number of support labels, is a function
of the key too, and the first class of each key, its least, is the one a
mismatch names.  The double-coset walk (`_coset_walk`) takes the support's
labels in ascending order, and each label not yet covered is the least
element of a new G_gamma a K and covers that double coset's labels
row_min[c a], c in G_gamma, with one |G_gamma| gather.  The two forms of
O_gamma agree exactly when the walked double cosets' sizes
|G_gamma| |K| / |G_gamma ∩ aKa^{-1}| sum to the count, checked in
integers.  When G is abelian every supported class has G_gamma = G and
support G, so all of them share one walk.  Each distinct
pair (a(G_gamma), O_gamma) is built as Fractions once per call, from its
integer numerators and denominators.  The orbital total needs no
centralizer: a(G_gamma) O_gamma = count / (|C_Gamma(gamma)| |K|), so it is
the one Fraction (sum of count * |gamma^Gamma|) / (|Gamma| |K|), summed in
integers.

The volume check counts by orbit-stabilizer on G/K: G_gamma acts on the
K-cosets by left multiplication, the orbit of aK is the L cosets c a K,
c in G_gamma, labelled k_labels[c a] (one |G_gamma| gather), and the
stabilizer of aK is G_gamma ∩ aKa^{-1}, so L |G_gamma ∩ aKa^{-1}| =
|G_gamma| and |G_gamma a K| = |K| L, never listed element by element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .exactnum import frac_dict
from .finitegroup import Group, GroupConstructionError, group_from_kind


# `_cosets` walks the cosets of S (the K-cosets xK, the right cosets Gamma x)
# once |S| >= COSET_WALK_MIN_ORDER, n / |S| steps of one |S| gather each, and
# is one (n x |S|) gather below.  Measured crossover of the coset labellings
# (best of 5-7, 2-vCPU Xeon VM, Python 3.11, numpy 2.4; gather against walk,
# in us, K-cosets then right cosets): gl2:5 |S| = 40 took 33 / 59 against
# 40 / 68, |S| = 48 39 / 73 against 35 / 60; sym:6 |S| = 36 45 / 79 against
# 66 / 117, |S| = 48 57 / 103 against 51 / 88; gl2:7 |S| = 48 359 / 272
# against 144 / 282, |S| = 63 346 / 368 against 113 / 202; sym:7 |S| = 60
# 733 / 854 against 287 / 597.
COSET_WALK_MIN_ORDER = 48


class InvariantViolation(Exception):
    """An exact identity of the model failed; indicates a bug or bad input."""


class ModelSpecError(ValueError):
    """A model specification could not be parsed or validated."""


@dataclass(frozen=True, eq=False)
class FiniteGroupModel:
    """The model (G, Gamma, K, pi) on the element indices of `group`, with
    the data every trace call reads, built once with it.

    `gamma` (the "rational" subgroup) and `k` (the level subgroup) are sorted
    int64 index arrays, and `pi` normalizes K.  `k_labels[x]` = min(xK), the
    least element of the K-coset of x.  `gamma_cosets` holds the right cosets
    Gamma x as the rows of an (n / |Gamma|) x |Gamma| array, in ascending
    order of their least elements (`_cosets`).  `class_table` has a column
    per Gamma-class, in ascending order of its least element, and four rows:
    that least element, its G-class label, |C_Gamma| and |C_G|; `c_gamma_pi`
    is |C_Gamma(pi)|.  The arrays are read-only, and models compare by
    identity.  Only `_model`, which closes and checks the subgroups, lists
    the cosets of K and Gamma and tabulates Gamma's classes, and
    `with_trivial_k` build a model.
    """

    group: Group
    gamma: np.ndarray
    k: np.ndarray
    pi: int
    k_labels: np.ndarray
    gamma_cosets: np.ndarray
    class_table: np.ndarray
    c_gamma_pi: int


def build_model(group: Group, gamma_gens, k_gens, pi: int) -> FiniteGroupModel:
    """Close the generating sets and verify that pi normalizes K."""
    _check_indices(group, (*gamma_gens, *k_gens, pi))
    return _model(group, group.subgroup(gamma_gens), group.subgroup(k_gens), pi, gamma_gens)


def _model(group: Group, gamma: np.ndarray, k: np.ndarray, pi: int,
           gamma_gens) -> FiniteGroupModel:
    """The model on the closed subgroups gamma = <gamma_gens> and k, once pi
    is checked to normalize K, with its K-coset labels and Gamma's class
    table (see the module notes)."""
    # Conjugation is injective, so pi K pi^{-1} = K once it lies in K.
    conj = group.conjugate(k, group.inv[pi])
    escapes = ~group.mask(k)[conj]
    if escapes.any():
        raise ModelSpecError(
            f"pi does not normalize K: conjugate element {conj[escapes.argmax()]} escapes K")
    k_cosets = _cosets(group, k, right=False)
    k_labels = np.empty(group.n, dtype=group.table.dtype)
    k_labels[k_cosets] = k_cosets.min(axis=1)[:, None]
    labels = group.conjugacy_partition(gamma, gamma_gens)[gamma]
    reps = gamma[labels == gamma]  # each class's least element labels it
    glab = group.class_labels
    rep_lab = glab[reps]
    table = np.stack((reps, rep_lab, len(gamma) // np.bincount(labels)[reps],
                      group.n // np.bincount(glab, minlength=group.n)[rep_lab]))
    c_gamma_pi = len(group.centralizer(pi, within=gamma))
    return FiniteGroupModel(group, _read_only(gamma), _read_only(k), pi, _read_only(k_labels),
                            _read_only(_cosets(group, gamma, right=True)),
                            _read_only(table), c_gamma_pi)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_indices(group: Group, indices) -> None:
    for idx in indices:
        if not 0 <= idx < group.n:
            raise ModelSpecError(f"element index {idx} outside group of order {group.n}")


@dataclass(frozen=True)
class DoubleCosetSpace:
    representatives: tuple[int, ...]  # canonical: smallest element of each coset
    rep_of: np.ndarray  # element index -> its coset representative
    hecke_action: dict[int, int]  # rep -> rep, [x] -> [x pi]


def _meet_conjugate(G: Group, cent: np.ndarray, in_k: np.ndarray, a: int) -> int:
    """|cent ∩ a K a^{-1}|, counted as #{c in cent : a^{-1} c a in K}."""
    return int(np.count_nonzero(in_k[G.conjugate(cent, a)]))


def _cosets(G: Group, s: np.ndarray, right: bool) -> np.ndarray:
    """The cosets S x (if right) or x S of the subgroup s, as the rows of an
    (n / |S|) x |S| array in ascending order of their least elements, each
    row in the order of s (see the module notes)."""
    if len(s) < COSET_WALK_MIN_ORDER:
        rows = G.table[s].T if right else G.table[:, s]
        return rows[rows.min(axis=1) == G.indices]
    rows = np.empty((G.n // len(s), len(s)), dtype=G.table.dtype)
    seen = np.zeros(G.n, dtype=bool)
    x = 0
    for row in rows:
        row[:] = G.table[s, x] if right else G.table[x, s]
        seen[row] = True
        x = seen.argmin()
    return rows


def _coset_images(model: FiniteGroupModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rep_of, reps, images): each x's label min(Gamma x K), the ascending
    labels, and the label of each rep times pi.  Gamma x K is the union of
    the yK, y in Gamma x, so its label is the least k_label on Gamma x."""
    G = model.group
    rep_of = np.empty(G.n, dtype=np.int64)
    rep_of[model.gamma_cosets] = model.k_labels[model.gamma_cosets].min(axis=1)[:, None]
    reps = (rep_of == G.indices).nonzero()[0]
    images = rep_of[G.table[reps, model.pi]]
    if not G.mask(images)[reps].all():
        raise InvariantViolation("Hecke translation is not a bijection on cosets")
    return rep_of, reps, images


def _count_fixed(reps: np.ndarray, images: np.ndarray) -> int:
    return int(np.count_nonzero(images == reps))


def double_cosets(model: FiniteGroupModel) -> DoubleCosetSpace:
    """Gamma \\ G / K, each x labelled min(Gamma x K) (see the module notes)."""
    rep_of, reps, images = _coset_images(model)
    return DoubleCosetSpace(tuple(reps.tolist()), rep_of,
                            dict(zip(reps.tolist(), images.tolist())))


def kernel_trace(model: FiniteGroupModel) -> int:
    """Fixed points of [x] -> [x pi] on Gamma \\ G / K (the kernel side)."""
    _, reps, images = _coset_images(model)
    return _count_fixed(reps, images)


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


def _gamma_classes(model: FiniteGroupModel) -> tuple[np.ndarray, ...]:
    """Columns over the Gamma-classes, in ascending order of their least
    elements: (rep, count, meets the G-class of pi, |C_Gamma(rep)|); only the
    counts and the mask depend on pi K (see the module notes)."""
    G = model.group
    reps, rep_lab, c_gamma, c_g = model.class_table
    glab = G.class_labels
    pik_hits = np.bincount(glab[G.table[model.pi, model.k]], minlength=G.n)[rep_lab]
    return reps, c_g * pik_hits, rep_lab == glab[model.pi], c_gamma


def _deltas(classes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    reps, counts, meets, _ = classes
    return tuple(reps[counts > 0].tolist()), tuple(reps[meets].tolist())


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


def _orbital_terms(model: FiniteGroupModel, classes) -> tuple[OrbitalTerm, ...]:
    """a(G_gamma) and O_gamma for every supported Gamma-class, in one pass
    over blocks of classes (see the module notes)."""
    G = model.group
    k_order = len(model.k)
    in_k = G.mask(model.k)
    in_pik = G.mask(G.table[model.pi, model.k])
    row_min = model.k_labels
    labels = (row_min == G.indices).nonzero()[0]
    reps, counts, _, c_gamma = classes
    # A class without hits has O_gamma = 0 and no term (see the module notes).
    supported = counts > 0
    reps, counts, c_gamma = reps[supported], counts[supported], c_gamma[supported]
    terms = []
    walked = set()  # the (centralizer, support) keys already walked and checked
    values = {}  # (a, O) per integer tuple of their numerators and denominators
    step = G.block_rows
    for lo in range(0, len(reps), step):
        block, block_counts = reps[lo : lo + step], counts[lo : lo + step]
        # The support is a union of K-cosets (pi normalizes K): its labels suffice.
        hits = in_pik[G.conjugate(block[:, None], labels)]
        found = hits.sum(axis=1)
        wrong = k_order * found != block_counts
        if wrong.any():
            i = wrong.argmax()
            raise InvariantViolation(
                f"hit count mismatch at class {block[i]}: {found[i]} K-cosets of {k_order} "
                f"elements vs {block_counts[i]} hits")
        cents = G.table[block] == G.table[:, block].T  # row i: the centralizer of block[i]
        keys = np.packbits(np.concatenate((cents, hits), axis=1), axis=1)
        rows = zip(block.tolist(), block_counts.tolist(), c_gamma[lo : lo + step].tolist(),
                   cents.sum(axis=1).tolist(),
                   np.count_nonzero(cents[:, model.k], axis=1).tolist())
        for i, (rep, count, c, cent_order, cent_k) in enumerate(rows):
            key = keys[i].tobytes()
            if key not in walked:
                walked.add(key)
                walk = _coset_walk(G, cents[i].nonzero()[0], in_k, row_min, labels[hits[i]])
                _check_cosets(rep, count, cent_order, cent_k, k_order, walk)
            term = (cent_order, c * cent_k, cent_k * count, cent_order * k_order)
            if term not in values:
                values[term] = Fraction(*term[:2]), Fraction(*term[2:])
            terms.append(OrbitalTerm(rep, *values[term]))
    return tuple(terms)


def _check_cosets(rep: int, count: int, cent_order: int, cent_k: int, k_order: int,
                  walk: list[tuple[int, int]]) -> None:
    """O_gamma by cosets sums |G_gamma ∩ K| / |G_gamma ∩ aKa^{-1}| over the walk; it
    equals the direct form exactly when the double cosets' sizes sum to the count."""
    sizes = [divmod(cent_order * k_order, meet) for _, meet in walk]
    if any(rem for _, rem in sizes) or sum(size for size, _ in sizes) != count:
        o_direct = Fraction(cent_k * count, cent_order * k_order)
        o_cosets = sum((Fraction(cent_k, meet) for _, meet in walk), Fraction(0))
        raise InvariantViolation(
            f"orbital integral mismatch at class {rep}: {o_direct} vs {o_cosets}"
        )


def delta_sets(model: FiniteGroupModel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(delta_K, delta_f) as sorted tuples of Gamma-class representatives."""
    return _deltas(_gamma_classes(model))


def orbital_trace(model: FiniteGroupModel) -> TraceReport:
    """Evaluate the orbital side, check it against the kernel side, and report."""
    _, reps, images = _coset_images(model)
    kernel = _count_fixed(reps, images)
    classes = _gamma_classes(model)
    terms = _orbital_terms(model, classes)
    # a(G_gamma) O_gamma = count / (|C_Gamma(gamma)| |K|) = count |gamma^Gamma| / (|Gamma| |K|).
    _, counts, _, c_gamma = classes
    order = len(model.gamma)
    total = Fraction(int((counts * (order // c_gamma)).sum()), order * len(model.k))
    if total != kernel:
        raise InvariantViolation(
            f"trace formula failed: orbital {total} != kernel {kernel}"
        )
    d_k, d_f = _deltas(classes)
    value, diagnostic = _factored(model, classes, (d_k, d_f), kernel)
    return TraceReport(kernel_trace=kernel,
                       orbital_terms=terms,
                       orbital_trace=total,
                       delta_K=d_k,
                       delta_f=d_f,
                       factored_value=value,
                       factored_diagnostic=diagnostic)


def _factored(model: FiniteGroupModel, classes, deltas,
              kernel: int) -> tuple[Fraction | None, str]:
    d_k, d_f = deltas
    if d_k != d_f:
        extra = [rep for rep in d_k if rep not in d_f]
        return None, (f"level subgroup not small enough: delta_K has classes {extra} "
                      "outside delta_f")
    _, counts, meets, c_gamma = classes
    # Every class in delta_f is G-conjugate to pi, so each has the count n_pi and
    # their counts sum to |delta_f| * n_pi (0 for an empty delta_f).
    c_pi = model.c_gamma_pi  # taken within Gamma when the model was built
    value = Fraction(int(counts[meets].sum()), c_pi * len(model.k))
    if value != kernel:
        sizes = dict(zip(d_f, c_gamma[meets].tolist()))
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
    classes = _gamma_classes(model)
    return _factored(model, classes, _deltas(classes), kernel_trace(model))


def volume_identity_check(model: FiniteGroupModel, gamma: int, a: int) -> bool:
    """Check vol(G_gamma \\ G_gamma a K) = vol(K) / vol(G_gamma ∩ a K a^{-1}).

    Left side from the quotient-measure definition: count the G_gamma-cosets
    inside the set G_gamma a K and weight each by vol(G_gamma ∩ K)/vol(K).
    The set is the union of the L distinct K-cosets c a K, c in G_gamma, so
    it has |K| L elements, and L is the number of distinct labels
    k_labels[c a], one |G_gamma| gather (orbit-stabilizer for G_gamma acting
    on G/K; see the module notes).  Right side from the subgroup volumes
    directly.  Under the model's normalizations the two sides are the
    rationals (|K| L / |G_gamma|) |G_gamma ∩ K| / |K| and
    |G_gamma ∩ K| / |G_gamma ∩ aKa^{-1}|; as |G_gamma ∩ K| >= 1 (it holds the
    identity), they are equal exactly when L |G_gamma ∩ aKa^{-1}| = |G_gamma|,
    which is compared in integers.
    """
    G = model.group
    _check_indices(G, (gamma, a))
    cent = G.centralizer(gamma)
    n_cosets = int(np.count_nonzero(G.mask(model.k_labels[G.table[cent, a]])))
    return n_cosets * _meet_conjugate(G, cent, G.mask(model.k), a) == len(cent)


# ---------------------------------------------------------------------------
# Model specifications (JSON) and report serialization
# ---------------------------------------------------------------------------


def parse_model_spec(text: str) -> FiniteGroupModel:
    """Parse a JSON model spec:

    {"group": "sym:3", "gamma": [<element literals>],
     "k": [<element literals>], "pi": <element literal>}

    Each literal has its element's shape (`Group.literal`): permutations
    are image lists, matrices lists of rows, cyclic elements plain integers.
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
    for key in ("gamma", "k"):
        if not isinstance(data[key], list):
            raise ModelSpecError(
                f'model spec "{key}" must be an array of element literals, not {data[key]!r}')
    try:
        group = group_from_kind(data["group"])
    except GroupConstructionError as exc:
        raise ModelSpecError(str(exc)) from exc
    try:
        gamma_gens = [group.index_of_literal(lit) for lit in data["gamma"]]
        k_gens = [group.index_of_literal(lit) for lit in data["k"]]
        pi = group.index_of_literal(data["pi"])
    except GroupConstructionError as exc:
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


def trial_kinds(family: str) -> tuple[str, ...]:
    """The TRIAL_FAMILIES kinds whose family name, the part before ":", is
    `family`; empty when none is."""
    return tuple(kind for kind in TRIAL_FAMILIES if kind.partition(":")[0] == family)


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
    normalizer = group.normalizer_of(k, k_gens)
    gamma = group.subgroup(gamma_gens)
    if rng.random() < 0.5:
        pool = np.intersect1d(normalizer, gamma, assume_unique=True)
    else:
        pool = normalizer
    pi = int(pool[rng.randrange(len(pool))])
    return _model(group, gamma, k, pi, gamma_gens)


def with_trivial_k(model: FiniteGroupModel) -> FiniteGroupModel:
    """The same model with its level subgroup shrunk to the identity.

    Gamma and pi were checked when model was built, and every pi normalizes
    K = {e}, so nothing is re-closed or re-checked: K is [e], each x is its
    own K-coset label (k_labels = arange(n)), and Gamma's cosets, class
    table and |C_Gamma(pi)|, which do not depend on K, are shared with model.
    """
    G = model.group
    return replace(model, k=_read_only(np.array([G.identity])),
                   k_labels=_read_only(np.arange(G.n, dtype=G.table.dtype)))
