"""Concrete finite groups with exhaustive, table-backed structure computations.

Supported families (the "kind" strings used by model specs and the CLI):

    cyclic:n   Z/n under addition
    sym:n      all permutations of {0..n-1}, elements as image tuples
    gl2:n      invertible 2x2 matrices over Z/n
    gsp2:n     symplectic similitudes of a rank-4 symplectic module over Z/n

Every group is materialized as an element list in a canonical (sorted) order
plus a full Cayley table, so conjugacy classes, centralizers, and coset
partitions are exact enumerations (no character theory, no randomization):
table gathers marked into boolean masks, never sorted.  Subgroups are worked
from their generators (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, 4.1): a subgroup is closed by squaring, S -> S*S = table[S, S],
until S*gens lies in S, one |S| x |gens| gather per round, so no last |S|^2
round is spent confirming closure; and once S has more than n/2 elements
it stops with the whole group, as <gens> contains S, so its order exceeds
n/2 and divides n (Lagrange).  Every conjugation is x -> a^{-1} x a by
`conjugate`, one double gather over the broadcast of x and a; a normalizer
conjugates the subgroup's generators by all of G in one (n x |gens|) gather.
A centralizer compares a table row with a column.
Conjugacy classes are labels, not lists: a class is an orbit under
conjugation by a generating set, and `conjugacy_partition` labels every
element with the least element of its orbit at once, by min-label relaxation
over the generators' conjugations with pointer jumping (the connectivity
scheme of Shiloach and Vishkin, J. Algorithms 3, 1982).  Each group keeps the generators it was built from.

Every sym, gl2 and gsp2 group comes from one closure, `_close`: a
breadth-first search over right multiplication from the identity by a few
generators (sym: the transposition (0 1) and the n-cycle; gl2: E12, E21 and
diag(u, 1); gsp2: `_gsp4_generators`), one (frontier x generators) product
per level, deduplicated by integer key.  It lists the elements, checks their
count against the family's order, and gives the table: only the generators'
rows are products looked up by key, and every other row is one gather,
row(a*g) = row(a)[row(g)], along the search's parent pairs.  Cyclic tables
are one outer sum.

The table approach is capped at 5040 elements; that keeps the quadratic
machinery interactive and comfortably covers every family the randomized
trace harness draws from.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .massform import gsp_order

ORDER_CAP = 5040
# Tables and their indices are int16; so are the cyclic sums, below 2 * ORDER_CAP.
assert 2 * ORDER_CAP <= np.iinfo(np.int16).max
# Entries per temporary array of a (rows x n) row block, 2^20 int16 = 2 MB:
# Group.block_rows rows, for Group.__init__ and the trace sandbox's class blocks.
_BLOCK_ENTRIES = 1 << 20


class GroupConstructionError(ValueError):
    pass


class Group:
    """A finite group on elements 0..n-1 with a dense Cayley table, generated
    by `gens` (by default, all of its elements).  An element's literal, its
    JSON form, is a nested list of `shape` (a plain integer for shape ()),
    with entries read mod `modulus` (as they are when it is None)."""

    def __init__(self, kind: str, elements: list, table: np.ndarray, gens=None,
                 shape: tuple[int, ...] = (), modulus: int | None = None):
        self.kind = kind
        self.shape = shape
        self.modulus = modulus
        self.elements = elements
        self.index = {el: i for i, el in enumerate(elements)}
        self.n = len(elements)
        self.table = table
        self.indices = np.arange(self.n)
        self.gens = self.indices if gens is None else np.asarray(gens, dtype=np.int64)
        # Only a row with table[i, 0] == 0 can be the identity's row, arange(n).
        cands = np.flatnonzero(table[:, 0] == 0)
        ids = cands[np.all(table[cands] == self.indices, axis=1)]
        if len(ids) != 1:
            raise GroupConstructionError(f"{kind}: multiplication table has no identity")
        self.identity = int(ids[0])
        # Rows per block of a (rows, n) temporary, such as this comparison.
        self.block_rows = rows = max(1, _BLOCK_ENTRIES // self.n)
        self.inv = np.empty(self.n, dtype=table.dtype)
        for lo in range(0, self.n, rows):
            self.inv[lo : lo + rows] = np.argmax(table[lo : lo + rows] == self.identity, axis=1)

    # -- scalar ops ---------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        return int(self.inv[i])

    # -- bulk ops -----------------------------------------------------------

    def conjugate(self, x, a) -> np.ndarray:
        """a^{-1} x a, elementwise over the broadcast of x and a."""
        return self.table[self.table[self.inv[a], x], a]

    def mask(self, members) -> np.ndarray:
        """Boolean membership mask of `members` over the elements 0..n-1."""
        mask = np.zeros(self.n, dtype=bool)
        mask[members] = True
        return mask

    def subgroup(self, gens) -> np.ndarray:
        """Sorted element indices of the subgroup generated by gens.

        S starts as {e} and gens and is squared, S -> S*S, until S*gens lies
        in S.  Then S = <gens>: S holds only products of generators, so
        S <= <gens>; and S holds e and is closed under right multiplication by
        each generator, so it holds every product of generators, which in a
        finite group is all of <gens> (an inverse is a positive power).  Once
        S has more than n / 2 elements, <gens> is the whole group: its order
        is at least |S| > n / 2 and divides n (Lagrange), so it is n.  That
        saves the squaring such an S would take, an |S|^2 > n^2 / 4 gather.
        """
        gens = np.asarray(gens, dtype=np.int64)
        mask = self.mask(np.append(gens, self.identity))
        while True:
            cur = mask.nonzero()[0]
            if 2 * len(cur) > self.n:
                return self.indices.copy()  # a fresh array, as callers may freeze it
            if mask[self.table[cur[:, None], gens]].all():
                return cur
            mask[self.table[cur[:, None], cur]] = True

    def conj_vector(self, i: int) -> np.ndarray:
        """Array y with y[x] = x^{-1} i x for every x: a brute-force oracle, kept
        for the tests and perfbench/tracer.py until ROADMAP.md item 1."""
        return self.conjugate(i, self.indices)

    def centralizer(self, i: int, within: np.ndarray | None = None) -> np.ndarray:
        h = self.indices if within is None else within
        return h[self.table[h, i] == self.table[i, h]]

    def normalizer_of(self, sub: np.ndarray, gens) -> np.ndarray:
        """All x with x^{-1} sub x = sub (as a set), where sub = <gens>.

        Only the generators are conjugated: conjugation by x is an
        automorphism, so x^{-1} sub x = <x^{-1} gens x>, which lies in sub once
        every x^{-1} g x does, and then equals it, having the same order.  A
        generator outside sub raises ValueError.
        """
        in_sub = self.mask(sub)
        gens = np.asarray(gens, dtype=np.int64)
        if not in_sub[gens].all():
            raise ValueError(f"{self.kind}: generator {gens[~in_sub[gens]][0]} lies outside sub")
        keep = in_sub[self.conjugate(gens, self.indices[:, None])].all(axis=1)
        return np.flatnonzero(keep).astype(np.int64, copy=False)

    def conjugacy_partition(self, members: np.ndarray, gens) -> np.ndarray:
        """Class labels of the subgroup `members` = <gens> acting on itself by
        conjugation: lab[x] is the least element of the class of x, and -1
        outside `members`.

        Each generator's conjugation x -> g^{-1} x g permutes `members` in
        cycles, so the classes are the connected components of those maps, and
        min-label relaxation (lab[x] <- min(lab[x], lab[g^{-1} x g]) over the
        generators) with pointer jumping (lab <- lab[lab]) reaches the least
        element of each at its fixed point.
        """
        members = np.asarray(members)
        gens = np.asarray(gens, dtype=np.int64)
        images = self.conjugate(members, gens[:, None])
        lab = np.full(self.n, -1, dtype=np.int64)
        lab[members] = members
        while True:
            old = lab[members]
            new = np.minimum(old, lab[images].min(axis=0, initial=self.n))
            lab[members] = new
            new = lab[new]
            lab[members] = new
            if np.array_equal(new, old):
                return lab

    @cached_property
    def class_labels(self) -> np.ndarray:
        """Conjugacy-class labels of the whole group (see conjugacy_partition)."""
        return self.conjugacy_partition(self.indices, self.gens)

    # -- element literals (JSON-facing) --------------------------------------

    def literal(self, i: int):
        return np.reshape(self.elements[i], self.shape).tolist()

    def index_of_literal(self, lit) -> int:
        # An object array keeps each entry's Python type and nests only as deep
        # as lit is rectangular, so a ragged literal has another shape.
        entries = np.array(lit, dtype=object)
        if entries.shape != self.shape:
            raise GroupConstructionError(
                f"{self.kind}: an element literal has shape {list(self.shape)}, not {lit!r}")
        entries = entries.ravel().tolist()
        # JSON integers only: a bool is an int to Python, a float like 1.0 equals one.
        if not all(type(v) is int for v in entries):
            raise GroupConstructionError(
                f"{self.kind}: element entries must be integers, not {lit!r}")
        if self.modulus is not None:
            entries = [v % self.modulus for v in entries]
        idx = self.index.get(tuple(entries) if self.shape else entries[0])
        if idx is None:
            raise GroupConstructionError(f"{self.kind}: {lit!r} is not a group element")
        return idx


def _close(kind: str, n: int, order: int, identity, gens, compose,
           modulus: int | None = None) -> Group:
    """The group generated by gens, listed and tabled by one breadth-first
    search over right multiplication from the identity (see the module notes).

    Elements are integer arrays with entries in [0, n), keyed by radix, and
    compose(A, B) multiplies broadcast stacks of them; literals take the
    identity's shape and `modulus`.  Row(a*g) = row(a)[row(g)], since
    (a*g)*x = a*(g*x), is filled in discovery order, after row(a).
    """
    identity = np.asarray(identity, dtype=np.int64)
    gens = np.asarray(gens, dtype=np.int64).reshape((-1,) + identity.shape)
    radix = n ** np.arange(identity.size - 1, -1, -1, dtype=np.int64)

    def key(x):
        return x.reshape(-1, identity.size) @ radix

    # A flag per key: the key space n^size is at most 7^7 under the order cap.
    seen = np.zeros(n ** identity.size, dtype=bool)
    frontier = identity[None]
    found = [frontier]
    seen[key(frontier)] = True
    # Product i*len(gens) + j of a level is frontier[i] * gens[j]; numbered
    # across levels, it names each element's parent pair.
    sources = [np.zeros(1, dtype=np.int64)]  # the identity's entry is unused
    start = 0  # discovery index of frontier[0]
    while len(frontier):
        prods = compose(frontier[:, None], gens[None]).reshape((-1,) + identity.shape)
        keys, first = np.unique(key(prods), return_index=True)
        fresh = ~seen[keys]
        keys, first = keys[fresh], first[fresh]
        seen[keys] = True
        sources.append(start * len(gens) + first)
        start += len(frontier)
        frontier = prods[first]
        found.append(frontier)
    elements = np.concatenate(found)
    keys = key(elements)
    if len(keys) != order:
        raise GroupConstructionError(
            f"{kind}: generators close to {len(keys)} elements, expected {order}"
        )
    by_key = np.argsort(keys)
    sorted_keys, elements = keys[by_key], elements[by_key]
    rank = np.argsort(by_key)  # discovery index -> position in the sorted list

    def lookup(x):
        k = key(x)
        # Clipped, so that a key above every element's key fails the check below.
        pos = np.minimum(np.searchsorted(sorted_keys, k), order - 1)
        if not np.array_equal(sorted_keys[pos], k):
            raise GroupConstructionError(f"{kind}: product escaped the element set")
        return pos

    table = np.empty((order, order), dtype=np.int16)
    table[rank[0]] = np.arange(order)
    gen_rank = lookup(gens)
    table[gen_rank] = lookup(compose(gens[:, None], elements[None])).reshape(len(gens), order)
    rest = np.ones(order, dtype=bool)  # a mask, as np.setdiff1d imports numpy.ma
    rest[0] = rest[by_key[gen_rank]] = False  # the identity's and generators' rows
    rest = np.flatnonzero(rest)  # discovery indices
    parent_a, parent_g = np.divmod(np.concatenate(sources)[rest], len(gens))
    for c, a, g in zip(rank[rest].tolist(), rank[parent_a].tolist(), gen_rank[parent_g].tolist()):
        table[c] = table[a][table[g]]
    return Group(kind, [tuple(row) for row in elements.reshape(order, -1).tolist()], table,
                 gen_rank, identity.shape, modulus)


def _build_cyclic(n: int) -> Group:
    # In int16 throughout: the sums stay below 2 * ORDER_CAP.
    table = np.add.outer(np.arange(n, dtype=np.int16), np.arange(n, dtype=np.int16))
    table %= n
    return Group(f"cyclic:{n}", list(range(n)), table, [1 % n], (), n)


def _sym_generators(n: int) -> list[tuple]:
    """The n-cycle and, for n >= 2, the transposition (0 1)."""
    cycle = tuple(range(1, n)) + (0,)
    return [cycle] if n < 2 else [(1, 0) + tuple(range(2, n)), cycle]


def _compose_perms(a, b):
    # Convention: (a*b)[k] = b[a[k]], i.e. apply a first, then b.
    return np.take_along_axis(b, a, axis=-1)


def _units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _gl2_generators(n: int) -> list[tuple]:
    """E12 and E21, which generate SL2(Z) and so SL2(Z/n) (SL2(Z) maps onto
    it), and diag(u, 1) for each unit u != 1, which add every determinant."""
    return [(1, 1, 0, 1), (1, 0, 1, 1)] + [(u, 0, 0, 1) for u in _units(n)[1:]]


def _gsp4_generators(n: int) -> list[tuple]:
    """Generators of GSp_4(Z/n): the symplectic rotation, the three upper
    unipotents over a basis of symmetric 2x2 blocks, and scalar similitudes."""
    eye = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    rot = [[0, 0, 1, 0], [0, 0, 0, 1], [n - 1, 0, 0, 0], [0, n - 1, 0, 0]]
    gens = [rot]
    for s in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]):
        m = [row[:] for row in eye]
        for r in range(2):
            for c in range(2):
                m[r][2 + c] = s[r][c]
        gens.append(m)
    for u in _units(n):
        gens.append([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, u, 0], [0, 0, 0, u]])
    return [tuple(v for row in m for v in row) for m in gens]


@lru_cache(maxsize=None)
def group_from_kind(kind: str) -> Group:
    """Parse and build a group from a kind string like "sym:4"."""
    family, sep, n_str = kind.partition(":")
    if not sep or not n_str.isdecimal() or str(int(n_str)) != n_str:
        raise GroupConstructionError(f"malformed group kind {kind!r}; want family:n")
    if family not in ("cyclic", "sym", "gl2", "gsp2"):
        raise GroupConstructionError(f"unknown group family {family!r}")
    n = int(n_str)
    if n < 1:
        raise GroupConstructionError(f"{kind}: n must be at least 1")
    if n < 2 and family in ("gl2", "gsp2"):
        raise GroupConstructionError(f"{kind}: Z/1 is the zero ring; matrix groups need n >= 2")
    # Every family holds an element of order n, so its order is at least n.
    if n > ORDER_CAP:
        raise GroupConstructionError(
            f"{kind} has order at least {n}, beyond the exhaustive-table cap {ORDER_CAP}"
        )
    if family == "cyclic":
        order = n
    elif family == "sym":
        order = math.factorial(n)
    else:
        order = gsp_order(1 if family == "gl2" else 2, n)
    if order > ORDER_CAP:
        raise GroupConstructionError(
            f"{kind} has order {order}, beyond the exhaustive-table cap {ORDER_CAP}"
        )
    if family == "cyclic":
        return _build_cyclic(n)
    if family == "sym":
        return _close(kind, n, order, np.arange(n), _sym_generators(n), _compose_perms)
    size, gens = (2, _gl2_generators(n)) if family == "gl2" else (4, _gsp4_generators(n))
    return _close(kind, n, order, np.eye(size), gens, lambda a, b: (a @ b) % n, n)
