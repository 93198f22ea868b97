"""Concrete finite groups with exhaustive, table-backed structure computations.

Supported families (the "kind" strings used by model specs and the CLI):

    cyclic:n   Z/n under addition
    sym:n      all permutations of {0..n-1}, elements as image tuples
    gl2:n      invertible 2x2 matrices over Z/n
    gsp2:n     symplectic similitudes of a rank-4 symplectic module over Z/n

Every group is materialized as an element list in a canonical (sorted) order
plus a full Cayley table, so conjugacy classes, centralizers, and coset
partitions are exact enumerations (no character theory, no randomization).

Tables are built from a few generators (sym: the transposition (0 1) and the
n-cycle; gl2: E12, E21 and diag(u, 1); gsp2: `_gsp4_generators`).  Only the
generators' rows are computed as products and looked up by integer key; every
other row is one gather, row(a*g) = row(a)[row(g)], reached by a
breadth-first search over right multiplication.  The gsp2 element set itself
is the closure of its generators, one (frontier x generators) matrix product
per level.  Cyclic tables are one outer sum.

The table approach is capped at 5040 elements; that keeps the quadratic
machinery interactive and comfortably covers every family the randomized
trace harness draws from.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .massform import gsp_order

ORDER_CAP = 5040
# Entries per temporary index array in normalizer_of's row blocks (2^20 int16 = 2 MB).
_BLOCK_ENTRIES = 1 << 20


class GroupConstructionError(ValueError):
    pass


class Group:
    """A finite group on elements 0..n-1 with a dense Cayley table."""

    def __init__(self, kind: str, elements: list, table: np.ndarray):
        self.kind = kind
        self.elements = elements
        self.index = {el: i for i, el in enumerate(elements)}
        self.n = len(elements)
        self.table = table
        eye_mask = np.all(table == np.arange(self.n), axis=1)
        ids = np.nonzero(eye_mask)[0]
        if len(ids) != 1:
            raise GroupConstructionError(f"{kind}: multiplication table has no identity")
        self.identity = int(ids[0])
        self.inv = np.argmax(table == self.identity, axis=1).astype(table.dtype)

    # -- scalar ops ---------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        return int(self.inv[i])

    # -- bulk ops -----------------------------------------------------------

    def subgroup(self, gens) -> np.ndarray:
        """Sorted element indices of the subgroup generated by gens."""
        cur = np.unique(np.array(list(gens) + [self.identity], dtype=np.int64))
        while True:
            nxt = np.unique(self.table[np.ix_(cur, cur)])
            if len(nxt) == len(cur):
                return nxt
            cur = nxt

    def conj_class(self, i: int, within: np.ndarray | None = None) -> np.ndarray:
        """Sorted orbit {h^{-1} i h : h in within} (default: the whole group)."""
        h = np.arange(self.n) if within is None else within
        return np.unique(self.table[self.table[self.inv[h], i], h])

    def conj_vector(self, i: int) -> np.ndarray:
        """Array y with y[x] = x^{-1} i x for every x in the group."""
        xs = np.arange(self.n)
        return self.table[self.table[self.inv, i], xs]

    def centralizer(self, i: int, within: np.ndarray | None = None) -> np.ndarray:
        h = np.arange(self.n) if within is None else within
        return h[self.table[h, i] == self.table[i, h]]

    def normalizer_of(self, sub: np.ndarray) -> np.ndarray:
        """All x with x sub x^{-1} = sub (as a set)."""
        in_sub = np.zeros(self.n, dtype=bool)
        in_sub[sub] = True
        # Conjugation is injective, so x sub x^{-1} equals sub once it lies in
        # sub.  Rows of x go in blocks that bound the (rows, |sub|) temporaries.
        rows = max(1, _BLOCK_ENTRIES // max(len(sub), 1))
        keep = np.empty(self.n, dtype=bool)
        for lo in range(0, self.n, rows):
            conj = self.table[self.table[lo : lo + rows][:, sub], self.inv[lo : lo + rows, None]]
            keep[lo : lo + rows] = in_sub[conj].all(axis=1)
        return np.flatnonzero(keep).astype(np.int64, copy=False)

    def conjugacy_partition(self, members: np.ndarray) -> list[np.ndarray]:
        """Conjugacy classes of the subgroup `members` (acting on itself),
        each sorted, listed by their smallest representative."""
        seen = np.zeros(self.n, dtype=bool)
        classes = []
        for i in map(int, members):
            if seen[i]:
                continue
            cls = self.conj_class(i, within=members)
            seen[cls] = True
            classes.append(cls)
        return classes

    # -- element literals (JSON-facing) --------------------------------------

    def literal(self, i: int):
        el = self.elements[i]
        family = self.kind.split(":")[0]
        if family == "cyclic":
            return el
        if family == "sym":
            return list(el)
        size = 2 if family == "gl2" else 4
        return [list(el[r * size : (r + 1) * size]) for r in range(size)]

    def index_of_literal(self, lit) -> int:
        family, _, n_str = self.kind.partition(":")
        n = int(n_str)
        if family == "cyclic":
            if not isinstance(lit, int):
                raise GroupConstructionError(f"{self.kind}: element literal must be an int")
            el = lit % n
        elif family == "sym":
            el = tuple(lit)
        else:
            el = tuple(v % n for row in lit for v in row)
        idx = self.index.get(el)
        if idx is None:
            raise GroupConstructionError(f"{self.kind}: {lit!r} is not a group element")
        return idx


def _dtype_for(n: int):
    return np.int16 if n < 0x7FFF else np.int32


def _table_from_generators(kind, elements, gens, make_products, encode):
    """Build the Cayley table from the rows of a generating set.

    make_products(i) gives the keys of elements[i] * x for every x; it runs
    once per distinct generator, and each key is looked up in the element
    set.  The other rows follow by a breadth-first search over right
    multiplication: (a*g)*x = a*(g*x), so row(a*g) = row(a)[row(g)].  The
    search starts at the generators, whose products reach every element of
    the group they generate (g^k = 1 for some k).
    """
    n = len(elements)
    keys = encode(np.arange(n))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    table = np.empty((n, n), dtype=_dtype_for(n))
    gen_idx = np.unique([elements.index(g) for g in gens])
    for g in gen_idx:
        prod_keys = make_products(int(g))
        # Clipped, so that a key above every element's key fails the check below.
        pos = np.minimum(np.searchsorted(sorted_keys, prod_keys), n - 1)
        if not np.array_equal(sorted_keys[pos], prod_keys):
            raise GroupConstructionError(f"{kind}: product escaped the element set")
        table[g] = order[pos]
    reached = np.zeros(n, dtype=bool)
    reached[gen_idx] = True
    frontier = gen_idx
    while len(frontier):
        # First occurrence of each unreached product a*g names its parent pair.
        prods, first = np.unique(table[np.ix_(frontier, gen_idx)], return_index=True)
        fresh = ~reached[prods]
        prods, first = prods[fresh], first[fresh]
        parent_a, parent_g = frontier[first // len(gen_idx)], gen_idx[first % len(gen_idx)]
        for c, a, g in zip(prods, parent_a, parent_g):
            table[c] = table[a][table[g]]
        reached[prods] = True
        frontier = prods
    if not reached.all():
        raise GroupConstructionError(
            f"{kind}: generators reach {int(reached.sum())} of {n} elements"
        )
    return table


def _build_cyclic(n: int) -> Group:
    table = (np.add.outer(np.arange(n), np.arange(n)) % n).astype(_dtype_for(n))
    return Group(f"cyclic:{n}", list(range(n)), table)


def _sym_generators(n: int) -> list[tuple]:
    """The n-cycle and, for n >= 2, the transposition (0 1)."""
    cycle = tuple(range(1, n)) + (0,)
    return [cycle] if n < 2 else [(1, 0) + tuple(range(2, n)), cycle]


def _build_sym(n: int) -> Group:
    elements = list(itertools.permutations(range(n)))
    perms = np.array(elements, dtype=np.int64)
    radix = n ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def encode(idx):
        return perms[idx] @ radix

    def make_products(i):
        # Convention: (a*b)[k] = b[a[k]], i.e. apply a first, then b.
        # Row j is perms[i] then perms[j]: at k it is perms[j][perms[i][k]].
        return perms[:, perms[i]] @ radix

    table = _table_from_generators(f"sym:{n}", elements, _sym_generators(n),
                                   make_products, encode)
    return Group(f"sym:{n}", elements, table)


def _units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _build_matrix_group(kind: str, n: int, elements: list[tuple], size: int,
                        gens: list[tuple]) -> Group:
    mats = np.array(elements, dtype=np.int64).reshape(len(elements), size, size)
    radix = n ** np.arange(size * size - 1, -1, -1, dtype=np.int64)

    def encode(idx):
        return mats[idx].reshape(len(idx), -1) @ radix

    def make_products(i):
        prods = (mats[i] @ mats) % n
        return prods.reshape(len(elements), -1) @ radix

    table = _table_from_generators(kind, elements, gens, make_products, encode)
    return Group(kind, elements, table)


def _gl2_generators(n: int) -> list[tuple]:
    """E12 and E21, which generate SL2(Z) and so SL2(Z/n) (SL2(Z) maps onto
    it), and diag(u, 1) for each unit u != 1, which add every determinant."""
    return [(1, 1, 0, 1), (1, 0, 1, 1)] + [(u, 0, 0, 1) for u in _units(n)[1:]]


def _build_gl2(n: int) -> Group:
    if n < 2:
        raise GroupConstructionError("gl2 needs modulus >= 2")
    units = set(_units(n))
    elements = []
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if (a * d - b * c) % n in units:
            elements.append((a, b, c, d))
    return _build_matrix_group(f"gl2:{n}", n, elements, 2, _gl2_generators(n))


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


def _build_gsp4(n: int) -> Group:
    expected = gsp_order(2, n)
    if expected > ORDER_CAP:
        raise GroupConstructionError(
            f"gsp2:{n} has order {expected}, beyond the exhaustive-table cap {ORDER_CAP}"
        )
    gens = _gsp4_generators(n)
    gen_mats = np.array(gens, dtype=np.int64).reshape(-1, 4, 4)
    # Entries lie in [0, n), so the radix key orders matrices as their tuples.
    radix = n ** np.arange(15, -1, -1, dtype=np.int64)
    frontier = np.eye(4, dtype=np.int64)[None]
    mats, seen = [frontier], frontier.reshape(1, 16) @ radix
    # Close a level at a time: all products frontier x generators in one matmul.
    while len(frontier):
        prods = ((frontier[:, None] @ gen_mats[None]) % n).reshape(-1, 4, 4)
        level, first = np.unique(prods.reshape(-1, 16) @ radix, return_index=True)
        fresh = ~np.isin(level, seen)
        frontier = prods[first[fresh]]
        mats.append(frontier)
        seen = np.concatenate([seen, level[fresh]])
    if len(seen) != expected:
        raise GroupConstructionError(
            f"gsp2:{n}: closure produced {len(seen)} elements, expected {expected}"
        )
    flat = np.concatenate(mats).reshape(-1, 16)[np.argsort(seen)]
    elements = [tuple(row) for row in flat.tolist()]
    return _build_matrix_group(f"gsp2:{n}", n, elements, 4, gens)


@lru_cache(maxsize=None)
def group_from_kind(kind: str) -> Group:
    """Parse and build a group from a kind string like "sym:4"."""
    family, sep, n_str = kind.partition(":")
    if not sep or not n_str.isdigit():
        raise GroupConstructionError(f"malformed group kind {kind!r}; want family:n")
    n = int(n_str)
    if family == "cyclic":
        if not 1 <= n <= ORDER_CAP:
            raise GroupConstructionError(f"cyclic:{n} outside supported range")
        return _build_cyclic(n)
    if family == "sym":
        if n < 1 or math.factorial(n) > ORDER_CAP:
            raise GroupConstructionError(
                f"sym:{n} has order {math.factorial(n) if n < 13 else '>>cap'}, cap is {ORDER_CAP}"
            )
        return _build_sym(n)
    if family == "gl2":
        order = gsp_order(1, n) if n > 1 else 1
        if n < 2 or order > ORDER_CAP:
            raise GroupConstructionError(f"gl2:{n} has order {order}, cap is {ORDER_CAP}")
        return _build_gl2(n)
    if family == "gsp2":
        return _build_gsp4(n)
    raise GroupConstructionError(f"unknown group family {family!r}")
