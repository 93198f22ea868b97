"""Concrete finite groups with exhaustive, table-backed structure computations.

Supported families (the "kind" strings used by model specs and the CLI):

    cyclic:n   Z/n under addition
    sym:n      all permutations of {0..n-1}, elements as image tuples
    gl2:n      invertible 2x2 matrices over Z/n
    gsp2:n     symplectic similitudes of a rank-4 symplectic module over Z/n

Every group is materialized as an element list in a canonical (sorted) order
plus a full Cayley table, so conjugacy classes, centralizers, and coset
partitions are exact enumerations (no character theory, no randomization).
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


def _closure_objects(gens, mul, identity):
    """BFS closure of a generating set under an object-level multiplication."""
    els = {identity}
    frontier = [identity]
    gens = list(gens)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                w = mul(a, g)
                if w not in els:
                    els.add(w)
                    new.append(w)
        frontier = new
    return els


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


def _table_from_keys(kind, elements, make_products, encode):
    """Build the Cayley table by batch-producing row products and key lookup."""
    n = len(elements)
    keys = encode(np.arange(n))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    table = np.empty((n, n), dtype=_dtype_for(n))
    for i in range(n):
        prod_keys = make_products(i)
        pos = np.searchsorted(sorted_keys, prod_keys)
        if not np.array_equal(sorted_keys[pos], prod_keys):
            raise GroupConstructionError(f"{kind}: product escaped the element set")
        table[i] = order[pos]
    return table


def _build_cyclic(n: int) -> Group:
    table = (np.add.outer(np.arange(n), np.arange(n)) % n).astype(_dtype_for(n))
    return Group(f"cyclic:{n}", list(range(n)), table)


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

    table = _table_from_keys(f"sym:{n}", elements, make_products, encode)
    return Group(f"sym:{n}", elements, table)


def _units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def _build_matrix_group(kind: str, n: int, elements: list[tuple], size: int) -> Group:
    mats = np.array(elements, dtype=np.int64).reshape(len(elements), size, size)
    radix = n ** np.arange(size * size - 1, -1, -1, dtype=np.int64)

    def encode(idx):
        return mats[idx].reshape(len(idx), -1) @ radix

    def make_products(i):
        prods = (mats[i] @ mats) % n
        return prods.reshape(len(elements), -1) @ radix

    table = _table_from_keys(kind, elements, make_products, encode)
    return Group(kind, elements, table)


def _build_gl2(n: int) -> Group:
    if n < 2:
        raise GroupConstructionError("gl2 needs modulus >= 2")
    units = set(_units(n))
    elements = []
    for a, b, c, d in itertools.product(range(n), repeat=4):
        if (a * d - b * c) % n in units:
            elements.append((a, b, c, d))
    return _build_matrix_group(f"gl2:{n}", n, elements, 2)


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

    def mul(a, b):
        am = np.array(a, dtype=np.int64).reshape(4, 4)
        bm = np.array(b, dtype=np.int64).reshape(4, 4)
        return tuple(int(v) for v in ((am @ bm) % n).ravel())

    identity = tuple(int(v) for v in np.eye(4, dtype=np.int64).ravel())
    els = _closure_objects(_gsp4_generators(n), mul, identity)
    if len(els) != expected:
        raise GroupConstructionError(
            f"gsp2:{n}: closure produced {len(els)} elements, expected {expected}"
        )
    return _build_matrix_group(f"gsp2:{n}", n, sorted(els), 4)


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
