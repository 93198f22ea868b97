import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from superspecial import finitegroup as fg
from superspecial.cosettrace import TRIAL_FAMILIES
from superspecial.finitegroup import (Group, GroupConstructionError,
                                      group_from_kind)

KINDS = ("cyclic:6", "cyclic:24", "sym:3", "sym:4", "gl2:2", "gl2:3", "gsp2:2")


@pytest.mark.parametrize("kind,order", [
    ("cyclic:6", 6), ("cyclic:24", 24), ("sym:3", 6), ("sym:4", 24),
    ("sym:6", 720), ("gl2:2", 6), ("gl2:3", 48), ("gl2:4", 96),
    ("gl2:5", 480), ("gsp2:2", 720),
])
def test_orders(kind, order):
    assert group_from_kind(kind).n == order


def test_group_axioms_random():
    rng = random.Random(12)
    for kind in KINDS:
        G = group_from_kind(kind)
        for _ in range(30):
            a, b, c = (rng.randrange(G.n) for _ in range(3))
            assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
            assert G.mul(a, G.identity) == a == G.mul(G.identity, a)
            assert G.mul(a, G.inverse(a)) == G.identity


def test_subgroup_closure():
    G = group_from_kind("sym:4")
    tr = G.index[(1, 0, 2, 3)]
    cyc = G.index[(1, 2, 3, 0)]
    assert len(G.subgroup([tr])) == 2
    assert len(G.subgroup([cyc])) == 4
    assert len(G.subgroup([tr, cyc])) == 24
    assert list(G.subgroup([])) == [G.identity]
    # A4, of index 2: only more than n/2 elements make the whole group.
    assert len(G.subgroup([G.index[(1, 2, 0, 3)], G.index[(0, 2, 3, 1)]])) == 12
    # The whole group is a fresh array, as callers such as the trace models freeze theirs.
    assert not np.shares_memory(G.subgroup([tr, cyc]), G.indices)


def test_class_labels_and_centralizer_against_brute_force():
    # Every element's class and centralizer, and its centralizer within
    # subgroups: a few drawn ones, {e}, and all of G shuffled, whose order the
    # result must keep.
    rng = random.Random(13)
    for kind in ("sym:4", "gl2:3", "cyclic:12"):
        G = group_from_kind(kind)
        subgroups = [G.subgroup([rng.randrange(G.n) for _ in range(rng.choice((1, 2)))])
                     for _ in range(3)]
        shuffled = G.indices.copy()
        rng.shuffle(shuffled)
        subgroups += [G.subgroup([]), shuffled]
        for i in range(G.n):
            want_cls = sorted({G.mul(G.mul(G.inverse(g), i), g) for g in range(G.n)})
            assert np.flatnonzero(G.class_labels == G.class_labels[i]).tolist() == want_cls
            assert G.class_labels[i] == want_cls[0]
            want_cent = [g for g in range(G.n) if G.mul(g, i) == G.mul(i, g)]
            assert G.centralizer(i).tolist() == want_cent
            assert len(want_cls) * len(want_cent) == G.n  # orbit-stabilizer
            for h in subgroups:
                want = [g for g in h.tolist() if G.mul(g, i) == G.mul(i, g)]
                assert G.centralizer(i, within=h).tolist() == want


def test_conj_vector():
    G = group_from_kind("sym:3")
    for i in range(G.n):
        y = G.conj_vector(i)
        for x in range(G.n):
            assert y[x] == G.mul(G.mul(G.inverse(x), i), x)
    # conjugate against mul and inverse, broadcast three ways, and mask.
    rng = random.Random(18)
    for kind in TRIAL_FAMILIES + ("gsp2:2",):
        G = group_from_kind(kind)

        def conj(x, a):
            return G.mul(G.mul(G.inverse(a), x), a)

        xs = np.array([rng.randrange(G.n) for _ in range(5)])
        a_s = np.array([rng.randrange(G.n) for _ in range(4)])
        a, x = int(a_s[0]), int(xs[0])
        # array x scalar, scalar x array, column x row
        assert G.conjugate(xs, a).tolist() == [conj(int(v), a) for v in xs], kind
        assert G.conjugate(x, a_s).tolist() == [conj(x, int(b)) for b in a_s], kind
        grid = G.conjugate(xs[:, None], a_s)
        assert grid.shape == (len(xs), len(a_s)), kind
        assert grid.tolist() == [[conj(int(v), int(b)) for b in a_s] for v in xs], kind
        assert G.conj_vector(x).tolist() == [conj(x, b) for b in range(G.n)], kind
        members = np.unique(xs)
        mask = G.mask(xs)
        assert mask.shape == (G.n,) and mask.dtype == bool, kind
        assert mask.nonzero()[0].tolist() == members.tolist(), kind
        assert not G.mask([]).any(), kind


def test_building_the_groups_leaves_numpy_ma_unimported():
    # np.setdiff1d imports numpy.ma, 10-13 ms of a process's start; building
    # the trial groups must not.  numpy < 2 loads numpy.ma with numpy itself.
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    code = (
        "import sys\n"
        "from superspecial.cosettrace import TRIAL_FAMILIES\n"
        "from superspecial.finitegroup import group_from_kind\n"
        "for kind in TRIAL_FAMILIES + ('gsp2:2',):\n"
        "    group_from_kind(kind)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(fg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    outs = []
    for script in (probe, code):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.strip())
    if outs[0] == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    assert outs[1] == "False"


def test_normalizer():
    G = group_from_kind("sym:4")
    v4_gens = [G.index[(1, 0, 3, 2)], G.index[(2, 3, 0, 1)]]
    v4 = G.subgroup(v4_gens)
    assert len(v4) == 4
    assert len(G.normalizer_of(v4, v4_gens)) == 24  # V4 is normal in S4
    s2_gens = [G.index[(1, 0, 2, 3)]]
    s2 = G.subgroup(s2_gens)
    assert len(G.normalizer_of(s2, s2_gens)) == 4


def test_normalizer_refuses_a_generator_outside_the_subgroup():
    G = group_from_kind("sym:4")
    tr, cyc = G.index[(1, 0, 2, 3)], G.index[(1, 2, 3, 0)]
    with pytest.raises(ValueError, match=f"sym:4: generator {cyc} lies outside sub"):
        G.normalizer_of(G.subgroup([tr]), [tr, cyc])


def _normalizer_by_loop(G, sub):
    """Oracle: test every x, comparing x sub x^{-1} with sub as Python sets."""
    target = set(map(int, sub))
    out = [x for x in range(G.n)
           if set(map(int, G.table[G.table[x, sub], G.inv[x]])) == target]
    return np.array(out, dtype=np.int64)


def test_normalizer_matches_loop_oracle():
    # The normalizer conjugates only the drawn generators (none, one or two).
    rng = random.Random(14)
    for kind in ("cyclic:24", "sym:4", "sym:5", "gl2:3", "gl2:4", "gsp2:2"):
        G = group_from_kind(kind)
        for _ in range(6):
            gens = [rng.randrange(G.n) for _ in range(rng.choice((0, 1, 2)))]
            sub = G.subgroup(gens)
            got = G.normalizer_of(sub, gens)
            want = _normalizer_by_loop(G, sub)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), kind


def _classes_of(labels):
    """The classes that labels name, each sorted, by least element."""
    members = np.flatnonzero(labels >= 0)
    return [members[labels[members] == rep].tolist() for rep in np.unique(labels[members])]


def test_conjugacy_partition():
    G = group_from_kind("sym:4")
    classes = _classes_of(G.conjugacy_partition(np.arange(G.n), G.gens))
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    gens = [G.index[(1, 0, 2, 3)], G.index[(0, 1, 3, 2)]]  # V4-ish
    sub = G.subgroup(gens)
    labels = G.conjugacy_partition(sub, gens)
    assert np.flatnonzero(labels >= 0).tolist() == sub.tolist()
    assert sum(len(c) for c in _classes_of(labels)) == len(sub)


def _closure_by_loop(G, gens):
    """Oracle: the subgroup generated by gens, as a pure-Python breadth-first
    search over right multiplication by the generators (in a finite group,
    inverses are positive powers)."""
    found = {G.identity}
    frontier = [G.identity]
    while frontier:
        frontier = list({G.mul(a, g) for a in frontier for g in gens} - found)
        found.update(frontier)
    return sorted(found)


def test_subgroup_matches_a_python_closure():
    # Some generating sets are redundant: a generator repeated, the identity
    # added, or g given together with its inverse.
    rng = random.Random(15)
    for kind in ("sym:4", "sym:5", "gl2:3", "gl2:5", "gsp2:2", "cyclic:12", "cyclic:24"):
        G = group_from_kind(kind)
        assert G.subgroup([]).tolist() == [G.identity]
        for trial in range(12):
            gens = [rng.randrange(G.n) for _ in range(rng.choice((1, 2, 3)))]
            if trial % 4 == 1:
                gens.append(gens[0])
            elif trial % 4 == 2:
                gens.append(G.identity)
            elif trial % 4 == 3:
                gens.append(G.inverse(gens[0]))
            assert G.subgroup(gens).tolist() == _closure_by_loop(G, gens), (kind, gens)


def _traced_peak(fn, *args):
    """Bytes allocated at the peak of fn(*args), as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sym7_closure_and_normalizer_stay_small():
    # S7 from its two generators.  Squaring until S*S stops growing ended in
    # a 5040^2 int16 gather (a 48.6 MB peak), and conjugating every element
    # of S7 by every x took 6.1 MB; the closure stops once S*gens lies in S,
    # and the normalizer conjugates the two generators only.
    G = group_from_kind("sym:7")
    assert _traced_peak(G.subgroup, G.gens) < 24 * 2**20
    s7 = G.subgroup(G.gens)
    assert len(s7) == G.n
    assert _traced_peak(G.normalizer_of, s7, G.gens) < 2**20
    assert G.normalizer_of(s7, G.gens).tolist() == G.indices.tolist()


def _partition_by_loop(G, members):
    """Oracle: classes {h^{-1} m h : h in members} as Python sets, by least element."""
    classes = {frozenset(G.mul(G.mul(G.inverse(h), m), h) for h in members)
               for m in members}
    return sorted(sorted(c) for c in classes)


def test_conjugacy_partition_matches_a_python_oracle():
    rng = random.Random(16)
    for kind in ("sym:4", "sym:5", "gl2:3"):
        G = group_from_kind(kind)
        checked = 0
        while checked < 4:
            gens = [rng.randrange(G.n) for _ in range(2)]
            sub = G.subgroup(gens)
            members = sub.tolist()
            if all(G.mul(a, b) == G.mul(b, a) for a in members for b in members):
                continue  # abelian: every class is a point
            checked += 1
            got = _classes_of(G.conjugacy_partition(sub, gens))
            assert got == _partition_by_loop(G, members), kind


def _cycle_type(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        length = 0
        while start not in seen:
            seen.add(start)
            start, length = perm[start], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def test_class_labels_match_the_python_oracle_on_every_family():
    for kind in TRIAL_FAMILIES + ("gsp2:2",):
        G = group_from_kind(kind)
        assert G.subgroup(G.gens).tolist() == G.indices.tolist(), kind  # the gens generate G
        assert _classes_of(G.class_labels) == _partition_by_loop(G, range(G.n)), kind
    # S7's classes are its cycle types (the loop oracle would take 5040^2 products).
    G = group_from_kind("sym:7")
    by_type = {}
    for i, perm in enumerate(G.elements):
        by_type.setdefault(_cycle_type(perm), []).append(i)
    assert len(by_type) == 15
    assert _classes_of(G.class_labels) == sorted(by_type.values())


def test_subgroup_labels_match_the_python_oracle():
    # Random subgroups labelled with their drawn generators, some sets of
    # them redundant: a generator repeated, the identity added.
    rng = random.Random(17)
    for kind in ("cyclic:12", "sym:4", "sym:5", "gl2:3", "gl2:4", "gsp2:2"):
        G = group_from_kind(kind)
        for trial in range(6):
            gens = [rng.randrange(G.n) for _ in range(rng.choice((0, 1, 2)))]
            if trial % 3 == 1 and gens:
                gens.append(gens[0])
            elif trial % 3 == 2:
                gens.append(G.identity)
            sub = G.subgroup(gens)
            labels = G.conjugacy_partition(sub, gens)
            assert np.flatnonzero(labels >= 0).tolist() == sub.tolist(), (kind, gens)
            assert _classes_of(labels) == _partition_by_loop(G, sub.tolist()), (kind, gens)


def test_literals_round_trip():
    for kind in KINDS:
        G = group_from_kind(kind)
        for i in (0, G.n // 2, G.n - 1):
            assert G.index_of_literal(G.literal(i)) == i


def test_literal_rejects_non_elements():
    G = group_from_kind("gl2:2")
    with pytest.raises(GroupConstructionError):
        G.index_of_literal([[0, 0], [0, 0]])  # singular
    S = group_from_kind("sym:3")
    with pytest.raises(GroupConstructionError):
        S.index_of_literal([0, 0, 1])
    # A literal of another shape than the element's is refused, not flattened.
    for kind, lit in [("gl2:3", [[1], [1, 0, 1]]), ("gl2:3", [1, 1, 0, 1]),
                      ("gsp2:2", [[1, 0, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0, 1]]),
                      ("sym:3", [[0, 1, 2]]), ("sym:3", [0, 1]), ("cyclic:4", [1])]:
        G = group_from_kind(kind)
        message = f"{kind}: an element literal has shape {list(G.shape)}, not {lit!r}"
        with pytest.raises(GroupConstructionError, match=re.escape(message)):
            G.index_of_literal(lit)


def test_order_caps():
    with pytest.raises(GroupConstructionError):
        group_from_kind("sym:8")
    with pytest.raises(GroupConstructionError):
        group_from_kind("gsp2:3")
    with pytest.raises(GroupConstructionError):
        group_from_kind("gl2:11")  # order 13200 exceeds the cap
    with pytest.raises(GroupConstructionError):
        group_from_kind("nosuch:5")
    # '²'.isdigit(), but int('²') fails; the rest are sym:3 and cyclic:24
    # written otherwise, which would build and cache a second copy.
    for kind in ("sym", "sym:²", "sym:03", "sym:٣", "sym:３", "cyclic:0024"):
        with pytest.raises(GroupConstructionError, match="malformed group kind"):
            group_from_kind(kind)
    # Huge and degenerate kinds are refused by name, huge ones before any
    # order is computed (every family has an element of order n).
    for kind, reason in [
        ("sym:3000000", "sym:3000000 has order at least 3000000, beyond the exhaustive-table cap"),
        ("gl2:1000000000000000003", "gl2:1000000000000000003 has order at least"),
        ("gsp2:1000000000000000003", "gsp2:1000000000000000003 has order at least"),
        ("cyclic:5041", "cyclic:5041 has order at least 5041"),
        ("gsp2:1", "gsp2:1: Z/1 is the zero ring"), ("gl2:1", "gl2:1: Z/1 is the zero ring"),
        ("gl2:0", "gl2:0: n must be at least 1"), ("sym:0", "sym:0: n must be at least 1"),
        ("cyclic:0", "cyclic:0: n must be at least 1"),
    ]:
        with pytest.raises(GroupConstructionError, match=f"^{re.escape(reason)}"):
            group_from_kind.__wrapped__(kind)


def test_gsp2_is_symplectic_similitude_group():
    G = group_from_kind("gsp2:2")
    J = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    for el in G.elements[:100]:
        m = np.array(el).reshape(4, 4)
        assert np.array_equal((m.T @ J % 2 @ m) % 2, J % 2)


def _table_by_rows(elements, row_keys, encode):
    """Oracle: the per-row build, one batched product and key lookup per row."""
    n = len(elements)
    keys = encode(np.arange(n))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    table = np.empty((n, n), dtype=np.int16 if n < 0x7FFF else np.int32)
    for i in range(n):
        prod_keys = row_keys(i)
        pos = np.searchsorted(sorted_keys, prod_keys)
        assert np.array_equal(sorted_keys[pos], prod_keys)
        table[i] = order[pos]
    return table


def _oracle_group(kind):
    """Sorted elements by exhaustive enumeration, and the per-row table."""
    family, n = kind.split(":")
    n = int(n)
    if family == "cyclic":
        return list(range(n)), _table_by_rows(range(n), lambda i: (i + np.arange(n)) % n,
                                              lambda idx: idx)
    if family == "sym":
        elements = list(itertools.permutations(range(n)))
        perms = np.array(elements, dtype=np.int64)
        radix = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        return elements, _table_by_rows(elements, lambda i: perms[:, perms[i]] @ radix,
                                        lambda idx: perms[idx] @ radix)
    size = 2 if family == "gl2" else 4
    cands = np.array(list(itertools.product(range(n), repeat=size * size)), dtype=np.int64)
    mats = cands.reshape(-1, size, size)
    if family == "gl2":
        det = (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % n
        keep = np.array([math.gcd(int(d), n) == 1 for d in det])
    else:  # m^T J m = lam J with lam a unit
        J = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
        form = (mats.transpose(0, 2, 1) @ J @ mats) % n
        lam = form[:, 0, 2]
        keep = (np.all(form == (lam[:, None, None] * J) % n, axis=(1, 2))
                & np.array([math.gcd(int(v), n) == 1 for v in lam]))
    elements = [tuple(row) for row in cands[keep].tolist()]
    mats = mats[keep]
    radix = n ** np.arange(size * size - 1, -1, -1, dtype=np.int64)
    return elements, _table_by_rows(
        elements, lambda i: ((mats[i] @ mats) % n).reshape(len(mats), -1) @ radix,
        lambda idx: mats[idx].reshape(len(idx), -1) @ radix)


def test_tables_from_generators_match_the_per_row_oracle(monkeypatch):
    real = fg._close
    products, gens_seen = {}, {}

    def counting(kind, n, order, identity, gens, compose, *modulus):
        products[kind], gens_seen[kind] = 0, gens

        def counted(a, b):
            out = compose(a, b)
            products[kind] += out.size // np.size(identity)
            return out

        return real(kind, n, order, identity, gens, counted, *modulus)

    monkeypatch.setattr(fg, "_close", counting)
    rows_built = {}
    for kind in TRIAL_FAMILIES + ("gsp2:2",):
        G = group_from_kind.__wrapped__(kind)  # bypass the memo
        elements, table = _oracle_group(kind)
        assert G.elements == elements, kind
        assert G.table.dtype == table.dtype and np.array_equal(G.table, table), kind
        if kind.startswith("cyclic"):  # cyclic tables are one outer add
            assert kind not in products, kind
            continue
        # The closure composes each element with each generator once; beyond
        # that, only the generators' rows are computed as products.
        gens = gens_seen[kind]
        rows_built[kind] = products[kind] / G.n - len(gens)
        assert rows_built[kind] == len(gens), kind
    assert rows_built["gsp2:2"] < 10 and rows_built["sym:6"] == 2


def test_generators_that_fall_short_are_refused(monkeypatch):
    monkeypatch.setattr(fg, "_sym_generators", lambda n: [(1, 0, 2)])
    with pytest.raises(GroupConstructionError,
                       match="sym:3: generators close to 2 elements, expected 6"):
        group_from_kind.__wrapped__("sym:3")


def test_products_leaving_the_element_set_are_refused():
    # GL2(Z/3) under a compose that is right while closing (frontier x
    # generators) but sends the generators' rows to [[2, 2], [2, 2]]: singular,
    # with key 80 above every element's key (at most 79).
    gens = fg._gl2_generators(3)

    def compose(a, b):
        prods = (a @ b) % 3
        return prods if b.shape[1] == len(gens) else np.full_like(prods, 2)

    with pytest.raises(GroupConstructionError, match="product escaped the element set"):
        fg._close("gl2:3", 3, 48, np.eye(2), gens, compose)


def test_gsp2_closure_count_is_checked(monkeypatch):
    monkeypatch.setattr(fg, "gsp_order", lambda g, n: 719)
    with pytest.raises(GroupConstructionError,
                       match="gsp2:2: generators close to 720 elements, expected 719"):
        group_from_kind.__wrapped__("gsp2:2")


def test_identity_and_inverses_match_the_full_table_scan():
    # Reference: the whole-table comparisons that Group.__init__ replaced.
    for kind in TRIAL_FAMILIES + ("gsp2:2", "sym:7"):
        G = group_from_kind.__wrapped__(kind)  # bypass the memo
        eye = np.flatnonzero(np.all(G.table == np.arange(G.n), axis=1))
        assert eye.tolist() == [G.identity], kind
        want = np.argmax(G.table == G.identity, axis=1).astype(G.table.dtype)
        assert G.inv.dtype == want.dtype and np.array_equal(G.inv, want), kind


@pytest.mark.parametrize("rows", [[[1, 1], [1, 1]], [[0, 0], [0, 0]], [[0, 1], [0, 1]]])
def test_table_without_a_unique_identity_is_refused(rows):
    with pytest.raises(GroupConstructionError, match="bad:2: multiplication table has no identity"):
        Group("bad:2", [0, 1], np.array(rows, dtype=np.int16))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_sym7_build_memory_stays_near_the_table_size():
    # A fresh interpreter, so that the peak belongs to this build alone.  It is
    # read as VmHWM, the peak of the interpreter's own address space: the
    # getrusage peak can carry over the forking test process's resident size.
    # The growth is counted from the resident size after the imports.  Whole-
    # table boolean temporaries in Group.__init__ took it to about 1.6 times
    # the table's bytes; the table plus the closure's own arrays come to 1.1.
    code = (
        "from superspecial.finitegroup import group_from_kind\n"
        "def status(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) * 1024 for l in fh if l.startswith(key))\n"
        "rss = status('VmRSS:')\n"
        "G = group_from_kind('sym:7')\n"
        "print(status('VmHWM:') - rss, G.table.nbytes)\n"
    )
    src = os.path.dirname(os.path.dirname(fg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth, table_bytes = map(int, proc.stdout.split())
    assert growth < 1.4 * table_bytes, (growth, table_bytes)
