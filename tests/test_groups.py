import functools
import hashlib
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latdim import (
    BoundExceeded,
    InputError,
    NoIdentity,
    NotAbelian,
    NotAssociative,
    NotLatinSquare,
    all_subgroups,
    build_cyclic,
    build_tf,
    conjugacy,
    cyclic_factor_generators,
    dihedral,
    direct_product,
    dual_group,
    from_cayley_table,
    full_subgroup,
    quaternion,
    regularity,
    restrict,
    subgroup_blocks,
    subgroup_generated,
    subgroup_group,
    symmetric_group,
    trivial,
    trivial_subgroup,
)
import latdim.cocycles as cocycles_mod
import latdim.groups as groups_mod
from latdim.groups import (
    abelian_basis,
    centralizer_transversal,
    right_transversal,
)

from fixtures_common import GROUP_NAMES, group, rep_fixtures, tf, traced_peak


def test_cyclic_basics():
    g = build_cyclic(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.mul(3, 2) == 1
    assert g.inverse[3] == 1
    assert g.label == "Z4"


def test_cyclic_rejects_nonpositive():
    with pytest.raises(InputError):
        build_cyclic(0)


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_group_laws(n):
    g = build_cyclic(n)
    idx = np.arange(n)
    assert np.array_equal(g.cayley[g.identity], idx)
    assert np.array_equal(g.cayley[idx, g.inverse[idx]], np.full(n, g.identity))


def test_direct_product_componentwise():
    g = direct_product(build_cyclic(2), build_cyclic(3))
    # index = a * 3 + b
    assert g.order == 6
    assert g.mul(1 * 3 + 2, 0 * 3 + 2) == (1 % 2) * 3 + (2 + 2) % 3
    assert g.label == "Z2xZ3"


@pytest.mark.parametrize("name", [name for name in GROUP_NAMES if "x" in name] + [
    "S3xZ2", "Z2xS3", "Q8xZ2", "S3xS3", "D4xZ2xZ2", "S4xZ2xZ2", "D8xD8", "S5xZ2", "D4xD4xZ2xZ2",
    "Z16xZ16", "Z4xZ4xZ4xZ4", "tf-Z6", "tf-Z4xZ4", "tf-Z16"])
def test_direct_product_reads_abelian_off_its_factors(name):
    g = tf(name[3:]).group if name.startswith("tf-") else group(name)
    assert "_abelian" in vars(g)  # set when the product was built, before any table comparison
    assert g.is_abelian() == bool(np.array_equal(g.cayley, g.cayley.T))


def test_symmetric_group_structure():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    sizes = sorted(len(c) for c in conjugacy(s3).classes)
    assert sizes == [1, 2, 3]


@pytest.mark.parametrize("build, sizes", [
    (lambda: dihedral(4), [1, 1, 2, 2, 2]),
    (lambda: quaternion(), [1, 1, 2, 2, 2]),
])
def test_order8_class_sizes(build, sizes):
    g = build()
    assert g.order == 8
    assert sorted(len(c) for c in conjugacy(g).classes) == sizes


def _reference_symmetric_table(n):
    """S_n's table filled entry by entry: permutations in lexicographic order, p*q applies q first."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    cay = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            cay[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return cay


def _reference_dihedral_table(n):
    """D_n's table filled entry by entry; index e*n + k is s^e r^k with r*s = s*r^-1."""
    cay = np.empty((2 * n, 2 * n), dtype=np.int64)
    for e1 in (0, 1):
        for k1 in range(n):
            for e2 in (0, 1):
                for k2 in range(n):
                    k = (k2 + (-k1 if e2 else k1)) % n
                    cay[e1 * n + k1, e2 * n + k2] = (e1 ^ e2) * n + k
    return cay


def _reference_quaternion_table():
    """Q8's table from Hamilton's product of the units 1, -1, i, -i, j, -j, k, -k."""
    units = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    index = {u: i for i, u in enumerate(units)}

    def qmul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    cay = np.empty((8, 8), dtype=np.int64)
    for i, a in enumerate(units):
        for j, b in enumerate(units):
            cay[i, j] = index[qmul(a, b)]
    return cay


@pytest.mark.parametrize("build, reference, label", [
    *((lambda n=n: symmetric_group(n), lambda n=n: _reference_symmetric_table(n), f"S{n}")
      for n in range(1, 6)),
    *((lambda n=n: dihedral(n), lambda n=n: _reference_dihedral_table(n), f"D{n}")
      for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 64, 127, 128)),
    (quaternion, _reference_quaternion_table, "Q8"),
])
def test_builtin_tables_match_entrywise_references(build, reference, label):
    """Each constructor's table, dtype, identity and inverses are those of its reference table."""
    g, want = build(), from_cayley_table(reference(), label=label)
    assert g.cayley.dtype == g.inverse.dtype == np.int64
    assert np.array_equal(g.cayley, want.cayley)
    assert (g.order, g.identity, g.label) == (want.order, want.identity, want.label)
    assert np.array_equal(g.inverse, want.inverse)
    assert not g.cayley.flags.writeable and not g.inverse.flags.writeable


def test_dihedral_above_the_bound_is_refused_before_a_table_is_built():
    assert dihedral(128).order == 256
    for n in (129, 300, 10**6):
        _, peak = traced_peak(lambda: pytest.raises(BoundExceeded, dihedral, n))
        assert peak < 64 * 1024


def test_conjugacy_centralizer_orders():
    """|class| * |centralizer| = |G| for every class representative."""
    g = symmetric_group(3)
    cj = conjugacy(g)
    for members in cj.classes:
        x = members[0]
        centralizer_order = int((g.cayley[x] == g.cayley[:, x]).sum())
        assert len(members) * centralizer_order == g.order


@pytest.mark.parametrize("name", GROUP_NAMES + ("S4",))
def test_conjugacy_classes_are_direct_orbits(name):
    g = group(name)
    cj = conjugacy(g)
    for x in range(g.order):
        orbit = tuple(sorted({g.conjugate(x, y) for y in range(g.order)}))
        assert cj.classes[cj.class_of[x]] == orbit
    assert [c[0] for c in cj.classes] == sorted(c[0] for c in cj.classes)


def _eager_classes(class_of):
    """Reference classes: a stable argsort of the labels, split by class size."""
    members = np.argsort(class_of, kind="stable")
    sizes = np.bincount(class_of)
    return tuple(tuple(c.tolist()) for c in np.split(members, np.cumsum(sizes)[:-1]))


@pytest.mark.parametrize("name", GROUP_NAMES + ("S4",))
def test_classes_are_built_on_first_read(name):
    cj = conjugacy(group(name))
    assert "classes" not in cj.__dict__
    assert cj.classes == _eager_classes(cj.class_of)
    assert cj.classes is cj.classes


@pytest.mark.parametrize("name", GROUP_NAMES + ("S4",))
def test_regularity_leaves_classes_unbuilt(name):
    report = regularity(trivial(group(name)))
    assert "classes" not in report.conjugacy.__dict__


def _closure_mask(g, gens):
    """Reference span of ``gens``: square the element set until it stops growing."""
    mask = np.zeros(g.order, dtype=bool)
    mask[g.identity] = True
    for x in gens:
        mask[x] = True
        mask[g.inverse[x]] = True
    while True:
        idx = np.flatnonzero(mask)
        new = np.zeros_like(mask)
        new[g.cayley[np.ix_(idx, idx)].ravel()] = True
        if np.array_equal(new, mask):
            return mask
        mask = new


def _elements(mask):
    return tuple(int(x) for x in np.flatnonzero(mask))


def _row(sub):
    """A subgroup's elements as a tuple, the references' form."""
    return tuple(sub.elements.tolist())


def _coordinate_tf_group(base_name):
    """Time-frequency group over a base in row-major coordinates, and its radices."""
    base = group(base_name)
    factors = [int(t[1:]) for t in base_name.split("x")]
    gens, orders = cyclic_factor_generators(factors)
    return build_tf(base, dual_group(base, gens, orders)).group, tuple(factors) * 2


@pytest.mark.parametrize("name", GROUP_NAMES + ("S4", "D4xZ2xZ2", "tf-Z16", "tf-Z4xZ4"))
def test_subgroup_generated_matches_closure_reference(name):
    if name.startswith("tf-"):
        g, radices = _coordinate_tf_group(name[3:])
    else:
        g, radices = group(name), (group(name).order,)
    rng = np.random.default_rng(sum(map(ord, name)))
    for k in (0, 1, 1, 2, 2, 3, 4):
        # generators given as coordinate tuples, as the CLI lattice spec does
        coords = rng.integers(0, radices, size=(k, len(radices)))
        gens = [int(np.ravel_multi_index(c, radices)) for c in coords]
        assert _row(subgroup_generated(g, gens)) == _elements(_closure_mask(g, gens))
    assert _row(trivial_subgroup(g)) == _elements(_closure_mask(g, []))
    assert _row(full_subgroup(g)) == _elements(_closure_mask(g, range(g.order)))


def _greedy_generators_by_closure(g):
    """Reference: the first element outside the span, span recomputed from scratch."""
    gens = []
    while not (mask := _closure_mask(g, gens)).all():
        gens.append(int(np.argmin(mask)))
    return tuple(gens)


@pytest.mark.parametrize("name", GROUP_NAMES + ("S4", "D4xZ2xZ2", "Z4xZ4xZ4"))
def test_generators_span_within_log_bound(name):
    g = group(name)
    gens = g.generators
    assert 2 ** len(gens) <= g.order
    assert subgroup_generated(g, gens).order == g.order
    assert gens == _greedy_generators_by_closure(g)


def test_generators_computed_once_per_group(monkeypatch):
    calls = []
    real = groups_mod._join
    monkeypatch.setattr(groups_mod, "_join",
                        lambda *args: calls.append(1) or real(*args))
    g = direct_product(build_cyclic(4), build_cyclic(6))
    first = g.generators
    assert len(calls) == len(first) == 2
    assert g.generators is first
    assert len(calls) == 2
    # another group with the same table has its own set
    h = direct_product(build_cyclic(4), build_cyclic(6))
    assert h.generators == first
    assert len(calls) == 4


def test_from_cayley_table_errors():
    with pytest.raises(NotLatinSquare):
        from_cayley_table([[0, 0], [1, 1]])
    with pytest.raises(NotAssociative):
        # latin square that is not a group (order-5 quasigroup)
        t = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
        from_cayley_table(t)
    with pytest.raises((NoIdentity, NotAssociative)):
        from_cayley_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def _first_violation(table):
    """What ``from_cayley_table`` must name, found by looping over every row,
    column, candidate identity and triple in turn."""
    n = len(table)
    full = set(range(n))
    for i in range(n):
        if set(table[i]) != full:
            return f"row {i} is not a permutation"
    for j in range(n):
        if {table[i][j] for i in range(n)} != full:
            return f"column {j} is not a permutation"
    if not any(all(table[e][x] == x == table[x][e] for x in range(n)) for e in range(n)):
        return "no two-sided identity element"
    for x, y, z in itertools.product(range(n), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return f"at triple ({x}, {y}, {z})"
    return None


def _tampered_tables(g, rng):
    """Seeded copies of the table of ``g`` that break one axiom each: a repeated
    entry in a row, two entries of a row swapped, every entry renamed, and an
    intercalate swapped away from the identity."""
    n, cay = g.order, g.cayley
    i, j, k = rng.choice(n, 3, replace=False)
    repeated = cay.copy()
    repeated[i, j] = cay[i, k]
    swapped = cay.copy()
    swapped[i, [j, k]] = cay[i, [k, j]]
    renamed = rng.permutation(n)[cay]
    # rows r, r u and columns u c, c of an involution u hold a 2x2 latin square
    u = rng.choice(np.setdiff1d(np.flatnonzero(cay.diagonal() == g.identity), [g.identity]))
    r, c = (rng.choice(np.setdiff1d(np.arange(n), [g.identity, g.inverse[u]])) for _ in "rc")
    rows, cols = [r, cay[r, u]], [cay[u, c], c]
    intercalate = cay.copy()
    intercalate[np.ix_(rows, cols)] = cay[np.ix_(rows, cols)][:, ::-1]
    return repeated, swapped, renamed, intercalate


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["Z2xZ4", "S3", "D4", "Q8", "S4~7", "D4xZ2xZ2~3"])
def test_from_cayley_table_names_the_first_violation(name, seed):
    g = _series_group(name)
    nonassociative = 0
    for table in _tampered_tables(g, np.random.default_rng(seed)):
        want = _first_violation(table.tolist())
        if want is None:
            assert np.array_equal(from_cayley_table(table).cayley, table)
            continue
        nonassociative += want.startswith("at triple")
        with pytest.raises((NotLatinSquare, NoIdentity, NotAssociative), match=re.escape(want)):
            from_cayley_table(table)
    assert nonassociative


def test_from_cayley_table_order_bound():
    with pytest.raises(BoundExceeded):
        from_cayley_table(build_cyclic(257).cayley)
    assert from_cayley_table(build_cyclic(256).cayley).order == 256


def test_from_cayley_table_roundtrip():
    g = quaternion()
    h = from_cayley_table(g.cayley, label="again")
    assert np.array_equal(g.cayley, h.cayley)
    assert g.identity == h.identity


@pytest.mark.parametrize("name, count", [
    ("Z4", 3), ("Z6", 4), ("Z8", 4), ("Z2xZ2", 5), ("Z2xZ4", 8),
    ("S3", 6), ("D4", 10), ("Q8", 6), ("Z2xZ2xZ2xZ2xZ2xZ2", 2825),
    ("S5", 156), ("S4xZ2xZ2", 420), ("D8xD8", 1795),
])
def test_subgroup_counts(name, count):
    assert len(all_subgroups(group(name))) == count


def _product_closure(g, mask):
    """The least product-closed set holding ``mask``; a subgroup when it holds e."""
    while True:
        idx = np.flatnonzero(mask)
        grown = mask.copy()
        grown[g.cayley[idx[:, None], idx]] = True
        if grown.sum() == idx.size:
            return mask
        mask = grown


def _reference_subgroups(g):
    """Every subgroup, by extending each known one by every outside element."""
    triv = _closure_mask(g, [])
    seen = {triv.tobytes(): triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for mask in frontier:
            for x in np.flatnonzero(~mask):
                grown = mask.copy()
                grown[x] = True
                grown = _product_closure(g, grown)
                key = grown.tobytes()
                if key not in seen:
                    seen[key] = grown
                    nxt.append(grown)
        frontier = nxt
    subs = [tuple(int(x) for x in np.flatnonzero(mask)) for mask in seen.values()]
    return sorted(subs, key=lambda s: (len(s), s))


@pytest.mark.parametrize("name", ["S4", "D4xZ2xZ2", "Q8xZ2", "tf-Z2xZ4", "tf-Z3xZ3",
                                  "Z2xZ2xZ2xZ2xZ2xZ2"])
def test_all_subgroups_match_reference(monkeypatch, name):
    """Abelian groups through ``all_subgroups``; nonabelian ones through the
    extension search itself over the whole group, where ``subgroup_blocks``
    runs it on the core alone ({e} here). Every join of the extension search
    is a frontier walk of ``_join``; the cyclic series never walks."""
    g = tf(name[3:]).group if name.startswith("tf-") else group(name)
    g = replace(g)  # the same table with nothing cached, so all_subgroups enumerates here
    walked = []
    real = groups_mod._join
    monkeypatch.setattr(groups_mod, "_join", lambda *args: walked.append(1) or real(*args))
    if g.is_abelian():
        got = [_row(s) for s in all_subgroups(g)]
    else:
        whole = np.ones(g.order, dtype=bool)
        got = sorted((tuple(row.tolist()) for block in groups_mod._extension_subgroups(g, whole)
                      for row in block), key=lambda s: (len(s), s))
    assert bool(walked) == (not g.is_abelian())
    assert got == _reference_subgroups(g)


def _relabelled(g, seed):
    """``g`` with each element x renamed name[x], for a seeded random permutation ``name``."""
    name = np.random.default_rng(seed).permutation(g.order)
    table = np.empty_like(g.cayley)
    table[name[:, None], name] = name[g.cayley]
    return from_cayley_table(table, label=f"{g.label}~{seed}"), name


def _series_group(name):
    """A builtin product, or with a suffix ~seed that product relabelled."""
    base, _, seed = name.partition("~")
    return _relabelled(group(base), int(seed))[0] if seed else group(base)


@pytest.mark.parametrize("name", ["Z2xZ4xZ3", "Z8xZ2", "Z4xZ2~7", "S4~7", "D4xZ2xZ2~3"])
def test_series_subgroups_match_reference_without_a_walk(monkeypatch, name):
    """Groups no time-frequency build makes: mixed primes, and relabelled tables,
    abelian and not."""
    g = replace(_series_group(name))  # nothing cached, so all_subgroups enumerates here
    monkeypatch.setattr(groups_mod, "_join", lambda *args: pytest.fail("frontier walk"))
    got = [_row(s) for s in all_subgroups(g)]
    assert got == _reference_subgroups(g)


def _special_linear(n, p, label):
    """SL(n, p): the n x n matrices of determinant 1 over GF(p), in lexicographic
    order of their entries, under the matrix product."""
    mats = np.array(list(itertools.product(range(p), repeat=n * n))).reshape(-1, n, n)
    mats = mats[np.round(np.linalg.det(mats)).astype(int) % p == 1]
    code = p ** np.arange(n * n - 1, -1, -1)
    index = np.full(p ** (n * n), -1)
    index[mats.reshape(-1, n * n) @ code] = np.arange(len(mats))
    prod = np.einsum("aij,bjk->abik", mats, mats) % p
    return from_cayley_table(index[prod.reshape(len(mats), len(mats), n * n) @ code], label)


@functools.cache
def _core_group(name):
    """A group whose derived series ends at a perfect core above {e}: A5 (S5's
    subgroup of order 60) times cyclic factors, SL(2,5), GL(3,2) ~ PSL(2,7), or
    a builtin product or relabelled one as ``_series_group`` reads it."""
    if name in ("SL(2,5)", "GL(3,2)"):  # GL(3,2) = SL(3,2)
        n, p = (2, 5) if name == "SL(2,5)" else (3, 2)
        return _special_linear(n, p, name)
    if not name.startswith("A5"):
        return _series_group(name)
    a5 = next(sub for sub in all_subgroups(group("S5")) if sub.order == 60)
    g = from_cayley_table(subgroup_group(a5).cayley, "A5")
    for token in name.split("x")[1:]:
        g = direct_product(g, build_cyclic(int(token[1:])))
    return g


def _blocks_digest(blocks):
    h = hashlib.sha256()
    for block in blocks:
        h.update(np.asarray(block.shape).tobytes() + block.tobytes())
    return h.hexdigest()[:16]


# subgroup count and a digest of the order blocks, as recorded when G was searched whole
_CORE_BLOCKS = {
    "A5": (59, "423ed7a4b7aaa83b"),
    "A5xZ2": (164, "c24887fc4095c33c"),
    "A5xZ3": (148, "d8551a3ee3119dde"),
    "A5xZ4": (269, "331702a98249d8db"),
    "A5xZ2xZ2": (601, "eb4423169f30ad47"),
    "SL(2,5)": (76, "da721dbb550bd620"),
    "GL(3,2)": (179, "c2b5c5dc6d57e12d"),
    "S5~7": (156, "e54ce551b50575e2"),
}


@pytest.mark.parametrize("name", _CORE_BLOCKS)
def test_subgroup_blocks_over_a_perfect_core_are_pinned(name):
    g = replace(_core_group(name))
    blocks = subgroup_blocks(g)
    assert (sum(map(len, blocks)), _blocks_digest(blocks)) == _CORE_BLOCKS[name]


@pytest.mark.parametrize("name", ["A5", "S5~7"])
def test_subgroups_over_a_perfect_core_match_reference(name):
    """A5 alone, and S5 relabelled so that its identity is not element 0."""
    g = _core_group(name)
    assert (g.identity != 0) == name.endswith("~7")
    assert [_row(s) for s in all_subgroups(g)] == _reference_subgroups(g)


@pytest.mark.parametrize("name, core", [
    ("Z2xZ4xZ3", 1), ("tf-Z3xZ3", 1), ("S4", 1), ("D4xZ2xZ2", 1),
    ("S5", 60), ("S5xZ2", 60), ("SL(2,5)", 120), ("GL(3,2)", 168),
])
def test_extension_search_runs_once_inside_the_core(monkeypatch, name, core):
    """The extension search reads only the core, the last term of the derived
    series, and every join it makes stays inside it."""
    g = tf(name[3:]).group if name.startswith("tf-") else _core_group(name)
    g = replace(g)  # the same table with nothing cached
    within, joins = [], []
    real_search, real_join = groups_mod._extension_subgroups, groups_mod._join
    monkeypatch.setattr(groups_mod, "_extension_subgroups",
                        lambda h, mask: within.append(mask) or real_search(h, mask))
    monkeypatch.setattr(groups_mod, "_join",
                        lambda *args: joins.append(real_join(*args)) or joins[-1])
    subgroup_blocks(g)
    assert [int(mask.sum()) for mask in within] == [core]
    assert np.array_equal(within[0], groups_mod._derived_series(g)[-1])
    assert all(not (mask & ~within[0]).any() for mask in joins)
    assert bool(joins) == (core > 1)


@pytest.mark.parametrize("name", ["S4", "D8xD8", "tf-Z2xZ2xZ4"])
def test_solvable_enumeration_calls_no_unique(monkeypatch, name):
    """The first np.unique call in a process costs milliseconds; the solvable path makes none."""
    g = replace(tf(name[3:]).group if name.startswith("tf-") else group(name))
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: pytest.fail("np.unique"))
    assert len(subgroup_blocks(g)) > 1


def test_relabelled_group_has_greedy_generators_off_the_unit_vectors():
    g, name = _relabelled(group("Z4xZ2"), 7)
    # read back in Z4xZ2 coordinates, where the unit vectors are 2 = (1, 0) and 1 = (0, 1)
    assert sorted(np.argsort(name)[list(g.generators)].tolist()) != [1, 2]


@pytest.mark.parametrize("name", ["Z2xZ4xZ3", "Z4xZ2~7", "tf-Z3xZ3", "S4", "Q8xZ2", "D4xZ2xZ2",
                                  "S5"])
def test_solvable_groups_take_the_cyclic_series(monkeypatch, name):
    """Every group takes the cyclic series once, which runs the extension search
    once, on its core; an abelian group builds no conjugation table on the way."""
    g = tf(name[3:]).group if name.startswith("tf-") else _series_group(name)
    g = replace(g)  # the same table with nothing cached
    ran = []
    for helper in ("_series_subgroups", "_extension_subgroups"):
        real = getattr(groups_mod, helper)
        monkeypatch.setattr(groups_mod, helper,
                            lambda *args, helper=helper, real=real: ran.append(helper) or real(*args))
    all_subgroups(g)
    assert ran == ["_series_subgroups", "_extension_subgroups"]
    assert ("conjugation" in vars(g)) == (not g.is_abelian())


def _refuse_enumeration(monkeypatch):
    for helper in ("_derived_series", "_series_subgroups", "_extension_subgroups"):
        monkeypatch.setattr(groups_mod, helper,
                            lambda *args, helper=helper: pytest.fail(f"{helper} ran again"))


@pytest.mark.parametrize("name", GROUP_NAMES + ("S4", "Z2xZ4xZ3", "tf-Z3xZ3", "S5"))
def test_subgroup_blocks_are_enumerated_once_per_group(monkeypatch, name):
    """The first call enumerates and keeps the blocks; every later call returns a
    new list of the same read-only arrays and runs no enumeration helper."""
    g = tf(name[3:]).group if name.startswith("tf-") else group(name)
    g = replace(g)  # the same table with nothing cached
    assert "_subgroup_blocks" not in vars(g)
    first = subgroup_blocks(g)
    kept = tuple(first)
    assert all(a is b for a, b in zip(vars(g)["_subgroup_blocks"], kept, strict=True))
    _refuse_enumeration(monkeypatch)
    first.reverse()
    first.append(first[0][:0])
    del first[0]
    again = subgroup_blocks(g)
    assert again is not first
    assert all(a is b for a, b in zip(again, kept, strict=True))
    for block in again:
        assert block.dtype == np.int64 and not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = block[0, 0]
    rows = [row for block in again for row in block]
    enumerated = all_subgroups(g)
    assert [sub.order for sub in enumerated] == [row.size for row in rows]
    for sub, row in zip(enumerated, rows):
        assert np.shares_memory(sub.elements, row)
        assert np.array_equal(sub.elements, row)


@pytest.mark.parametrize("name, orders", [
    ("Z2xZ4xZ3", [24, 1]), ("S3", [6, 3, 1]), ("Q8xZ2", [16, 2, 1]), ("S4", [24, 12, 4, 1]),
    ("S4xS3", [144, 36, 4, 1]), ("S5", [120, 60]), ("S5xZ2", [240, 60]),
])
def test_derived_series(name, orders):
    """Every series ends at its core: {e} for a solvable group, A5 for S5 and S5xZ2."""
    terms = groups_mod._derived_series(group(name))
    assert [int(t.sum()) for t in terms] == orders


@pytest.mark.parametrize("m, n", list(itertools.combinations_with_replacement((4, 6, 8, 9, 12, 16), 2)))
def test_cyclic_pair_subgroup_count(m, n):
    """Z_m x Z_n has sum over a | m, b | n of gcd(a, b) subgroups (Hampejs et al. 2014)."""
    divisors = lambda k: [a for a in range(1, k + 1) if k % a == 0]
    want = sum(math.gcd(a, b) for a in divisors(m) for b in divisors(n))
    assert len(all_subgroups(direct_product(build_cyclic(m), build_cyclic(n)))) == want


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_subgroups_are_closed(name):
    g = group(name)
    for sub in all_subgroups(g):
        elems = set(int(x) for x in sub.elements)
        assert g.identity in elems
        for a in elems:
            assert int(g.inverse[a]) in elems
            for b in elems:
                assert int(g.cayley[a, b]) in elems


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "Z2xZ4"])
def test_transversal_tiles_both_sides(name):
    """H * t over a right transversal t covers the group exactly once."""
    g = group(name)
    for sub in all_subgroups(g):
        ts = right_transversal(g, sub.elements)
        right = sorted(int(g.cayley[h, t]) for t in ts for h in sub.elements)
        assert right == list(range(g.order))


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "Z2xZ4", "D4xZ2xZ2"])
def test_conjugation_table(name):
    g = group(name)
    table = g.conjugation
    assert g.conjugation is table
    assert not table.flags.writeable
    for x in range(g.order):
        for y in range(g.order):
            assert table[x, y] == g.cayley[g.cayley[g.inverse[y], x], y]


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "Q8", "D4xZ2xZ2", "Q8xZ2"])
def test_centralizer_transversal(name):
    g = group(name)
    for gamma in range(g.order):
        reps = centralizer_transversal(g, gamma)
        conj = [g.conjugate(gamma, b) for b in reps]
        assert sorted(set(conj)) == sorted({g.conjugate(gamma, y) for y in g.elements()})
        assert len(conj) == len(set(conj))
        centralizer_order = int((g.cayley[gamma] == g.cayley[:, gamma]).sum())
        assert len(reps) == g.order // centralizer_order
        assert all(b <= y for b, c in zip(reps, conj)
                   for y in g.elements() if g.conjugate(gamma, y) == c)


def _reference_right_transversal(g, h):
    """The least y of each orbit H*y, by a walk over the group."""
    seen, out = set(), []
    for y in range(g.order):
        if y not in seen:
            out.append(y)
            seen.update(int(g.cayley[x, y]) for x in h)
    return tuple(out)


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "Q8", "D4xZ2xZ2", "Q8xZ2", "Z2xZ4"])
def test_right_transversal_matches_reference(name):
    g = group(name)
    for sub in all_subgroups(g):
        got = right_transversal(g, sub.elements)
        assert got.dtype == np.int64
        assert tuple(got.tolist()) == _reference_right_transversal(g, sub.elements)


def test_right_transversal_partition():
    g = symmetric_group(3)
    h = np.array([0, 1], dtype=np.int64)  # identity and one transposition
    ts = right_transversal(g, h).tolist()
    covered = sorted(int(g.cayley[x, t]) for t in ts for x in h)
    assert covered == list(range(6))


def test_subgroup_generated_whole_group():
    g = symmetric_group(3)
    sub = subgroup_generated(g, [1, 3])
    assert sub.order in (6, 3, 2)
    sub_full = subgroup_generated(g, list(range(6)))
    assert sub_full.order == 6


def test_trivial_and_full_subgroups():
    g = dihedral(4)
    assert trivial_subgroup(g).order == 1
    assert full_subgroup(g).order == 8
    assert list(full_subgroup(g).elements) == list(range(8))


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_a_subgroup_has_one_form(label, rep):
    """Enumerated, generated, trivial and full subgroups all hold a read-only
    int64 row in increasing order; the blocks' rows are ``all_subgroups`` in order."""
    g = rep.group
    enumerated = all_subgroups(g)
    got = [tuple(row.tolist()) for block in subgroup_blocks(g) for row in block]
    assert got == [tuple(sub.elements.tolist()) for sub in enumerated]
    made = [subgroup_generated(g, g.generators[:k]) for k in range(len(g.generators) + 1)]
    for sub in enumerated + made + [trivial_subgroup(g), full_subgroup(g)]:
        elems = sub.elements
        assert elems.dtype == np.int64 and elems.ndim == 1, (label, elems)
        assert (np.diff(elems) > 0).all(), (label, elems)
        assert not elems.flags.writeable, (label, elems)
        with pytest.raises(ValueError):
            elems[0] = elems[0]


def test_subgroup_group_is_a_group():
    g = quaternion()
    sub = [s for s in all_subgroups(g) if s.order == 4][0]
    small = subgroup_group(sub)
    assert small.order == 4
    # multiplication matches the parent through the element list
    el = list(sub.elements)
    for i in range(4):
        for j in range(4):
            assert el[small.cayley[i, j]] == g.cayley[el[i], el[j]]


def test_abelian_basis_invariants():
    g = group("Z2xZ4")
    gens, orders = abelian_basis(g)
    assert sorted(orders, reverse=True) == list(orders)
    prod = 1
    for m in orders:
        prod *= m
    assert prod == g.order


def test_abelian_basis_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        abelian_basis(symmetric_group(3))


def test_dual_group_characters():
    a = group("Z2xZ4")
    d = dual_group(a)
    p = d.pairing
    assert np.allclose(np.abs(p), 1.0)
    # multiplicativity in the group argument
    for w in range(d.group.order):
        for x in range(a.order):
            for y in range(a.order):
                assert abs(p[w, a.cayley[x, y]] - p[w, x] * p[w, y]) < 1e-12
    # nontrivial characters sum to zero over the group
    sums = p.sum(axis=1)
    assert abs(sums[d.group.identity] - a.order) < 1e-12
    nontriv = np.delete(sums, d.group.identity)
    assert np.abs(nontriv).max() < 1e-10


def test_dual_group_explicit_basis_checked():
    a = group("Z4")
    with pytest.raises(InputError):
        dual_group(a, gens=(2,), orders=(4,))  # element 2 has order 2
    with pytest.raises(InputError):
        dual_group(a, gens=(1,), orders=None)
    with pytest.raises(InputError):
        dual_group(a, gens=(1,), orders=(4, 2))  # one order too many


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


# abelian_basis gens and orders, and a digest of the dual_group(a) pairing, as recorded
_BASES = {
    "Z1": ((), (), "3239b05c38b825eb"),
    "Z2": ((1,), (2,), "dec9a858b6020d47"),
    "Z3": ((1,), (3,), "8714ece930b609ad"),
    "Z4": ((1,), (4,), "47d99e712a95802c"),
    "Z5": ((1,), (5,), "3dc44038cfa6e1be"),
    "Z6": ((1,), (6,), "52fbe4b81f50a07c"),
    "Z7": ((1,), (7,), "9218f2328dbc4cd8"),
    "Z8": ((1,), (8,), "e0e542368924c027"),
    "Z9": ((1,), (9,), "0ec9aa3df302b28c"),
    "Z10": ((1,), (10,), "b63c81e9dda7ba0e"),
    "Z11": ((1,), (11,), "ea7dd3d4b612115f"),
    "Z12": ((1,), (12,), "bbc748c0c1136f7c"),
    "Z13": ((1,), (13,), "a88d1570a75061ce"),
    "Z14": ((1,), (14,), "c0bf41633ea0caf6"),
    "Z15": ((1,), (15,), "73fd948515242d13"),
    "Z16": ((1,), (16,), "09dac42d5bdca94e"),
    "Z2xZ2": ((1, 2), (2, 2), "65816e7fbccf48c2"),
    "Z2xZ4": ((1, 4), (4, 2), "55450c98af23ea3d"),
    "Z3xZ3": ((1, 3), (3, 3), "348361f76209eeaf"),
    "Z4xZ4": ((1, 4), (4, 4), "2319148f19082d8a"),
    "Z2xZ2xZ4": ((1, 4, 8), (4, 2, 2), "58fde2751a5dfa90"),
    "Z4xZ2~7": ((1, 5), (4, 2), "c198df350fa91c39"),
}

# the pairing of dual_group under cyclic_factor_generators, the row-major unit vectors
_ROW_MAJOR = {
    "Z1": "3239b05c38b825eb",
    "Z1xZ4": "47d99e712a95802c",
    "Z4xZ1": "47d99e712a95802c",
    "Z6": "52fbe4b81f50a07c",
    "Z2xZ4": "6fab7424862fd1d4",
    "Z3xZ3": "614e7737ef8f2687",
    "Z4xZ4": "e2dfad840a2a8c3a",
    "Z2xZ2xZ4": "01e345a2bbc5e3cd",
}


@pytest.mark.parametrize("name", _BASES)
def test_abelian_basis_and_dual_pairing_are_pinned(name):
    base, _, seed = name.partition("~")
    g = _relabelled(group(base), int(seed))[0] if seed else group(base)
    gens, orders = abelian_basis(g)
    assert (gens, orders, _digest(dual_group(g).pairing)) == _BASES[name]


@pytest.mark.parametrize("name", _ROW_MAJOR)
def test_row_major_dual_pairing_is_pinned(name):
    """Z1xZ4's factor of order 1 has generator index 4, outside the group; it is never multiplied."""
    factors = [int(t[1:]) for t in name.split("x")]
    dual = dual_group(group(name), *cyclic_factor_generators(factors))
    assert _digest(dual.pairing) == _ROW_MAJOR[name]


def test_all_subgroups_bound(monkeypatch):
    """Refused before anything is enumerated or kept on the group."""
    _refuse_enumeration(monkeypatch)
    for g in (build_cyclic(300), direct_product(build_cyclic(16), build_cyclic(17))):
        with pytest.raises(BoundExceeded):
            all_subgroups(g)
        with pytest.raises(BoundExceeded, match=f"order <= 256, got {g.order}"):
            subgroup_blocks(g)
        assert "_subgroup_blocks" not in vars(g)


def test_element_order():
    g = quaternion()
    orders = sorted(g.element_order(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def _table_labels(g):
    """Class labels read off the conjugation table: the reference for abelian groups."""
    return np.unique(g.conjugation.min(axis=1), return_inverse=True)[1]


SCAN_BASES = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z2xZ2", "Z8", "Z2xZ4", "Z3xZ3", "Z9")


def _abelian_cocycles():
    """Time-frequency twists of the scan bases, trivial Z16xZ16, and every lattice of the Z4xZ4 one."""
    out = [(f"wh-{b}", tf(b).cocycle) for b in SCAN_BASES]
    out.append(("Z16xZ16", trivial(group("Z16xZ16"))))
    wh = tf("Z4xZ4").cocycle
    out += [(f"wh-Z4xZ4<{h.order}>", restrict(wh, h)) for h in all_subgroups(wh.group)]
    return out


def test_abelian_conjugacy_matches_the_conjugation_table(monkeypatch):
    cocycles = _abelian_cocycles()
    assert len(cocycles) == len(SCAN_BASES) + 1 + 1983
    for label, coc in cocycles:
        g = coc.group
        assert g.is_abelian(), label
        labels = conjugacy(g).class_of
        assert labels.dtype == np.int64 and not labels.flags.writeable
        assert np.array_equal(labels, _table_labels(g)), label
    # regularity reads the same classes through either labelling
    reports = [regularity(coc) for _, coc in cocycles]

    def table_conjugacy(g):
        labels = _table_labels(g)
        return groups_mod.ConjugacyData(labels, np.unique(labels, return_index=True)[1])

    monkeypatch.setattr(cocycles_mod, "conjugacy", table_conjugacy)
    for (label, coc), got in zip(cocycles, reports):
        want = regularity(coc)
        assert np.array_equal(got.regular_elements, want.regular_elements), label
        assert np.array_equal(got.regular_classes, want.regular_classes), label
        assert got.kleppner == want.kleppner, label
