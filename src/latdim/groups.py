"""Finite groups as dense index tables.

Elements are the integers 0..order-1. A group is its Cayley table plus the
derived identity and inverse data; what is derived from the table alone
(conjugation table, generators, subgroup lattice) is computed once per
group and kept on it. A subgroup is its parent and its sorted elements.
``right_transversal``, one representative per right coset H * y, has no
package caller; the tests' explicit embeddings and perfbench bind it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .errors import (
    BoundExceeded,
    ConsistencyError,
    InputError,
    NoIdentity,
    NotAbelian,
    NotAssociative,
    NotLatinSquare,
    worst_entry,
)

SUBGROUP_ENUM_BOUND = 256


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    cayley: np.ndarray
    identity: int
    inverse: np.ndarray
    label: str = ""

    def mul(self, x: int, y: int) -> int:
        return int(self.cayley[x, y])

    def conjugate(self, x: int, y: int) -> int:
        """Return y^-1 * x * y."""
        return int(self.cayley[self.cayley[self.inverse[y], x], y])

    @cached_property
    def conjugation(self) -> np.ndarray:
        """Read-only table indexed [x, y] holding y^-1 * x * y.

        In an abelian group y^-1 x y = x, so the table is a read-only
        broadcast view of 0..order-1 along y: the same values in O(|G|)
        memory, where a nonabelian group gathers all |G|^2 entries.
        """
        n = self.order
        if self.is_abelian():
            return np.broadcast_to(np.arange(n, dtype=np.int64)[:, None], (n, n))
        yinv_x = self.cayley[self.inverse].T  # [x, y] = y^-1 * x
        return _freeze(self.cayley[yinv_x, np.arange(n)])

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Greedy generating set of at most log2|G| elements, computed once per group.

        Appends the first element outside the current span until the span is
        everything; each addition at least doubles it.
        """
        gens: list[int] = []
        mask = _trivial_mask(self)
        while not mask.all():
            gens.append(int(np.argmin(mask)))
            mask = _join(self, mask, np.flatnonzero(mask), np.asarray(gens))
        return tuple(gens)

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return self._abelian

    @cached_property
    def _abelian(self) -> bool:
        """Whether the Cayley table is symmetric, compared once per group."""
        return bool(np.array_equal(self.cayley, self.cayley.T))

    @cached_property
    def _subgroup_blocks(self) -> tuple[np.ndarray, ...]:
        """The order blocks of ``subgroup_blocks``, enumerated once per group and kept."""
        terms = _derived_series(self)
        blocks = _extension_subgroups(self) if terms is None else _series_subgroups(self, terms)
        for i, block in enumerate(blocks):  # in place: one order's unsorted copy at a time
            blocks[i] = _freeze(block[np.lexsort(block.T[::-1])])
        return tuple(blocks)

    def element_order(self, x: int) -> int:
        return _powers(self, x).size


@dataclass(frozen=True, eq=False)
class Subgroup:
    """``elements`` is a read-only int64 row, increasing; a view of its block if enumerated."""
    parent: FiniteGroup
    elements: np.ndarray

    @property
    def order(self) -> int:
        return self.elements.size


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def from_cayley_table(table, label: str = "") -> FiniteGroup:
    """Build a group from a full multiplication table, validating every axiom.

    Raises NotLatinSquare, NoIdentity or NotAssociative naming the first
    violating row or triple, and BoundExceeded above SUBGROUP_ENUM_BOUND
    elements, the largest group the package works with.
    """
    cay = np.asarray(table, dtype=np.int64)
    if cay.ndim != 2 or cay.shape[0] != cay.shape[1]:
        raise InputError(f"table must be square, got shape {cay.shape}")
    n = cay.shape[0]
    if n == 0:
        raise InputError("empty table")
    if n > SUBGROUP_ENUM_BOUND:
        raise BoundExceeded(f"group order {n} exceeds {SUBGROUP_ENUM_BOUND}")
    if cay.min() < 0 or cay.max() >= n:
        raise InputError("table entries must be element indices in 0..order-1")

    ref = np.arange(n)
    bad_rows = (np.sort(cay, axis=1) != ref).any(axis=1)
    if bad_rows.any():
        raise NotLatinSquare(f"row {np.argmax(bad_rows)} is not a permutation of 0..{n - 1}")
    bad_cols = (np.sort(cay, axis=0) != ref[:, None]).any(axis=0)
    if bad_cols.any():
        raise NotLatinSquare(f"column {np.argmax(bad_cols)} is not a permutation of 0..{n - 1}")

    id_candidates = np.flatnonzero((cay == ref).all(axis=1) & (cay.T == ref).all(axis=1))
    if not id_candidates.size:
        raise NoIdentity("no two-sided identity element")
    identity = int(id_candidates[0])

    def mismatch(x):  # [y, z]: (x*y)*z != x*(y*z), one left factor at a time
        left = cay[cay[x]]
        right = cay[x][cay]
        return left != right

    bad, triple = worst_entry(n, mismatch)
    if bad:
        raise NotAssociative(f"(x*y)*z != x*(y*z) at triple {triple}")

    inverse = np.argmax(cay == identity, axis=1).astype(np.int64)
    return FiniteGroup(n, _freeze(cay), identity, _freeze(inverse), label)


def build_cyclic(n: int) -> FiniteGroup:
    if n <= 0:
        raise InputError(f"cyclic order must be positive, got {n}")
    idx = np.arange(n, dtype=np.int64)
    cay = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(n, _freeze(cay), 0, _freeze((-idx) % n), f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Product group on pairs, encoded row major: index = g_index * h.order + h_index."""
    # both factors' tables are int64, so the product's are too
    cay = (g.cayley[:, None, :, None] * h.order + h.cayley[None, :, None, :])
    n = g.order * h.order
    cay = cay.reshape(n, n)
    inverse = (g.inverse[:, None] * h.order + h.inverse[None, :]).reshape(n)
    identity = g.identity * h.order + h.identity
    prod = FiniteGroup(n, _freeze(cay), int(identity), _freeze(inverse), f"{g.label}x{h.label}")
    prod.__dict__["_abelian"] = g.is_abelian() and h.is_abelian()  # no |G|^2 table comparison
    return prod


def _table_group(cay: np.ndarray, label: str) -> FiniteGroup:
    """A group from a table that is one by construction, with its identity at 0."""
    inverse = np.argmax(cay == 0, axis=1).astype(np.int64)
    return FiniteGroup(cay.shape[0], _freeze(cay), 0, _freeze(inverse), label)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of n points in lexicographic one-line order; p*q applies q first."""
    if not 1 <= n <= 5:
        raise InputError("symmetric_group supports 1 <= n <= 5")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    code = n ** np.arange(n - 1, -1, -1)  # base-n digits, increasing in lexicographic order
    index = np.empty(n ** n, dtype=np.int64)
    index[perms @ code] = np.arange(len(perms))
    # perms[:, perms][p, q, k] = p[q[k]]
    return _table_group(index[perms[:, perms] @ code], f"S{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index e*n + k encodes s^e r^k with r*s = s*r^-1."""
    if n < 1:
        raise InputError("dihedral needs n >= 1")
    if 2 * n > SUBGROUP_ENUM_BOUND:
        raise BoundExceeded(f"group order {2 * n} exceeds {SUBGROUP_ENUM_BOUND}")
    e, k = np.divmod(np.arange(2 * n), n)
    # s^e1 r^k1 * s^e2 r^k2 = s^(e1 + e2) r^(k2 + (-1)^e2 k1)
    return _table_group((e[:, None] ^ e) * n + (k + (1 - 2 * e) * k[:, None]) % n, f"D{n}")


def quaternion() -> FiniteGroup:
    """Order 8 quaternion group on the units 1, -1, i, -i, j, -j, k, -k.

    Index 2b + s is (-1)^s times the basis unit b of 1, i, j, k. The product
    of basis units b and c is the unit b xor c, negated where neg[b, c] is
    set: i*i = j*j = k*k = -1, and i*k, j*i, k*j take a minus sign.
    """
    neg = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    b, s = np.divmod(np.arange(8), 2)
    return _table_group(2 * (b[:, None] ^ b) + (s[:, None] ^ s ^ neg[b[:, None], b]), "Q8")


def _trivial_mask(g: FiniteGroup) -> np.ndarray:
    return np.arange(g.order) == g.identity


def subgroup_generated(g: FiniteGroup, gens) -> Subgroup:
    """The subgroup generated by ``gens``, joining each one not yet in the span."""
    for x in gens:
        if not 0 <= x < g.order:
            raise InputError(f"generator {x} outside 0..{g.order - 1}")
    mask, span = _trivial_mask(g), []
    for x in gens:
        if not mask[x]:
            span.append(x)
            mask = _join(g, mask, np.flatnonzero(mask), np.asarray(span))
    return Subgroup(g, _freeze(np.flatnonzero(mask)))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, _freeze(np.array([g.identity], dtype=np.int64)))


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, _freeze(np.arange(g.order, dtype=np.int64)))


def _powers(g: FiniteGroup, x: int) -> np.ndarray:
    """[e, x, x^2, ...], every power of x once; its length is the order of x."""
    powers = [g.identity]
    while (acc := int(g.cayley[powers[-1], x])) != g.identity:
        powers.append(acc)
    return np.asarray(powers)


def _cyclic_generators(g: FiniteGroup) -> list[int]:
    """The least generator of each cyclic subgroup, in increasing order."""
    least = {frozenset(_powers(g, x).tolist()): x for x in range(g.order - 1, -1, -1)}
    return sorted(least.values())


def _join(g: FiniteGroup, mask: np.ndarray, elems: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Mask of the subgroup generated by H (``mask``, ``elems``) and ``gens``.

    ``gens`` generates H together with its last entry x, which lies outside
    H. Starting from H and its coset H x, every new element is multiplied
    on the right by the generators until nothing new appears; in a finite
    group the products reached that way are the whole join.
    """
    mask = mask.copy()
    new = g.cayley[elems, gens[-1]]
    while new.size:
        mask[new] = True
        hit = np.zeros_like(mask)
        hit[g.cayley[new[:, None], gens]] = True
        new = np.flatnonzero(hit & ~mask)
    return mask


def _extension_subgroups(g: FiniteGroup) -> list[np.ndarray]:
    """Every subgroup by cyclic extension, one block per order as ``_series_subgroups`` gives.

    Every subgroup is a join of cyclic subgroups, so growing each known
    subgroup H by one generator x of each cyclic subgroup outside it
    reaches them all (Neubueser 1960). Since join(H, x) = join(H, hx) for
    h in H, only the first such x of each right coset H x is tried.
    """
    cyclic = _cyclic_generators(g)
    triv = _trivial_mask(g)
    seen = {triv.tobytes(): triv}
    queue: list[tuple[np.ndarray, tuple[int, ...]]] = [(triv, ())]
    for mask, gens in queue:  # appended to while it is walked
        elems = np.flatnonzero(mask)
        tried = mask.copy()
        for x in cyclic:
            if tried[x]:
                continue
            tried[g.cayley[elems, x]] = True
            grown_gens = gens + (x,)
            grown = _join(g, mask, elems, np.asarray(grown_gens))
            key = grown.tobytes()
            if key not in seen:
                seen[key] = grown
                queue.append((grown, grown_gens))
    masks = np.array(list(seen.values()))
    sizes = np.count_nonzero(masks, axis=1)
    return [np.nonzero(masks[sizes == m])[1].reshape(-1, m) for m in np.unique(sizes)]


def _derived_series(g: FiniteGroup) -> list[np.ndarray] | None:
    """Masks of the derived series G, G', G'', ... down to the last term above {e}.

    G^(j+1) is generated by the commutators a^-1 b^-1 a b of G^(j). An
    abelian group's series is G alone, with no table read. Returns None
    when a term is its own commutator subgroup above {e}, that is when G is
    not solvable.
    """
    terms = [np.ones(g.order, dtype=bool)]
    if g.is_abelian():
        return terms
    while True:
        d = np.flatnonzero(terms[-1])
        comm = np.zeros(g.order, dtype=bool)
        comm[g.cayley[g.inverse[d][:, None], g.conjugation[d[:, None], d]]] = True
        nxt = generated_subgroups(g.cayley[None], comm[None])[0]
        size = np.count_nonzero(nxt)
        if size == 1:
            return terms
        if size == d.size:
            return None
        terms.append(nxt)


def _series_subgroups(g: FiniteGroup, terms: list[np.ndarray]) -> list[np.ndarray]:
    """Every subgroup of a solvable group, each built once: one block per order, ascending.

    Walks a series {e} = B_0 < B_1 < ... < B_k = G with cyclic factors:
    B_i joins B_{i-1} and g_i, the least element outside B_{i-1} of the
    deepest term of ``_derived_series`` that B_{i-1} does not yet hold, and
    m_i = [B_i : B_{i-1}]. The factors of the derived series are abelian,
    so B_{i-1} is normal in B_i. For an abelian group the series is that of
    its greedy generators (``FiniteGroup.generators``). Every subgroup H
    of B_i is K<x> for exactly one triple (K, d, b): K = H n B_{i-1}, a
    subgroup of the step before; d | m_i, the index of the image of H in
    the cyclic quotient B_i / B_{i-1}; and b, the least element of a right
    coset K b in B_{i-1}, where x = b g_i^d normalizes K and x^(m_i/d)
    lies in K. The case d = m_i is H = K, so each step keeps the subgroups
    it had and adds one product gather per (K, d < m_i). Every x of an
    abelian group normalizes K, so only a nonabelian one is tested.
    """
    abelian = g.is_abelian()
    blocks = {1: np.array([[g.identity]])}  # order -> its subgroups, one per row
    span = blocks[1][0]
    while span.size < g.order:
        inside = np.zeros(g.order, dtype=bool)
        inside[span] = True
        term = next(t for t in reversed(terms) if np.count_nonzero(t) > span.size)
        x = int(np.argmax(term & ~inside))
        powers = [g.identity, x]  # g_i^0 .. g_i^m_i
        while not inside[powers[-1]]:
            powers.append(int(g.cayley[powers[-1], x]))
        m = len(powers) - 1
        grown: dict[int, list[np.ndarray]] = {}
        for block in blocks.values():
            for k in block:
                in_k = np.zeros(g.order, dtype=bool)
                in_k[k] = True
                # b is the least element of K b
                reps = span[g.cayley[k[:, None], span].min(axis=0) == span]
                for d in range(1, m):
                    if m % d:
                        continue
                    t = m // d
                    xs = g.cayley[reps, powers[d]]
                    xpow = np.empty((t + 1, reps.size), dtype=np.int64)  # xpow[j] = xs^j
                    xpow[0] = g.identity
                    for j in range(t):
                        xpow[j + 1] = g.cayley[xpow[j], xs]
                    keep = in_k[xpow[t]]
                    if not abelian:
                        keep &= in_k[g.conjugation[k[:, None], xs]].all(axis=0)
                    cosets = xpow[:t, keep]
                    if cosets.size:
                        h = g.cayley[k[:, None, None], cosets].reshape(-1, cosets.shape[1])
                        grown.setdefault(h.shape[0], []).append(np.sort(h.T, axis=1))
        while grown:  # each order's pieces are freed once joined
            order, parts = grown.popitem()
            blocks[order] = np.concatenate(parts + [blocks.get(order, parts[0][:0])])
        span = np.sort(g.cayley[span[:, None], powers[:m]].ravel())
    return [blocks[order] for order in sorted(blocks)]


def subgroup_blocks(g: FiniteGroup) -> list[np.ndarray]:
    """Every subgroup, one read-only int64 (B, m) block per order m, orders ascending.

    Row b of a block holds one subgroup's elements in increasing order,
    and the rows come in lexicographic order.  A solvable group has each
    subgroup built once along a cyclic series that refines its derived
    series (``_series_subgroups``); a group that is not solvable is
    searched by cyclic extension (``_extension_subgroups``).

    The blocks are enumerated on the first call and kept on the group
    for its lifetime; every later call returns a new list of the same
    arrays.  The largest group a scan reaches, the Z2^4 time-frequency
    group, keeps 417,199 rows, about 63 MB; ``replace(g)`` gives the same
    table with nothing kept.  A group above SUBGROUP_ENUM_BOUND is refused
    before anything is enumerated or kept.
    """
    if g.order > SUBGROUP_ENUM_BOUND:
        raise BoundExceeded(
            f"subgroup enumeration requires order <= {SUBGROUP_ENUM_BOUND}, got {g.order}"
        )
    return list(g._subgroup_blocks)


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, ordered by (order, elements): one per row of ``subgroup_blocks``."""
    return [Subgroup(g, row) for block in subgroup_blocks(g) for row in block]


@dataclass(frozen=True, eq=False)
class ConjugacyData:
    """Class labels, numbered in order of their least members, and those members.

    ``least[k]`` is the least member of class k.
    """

    class_of: np.ndarray
    least: np.ndarray

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Members of each class in increasing order, built on first read."""
        return tuple(tuple(np.flatnonzero(self.class_of == k).tolist())
                     for k in range(int(self.class_of.max()) + 1))


def conjugacy(g: FiniteGroup) -> ConjugacyData:
    """Class labels in minimal-representative order.

    Row x of the conjugation table is the class of x, so its minimum is
    the least member of the class and labels it; x is that member when
    the minimum is x itself.  In an abelian group every class is a single
    element, labelled by itself, so no table is read.
    """
    idx = np.arange(g.order, dtype=np.int64)
    if g.is_abelian():
        return ConjugacyData(_freeze(idx), _freeze(idx))
    mins = g.conjugation.min(axis=1)
    is_least = mins == idx
    label = np.cumsum(is_least) - 1  # label[least member of class k] = k
    return ConjugacyData(_freeze(label[mins]), _freeze(np.flatnonzero(is_least)))


def centralizer_transversal(g: FiniteGroup, gamma: int) -> tuple[int, ...]:
    """Coset representatives of the centralizer of gamma, one per distinct conjugate.

    Each representative is the least beta giving its conjugate beta^-1 gamma beta.
    """
    _, first = np.unique(g.conjugation[gamma], return_index=True)
    return tuple(sorted(first.tolist()))


def right_transversal(g: FiniteGroup, subgroup_elems) -> np.ndarray:
    """Minimal representatives y, one per orbit H*y of left multiplication by H, increasing.

    H holds e, so y is the least member of H*y exactly when no h*y is less.  A (B, m)
    block of subgroups, one per row, gets one row of |G|/m representatives per subgroup.
    """
    H = np.asarray(subgroup_elems, dtype=np.int64)
    least = g.cayley[H].min(axis=-2) == np.arange(g.order)
    return np.nonzero(least)[-1].reshape(*H.shape[:-1], -1)


def subgroup_tables(parent: FiniteGroup, elems: np.ndarray):
    """Cayley tables, inverses and identities of a block of equal-order subgroups.

    Row b of ``elems``, shape (B, m), holds the elements of one subgroup in
    increasing order.  Block tables name element i of subgroup b by its
    place b*m + i in the flattened block, so a block of one subgroup names
    its elements 0..m-1, as a group of its own does.  Returns the (B, m, m)
    Cayley tables, the (B, m) inverses and the (B,) identities.
    """
    nb, m = elems.shape
    # pos[b * order + x] is the place of parent element x in subgroup b
    shift = np.arange(0, nb * parent.order, parent.order)[:, None]
    pos = np.empty(nb * parent.order, dtype=np.int64)
    pos.fill(-1)
    pos[elems + shift] = np.arange(nb * m).reshape(nb, m)
    cay = pos[parent.cayley[elems[:, :, None], elems[:, None, :]] + shift[:, :, None]]
    return cay, pos[parent.inverse[elems] + shift], pos.reshape(nb, -1)[:, parent.identity]


def generated_subgroups(cayley: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masks of the subgroups that the rows of ``mask`` generate, a whole block at once.

    ``cayley`` holds a block's (B, m, m) Cayley tables in block places, as
    ``subgroup_tables`` gives them, and row b of the (B, m) ``mask`` a set S
    that holds the identity of group b.  Every S is squared to S S until no
    row grows; a finite set that holds e and is closed under products is a
    subgroup.
    """
    while True:
        grown = np.zeros(mask.size, dtype=bool)
        grown[cayley[mask[:, :, None] & mask[:, None, :]]] = True
        if np.count_nonzero(grown) == np.count_nonzero(mask):
            return mask
        mask = grown.reshape(mask.shape)


def subgroup_group(sub: Subgroup) -> FiniteGroup:
    """Materialize a subgroup as a standalone group on 0..order-1.

    Index i corresponds to parent element sub.elements[i].
    """
    cay, inverse, identity = subgroup_tables(sub.parent, sub.elements[None])
    return FiniteGroup(sub.order, _freeze(cay[0]), int(identity[0]), _freeze(inverse[0]),
                       f"{sub.parent.label}<{sub.order}>")


def abelian_basis(g: FiniteGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators and orders of a cyclic direct decomposition, largest order first.

    Found by depth-first search that only appends a generator when the product
    with the current span is direct, so the returned tuples always multiply
    out to the whole group.
    """
    if not g.is_abelian():
        raise NotAbelian(f"group {g.label or g.order} is not abelian")
    powers = [_powers(g, x) for x in range(g.order)]
    by_pref = sorted(range(g.order), key=lambda x: (-powers[x].size, x))

    def extend(members: np.ndarray, gens: list[int]) -> list[int] | None:
        if members.size == g.order:
            return gens
        for x in by_pref:
            if x in members:
                continue
            prod = g.cayley[members[:, None], powers[x]]
            grown = np.zeros(g.order, dtype=bool)
            grown[prod] = True
            if np.count_nonzero(grown) == prod.size:
                res = extend(np.flatnonzero(grown), gens + [x])
                if res is not None:
                    return res
        return None

    gens = extend(np.array([g.identity]), [])
    if gens is None:
        raise ConsistencyError("abelian decomposition search failed")
    return tuple(gens), tuple(powers[x].size for x in gens)


def cyclic_factor_generators(factors: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unit-vector generators of a row-major product of cyclic groups."""
    gens = []
    for i in range(len(factors)):
        stride = 1
        for f in factors[i + 1:]:
            stride *= f
        gens.append(stride)
    return tuple(gens), tuple(factors)


@dataclass(frozen=True, eq=False)
class DualGroup:
    """Character group of a finite abelian group with an explicit pairing.

    pairing[w, x] is the value of character w at element x. Characters are
    indexed in the same mixed radix as the chosen cyclic decomposition of the
    primal group, so the dual group is the matching product of cyclic groups.
    """

    group: FiniteGroup
    pairing: np.ndarray


def dual_group(a: FiniteGroup, gens=None, orders=None) -> DualGroup:
    if (gens is None) != (orders is None):
        raise InputError("pass gens and orders together or neither")
    if gens is None:
        gens, orders = abelian_basis(a)
    elif not a.is_abelian():
        raise NotAbelian("dual_group needs an abelian group")
    gens, orders = tuple(gens), tuple(orders)
    if len(gens) != len(orders):
        raise InputError("pass one order per generator")

    # elems[j] = prod_i gens[i]^(j_i) for the mixed-radix digits j_i of j; a
    # factor of order 1 contributes e, so its generator is never multiplied
    elems = np.array([a.identity])
    for x, m in zip(gens, orders):
        powers = np.resize(_powers(a, x), m) if m > 1 else [a.identity]  # x^0 .. x^(m-1)
        elems = a.cayley[elems[:, None], powers].ravel()
    seen = np.zeros(a.order, dtype=bool)
    seen[elems] = True
    if np.count_nonzero(seen) != elems.size:
        raise InputError("given generators do not decompose the group directly")
    if elems.size != a.order:
        raise InputError("given generators do not span the group")

    dual = reduce(direct_product, [build_cyclic(m) for m in orders], build_cyclic(1))
    dual_coords = np.indices(orders).reshape(len(orders), dual.order)
    coords = np.empty_like(dual_coords)
    coords[:, elems] = dual_coords
    phases = np.zeros((dual.order, a.order))
    for i, m in enumerate(orders):
        phases += np.outer(dual_coords[i], coords[i]) / m
    return DualGroup(replace(dual, label=f"{a.label}^"), _freeze(np.exp(2j * np.pi * phases)))
