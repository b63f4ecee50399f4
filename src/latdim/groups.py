"""Finite groups as dense index tables.

Elements are the integers 0..order-1. A group is its Cayley table plus the
derived identity and inverse data. A subgroup is its parent and its sorted
elements; ``right_transversal`` picks one representative per right coset
H * y for callers that need the unique factorization x = h * y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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

    def inv(self, x: int) -> int:
        return int(self.inverse[x])

    def conjugate(self, x: int, y: int) -> int:
        """Return y^-1 * x * y."""
        return int(self.cayley[self.cayley[self.inverse[y], x], y])

    @cached_property
    def conjugation(self) -> np.ndarray:
        """Read-only table indexed [x, y] holding y^-1 * x * y."""
        yinv_x = self.cayley[self.inverse].T  # [x, y] = y^-1 * x
        return _freeze(self.cayley[yinv_x, np.arange(self.order)])

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))

    def element_order(self, x: int) -> int:
        k, acc = 1, x
        while acc != self.identity:
            acc = int(self.cayley[acc, x])
            k += 1
        return k


@dataclass(frozen=True, eq=False)
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


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
    for i in range(n):
        if not np.array_equal(np.sort(cay[i]), ref):
            raise NotLatinSquare(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if not np.array_equal(np.sort(cay[:, j]), ref):
            raise NotLatinSquare(f"column {j} is not a permutation of 0..{n - 1}")

    id_candidates = [e for e in range(n) if np.array_equal(cay[e], ref) and np.array_equal(cay[:, e], ref)]
    if not id_candidates:
        raise NoIdentity("no two-sided identity element")
    identity = id_candidates[0]

    for x in range(n):  # one left factor at a time keeps memory O(n^2)
        left = cay[cay[x]]   # left[y, z] = (x*y)*z
        right = cay[x][cay]  # right[y, z] = x*(y*z)
        if not np.array_equal(left, right):
            y, z = map(int, np.argwhere(left != right)[0])
            raise NotAssociative(f"(x*y)*z != x*(y*z) at triple ({x}, {y}, {z})")

    inverse = np.argmax(cay == identity, axis=1).astype(np.int64)
    return FiniteGroup(n, _freeze(cay), identity, _freeze(inverse), label)


def build_cyclic(n: int, label: str | None = None) -> FiniteGroup:
    if n <= 0:
        raise InputError(f"cyclic order must be positive, got {n}")
    idx = np.arange(n)
    cay = (idx[:, None] + idx[None, :]) % n
    inverse = (-idx) % n
    return FiniteGroup(n, _freeze(cay.astype(np.int64)), 0, _freeze(inverse.astype(np.int64)),
                       label if label is not None else f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, label: str | None = None) -> FiniteGroup:
    """Product group on pairs, encoded row major: index = g_index * h.order + h_index."""
    cay = (g.cayley[:, None, :, None] * h.order + h.cayley[None, :, None, :])
    n = g.order * h.order
    cay = cay.reshape(n, n).astype(np.int64)
    inverse = (g.inverse[:, None] * h.order + h.inverse[None, :]).reshape(n).astype(np.int64)
    identity = g.identity * h.order + h.identity
    return FiniteGroup(n, _freeze(cay), int(identity), _freeze(inverse),
                       label if label is not None else f"{g.label}x{h.label}")


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of n points in lexicographic one-line order; p*q applies q first."""
    if not 1 <= n <= 5:
        raise InputError("symmetric_group supports 1 <= n <= 5")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    cay = np.empty((m, m), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            cay[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return from_cayley_table(cay, label=f"S{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index e*n + k encodes s^e r^k with r*s = s*r^-1."""
    if n < 1:
        raise InputError("dihedral needs n >= 1")
    m = 2 * n
    cay = np.empty((m, m), dtype=np.int64)
    for e1 in (0, 1):
        for k1 in range(n):
            for e2 in (0, 1):
                for k2 in range(n):
                    e = e1 ^ e2
                    k = (k2 + (-k1 if e2 else k1)) % n
                    cay[e1 * n + k1, e2 * n + k2] = e * n + k
    return from_cayley_table(cay, label=f"D{n}")


def quaternion() -> FiniteGroup:
    """Order 8 quaternion group on the units 1, -1, i, -i, j, -j, k, -k."""
    units = [
        (1, 0, 0, 0), (-1, 0, 0, 0),
        (0, 1, 0, 0), (0, -1, 0, 0),
        (0, 0, 1, 0), (0, 0, -1, 0),
        (0, 0, 0, 1), (0, 0, 0, -1),
    ]
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
    return from_cayley_table(cay, label="Q8")


def _closure_mask(g: FiniteGroup, gens) -> np.ndarray:
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


def _subgroup_from_mask(g: FiniteGroup, mask: np.ndarray) -> Subgroup:
    return Subgroup(g, tuple(int(x) for x in np.flatnonzero(mask)))


def subgroup_generated(g: FiniteGroup, gens) -> Subgroup:
    for x in gens:
        if not 0 <= x < g.order:
            raise InputError(f"generator {x} outside 0..{g.order - 1}")
    return _subgroup_from_mask(g, _closure_mask(g, gens))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return subgroup_generated(g, [])


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return subgroup_generated(g, range(g.order))


def generators(g: FiniteGroup) -> tuple[int, ...]:
    """Greedy generating set of at most log2|G| elements.

    Appends the first element outside the current span until the span is
    everything; each addition at least doubles it.
    """
    gens: list[int] = []
    mask = _closure_mask(g, gens)
    while not mask.all():
        gens.append(int(np.argmin(mask)))
        mask = _closure_mask(g, gens)
    return tuple(gens)


def _cyclic_generators(g: FiniteGroup) -> list[int]:
    """The least generator of each cyclic subgroup, in increasing order."""
    seen: set[bytes] = set()
    out = []
    for x in range(g.order):
        mask = np.zeros(g.order, dtype=bool)
        acc = x
        while not mask[acc]:
            mask[acc] = True
            acc = int(g.cayley[acc, x])
        key = mask.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


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


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, by cyclic extension, ordered by (order, elements).

    Every subgroup is a join of cyclic subgroups, so growing each known
    subgroup H by one generator x of each cyclic subgroup outside it
    reaches them all (Neubueser 1960). Since join(H, x) = join(H, hx) for
    h in H, only the first such x of each right coset H x is tried.
    """
    if g.order > SUBGROUP_ENUM_BOUND:
        raise BoundExceeded(
            f"subgroup enumeration requires order <= {SUBGROUP_ENUM_BOUND}, got {g.order}"
        )
    cyclic = _cyclic_generators(g)
    triv = _closure_mask(g, [])
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
    subs = [_subgroup_from_mask(g, m) for m in seen.values()]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


@dataclass(frozen=True, eq=False)
class ConjugacyData:
    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray


def conjugacy(g: FiniteGroup) -> ConjugacyData:
    """Conjugacy classes in minimal-representative order.

    Row x of the conjugation table is the class of x, so its minimum is
    the least member of the class and labels it.
    """
    _, class_of = np.unique(g.conjugation.min(axis=1), return_inverse=True)
    class_of = class_of.astype(np.int64)
    members = np.argsort(class_of, kind="stable")
    sizes = np.bincount(class_of)
    classes = tuple(tuple(c.tolist()) for c in np.split(members, np.cumsum(sizes)[:-1]))
    return ConjugacyData(classes, _freeze(class_of))


def centralizer_transversal(g: FiniteGroup, gamma: int) -> tuple[int, ...]:
    """Coset representatives of the centralizer of gamma, one per distinct conjugate.

    Each representative is the least beta giving its conjugate beta^-1 gamma beta.
    """
    _, first = np.unique(g.conjugation[gamma], return_index=True)
    return tuple(sorted(first.tolist()))


def right_transversal(g: FiniteGroup, subgroup_elems) -> tuple[int, ...]:
    """Minimal representatives y, one per orbit H*y of left multiplication by H."""
    H = np.asarray(list(subgroup_elems), dtype=np.int64)
    return tuple(np.unique(g.cayley[H].min(axis=0)).tolist())


def subgroup_group(sub: Subgroup, label: str | None = None) -> FiniteGroup:
    """Materialize a subgroup as a standalone group on 0..order-1.

    Index i corresponds to parent element sub.elements[i].
    """
    elems = np.asarray(sub.elements, dtype=np.int64)
    pos = np.full(sub.parent.order, -1, dtype=np.int64)
    pos[elems] = np.arange(len(elems))
    cay = pos[sub.parent.cayley[np.ix_(elems, elems)]]
    inverse = pos[sub.parent.inverse[elems]]
    identity = int(pos[sub.parent.identity])
    if label is None:
        label = f"{sub.parent.label}<{len(elems)}>"
    return FiniteGroup(len(elems), _freeze(cay.astype(np.int64)), identity,
                       _freeze(inverse.astype(np.int64)), label)


def abelian_basis(g: FiniteGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators and orders of a cyclic direct decomposition, largest order first.

    Found by depth-first search that only appends a generator when the product
    with the current span is direct, so the returned tuples always multiply
    out to the whole group.
    """
    if not g.is_abelian():
        raise NotAbelian(f"group {g.label or g.order} is not abelian")
    orders = [g.element_order(x) for x in range(g.order)]
    by_pref = sorted(range(g.order), key=lambda x: (-orders[x], x))

    def extend(members: list[int], gens: list[int]) -> list[int] | None:
        if len(members) == g.order:
            return gens
        mset = set(members)
        for x in by_pref:
            if x in mset:
                continue
            powers = [g.identity]
            acc = x
            while acc != g.identity:
                powers.append(acc)
                acc = g.mul(acc, x)
            prod = set()
            for m in members:
                row = g.cayley[m, powers]
                prod.update(int(v) for v in row)
            if len(prod) == len(members) * len(powers):
                res = extend(sorted(prod), gens + [x])
                if res is not None:
                    return res
        return None

    gens = extend([g.identity], [])
    if gens is None:
        raise ConsistencyError("abelian decomposition search failed")
    return tuple(gens), tuple(orders[x] for x in gens)


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
    orders: tuple[int, ...]
    primal_coords: np.ndarray
    pairing: np.ndarray


def dual_group(a: FiniteGroup, gens=None, orders=None) -> DualGroup:
    if (gens is None) != (orders is None):
        raise InputError("pass gens and orders together or neither")
    if gens is None:
        gens, orders = abelian_basis(a)
    elif not a.is_abelian():
        raise NotAbelian("dual_group needs an abelian group")
    gens = tuple(gens)
    orders = tuple(orders)

    k = len(gens)
    coords = np.zeros((a.order, k), dtype=np.int64)
    seen = np.zeros(a.order, dtype=bool)
    for tup in itertools.product(*(range(m) for m in orders)):
        x = a.identity
        for gidx, e in zip(gens, tup):
            p = a.identity
            for _ in range(e):
                p = a.mul(p, gidx)
            x = a.mul(x, p)
        if seen[x]:
            raise InputError("given generators do not decompose the group directly")
        seen[x] = True
        coords[x] = tup
    if not seen.all():
        raise InputError("given generators do not span the group")

    if k == 0:
        dual = build_cyclic(1, label=f"{a.label}^")
    else:
        dual = reduce(direct_product, [build_cyclic(m) for m in orders])
        dual = FiniteGroup(dual.order, dual.cayley, dual.identity, dual.inverse,
                           label=f"{a.label}^")

    dual_coords = np.zeros((dual.order, k), dtype=np.int64)
    for j in range(dual.order):
        rem = j
        for i in range(k - 1, -1, -1):
            dual_coords[j, i] = rem % orders[i]
            rem //= orders[i]

    if k == 0:
        pairing = np.ones((1, a.order), dtype=np.complex128)
    else:
        phases = np.zeros((dual.order, a.order))
        for i, m in enumerate(orders):
            phases += np.outer(dual_coords[:, i], coords[:, i]) / m
        pairing = np.exp(2j * np.pi * phases)
    return DualGroup(dual, orders, _freeze(coords), _freeze(pairing))
