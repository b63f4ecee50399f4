"""Shared constructions for the suite, cached so repeated use is free.

The fixture catalog mirrors what the acceptance gate runs on: small
cyclic groups and products, the three classic nonabelian groups,
time-frequency groups over small bases, and one twisted nonabelian
product obtained by lifting the Pauli twist through a direct factor.
"""

import tracemalloc
from functools import cache

import numpy as np

from latdim import (
    Cocycle,
    Tolerances,
    build_cyclic,
    build_tf,
    dihedral,
    direct_product,
    irreducible_subrep,
    projective_rep,
    quaternion,
    symmetric_group,
    trivial,
)

GROUP_NAMES = (
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8",
    "Z2xZ2", "Z2xZ4", "S3", "D4", "Q8",
)

WH_BASES = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6")


def _atom(token):
    if token == "Q8":
        return quaternion()
    builders = {"Z": build_cyclic, "S": symmetric_group, "D": dihedral}
    return builders[token[0]](int(token[1:]))


@cache
def group(name):
    """Direct product of builtin tokens joined by x, e.g. D4xZ2xZ2."""
    g = None
    for token in name.split("x"):
        h = _atom(token)
        g = h if g is None else direct_product(g, h)
    return g


@cache
def tf(base_name):
    return build_tf(group(base_name))


@cache
def trivial_irrep(name):
    g = group(name)
    return irreducible_subrep(g, trivial(g), seed=0)


@cache
def pauli_product(name="S3"):
    """The group ``name`` times the order-4 time-frequency group, twist from the second factor."""
    p = tf("Z2")
    f = group(name)
    g = direct_product(f, p.group)
    table = np.kron(np.ones((f.order, f.order)), p.cocycle.table)
    return g, Cocycle(g, table, label="lifted-pauli")


@cache
def pauli_product_irrep(name="S3"):
    """An irrep of ``pauli_product(name)``: a rep of the first factor times the Pauli rep.

    Its phi lives on the regular elements, the first factor, where the
    trace does not vanish.  For S4 the cut has dimension 6, a three-dimensional
    rep of S4 whose trace vanishes on the 3-cycles.
    """
    g, c = pauli_product(name)
    return irreducible_subrep(g, c, seed=1)


NEAR_TOL = Tolerances(tol_id=1e-6)


@cache
def near_rep():
    """pi = 1, a 1x1 rep of Z4xZ4 (element 4a + b) under sigma(x, y) = exp(1e-8 i b_x a_y).

    sigma misses the cocycle identity by about 1e-7, so the rep is valid at
    NEAR_TOL (tol_id 1e-6) and not at the defaults.  At 1e-6 every element
    is regular; at the default 1e-9 only the identity is.
    """
    g = group("Z4xZ4")
    a, b = np.divmod(np.arange(g.order), 4)
    coc = Cocycle(g, np.exp(1e-8j * np.outer(b, a)), label="near")
    return projective_rep(g, coc, np.ones((g.order, 1, 1)), NEAR_TOL)


def rep_fixtures():
    """(label, rep) pairs: trivial twists, abelian twists, one nonabelian twist."""
    pairs = [(f"{n}-trivial", trivial_irrep(n)) for n in GROUP_NAMES]
    pairs += [(f"wh-{b}", tf(b).rep) for b in ("Z2", "Z3", "Z4")]
    pairs.append(("s3-pauli", pauli_product_irrep()))
    return pairs


def _gauge(g, seed):
    """Seeded phases f on the group, f(e) = 1."""
    f = np.exp(2j * np.pi * np.random.default_rng(seed).random(g.order))
    f[g.identity] = 1.0
    return f


def gauge_twisted(coc, seed=5):
    """coc times the coboundary f(x) f(y) / f(xy) of seeded phases f, f(e) = 1."""
    g = coc.group
    f = _gauge(g, seed)
    return Cocycle(g, coc.table * np.outer(f, f) / f[g.cayley], label="gauged")


def gauge_twisted_rep(rep, seed=5):
    """x -> f(x) pi(x), a rep for ``gauge_twisted(rep.cocycle, seed)`` with the same phases."""
    f = _gauge(rep.group, seed)
    return projective_rep(rep.group, gauge_twisted(rep.cocycle, seed),
                          f[:, None, None] * rep.matrices, rep.tol)


def cocycle_fixtures():
    out = [(f"{n}-trivial", trivial(group(n))) for n in GROUP_NAMES]
    out += [(f"wh-{b}", tf(b).cocycle) for b in WH_BASES]
    out.append(("s3-pauli", pauli_product()[1]))
    return out


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak, in bytes, reached while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak

