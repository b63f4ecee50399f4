"""Exception types shared across the package."""

import numpy as np


class LatdimError(Exception):
    """Base class for every library error."""


class InputError(LatdimError):
    """Malformed caller input: bad tables, bad spec strings, bad shapes."""


class NotLatinSquare(InputError):
    pass


class NotAssociative(InputError):
    pass


class NoIdentity(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class NotAbelian(InputError):
    pass


class BoundExceeded(InputError):
    pass


class WindowNotUnit(InputError):
    pass


class NotIrreducible(LatdimError):
    pass


class NotHermitian(LatdimError):
    pass


class Infeasible(LatdimError):
    """The requested object cannot exist at the given parameters."""


class ConsistencyError(LatdimError):
    """An internal invariant failed, which indicates a bug upstream."""


def check_residual(what: str, residual, bound,
                   exc: type[LatdimError] = ConsistencyError) -> None:
    """Raise ``exc`` unless ``residual <= bound``, so a NaN residual fails too.

    Residuals and bounds may be arrays with one entry per lattice of a
    block; the first entry that fails is the one reported.
    """
    ok = residual <= bound
    if ok.all() if isinstance(ok, np.ndarray) else ok:
        return
    at = np.argmin(ok)
    residual, bound = (np.broadcast_to(v, np.shape(ok)).flat[at] for v in (residual, bound))
    raise exc(f"{what} is {residual:.3e}, bound {bound:.3e}")


def worst_entry(n: int, slab) -> tuple[float, tuple[int, ...]]:
    """``np.argmax`` over the stack slab(0), ..., slab(n - 1), one slab in memory at a time.

    Returns the first maximum in index order, or the first NaN, and its
    index (x, ...) in the stack.
    """
    for x in range(n):
        s = slab(x)
        at = int(np.argmax(s))
        if x == 0 or not s.flat[at] <= worst:  # negated, so a NaN is taken
            worst, where = float(s.flat[at]), (x, *map(int, np.unravel_index(at, s.shape)))
            if np.isnan(worst):
                break
    return worst, where
