"""Exception types shared across the package."""


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


def check_residual(what: str, residual: float, bound: float,
                   exc: type[LatdimError] = ConsistencyError) -> None:
    """Raise ``exc`` unless ``residual <= bound``, so a NaN residual fails too."""
    if not residual <= bound:
        raise exc(f"{what} is {residual:.3e}, bound {bound:.3e}")
