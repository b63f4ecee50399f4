"""Every fixed check bound is named in latdim.config, and checks fail closed."""

import math
import pathlib
import tokenize

import numpy as np
import pytest

import latdim
from latdim.config import Tolerances
from latdim.errors import ConsistencyError, InputError, WindowNotUnit, check_residual, worst_entry

SRC = pathlib.Path(latdim.__file__).parent


def _exponent_literals(path):
    """(line, text) of every exponent-form float literal in the code tokens."""
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            text = tok.string.lower()
            if tok.type == tokenize.NUMBER and "e" in text and not text.startswith("0x"):
                yield tok.start[0], tok.string


def test_bounds_are_named_only_in_config():
    assert list(_exponent_literals(SRC / "config.py"))  # the scan sees literals
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "config.py"
        for line, text in _exponent_literals(path)
    ]
    assert not found, "name these bounds in latdim/config.py: " + ", ".join(found)


@pytest.mark.parametrize("residual", [math.nan, 2e-9, math.inf])
def test_check_residual_fails_above_the_bound_and_on_nan(residual):
    with pytest.raises(ConsistencyError, match="bound 1.000e-09"):
        check_residual("test residual", residual, 1e-9)
    with pytest.raises(WindowNotUnit):
        check_residual("test residual", residual, 1e-9, WindowNotUnit)


def test_check_residual_passes_at_the_bound():
    check_residual("test residual", 1e-9, 1e-9)
    check_residual("test residual", 0.0, 0.0)


@pytest.mark.parametrize("nans", [0, 1, 3])
@pytest.mark.parametrize("seed", range(4))
def test_worst_entry_is_the_argmax_of_the_whole_stack(seed, nans):
    # few distinct values, so maxima tie across slabs and within one
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 4, size=(5, 3, 4)).astype(float)
    stack.flat[rng.choice(stack.size, nans, replace=False)] = math.nan
    value, at = worst_entry(len(stack), lambda x: stack[x])
    want = np.unravel_index(np.argmax(stack), stack.shape)
    assert at == want and all(type(i) is int for i in at)
    assert value == stack[want] or (math.isnan(value) and math.isnan(stack[want]))


@pytest.mark.parametrize("value", [-1e-12, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["tol_unit", "tol_id", "tol_psd", "tol_frame"])
def test_tolerances_are_finite_and_non_negative(name, value):
    with pytest.raises(InputError, match=f"^{name} must be finite and non-negative"):
        Tolerances(**{name: value})
    assert getattr(Tolerances(**{name: 0.0}), name) == 0.0
