"""Every fixed check bound is named in latdim.config, and checks fail closed."""

import math
import pathlib
import tokenize

import pytest

import latdim
from latdim.errors import ConsistencyError, WindowNotUnit, check_residual

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
