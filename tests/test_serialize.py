import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latdim import (
    InputError,
    Tolerances,
    cocycle_from_json,
    cocycle_to_json,
    complex_to_pairs,
    dihedral,
    dump_json,
    generators_from_json,
    generators_to_json,
    group_from_json,
    group_to_json,
    load_json,
    pairs_to_complex,
    projective_rep,
    read_cayley_text,
    rep_from_json,
    rep_to_json,
    write_cayley_text,
)

from fixtures_common import pauli_product, tf


@given(
    st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_pairs_round_trip(vals):
    arr = np.array([complex(re, im) for re, im in vals])
    back = pairs_to_complex(complex_to_pairs(arr))
    assert np.array_equal(back, arr)


def test_pairs_reject_bad_shapes():
    with pytest.raises(InputError):
        pairs_to_complex([1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        pairs_to_complex(5.0)


def test_group_json_round_trip():
    g = dihedral(4)
    back = group_from_json(group_to_json(g))
    assert np.array_equal(back.cayley, g.cayley)
    assert back.label == g.label
    with pytest.raises(InputError):
        group_from_json({"label": "missing table"})


def test_cayley_text_round_trip(tmp_path):
    g = dihedral(4)
    path = str(tmp_path / "d4.txt")
    write_cayley_text(g, path)
    back = read_cayley_text(path)
    assert np.array_equal(back.cayley, g.cayley)


def test_cayley_text_error_lines(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(InputError):
        read_cayley_text(str(p))
    p.write_text("size 2\n0 1\n1 0\n")
    with pytest.raises(InputError) as exc:
        read_cayley_text(str(p))
    assert "line 1" in str(exc.value)
    p.write_text("order 2\n0 1\n")
    with pytest.raises(InputError) as exc:
        read_cayley_text(str(p))
    assert "expected 2 table rows" in str(exc.value)
    p.write_text("order 2\n0 1\n1\n")
    with pytest.raises(InputError) as exc:
        read_cayley_text(str(p))
    assert "line 3" in str(exc.value)
    p.write_text("order 2\n0 1\n1 x\n")
    with pytest.raises(InputError) as exc:
        read_cayley_text(str(p))
    assert "line 3" in str(exc.value)


def test_cocycle_json_round_trip():
    _, coc = pauli_product()
    back = cocycle_from_json(cocycle_to_json(coc))
    assert np.array_equal(back.table, coc.table)
    assert back.label == coc.label


def test_cocycle_json_check_catches_corruption():
    coc = tf("Z2").cocycle
    data = cocycle_to_json(coc)
    data["table"][1][2] = [2.0, 0.0]
    with pytest.raises(InputError):
        cocycle_from_json(data)
    # with checking off the bad table is accepted as-is
    loose = cocycle_from_json(data, check=False)
    assert loose.table[1, 2] == 2.0
    with pytest.raises(InputError):
        cocycle_from_json({"table": data["table"]})


def test_rep_json_round_trip():
    rep = tf("Z3").rep
    back = rep_from_json(rep_to_json(rep))
    assert back.dim == rep.dim
    assert np.array_equal(back.matrices, rep.matrices)
    assert np.array_equal(back.cocycle.table, rep.cocycle.table)


def test_rep_json_check_catches_corruption():
    rep = tf("Z2").rep
    data = rep_to_json(rep)
    data["matrices"][1][0][0] = [3.0, 0.0]
    with pytest.raises(InputError):
        rep_from_json(data)
    with pytest.raises(InputError):
        rep_from_json({"dim": 2})


def test_generators_json_round_trip():
    rng = np.random.default_rng(4)
    gens = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    data = generators_to_json(gens)
    assert (data["n"], data["d"], data["dim"]) == (2, 3, 4)
    back = generators_from_json(data)
    assert np.array_equal(back, gens)
    data["d"] = 5
    with pytest.raises(InputError):
        generators_from_json(data)
    with pytest.raises(InputError):
        generators_from_json({"n": 1})


@pytest.mark.parametrize("key, value", [
    ("n", 1.9), ("n", True), ("d", "3"), ("dim", 4.5), ("dim", 4.0),
])
def test_generators_json_refuses_a_header_that_is_not_an_integer(key, value):
    """Each value would read as the true count (1, 3, 4) by int() or ==."""
    data = generators_to_json(np.zeros((1, 3, 4)))
    data[key] = value
    with pytest.raises(InputError, match=f"header {key} must be a JSON int"):
        generators_from_json(data)


@pytest.mark.parametrize("value", [1.0, 1.5, "1", True])
def test_rep_json_refuses_a_dim_that_is_not_an_integer(value):
    data = rep_to_json(tf("Z1").rep)
    data["dim"] = value
    with pytest.raises(InputError, match="header dim must be a JSON int"):
        rep_from_json(data)


def test_dump_json_matches_streamed_json_dump(tmp_path):
    rep = tf("Z3").rep
    payload = rep_to_json(rep)
    payload.update({"flags": [True, False, None], "nested": {"z": 1.5e-300, "a": float("nan")},
                    "text": "caf\u00e9"})
    path = str(tmp_path / "blob.json")
    dump_json(payload, path)
    want = io.StringIO()
    json.dump(payload, want, indent=2, sort_keys=True)
    want.write("\n")
    with open(path, "rb") as fh:
        assert fh.read() == want.getvalue().encode()


def test_rep_json_carries_its_tolerances():
    rep = tf("Z4").rep
    mats = rep.matrices.copy()
    mats[1] = mats[1] * np.exp(1e-7j)
    data = rep_to_json(projective_rep(rep.group, rep.cocycle, mats))
    with pytest.raises(InputError, match="composition law fails"):
        rep_from_json(data)
    loose = Tolerances(tol_id=1e-6)
    back = rep_from_json(data, tol=loose)
    assert back.tol == loose
    assert back.report.ok
    assert back.report.composition_residual == pytest.approx(2e-7, rel=1e-2)
    assert not rep_from_json(data, check=False).report.ok


def test_dump_and_load_json(tmp_path):
    path = str(tmp_path / "blob.json")
    dump_json({"b": 1, "a": [1, 2]}, path)
    text = open(path).read()
    assert text.index('"a"') < text.index('"b"')  # sorted keys, stable diffs
    assert load_json(path) == {"b": 1, "a": [1, 2]}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError) as exc:
        load_json(str(bad))
    assert "bad.json" in str(exc.value)
