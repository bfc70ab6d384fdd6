"""Fuzzing of the two readers of outside input: the `--rho` state-spec
parser and the JSON matrix loader."""

from __future__ import annotations

from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from kunent.cli import InputError, parse_state_spec
from kunent.serialize import matrix_from_dict

# arbitrary text, and specs of the grammar's shape with valid and invalid fields
spec_fields = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["I/8", "I/6", "I/0", "p=0.5", "q=0.2", "p=0.3,q=0.1", "p=-1", "p=nan",
                     "p=1e400", "q", "99999999999999999999", " 3", "",
                     "p=0." + "5" * 300]),  # longer than a file name may be
)
specs = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(["ghz", "w", "wtilde", "mixed", "x"]),
              st.lists(spec_fields, max_size=3)).map(lambda t: ":".join([t[0], *t[1]])),
)


@settings(max_examples=400, deadline=None)
@given(specs)
def test_state_spec_parses_or_raises_input_error(spec):
    try:
        label, rho = parse_state_spec(spec)
    except InputError:
        return
    assert label == spec
    assert rho.dims.n >= 2


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
dim_items = st.one_of(st.integers(-1, 3), st.floats(0, 3), st.booleans(), st.sampled_from(["2", "x"]))
good_pairs = st.tuples(st.floats(-2, 2), st.integers(-3, 3)).map(list)
any_pairs = st.one_of(good_pairs, st.lists(json_values, max_size=3))


@st.composite
def matrix_objects(draw):
    """Any JSON value, or a mapping with both fields whose entry count
    often matches its dims, so that the accepting path is reached too."""
    if draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    dims = draw(st.one_of(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                          st.lists(dim_items, max_size=3), json_values))
    count = draw(st.integers(0, 9))
    if isinstance(dims, list) and all(isinstance(d, (int, float)) and 0 < d < 4 for d in dims):
        if draw(st.booleans()):
            count = prod(int(d) for d in dims) ** 2
    entries = draw(st.one_of(
        st.lists(good_pairs, min_size=count, max_size=count),
        st.lists(any_pairs, min_size=count, max_size=count),
        json_values,
    ))
    return {"dims": dims, "entries": entries}


@settings(max_examples=400, deadline=None)
@given(matrix_objects())
def test_matrix_loader_returns_or_raises_value_error(obj):
    try:
        dims, mat = matrix_from_dict(obj)
    except ValueError:
        return
    assert all(type(d) is int for d in obj["dims"])
    assert dims == tuple(obj["dims"])
    assert mat.shape == (prod(dims), prod(dims))
