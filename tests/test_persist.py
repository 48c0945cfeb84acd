"""The JSON number decoder against the object-array decoder it replaced.

Both must accept the same JSON values with the same array, bit for bit, and
reject the same values with the same message.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwquant.persist import _numbers


def _object_array_numbers(ndim):
    """The decoder as it was: numpy discovers the shape of an object array."""

    def decode(value):
        array = np.array(value, dtype=object)
        if array.ndim != ndim or not {type(v) for v in array.flat} <= {int, float}:
            raise ValueError(f"expected {ndim}-D numbers")
        try:
            array = array.astype(float)
        except OverflowError:
            raise ValueError("an integer beyond a double") from None
        if not np.all(np.isfinite(array)):
            raise ValueError("expected finite numbers")
        return float(array) if ndim == 0 else array

    return decode


def _outcome(decode, value):
    """("ok", shape, dtype, bytes) of the decoded value, or ("error", message)."""
    try:
        result = decode(value)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(result, float):
        return ("ok", type(result), np.float64(result).tobytes())
    return ("ok", result.shape, result.dtype, result.tobytes())


NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
)
LEAVES = st.one_of(
    NUMBERS,
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), 2**1024 - 1]),
)
# any JSON value, mostly lists
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=1), children, max_size=1)
    ),
    max_leaves=12,
)


def _grid(leaves, depth):
    """Rectangular lists depth deep, some of whose leaves are not numbers."""
    if depth == 0:
        return leaves
    return st.integers(0, 3).flatmap(
        lambda width: st.lists(_grid(leaves, depth - 1), min_size=width, max_size=width)
    )


MIXED = st.one_of(NUMBERS, NUMBERS, NUMBERS, LEAVES)
SHAPED = st.one_of(VALUES, *(_grid(MIXED, d) for d in (1, 2, 3)))


@pytest.mark.parametrize("ndim", [0, 1, 2])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=SHAPED)
@example(value=[])
@example(value=[[]])
@example(value=[[], []])
@example(value=[[1, 2], [3]])
@example(value=[[1.5], []])
@example(value=[[1, [2]], [3, 4]])
@example(value=[[[1.0]]])
@example(value=[[0.5, 10**400]])
@example(value=[True, 1])
@example(value=-0.0)
@example(value=[[-0.0, 2**60 + 1]])
def test_decoder_matches_the_object_array_decoder(ndim, value):
    # as read from a file: json.loads gives the same values back
    value = json.loads(json.dumps(value))
    assert _outcome(_numbers(ndim), value) == _outcome(_object_array_numbers(ndim), value)
