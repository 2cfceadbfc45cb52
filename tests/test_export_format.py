"""The row formatter of the CSV exports writes exactly what ``repr`` writes.

``_repr_lines`` formats a float block with orjson (Ryu's shortest digits) and
hands the rows orjson lays out differently (exponent form, non-finite
values) to ``repr``.  Every check compares it with the plain ``repr`` join.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polydiv.hdiv_basis import _repr_lines


def _expected(block: np.ndarray):
    return [",".join(map(repr, r)).encode() for r in block.tolist()]


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_any_float_block_matches_repr(block):
    assert _repr_lines(block) == _expected(block)


def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20181)
    values = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    # one value per row, so a value that takes the repr path leaves the
    # other rows on the orjson path
    block = values.reshape(-1, 1)
    assert _repr_lines(block) == _expected(block)


def test_random_values_in_the_positional_range_match_repr():
    # random mantissas over every decade that repr writes without exponent,
    # four to a row: these rows all stay on the orjson path
    rng = np.random.default_rng(7)
    values = rng.uniform(1.0, 10.0, 40_000) * 10.0 ** rng.integers(-4, 16, 40_000)
    block = (values * rng.choice([-1.0, 1.0], values.shape)).reshape(-1, 4)
    assert _repr_lines(block) == _expected(block)


def test_layout_boundaries_match_repr():
    edges = []
    for v in (1e-4, 1e16):
        edges += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    edges += [0.0, -0.0, 5e-324, 1.7976931348623157e308]
    values = np.array(edges + [-v for v in edges])
    for block in (values.reshape(-1, 1), values.reshape(2, -1), values.reshape(-1, 2)):
        assert _repr_lines(block) == _expected(block)


def test_empty_blocks():
    assert _repr_lines(np.empty((0, 3))) == []
    assert _repr_lines(np.empty((2, 0))) == [b"", b""]
