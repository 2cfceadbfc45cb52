"""The CSV exports write exactly what ``repr`` writes.

``_repr_values`` formats a flat float array with orjson (Ryu's shortest
digits), lays the values that ``repr`` writes in exponent form out again
from orjson's digits, and hands non-finite values to ``repr``.  Every
check compares it with ``repr`` of each value, and the two exports with a
plain row-by-row ``repr`` writer.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polydiv import hdiv_basis
from polydiv.catalog import catalog_polygon
from polydiv.hdiv_basis import VectorField, _repr_values, export_interior, export_traces
from polydiv.poisson import BoundaryData, solve_poisson_many, triangulate
from polydiv.quadrature import triangle_rule


def _expected(values: np.ndarray):
    return [repr(v).encode() for v in values.ravel().tolist()]


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_any_float_array_matches_repr(values):
    assert _repr_values(values) == _expected(values)


def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20181)
    values = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    assert _repr_values(values) == _expected(values)


def test_random_values_in_the_positional_range_match_repr():
    # random mantissas over every decade that repr writes without exponent:
    # these values all stay on the orjson path
    rng = np.random.default_rng(7)
    values = rng.uniform(1.0, 10.0, 40_000) * 10.0 ** rng.integers(-4, 16, 40_000)
    values *= rng.choice([-1.0, 1.0], values.shape)
    assert _repr_values(values) == _expected(values)


def test_random_values_in_the_exponent_range_match_repr():
    # random mantissas over every decade that repr writes with an exponent,
    # on both sides of orjson's own switch to exponent form at 1e-5, and
    # one-digit mantissas, which repr writes without a point
    rng = np.random.default_rng(11)
    exponents = np.concatenate([rng.integers(-24, -4, 30_000), rng.integers(16, 30, 10_000)])
    values = rng.uniform(1.0, 10.0, exponents.size) * 10.0**exponents
    values = np.concatenate([values, rng.integers(1, 10, 4_000) * 10.0 ** rng.integers(-12, -4, 4_000)])
    values *= rng.choice([-1.0, 1.0], values.shape)
    assert _repr_values(values) == _expected(values)


def test_layout_boundaries_match_repr():
    edges = []
    for v in (1e-10, 1e-9, 1e-5, 1e-4, 1e16):
        edges += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    edges += [0.0, -0.0, 5e-324, 1.7976931348623157e308]
    values = np.array(edges + [-v for v in edges])
    for shaped in (values, values.reshape(2, -1), values.reshape(-1, 2)):
        assert _repr_values(shaped) == _expected(shaped)


def test_empty_arrays():
    assert _repr_values(np.empty(0)) == []
    assert _repr_values(np.empty((0, 3))) == []
    assert _repr_values(np.empty((2, 0))) == []


TRI = catalog_polygon("fig151")
TRI_MESH = triangulate(TRI, TRI.diameter / 16)
RULE = triangle_rule(2)


@pytest.fixture(scope="module")
def stack():
    """Functions over the one-field bank of u = 1, rows [P | Cx | Cy]: a
    plain one, zeros, exponent form below 1e-4 and at or above 1e16, and
    rows mixing plain and exponent-form values."""
    u = solve_poisson_many(TRI_MESH, [(None, BoundaryData.constant(TRI, 1.0))])[0]
    rows = [
        [0.0, 0.5, -1.5],
        [0.0, 0.0, 0.0],
        [1e-7, 3e-9, 0.0],
        [1e20, 0.0, -2e17],
        [1e-5, 1.0, 0.0],
        [1.0, 0.0, 0.0],
    ]
    return VectorField(u.bank, rows)


def _rows_by_repr(rows):
    return b"".join((",".join(map(repr, row)) + "\r\n").encode() for row in rows)


def _interior_by_repr(functions):
    x, y, _ = TRI_MESH.rule_points(RULE)
    rows = []
    for fid, fn in enumerate(functions):
        qx, qy = fn.values_at_rule(RULE)
        rows += [row + [fid] for row in np.column_stack([x, y, qx, qy]).tolist()]
    return b"x,y,vx,vy,function_id\r\n" + _rows_by_repr(rows)


def _traces_by_repr(functions):
    rows = []
    for fid in range(len(functions)):
        for e in TRI.edges:
            s = np.linspace(0.0, e.length, 33)
            values = functions.normal_trace_on(e, s)[fid]
            rows += [[e.index, si, v, fid] for si, v in zip(s.tolist(), values.tolist())]
    return b"edge,s,value,function_id\r\n" + _rows_by_repr(rows)


@pytest.mark.parametrize("block_rows", [7, hdiv_basis._BLOCK_ROWS])
def test_interior_matches_a_row_by_row_repr_writer(stack, tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(hdiv_basis, "_BLOCK_ROWS", block_rows)
    x, _, _ = TRI_MESH.rule_points(RULE)
    assert len(x) % block_rows
    expected = _interior_by_repr(stack)
    assert b"e-" in expected and b"e+" in expected and b",0.0," in expected
    export_interior(stack, TRI_MESH, tmp_path / "interior.csv")
    assert (tmp_path / "interior.csv").read_bytes() == expected


def test_traces_match_a_row_by_row_repr_writer(stack, tmp_path):
    expected = _traces_by_repr(stack)
    assert b"e-" in expected and b"e+" in expected and b",0.0," in expected
    export_traces(stack, TRI, tmp_path / "traces.csv")
    assert (tmp_path / "traces.csv").read_bytes() == expected


def test_empty_stack_writes_the_header_only(stack, tmp_path):
    export_interior(stack[:0], TRI_MESH, tmp_path / "interior.csv")
    export_traces(stack[:0], TRI, tmp_path / "traces.csv")
    assert (tmp_path / "interior.csv").read_bytes() == b"x,y,vx,vy,function_id\r\n"
    assert (tmp_path / "traces.csv").read_bytes() == b"edge,s,value,function_id\r\n"


def test_interior_memory_does_not_grow_with_the_function_count(tmp_path):
    hexagon = catalog_polygon("fig165")
    mesh = triangulate(hexagon, hexagon.diameter / 32)
    u = solve_poisson_many(mesh, [(None, BoundaryData.constant(hexagon, 1.0))])[0]
    rng = np.random.default_rng(3)

    def peak(n_functions):
        functions = VectorField(u.bank, rng.uniform(-1.0, 1.0, (n_functions, 3)))
        tracemalloc.start()
        try:
            export_interior(functions, mesh, tmp_path / "interior.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # fills the mesh's and the bank's caches of the rule points
    assert peak(20) <= 1.5 * peak(2)
