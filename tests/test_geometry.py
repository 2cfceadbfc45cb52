import json

import numpy as np
import pytest

from polydiv.catalog import CATALOG, catalog_polygon, resolve_shape
from polydiv.geometry import (
    DegenerateEdge,
    GeometryError,
    Point2,
    SelfIntersecting,
    build_polygon,
    point_in_polygon,
    validate_shape,
)

RNG = np.random.default_rng(20240817)


def test_unit_square():
    p = build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert p.area == pytest.approx(1.0)
    normals = [e.normal for e in p.edges]
    assert np.allclose(normals, [(0, -1), (1, 0), (0, 1), (-1, 0)])


def test_fig151_edge0():
    p = catalog_polygon("fig151")
    e = p.edges[0]
    assert e.normal[0] == pytest.approx(0.24, abs=0.005)
    assert e.normal[1] == pytest.approx(-0.97, abs=0.005)
    assert e.length == pytest.approx(0.82, abs=0.005)


def test_fig167_edge0():
    p = catalog_polygon("fig167")
    e = p.edges[0]
    assert e.normal[0] == pytest.approx(0.58, abs=0.005)
    assert e.normal[1] == pytest.approx(-0.81, abs=0.005)
    assert e.length == pytest.approx(0.34, abs=0.005)


def test_edge_invariants():
    for name in CATALOG:
        p = catalog_polygon(name)
        for e in p.edges:
            assert abs(np.hypot(*e.normal) - 1.0) < 1e-12
            a, b = np.array([*e.a]), np.array([*e.b])
            t = b - a
            assert abs(np.dot(t, e.normal)) < 1e-12 * max(1.0, e.length)
            assert abs(e.xn - a @ e.normal) < 1e-12
            assert abs(e.xn - b @ e.normal) < 1e-12


def test_xn_constant_along_edges():
    p = catalog_polygon("fig160")
    for e in p.edges:
        s = np.linspace(0.0, e.length, 10)
        pts = e.point_at(s)
        vals = pts[:, 0] * e.normal[0] + pts[:, 1] * e.normal[1]
        assert np.max(vals) - np.min(vals) < 1e-10


def test_normals_point_outward():
    for name in ("fig151", "fig165", "fig167", "fig163"):
        p = catalog_polygon(name)
        eps = 1e-6 * p.diameter
        for e in p.edges:
            m = e.point_at(e.length / 2.0)
            outside = m + eps * np.array(e.normal)
            assert not point_in_polygon(p.vertex_array(), outside[0], outside[1])


def test_hull_matches_convex_polygon():
    p = catalog_polygon("fig160")
    assert abs(p.hull_area - p.area) < 1e-12


def test_reversal_invariance():
    verts = [(0.2, 0.0), (1.0, 0.2), (0.0, 1.0)]
    p = build_polygon(verts)
    q = build_polygon(verts[::-1])  # clockwise, auto-reversed
    # same loop up to a cyclic shift
    pv = [(v.x, v.y) for v in p.vertices]
    qv = [(v.x, v.y) for v in q.vertices]
    assert sorted(pv) == sorted(qv)
    assert q.area == pytest.approx(p.area)
    assert {e.normal for e in p.edges} == {e.normal for e in q.edges}


def test_degenerate_and_self_intersecting():
    with pytest.raises(DegenerateEdge):
        build_polygon([(0, 0), (0, 0), (1, 0)])
    with pytest.raises(SelfIntersecting):
        build_polygon([(0, 0), (3, 0), (0, 2), (2, 3)])


@pytest.mark.parametrize(
    "build, fault",
    [
        (lambda: Point2(float("nan"), 0.0), "non-finite coordinates"),
        (lambda: Point2(0.0, float("inf")), "non-finite coordinates"),
        (lambda: build_polygon([(0, 0), (1, 0)]), "at least 3 vertices"),
        (lambda: build_polygon([(0, 0), (1, 1), (3, 3), (2, 2)]), "zero signed area"),
    ],
    ids=["nan", "inf", "two-vertices", "collinear"],
)
def test_input_guards(build, fault):
    with pytest.raises(GeometryError, match=fault):
        build()


def test_unknown_catalog_key_lists_the_keys():
    with pytest.raises(KeyError, match="unknown catalog shape 'fig999'; known: .*'fig151'"):
        catalog_polygon("fig999")


def test_fig73_is_the_triangle_of_fig151():
    # one polygon under two keys, so a study over every key computes its rows twice
    assert catalog_polygon("fig73") == catalog_polygon("fig151")


def test_catalog_matches_tabulated():
    # vertices are printed to two decimals; the recomputed normals of very
    # short edges drift by up to ~6e-2 from the tabulated ones
    for name, entry in CATALOG.items():
        if entry.tabulated is None:
            continue
        p = catalog_polygon(name)
        for e, (tnx, tny, tl) in zip(p.edges, entry.tabulated):
            assert e.normal[0] == pytest.approx(tnx, abs=0.06), (name, e.index)
            assert e.normal[1] == pytest.approx(tny, abs=0.06), (name, e.index)
            assert e.length == pytest.approx(tl, abs=0.015), (name, e.index)


class TestValidateShape:
    def test_fig172_axis_violation(self):
        diag = validate_shape(catalog_polygon("fig172"))
        assert any(r.rule == "R1" and r.edge == 0 for r in diag.violations)

    def test_fig173_axis_violation(self):
        diag = validate_shape(catalog_polygon("fig173"))
        assert any(r.rule == "R1" for r in diag.violations)

    def test_origin_aligned_edge(self):
        # oracle: recompute x . n per edge and compare with the tolerance
        p = catalog_polygon("fig170")
        xn = [abs(e.xn) for e in p.edges]
        assert min(xn) < 1e-8
        diag = validate_shape(p)
        assert any(r.rule == "R2" and r.edge == int(np.argmin(xn)) for r in diag.violations)

    def test_fig74_v_collinear(self):
        p = catalog_polygon("fig74")
        diag = validate_shape(p, "Ia", v=(1.0, 1.0))
        bad = [r for r in diag.violations if r.rule == "R3"]
        assert len(bad) == 1
        e = p.edges[bad[0].edge]
        assert np.allclose(e.normal, (np.sqrt(2) / 2, np.sqrt(2) / 2), atol=1e-9)

    def test_v_rule_only_for_I_family(self):
        p = catalog_polygon("fig74")
        diag = validate_shape(p, "IIb", v=(1.0, 1.0))
        assert not any(r.rule == "R3" for r in diag.violations)

    def test_working_shapes_have_no_violations(self):
        for name in ("fig151", "fig152", "fig159", "fig160", "fig165", "fig167"):
            assert not validate_shape(catalog_polygon(name), "IIb").violations, name

    def test_hanging_node_warning(self):
        diag = validate_shape(catalog_polygon("fig168"))
        assert any(r.rule.startswith("W3") for r in diag.warnings)


class TestEdgePoint:
    def test_endpoints_and_midpoint(self):
        p = catalog_polygon("fig151")
        e = p.edges[0]
        assert np.array_equal(e.point_at(0.0), [*e.a])
        assert np.array_equal(e.point_at(e.length), [*e.b])
        mid = e.point_at(e.length / 2.0)
        assert mid[0] == pytest.approx((e.a.x + e.b.x) / 2)
        assert mid[1] == pytest.approx((e.a.y + e.b.y) / 2)

    def test_affine_interpolation_oracle(self):
        p = catalog_polygon("fig151")
        e = p.edges[0]
        s = 0.41
        t = s / e.length
        expect = (1 - t) * np.array([*e.a]) + t * np.array([*e.b])
        assert np.allclose(e.point_at(s), expect)


def test_random_simple_polygons_roundtrip():
    # star-shaped random polygons: random radii around a centre
    for trial in range(20):
        n = int(RNG.integers(3, 9))
        angles = np.sort(RNG.uniform(0, 2 * np.pi, n))
        if np.min(np.diff(angles)) < 0.1:
            continue
        radii = RNG.uniform(0.4, 1.0, n)
        cx, cy = RNG.uniform(0.5, 1.5, 2)
        verts = [(cx + r * np.cos(a), cy + r * np.sin(a)) for r, a in zip(radii, angles)]
        p = build_polygon(verts)
        assert p.area > 0
        assert p.hull_area >= p.area - 1e-12


@pytest.mark.parametrize(
    "content, fault",
    [
        ({"name": "x"}, 'no "vertices" entry'),
        ({"vertices": "abc"}, '"vertices" is a str'),
        ([1, 2], "JSON object, not a list"),
        ({"vertices": [[0, 0], [1], [0, 1]]}, r"vertex 1 is \[1\]"),
        ({"vertices": [[0, 0], [1, "a"], [0, 1]]}, r"vertex 1 is \[1, 'a'\]"),
        ({"vertices": [[0, 0], [0, 1, 5], [1, 1]]}, r"vertex 1 is \[0, 1, 5\]"),
        ('{"vertices": [[0, 0], [1, 0], [0, 1]', "not valid JSON"),
    ],
    ids=["no-vertices", "string-vertices", "top-level-list", "one-number", "non-numeric", "three-numbers", "not-json"],
)
def test_malformed_shape_file_names_file_and_fault(tmp_path, content, fault):
    path = tmp_path / "bad_shape.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    with pytest.raises(GeometryError, match=fault) as err:
        resolve_shape(str(path))
    assert str(path) in str(err.value)
