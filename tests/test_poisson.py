import numpy as np
import pytest
import scipy.sparse.linalg as spla

from polydiv.catalog import catalog_polygon
from polydiv.geometry import GeometryError, build_polygon, point_in_polygon
from polydiv.poisson import (
    MIN_ANGLE_FLOOR,
    BoundaryData,
    MeshFailure,
    TriMesh,
    solve_poisson_many,
    triangulate,
)
from polydiv.quadrature import triangle_rule

SQUARE = build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestTriangulate:
    def test_square_coarse(self):
        mesh = triangulate(SQUARE, 0.5)
        assert mesh.n_triangles >= 8
        tagged = mesh.node_edge[mesh.node_edge >= 0]
        assert set(tagged) == {0, 1, 2, 3}

    @pytest.mark.parametrize("h", [0.0, -0.5, float("nan"), float("inf")])
    def test_mesh_size_must_be_positive_and_finite(self, h):
        with pytest.raises(GeometryError, match="mesh size"):
            triangulate(SQUARE, h)

    def test_single_triangle_limit(self):
        tri = build_polygon([(0.2, 0.1), (1.1, 0.3), (0.3, 1.2)])
        mesh = triangulate(tri, 100.0)
        assert mesh.n_triangles in (1, 2)
        assert np.sum(mesh.jacobians()[0]) / 2 == pytest.approx(tri.area)

    @pytest.mark.parametrize("name", ["fig165", "fig167", "fig163"])
    def test_nonconvex_triangles_inside(self, name):
        # oracle: point-in-polygon check on the centroids
        p = catalog_polygon(name)
        mesh = triangulate(p, p.diameter / 20)
        verts = p.vertex_array()
        cent = mesh.nodes[mesh.triangles].mean(axis=1)
        for cx, cy in cent:
            assert point_in_polygon(verts, cx, cy)

    def test_quality_and_coverage(self):
        for name in ("fig151", "fig160", "fig165", "fig167"):
            p = catalog_polygon(name)
            mesh = triangulate(p, p.diameter / 24)
            assert mesh.min_angle() >= MIN_ANGLE_FLOOR
            assert np.sum(mesh.jacobians()[0]) / 2 == pytest.approx(p.area, rel=1e-12)

    def test_boundary_segments_are_mesh_edges(self):
        p = catalog_polygon("fig165")
        mesh = triangulate(p, p.diameter / 24)
        edge_set = set()
        for t in mesh.triangles:
            for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                edge_set.add((min(a, b), max(a, b)))
        for a, b in mesh.boundary_segments:
            assert (min(a, b), max(a, b)) in edge_set

    def test_tags_and_arcs(self):
        p = catalog_polygon("fig151")
        mesh = triangulate(p, p.diameter / 16)
        for i in range(mesh.n_nodes):
            e = mesh.node_edge[i]
            if e < 0:
                continue
            edge = p.edges[e]
            pt = edge.point_at(mesh.node_arc[i])
            assert np.allclose(pt, mesh.nodes[i], atol=1e-12)
        corners = mesh.nodes[mesh.node_corner >= 0]
        assert len(corners) == 3


def test_fe_space_refuses_a_boundary_segment_that_is_no_mesh_edge():
    # the square's two triangles, with edge 0 split at a node that no
    # triangle uses: its two half segments are not mesh edges
    mesh = TriMesh(
        polygon=SQUARE,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.0]]),
        triangles=np.array([[0, 1, 2], [0, 2, 3]]),
        node_edge=np.array([-1, -1, -1, -1, 0]),
        node_corner=np.array([0, 1, 2, 3, -1]),
        node_arc=np.array([0.0, 0.0, 0.0, 0.0, 0.5]),
        boundary_segments=np.array([[0, 4], [4, 1], [1, 2], [2, 3], [3, 0]]),
        segment_edge=np.array([0, 0, 1, 2, 3]),
        segment_arc=np.array([[0.0, 0.5], [0.5, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
        h=1.0,
    )
    with pytest.raises(MeshFailure, match="^2 boundary segments are not mesh edges$"):
        mesh.fe_space(2)


class TestSolvePoisson:
    def test_constant_harmonic(self):
        mesh = triangulate(SQUARE, 0.15)
        u = solve_poisson_many(mesh, [(None, BoundaryData.constant(SQUARE, 1.0))])[0]
        pts = np.array([(0.3, 0.3), (0.71, 0.13), (0.5, 0.9)])
        val, grad = u.value_and_grad(pts[:, 0], pts[:, 1])
        assert val == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(grad)) < 1e-9

    def test_linear_harmonic(self):
        mesh = triangulate(SQUARE, 0.15)
        bc = BoundaryData(
            SQUARE,
            [lambda s: s, lambda s: np.ones_like(s), lambda s: 1 - s, lambda s: np.zeros_like(s)],
        )
        u = solve_poisson_many(mesh, [(None, bc)])[0]
        pts = np.array([(0.3, 0.3), (0.71, 0.13), (0.5, 0.9)])
        val, grad = u.value_and_grad(pts[:, 0], pts[:, 1])
        assert val == pytest.approx(pts[:, 0], abs=1e-10)
        assert np.allclose(grad, [1.0, 0.0], atol=1e-8)

    def test_quadratic_exact_with_p2(self):
        # u = x^2 + y^2 solves laplace(u) = 4 and lies in the P2 space
        mesh = triangulate(SQUARE, 0.2)
        bc = BoundaryData(
            SQUARE,
            [
                lambda s: s ** 2,
                lambda s: 1 + s ** 2,
                lambda s: (1 - s) ** 2 + 1,
                lambda s: (1 - s) ** 2,
            ],
        )
        u = solve_poisson_many(mesh, [(lambda x, y: 4.0 + 0 * x, bc)])[0]
        pts = np.array([(0.25, 0.45), (0.8, 0.3), (0.5, 0.5)])
        val, _ = u.value_and_grad(pts[:, 0], pts[:, 1])
        assert val == pytest.approx(pts[:, 0] ** 2 + pts[:, 1] ** 2, abs=1e-11)

    def test_l2_convergence_rate(self):
        # manufactured solution outside the FE space: u = sin(pi x) sinh(pi y)
        # is harmonic, so the error is purely the interpolation error and the
        # quadratic elements converge at order ~3 in L2 (>= 1.8 required)
        import math

        def exact(x, y):
            return np.sin(np.pi * x) * np.sinh(np.pi * y)

        bc = BoundaryData(
            SQUARE,
            [
                lambda s: 0.0 * s,
                lambda s: 0.0 * s,  # sin(pi) = 0 on the right edge
                lambda s: np.sin(np.pi * (1 - s)) * np.sinh(np.pi),
                lambda s: 0.0 * s,
            ],
        )
        errs = []
        for h in (0.2, 0.1, 0.05):
            mesh = triangulate(SQUARE, h)
            bank = solve_poisson_many(mesh, [(None, bc)])
            rule = triangle_rule(6)
            x, y, w = mesh.rule_points(rule)
            diff = bank.rule_samples(rule)[0] - exact(x, y)
            errs.append(math.sqrt(float(np.dot(w, diff ** 2))))
        rate = np.log(errs[0] / errs[-1]) / np.log(4.0)
        assert rate >= 1.8

    def test_superposition(self):
        p = catalog_polygon("fig165")
        mesh = triangulate(p, p.diameter / 24)
        src1 = lambda x, y: x * 0 + 1.0
        src2 = lambda x, y: x * y
        bc1 = BoundaryData.indicator(p, 0, 2.0)
        bc2 = BoundaryData.indicator(p, 3, lambda s: s)
        u1 = solve_poisson_many(mesh, [(src1, bc1)])[0]
        u2 = solve_poisson_many(mesh, [(src2, bc2)])[0]
        bc12 = BoundaryData(p, [lambda s, i=i: BoundaryData.table([bc1, bc2], i, s).sum(axis=0) for i in range(p.n_edges)])
        u12 = solve_poisson_many(mesh, [(lambda x, y: src1(x, y) + src2(x, y), bc12)])[0]
        assert np.max(np.abs(u1.coefficients + u2.coefficients - u12.coefficients)) < 1e-9

    def test_deterministic(self):
        p = catalog_polygon("fig163")
        mesh = triangulate(p, p.diameter / 16)
        bc = BoundaryData.indicator(p, 1, 2.0)
        u1 = solve_poisson_many(mesh, [(None, bc)])[0]
        u2 = solve_poisson_many(mesh, [(None, bc)])[0]
        assert np.array_equal(u1.coefficients, u2.coefficients)

    def test_many_matches_one_at_a_time(self):
        p = catalog_polygon("fig163")
        mesh = triangulate(p, p.diameter / 16)
        problems = [(None, BoundaryData.indicator(p, i, 2.0)) for i in range(p.n_edges)]
        one = [solve_poisson_many(mesh, [(src, bc)])[0] for src, bc in problems]
        many = solve_poisson_many(mesh, problems)
        for a, b in zip(one, many):
            assert np.array_equal(a.coefficients, b.coefficients)

    def test_boundary_tables_call_only_the_traces(self):
        p = catalog_polygon("fig163")
        mesh = triangulate(p, p.diameter / 16)
        calls = []

        def trace(s):
            calls.append(len(s))
            return 1.0 + s * s

        problems = [(None, BoundaryData.indicator(p, i, 2.0)) for i in range(p.n_edges)]
        problems += [(None, BoundaryData.indicator(p, 1, trace)), (None, BoundaryData.constant(p, -0.5))]
        problems += [(None, BoundaryData.indicator(p, 1, lambda s: 3.0))]  # a scalar trace broadcasts
        bank = solve_poisson_many(mesh, problems)
        assert len(calls) == 1  # the Dirichlet data: the trace only on its own edge
        calls.clear()
        e = p.edges[1]
        s = np.linspace(0.0, e.length, 9)
        table = bank.edge_samples(1, s)
        assert len(calls) == 1
        # the table of one datum at a time, each constant written out in full
        expected = [np.full_like(s, 2.0 if i == 1 else 0.0) for i in range(p.n_edges)]
        expected += [1.0 + s * s, np.full_like(s, -0.5), np.full_like(s, 3.0)]
        assert table.shape == (len(problems), len(s)) and np.array_equal(table, np.array(expected))
        assert bank.edge_samples(1, s) is table and len(calls) == 1
        assert np.array_equal(BoundaryData.table([problems[-1][1]], 1, s)[0], np.full_like(s, 3.0))
        assert BoundaryData.table([problems[0][1]], 0, 0.5)[0].shape == ()

    def test_one_datum_per_edge(self):
        with pytest.raises(GeometryError, match="one datum per polygon edge required"):
            BoundaryData(SQUARE, [0.0, 1.0, 2.0])

    def test_discrete_maximum_principle(self):
        p = catalog_polygon("fig160")
        mesh = triangulate(p, p.diameter / 24)
        u = solve_poisson_many(mesh, [(None, BoundaryData.indicator(p, 2, 2.0))])[0]
        val, _ = u.value_and_grad(np.array([p.hull_barycenter.x]), np.array([p.hull_barycenter.y]))
        assert -1e-8 <= val[0] <= 2.0 + 1e-8

    def test_boundary_value_is_exact_trace(self):
        p = catalog_polygon("fig151")
        mesh = triangulate(p, p.diameter / 16)
        bc = BoundaryData.indicator(p, 1, lambda s: 3.0 * s)
        bank = solve_poisson_many(mesh, [(None, bc)])
        s = np.linspace(0, p.edges[1].length, 7)
        assert np.allclose(bank.edge_samples(1, s)[0], 3.0 * s)
        assert np.allclose(bank.edge_samples(0, s)[0], 0.0)

    def test_residual_of_reduced_system(self):
        p = catalog_polygon("fig165")
        mesh = triangulate(p, p.diameter / 24)
        space = mesh.fe_space(2)
        bc = BoundaryData.indicator(p, 0, 2.0)
        u = solve_poisson_many(mesh, [(None, bc)])[0]
        ii = space.interior
        bb = space.boundary
        rhs = -space.K_ib @ u.coefficients[bb]
        res = space.K_ii @ u.coefficients[ii] - rhs
        assert np.linalg.norm(res) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

    @pytest.mark.parametrize("shape", ["fig151", "fig165", "fig167"])
    @pytest.mark.parametrize("div", [16, 64])
    def test_batch_residual(self, shape, div):
        # every column of a batch solves K_ii u = b to a relative residual of
        # 1e-13: Dirichlet data on each edge, every other one with a source
        p = catalog_polygon(shape)
        mesh = triangulate(p, p.diameter / div)
        source = lambda x, y: 1.0 + x * y
        problems = [(source if e % 2 else None, BoundaryData.indicator(p, e, lambda s: 1.0 + s)) for e in range(p.n_edges)]
        bank = solve_poisson_many(mesh, problems)
        space = bank.space
        rule = triangle_rule(6)
        x, y, _ = mesh.rule_points(rule)
        loads = space.load_vectors([source(x, y), np.zeros_like(x)], rule)
        for (src, _), u in zip(problems, bank.U):
            b = -loads[0 if src else 1][space.interior] - space.K_ib @ u[space.boundary]
            assert np.linalg.norm(space.K_ii @ u[space.interior] - b) <= 1e-13 * np.linalg.norm(b)

    def test_factor_fill(self):
        # the symmetric-mode factor of K_ii holds at most 0.7 of the L + U
        # nonzeros of a default (COLAMD, partial pivoting) factorization
        p = catalog_polygon("fig165")
        space = triangulate(p, p.diameter / 64).fe_space(2)
        default = spla.splu(space.K_ii)
        assert space._lu.L.nnz + space._lu.U.nnz <= 0.7 * (default.L.nnz + default.U.nnz)

    def test_outside_domain(self):
        mesh = triangulate(SQUARE, 0.3)
        u = solve_poisson_many(mesh, [(None, BoundaryData.constant(SQUARE, 1.0))])[0]
        val, grad = u.value_and_grad(np.array([2.0]), np.array([2.0]))
        assert np.isnan(val).all() and np.isnan(grad).all()

    @pytest.mark.parametrize("degree", [1, 3])
    def test_quadratic_is_the_only_space(self, degree):
        mesh = triangulate(SQUARE, 0.5)
        with pytest.raises(ValueError, match=f"degree {degree}"):
            mesh.fe_space(degree)
        assert mesh.fe_space(2) is mesh.fe_space(2)

    def test_corner_rule_knob(self):
        p = catalog_polygon("fig151")
        mesh = triangulate(p, p.diameter / 16)
        bc = BoundaryData.indicator(p, 0, 2.0)
        space = mesh.fe_space(2)
        vals = space.dirichlet_values([bc])[0]
        # polygon vertex 1 joins edge 0 (incoming, trace 2) and edge 1: the average
        idx = int(np.where(space.dof_corner == 1)[0][0])
        assert vals[idx] == pytest.approx(1.0)
