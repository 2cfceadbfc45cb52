import logging
import re

import numpy as np
import pytest

from polydiv import poisson
from polydiv.catalog import catalog_names, catalog_polygon
from polydiv.poisson import MIN_ANGLE_FLOOR, MeshFailure, default_mesh_size, triangulate


def test_every_rejected_attempt_is_logged(monkeypatch, caplog):
    # no mesh meets a 90 degree floor: four attempts are rejected, each one
    # logged with its reason, before MeshFailure
    monkeypatch.setattr(poisson, "MIN_ANGLE_FLOOR", 90.0)
    p = catalog_polygon("fig165")
    caplog.set_level(logging.INFO, logger="polydiv")
    with pytest.raises(MeshFailure, match="min angle"):
        triangulate(p, p.diameter / 8)
    records = [r for r in caplog.records if r.name == "polydiv"]
    assert len(records) == 4
    for attempt, r in enumerate(records, start=1):
        assert r.levelno == logging.INFO
        assert r.getMessage().startswith(f"triangulate: attempt {attempt} at h=")
        assert "below floor" in r.getMessage()


def test_accepted_mesh_logs_nothing(caplog):
    p = catalog_polygon("fig165")
    caplog.set_level(logging.INFO, logger="polydiv")
    triangulate(p, p.diameter / 8)
    assert not [r for r in caplog.records if r.name == "polydiv"]


@pytest.mark.parametrize("divisor", [80, 100, 128])
def test_fig160_fine_mesh_needs_no_retry(divisor):
    # three boundary nodes of one polygon edge span a flat Delaunay simplex
    # at these sizes; it is not a cell of the polygon and must not fail the
    # angle floor
    p = catalog_polygon("fig160")
    mesh = triangulate(p, p.diameter / divisor)
    assert mesh.h == p.diameter / divisor
    assert mesh.min_angle() >= MIN_ANGLE_FLOOR


@pytest.mark.parametrize("shape", catalog_names())
def test_catalog_meshes_at_default_size_without_retry(shape):
    # every element and basis run meshes at the default size; a retry would
    # show as a mesh size 0.7 times the request
    p = catalog_polygon(shape)
    assert triangulate(p).h == default_mesh_size(p)


def _first(mask):
    """Only the first True of ``mask``."""
    out = np.zeros_like(mask)
    out[np.flatnonzero(mask)[:1]] = True
    return out


def _interior(simplices, on_edge):
    # no node on the boundary, so no side is a boundary segment
    return _first(~on_edge[simplices].any(axis=(1, 2)))


def _on_a_segment(simplices, on_edge):
    # two nodes on one polygon edge: their side is a boundary segment
    sides = [(on_edge[simplices[:, a]] & on_edge[simplices[:, b]]).any(axis=1) for a, b in ((0, 1), (1, 2), (2, 0))]
    return _first(np.logical_or.reduce(sides))


def _every(simplices, on_edge):
    return np.ones(len(simplices), dtype=bool)


@pytest.mark.parametrize(
    "drop, reason",
    [
        (_interior, r"covered area \S+ != polygon area \S+"),
        (_on_a_segment, "boundary not recovered"),
        (_every, "boundary not recovered"),
    ],
    ids=["interior-triangle", "segment-triangle", "every-triangle"],
)
def test_each_rejection_reason(monkeypatch, caplog, drop, reason):
    # a Delaunay step that loses triangles fails every attempt with the
    # reason of the first check it breaks; an empty triangulation has no
    # mesh edges, so the conformity check is the one that rejects it
    delaunay_inside = poisson._delaunay_inside

    def losing(verts, points, on_edge):
        simplices = delaunay_inside(verts, points, on_edge)
        dropped = drop(simplices, on_edge)
        assert dropped.any()
        return simplices[~dropped]

    monkeypatch.setattr(poisson, "_delaunay_inside", losing)
    p = catalog_polygon("fig165")
    caplog.set_level(logging.INFO, logger="polydiv")
    with pytest.raises(MeshFailure, match=rf"could not mesh polygon at target h=\S+: {reason}$"):
        triangulate(p, p.diameter / 8)
    records = [r for r in caplog.records if r.name == "polydiv"]
    assert len(records) == 4
    for attempt, r in enumerate(records, start=1):
        assert r.levelno == logging.INFO
        assert r.getMessage().startswith(f"triangulate: attempt {attempt} at h=")
        assert re.search(reason + "$", r.getMessage())
