import logging

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
