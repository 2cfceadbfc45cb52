"""Tests of the benchmark's own code: input generation, span accounting and
the wrappers.  Run with ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from polydiv import elements, harness, hdiv_basis, poisson  # noqa: E402
from polydiv.geometry import build_polygon, convex_hull, validate_shape  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_shapes_are_seeded_and_admissible(seed):
    shapes = workloads.random_shapes(seed)
    assert shapes == workloads.random_shapes(seed)
    assert [len(verts) for verts in shapes] == [n for n, _ in workloads.SHAPE_MIX]
    for verts, (n, convex) in zip(shapes, workloads.SHAPE_MIX):
        polygon = build_polygon(verts)
        assert (len(convex_hull(np.array(verts))) == n) == convex
        for kind in ("IIb", "Ib"):
            diag = validate_shape(polygon, kind)
            assert not diag.violations and not diag.warnings


def test_random_shapes_differ_between_seeds():
    assert workloads.random_shapes(0) != workloads.random_shapes(1)


def test_sweep_inputs_are_a_reordering(tmp_path):
    a = workloads.setup_workload("sweep", 0, tmp_path / "a")
    b = workloads.setup_workload("sweep", 5, tmp_path / "b")
    assert workloads.expected_study_keys(a) == workloads.expected_study_keys(b)
    assert len(workloads.expected_study_keys(a)) == a.elements_per_pass == 18


def test_self_times_subtract_the_union_of_children():
    recorded = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),   # overlaps a: the union 1..5 is covered once
        ("c", 2.5, 3.5, 2),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 2.0, 2.0, 1.0])


def test_patched_rebinds_every_lookup_site_and_restores():
    originals = (poisson.triangulate, harness.triangulate, hdiv_basis.triangulate, harness.assemble_transfer)
    assert harness.triangulate is poisson.triangulate is hdiv_basis.triangulate
    tracer = spans.Tracer()
    with tracer.patched():
        assert harness.triangulate is hdiv_basis.triangulate is poisson.triangulate
        assert harness.triangulate is not originals[0]
        assert elements.assemble_transfer is harness.assemble_transfer is not originals[3]
        assert tracer.unpatched == []
    assert (poisson.triangulate, harness.triangulate, hdiv_basis.triangulate, harness.assemble_transfer) == originals


def test_a_layer_that_never_fired_is_missing_not_zero():
    tracer = spans.Tracer()
    fired = set(spans.EXPECTED["sweep"]) - {"elements.classify_degenerate"}
    missing = tracer.missing("sweep", fired)
    assert missing == ["elements.classify_degenerate"]
    assert spans.metric_missing("elements.classify_s", missing)
    assert not spans.metric_missing("elements.tune_basis_s", missing)
    # export is not expected on sweep, so its zero is a real zero
    assert not spans.metric_missing("hdiv_basis.export_s", missing)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "elements_per_s", "peak_rss_mb"}


def test_mesh_size_override_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("POLYDIV_MESH_H", "0.01")
    assert run.main(["--workload", "sweep"]) == 2
    assert "POLYDIV_MESH_H" in capsys.readouterr().err
