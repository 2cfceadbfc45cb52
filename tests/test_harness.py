import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polydiv
from polydiv import elements, harness, hdiv_basis, poisson
from polydiv.catalog import catalog_polygon
from polydiv.elements import ElementConfig
from polydiv.geometry import GeometryError, ShapeViolation
from polydiv.harness import (
    StudyConfig,
    StudyRow,
    cmd_basis,
    cmd_condstudy,
    cmd_element,
    cmd_rtcompare,
    cmd_validate,
    main,
    run_condstudy,
    write_study_svg,
)
from polydiv.polyfam import PolyFamily

# a shape file that exists but holds no list of vertices
BAD_SHAPE = "bad-shape.json"


class TestValidate:
    def test_fig151_passes(self, capsys):
        assert cmd_validate("fig151") == 0

    def test_fig172_fails_r1(self, capsys):
        assert cmd_validate("fig172") == 1
        out = capsys.readouterr().out
        assert "R1" in out

    def test_fig74_fails_r3_for_Ia(self, capsys):
        assert cmd_validate("fig74", "Ia") == 1
        out = capsys.readouterr().out
        assert "R3" in out

    def test_runs_as_a_module(self, tmp_path):
        src = str(Path(polydiv.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "polydiv", "validate", "--shape", "fig165"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "PASS fig165"

    def test_shape_file(self, tmp_path):
        f = tmp_path / "shape.json"
        f.write_text(json.dumps({"name": "tri", "vertices": [[0.2, 0.1], [1.1, 0.3], [0.3, 1.2]]}))
        assert cmd_validate(str(f)) == 0


class TestElement:
    def test_outputs(self, tmp_path):
        summary = cmd_element("fig151", "reduced", "IIb", 0, tmp_path, h=0.06)
        for name in ("lambda.csv", "traces.csv", "interior.csv", "summary.json"):
            assert (tmp_path / name).exists()
        assert summary["counts"]["dofs"] == summary["counts"]["functions"] == 3
        assert summary["degenerated"] == 0
        assert max(summary["off_support_max"]) < summary["tau_bc"]
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["cond2_truncated"] == str(int(data["cond2"]))

    def test_hexagon_iib_degeneration(self, tmp_path):
        summary = cmd_element("fig165", "classical", "IIb", 1, tmp_path)
        assert summary["degenerated_per_edge"] == [2] * 6

    def test_lambda_csv_roundtrip(self, tmp_path):
        cmd_element("fig151", "reduced", "IIb", 0, tmp_path, h=0.06)
        rows = list(csv.reader((tmp_path / "lambda.csv").open()))
        assert len(rows) == 4  # header + 3 DOF rows
        vals = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        assert vals.shape == (3, 3)


class TestCondStudy:
    def test_rows_and_determinism(self, tmp_path):
        study = StudyConfig(
            shapes=["fig151"],
            orders=[0],
            configs=["Ib", "IIb"],
            space="classical",
            bproj=[3, 1],
            iproj=[3],
            h_divisor=24,
        )
        rows = cmd_condstudy(study, tmp_path, svg=True)
        assert len(rows) == 1 * 1 * 2 * 2
        conds = [r.cond2 for r in rows]
        assert conds == sorted(conds)
        csv1 = (tmp_path / "study.csv").read_text()
        cmd_condstudy(study, tmp_path)
        assert (tmp_path / "study.csv").read_text() == csv1
        assert (tmp_path / "study.svg").read_text().startswith("<svg")

    def test_row_blocks_assembled_once_per_basis(self, tmp_path, monkeypatch):
        # the benchmark's sweep grid: 18 rows share one basis and 6 DOF sets,
        # one per (config, boundary projector); Lambda has 6 edge blocks
        # (config x boundary projector) and 3 interior blocks (inner
        # projector), each built from its moments once
        calls, sets = [], []
        dof_moments, dof_set = elements.dof_moments, harness.dof_set

        def counted(dofs, bank):
            calls.append(len(dofs))
            return dof_moments(dofs, bank)

        def counted_set(polygon, cfg):
            sets.append((cfg.config, cfg.boundary_projector))
            return dof_set(polygon, cfg)

        monkeypatch.setattr(elements, "dof_moments", counted)
        monkeypatch.setattr(harness, "dof_set", counted_set)
        study = StudyConfig(
            shapes=["fig165"], orders=[1], configs=["Ib", "IIb"], bproj=[1, 3, 4], iproj=[1, 3, 4], h_divisor=16
        )
        rows = cmd_condstudy(study, tmp_path)
        assert len(rows) == 18
        assert sorted(calls) == [3] * 3 + [24] * 6
        assert len(sets) == len(set(sets)) == 6

    def test_rows_match_a_fresh_assembly(self):
        # a row reads its (config, bproj)'s DOF set with its own family, and
        # the blocks its basis kept; it must report what its own DOF set
        # gives on a basis that has assembled nothing yet
        study = StudyConfig(
            shapes=["fig165", "fig170"],
            orders=[2],
            configs=["Ib", "IIb"],
            bproj=[1, 3, 4],
            iproj=list(range(1, 8)),
            h_divisor=16,
            expect_fail=["fig170"],
        )
        rows = run_condstudy(study)
        assert len(rows) == 2 * 2 * 3 * 7
        meshes = {}
        for r in rows:
            polygon = catalog_polygon(r.shape)
            spec = harness._space_kind(study.space, r.k, r.bcons, r.icons)
            cfg = ElementConfig(r.config, spec, boundary_projector=PolyFamily(r.bproj), inner_projector=PolyFamily(r.iproj))
            try:
                dofs = elements.dof_set(polygon, cfg)
            except ShapeViolation:
                cond, degen = math.inf, -1
            else:
                if r.shape not in meshes:
                    meshes[r.shape] = poisson.triangulate(polygon, polygon.diameter / study.h_divisor)
                basis = hdiv_basis.canonical_basis(polygon, spec, mesh=meshes[r.shape])
                T = elements.assemble_transfer(dofs, basis)
                cond = T.cond2
                try:
                    degen = elements.classify_degenerate(elements.tune_basis(T, basis), basis).degenerated
                except elements.SingularTransfer:
                    degen = -1
            assert (r.cond2, r.degenerated) == (cond, degen), r
        assert {r.shape for r in rows if r.cond2 == math.inf} == {"fig170"}

    def test_failing_shape_marked_singular(self, tmp_path):
        study = StudyConfig(
            shapes=["fig74"],
            orders=[0],
            configs=["Ia"],
            space="classical",
            h_divisor=24,
            expect_fail=["fig74"],
        )
        rows = run_condstudy(study)
        assert len(rows) == 1
        assert rows[0].cond2 >= 1e14 or not np.isfinite(rows[0].cond2)

    def test_violating_shape_is_an_error(self):
        # fig170 violates R2: its rows must not vanish from the study
        study = StudyConfig(shapes=["fig170", "fig151"], orders=[0], configs=["Ib"], h_divisor=16)
        with pytest.raises(ShapeViolation):
            run_condstudy(study)

    def test_violating_shape_leaves_no_directory(self, tmp_path):
        # fig172 violates R1 and expect_fail does not list it
        study = StudyConfig(shapes=["fig172"], orders=[0], configs=["Ib"], h_divisor=16)
        with pytest.raises(ShapeViolation):
            cmd_condstudy(study, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_expected_violation_gives_singular_rows(self, tmp_path):
        study = StudyConfig(
            shapes=["fig170", "fig151"], orders=[0], configs=["Ib"], h_divisor=16, expect_fail=["fig170"]
        )
        cmd_condstudy(study, tmp_path)
        with open(tmp_path / "study.csv", newline="") as fh:
            rows = {r["shape"]: r for r in csv.DictReader(fh)}
        assert set(rows) == {"fig170", "fig151"}
        assert rows["fig170"]["cond2"] == "SINGULAR"
        assert rows["fig151"]["cond2"] != "SINGULAR"

    def test_rows_cluster_by_inner_projector(self):
        # sweeping the inner projector at fixed everything else, the sorted
        # conditionings cluster by family: every Laguerre row lands above
        # every Hermite row
        study = StudyConfig(
            shapes=["fig161"],
            orders=[1],
            configs=["Ib"],
            space="classical",
            bproj=[3],
            iproj=[1, 2, 3, 4, 5, 6, 7],
            h_divisor=32,
        )
        rows = run_condstudy(study)
        assert len(rows) == 7
        hermite = [r.cond2 for r in rows if r.iproj == 3]
        laguerre = [r.cond2 for r in rows if r.iproj == 5]
        assert max(hermite) < min(laguerre)

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "study.json"
        cfgfile.write_text(
            json.dumps(
                {
                    "shapes": ["fig151"],
                    "orders": [0],
                    "configs": ["IIb"],
                    "space": "reduced",
                    "h_divisor": 24,
                }
            )
        )
        study = StudyConfig.from_json(cfgfile)
        rows = run_condstudy(study)
        assert len(rows) == 1


def test_study_svg_of_singular_rows_is_the_empty_chart(tmp_path):
    rows = [StudyRow("fig172", 1, "Ib", bproj, 3, 1, 2, math.inf, -1, 0.0) for bproj in (1, 2)]
    write_study_svg(rows, tmp_path / "study.svg")
    assert (tmp_path / "study.svg").read_bytes() == b"<svg xmlns='http://www.w3.org/2000/svg'/>"


class TestRTCompare:
    def test_triangle_k0_scales_to_one(self, tmp_path):
        report = cmd_rtcompare("triangle", 0, tmp_path)
        assert report["reduced"]["per_edge_functions"] == 1
        assert report["rt"]["per_edge_functions"] == 1
        for v in report["reduced"]["midpoint_traces"]:
            assert v == pytest.approx(1.0, abs=5e-10)

    def test_quad_k1_counts_and_vanishing(self, tmp_path):
        report = cmd_rtcompare("quad", 1, tmp_path)
        assert report["reduced"]["per_edge_functions"] == 2
        assert report["reduced"]["internal_trace_max"] < 1e-8
        assert report["reduced"]["duality_residual"] < 1e-8
        assert report["rt"]["duality_residual"] < 1e-8


class TestCLI:
    def test_validate_exit_codes(self):
        assert main(["validate", "--shape", "fig151"]) == 0
        assert main(["validate", "--shape", "fig172"]) == 1

    def test_element_cli(self, tmp_path, capsys):
        rc = main(
            [
                "element",
                "--shape",
                "fig151",
                "--space",
                "reduced",
                "--config",
                "IIb",
                "--k",
                "0",
                "--h",
                "0.06",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"] == "IIb"

    def test_condstudy_cli(self, tmp_path, capsys):
        rc = main(
            [
                "condstudy",
                "--shapes",
                "fig151",
                "--orders",
                "0",
                "--configs",
                "IIb",
                "--bproj",
                "3",
                "--iproj",
                "3",
                "--h-divisor",
                "24",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "study.csv").exists()

    def test_basis_cli_writes_what_cmd_basis_writes(self, tmp_path):
        rc = main(["basis", "--shape", "fig151", "--space", "reduced", "--k", "1", "--h", "0.06", "--out", str(tmp_path / "cli")])
        assert rc == 0
        cmd_basis("fig151", "reduced", 1, tmp_path / "direct", h=0.06)
        for name in ("traces.csv", "interior.csv", "summary.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes(), name

    def test_rtcompare_cli_prints_and_writes_the_report(self, tmp_path, capsys):
        rc = main(["rtcompare", "--shape", "triangle", "--k", "0", "--out", str(tmp_path / "cli")])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        report = cmd_rtcompare("triangle", 0, tmp_path / "direct")
        assert printed == report
        assert (tmp_path / "cli" / "rtcompare.json").read_bytes() == (tmp_path / "direct" / "rtcompare.json").read_bytes()


class TestBadValuesFailEarly:
    """A bad code, config, order, space, mesh divisor or mesh size is
    refused with its field and value named, before any mesh is built."""

    @pytest.fixture(autouse=True)
    def no_meshing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("triangulate was reached")

        for module in (poisson, hdiv_basis, harness):
            monkeypatch.setattr(module, "triangulate", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["element", "--shape", "fig165", "--config", "IIb", "--bproj", "9"],
            ["element", "--shape", "fig165", "--config", "IIb", "--iproj", "0"],
            ["element", "--shape", "fig165", "--config", "IIb", "--bcons", "4"],
            ["condstudy", "--icons", "6"],
            ["condstudy", "--bproj", "3", "9"],
            ["condstudy", "--configs", "Ic"],
            ["basis", "--shape", "fig151", "--k", "1", "--bproj", "9"],
            ["basis", "--shape", "fig151", "--k", "1", "--iproj", "3"],
            ["basis", "--shape", "fig151", "--k", "0", "--h", "nan"],
            ["basis", "--shape", "fig151", "--k", "0", "--h", "inf"],
            ["element", "--shape", "fig165", "--config", "IIb", "--h", "nan"],
            ["element", "--config", "IIb", "--shape", "nosuchshape"],
            ["basis", "--k", "1", "--shape", "nosuchshape"],
            ["condstudy", "--shapes", "fig165", "nosuchshape"],
            ["validate", "--shape", "nosuchshape"],
            ["element", "--config", "IIb", "--shape", BAD_SHAPE],
            ["condstudy", "--shapes", "fig165", BAD_SHAPE],
            ["validate", "--shape", BAD_SHAPE],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_cli_usage_error(self, tmp_path, monkeypatch, argv, capsys):
        monkeypatch.chdir(tmp_path)
        Path(BAD_SHAPE).write_text('{"vertices": 3}')
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ([] if argv[0] == "validate" else ["--out", str(out)]))
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert argv[-1] in message
        if argv[-1] == "nosuchshape":
            assert "fig151" in message and "fig165" in message
        if argv[-1] == BAD_SHAPE:
            assert '"vertices" is a int' in message
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--orders", "1", "2", "--configs", "Ia"], ["--orders", "0"], ["--h-divisor", "64"], ["--shapes"]],
        ids=lambda flags: " ".join(flags),
    )
    def test_condstudy_config_file_with_grid_flags(self, tmp_path, capsys, flags):
        cfgfile = tmp_path / "study.json"
        cfgfile.write_text(json.dumps({"shapes": ["fig165"], "orders": [0], "configs": ["IIb"]}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["condstudy", "--config-file", str(cfgfile), *flags, "--out", str(out)])
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert str(cfgfile) in message
        assert all(flag in message for flag in flags if flag.startswith("--"))
        assert not out.exists()

    def test_cmd_validate_malformed_shape_file(self, tmp_path):
        path = tmp_path / BAD_SHAPE
        path.write_text('{"vertices": 3}')
        with pytest.raises(GeometryError, match='"vertices" is a int'):
            cmd_validate(str(path))

    def test_condstudy_cli_h_divisor(self, tmp_path):
        with pytest.raises(ValueError, match="h_divisor 0 "):
            main(["condstudy", "--h-divisor", "0", "--out", str(tmp_path)])

    @pytest.mark.parametrize(
        "content, fault",
        [
            (None, "No such file"),
            ("{", "not valid JSON"),
            ('["fig165"]', "holds a JSON list, not an object"),
            ('{"shapes": ["fig165"], "orders": [1], "configs": ["Ib"], "shape": "fig165"}', "unknown key 'shape'"),
            ('{"shapes": ["fig165"], "configs": ["Ib"]}', "no 'orders' key"),
            ('{"shapes": ["fig165"], "orders": [-1], "configs": ["Ib"]}', "orders -1 "),
            ('{"shapes": ["nosuchshape"], "orders": [1], "configs": ["Ib"]}', "shapes 'nosuchshape' "),
        ],
        ids=["missing-file", "invalid-json", "not-an-object", "unknown-key", "missing-key", "bad-value", "unknown-shape"],
    )
    def test_condstudy_config_file(self, tmp_path, capsys, content, fault):
        cfgfile = tmp_path / "study.json"
        if content is not None:
            cfgfile.write_text(content)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["condstudy", "--config-file", str(cfgfile), "--out", str(out)])
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert str(cfgfile) in message and fault in message
        if "nosuchshape" in (content or ""):
            assert "fig151" in message and "fig165" in message
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("icons", [6]),
            ("bcons", [0]),
            ("bproj", [8]),
            ("iproj", ["3"]),
            ("configs", ["IIc"]),
            ("orders", [-1]),
            ("space", "mixed"),
            ("h_divisor", 0),
            ("h_divisor", -16),
            ("bproj", 3),
            ("shapes", ["nosuchshape"]),
            ("shapes", [3]),
            ("shapes", [BAD_SHAPE]),
            ("expect_fail", 5),
            ("expect_fail", [BAD_SHAPE]),
        ],
    )
    def test_study_config(self, tmp_path, monkeypatch, field, value):
        monkeypatch.chdir(tmp_path)
        Path(BAD_SHAPE).write_text('{"vertices": 3}')
        kw = dict(shapes=["fig165"], orders=[1], configs=["Ib"])
        kw[field] = value
        shown = repr(value[0] if isinstance(value, list) else value)
        with pytest.raises(ValueError, match=f"^{field} {shown} "):
            StudyConfig(**kw)
        cfgfile = tmp_path / "study.json"
        cfgfile.write_text(json.dumps(kw))
        with pytest.raises(ValueError, match=f"^{field} {shown} "):
            StudyConfig.from_json(cfgfile)

    @pytest.mark.parametrize(
        "field, value",
        [("bproj", 9), ("iproj", 0), ("bcons", 4), ("icons", 6), ("config", "IIc"), ("space", "mixed"), ("k", -1)],
    )
    def test_cmd_element(self, tmp_path, field, value):
        args = dict(shape="fig165", space="classical", config="IIb", k=1, outdir=tmp_path)
        args[field] = value
        with pytest.raises(ValueError, match=f"^{field} {value!r} "):
            cmd_element(**args)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, args",
        [
            (cmd_element, dict(space="classical", config="IIb", k=1)),
            (cmd_basis, dict(space="classical", k=1)),
        ],
        ids=["element", "basis"],
    )
    def test_unknown_shape_leaves_no_directory(self, tmp_path, command, args):
        with pytest.raises(FileNotFoundError, match="nosuchshape"):
            command(shape="nosuchshape", outdir=tmp_path / "out", **args)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("shape", "pentagon"), ("k", -1)])
    def test_cmd_rtcompare(self, tmp_path, field, value):
        args = dict(shape="triangle", k=0, outdir=tmp_path / "out")
        args[field] = value
        with pytest.raises(ValueError, match=f"^{field} {value!r} "):
            cmd_rtcompare(**args)
        assert not (tmp_path / "out").exists()
