"""Command-line orchestration: shape validation, basis and element builds,
conditioning sweeps, and the comparison of the reduced elements with the
classical Raviart-Thomas ones.

Outputs are CSV files (comma separated, header row, '.' decimal), JSON
summaries, and optional hand-emitted SVG charts, each written by
``hdiv_basis.write_over``.  Runs are deterministic: rows are sorted, never
emitted in execution order.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .catalog import catalog_names, load_shape, resolve_shape
from .elements import (
    CONFIG_NAMES,
    ElementConfig,
    SingularTransfer,
    assemble_transfer,
    classify_degenerate,
    condition_2norm,
    dof_set,
    duality_residual,
    inverse_transpose,
    tune_basis,
    zero_rows,
)
from .geometry import ShapeViolation, validate_shape
from .hdiv_basis import (
    HdivSpaceKind,
    SpaceTag,
    canonical_basis,
    export_interior,
    export_traces,
    write_over,
)
from .poisson import DEFAULT_H_DIVISOR, triangulate
from .polyfam import BOUNDARY_CONSTRUCTOR_KINDS, INNER_CONSTRUCTOR_KINDS, PolyFamily
from .rt_classical import rt_basis, rt_dofs, rt_transfer

__all__ = ["main", "StudyConfig", "StudyRow", "cmd_validate", "cmd_basis", "cmd_element", "cmd_condstudy", "cmd_rtcompare"]

_SPACE_TAGS = {t.value: t for t in SpaceTag}
_PROJECTOR_CODES = {f.value: f for f in PolyFamily}
_SHAPES = tuple(catalog_names())


def _check(field: str, value, choices) -> None:
    """Raise ``ValueError`` naming the field and the value unless the value
    is one of ``choices``; ``choices`` None takes an order, an int >= 0, and
    ``_SHAPES`` a catalog key or a shape file that ``load_shape`` reads."""
    if choices is None:
        if type(value) is not int or value < 0:
            raise ValueError(f"{field} {value!r} is not a non-negative integer")
    elif choices is _SHAPES:
        unknown = ValueError(f"{field} {value!r} is neither a shape file nor one of the catalog keys {', '.join(_SHAPES)}")
        if not isinstance(value, str):
            raise unknown
        if value not in _SHAPES:
            try:
                load_shape(value)
            except OSError:
                raise unknown from None
            except ValueError as exc:  # a GeometryError, or bytes that are not text
                raise ValueError(f"{field} {value!r} is not a usable shape file: {exc}") from None
    elif type(value) not in (int, str) or value not in choices:
        raise ValueError(f"{field} {value!r} is not one of {list(choices)}")


def _space_kind(space: str, k: int, bcons: int, icons: int) -> HdivSpaceKind:
    _check("space", space, _SPACE_TAGS)
    _check("k", k, None)
    _check("bcons", bcons, BOUNDARY_CONSTRUCTOR_KINDS)
    _check("icons", icons, INNER_CONSTRUCTOR_KINDS)
    return HdivSpaceKind(
        tag=_SPACE_TAGS[space],
        k=k,
        boundary_constructor=BOUNDARY_CONSTRUCTOR_KINDS[bcons],
        inner_constructor=INNER_CONSTRUCTOR_KINDS[icons],
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _truncate(x: float) -> str:
    return "SINGULAR" if not math.isfinite(x) else str(int(x))


@dataclass
class StudyConfig:
    """Parameter grid of a conditioning study.  Every value is checked when
    the grid is built: a bad one raises ``ValueError`` naming its field."""

    shapes: List[str]
    orders: List[int]
    configs: List[str]
    space: str = "classical"
    bproj: List[int] = field(default_factory=lambda: [3])
    iproj: List[int] = field(default_factory=lambda: [3])
    bcons: List[int] = field(default_factory=lambda: [1])
    icons: List[int] = field(default_factory=lambda: [2])
    h_divisor: int = DEFAULT_H_DIVISOR
    expect_fail: List[str] = field(default_factory=list)

    def __post_init__(self):
        _check("space", self.space, _SPACE_TAGS)
        for name, choices in (
            ("shapes", _SHAPES),
            ("orders", None),
            ("configs", CONFIG_NAMES),
            ("bproj", _PROJECTOR_CODES),
            ("iproj", _PROJECTOR_CODES),
            ("bcons", BOUNDARY_CONSTRUCTOR_KINDS),
            ("icons", INNER_CONSTRUCTOR_KINDS),
            ("expect_fail", _SHAPES),
        ):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} {values!r} is not a list")
            for value in values:
                _check(name, value, choices)
        h_divisor = self.h_divisor
        if type(h_divisor) not in (int, float) or not 0 < h_divisor < math.inf:
            raise ValueError(f"h_divisor {h_divisor!r} is not a positive number")

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        """The grid of a JSON object whose keys are the fields.  A file that
        cannot be read, or holds no such object, raises ``ValueError`` naming
        the fault, as a bad value does."""
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot be read: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"holds a JSON {type(data).__name__}, not an object")
        keys = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
        for key in data:
            if key not in keys:
                raise ValueError(f"unknown key {key!r}; the keys are {', '.join(keys)}")
        for key, required in keys.items():
            if required and key not in data:
                raise ValueError(f"no {key!r} key, which is required")
        return cls(**data)


@dataclass
class StudyRow:
    shape: str
    k: int
    config: str
    bproj: int
    iproj: int
    bcons: int
    icons: int
    cond2: float
    degenerated: int
    wall_time: float


def cmd_validate(shape: str, config: Optional[str] = None, v=(1.0, 1.0)) -> int:
    """Run the shape admissibility rules; exit code 0 when admissible."""
    polygon = resolve_shape(shape)
    diag = validate_shape(polygon, config, v)
    for rec in diag.violations:
        print(f"VIOLATION edge={rec.edge} rule={rec.rule} value={rec.value!r}")
    for rec in diag.warnings:
        print(f"warning   edge={rec.edge} rule={rec.rule} value={rec.value!r}")
    print(("FAIL" if diag.violations else "PASS") + f" {shape}")
    return 1 if diag.violations else 0


def cmd_basis(shape: str, space: str, k: int, outdir, bcons: int = 1, icons: int = 2, h: Optional[float] = None) -> dict:
    """Build the canonical basis and export trace/interior samples."""
    spec = _space_kind(space, k, bcons, icons)
    polygon = resolve_shape(shape)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    basis = canonical_basis(polygon, spec, h=h)
    export_traces(basis.functions, polygon, outdir / "traces.csv")
    export_interior(basis.functions, basis.mesh, outdir / "interior.csv")
    summary = {
        "shape": shape,
        "space": space,
        "k": k,
        "size": basis.size,
        "tau_bc": basis.tau_bc,
        "mesh_triangles": basis.mesh.n_triangles,
    }
    _write_json(summary, outdir / "summary.json")
    return summary


def _write_json(data: dict, path) -> None:
    write_over(path, [json.dumps(data, indent=2, sort_keys=True).encode()])


def _write_csv(rows, path) -> None:
    """The rows as CSV (comma separated, CRLF line ends), in one chunk."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_over(path, [text.getvalue().encode()])


def _write_lambda_csv(T, path) -> None:
    _write_csv(
        [[""] + T.col_labels] + [[label] + [_fmt(x) for x in row] for label, row in zip(T.row_labels, T.matrix)], path
    )


def cmd_element(
    shape: str,
    space: str,
    config: str,
    k: int,
    outdir,
    bproj: int = 3,
    iproj: int = 3,
    bcons: int = 1,
    icons: int = 2,
    h: Optional[float] = None,
    v=(1.0, 1.0),
) -> dict:
    """Assemble one element end to end and write lambda.csv, traces.csv,
    interior.csv and summary.json."""
    _check("bproj", bproj, _PROJECTOR_CODES)
    _check("iproj", iproj, _PROJECTOR_CODES)
    cfg = ElementConfig(
        config,
        _space_kind(space, k, bcons, icons),
        v=tuple(v),
        boundary_projector=_PROJECTOR_CODES[bproj],
        inner_projector=_PROJECTOR_CODES[iproj],
    )
    polygon = resolve_shape(shape)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    basis = canonical_basis(polygon, cfg.space, h=h)
    dofs = dof_set(polygon, cfg)
    T = assemble_transfer(dofs, basis)
    _write_lambda_csv(T, outdir / "lambda.csv")
    summary: dict = {
        "shape": shape,
        "space": space,
        "config": config,
        "k": k,
        "cond2": T.cond2,
        "cond2_truncated": _truncate(T.cond2),
        "zero_rows": zero_rows(T),
        "counts": {"dofs": len(dofs), "functions": basis.size},
        "tau_bc": basis.tau_bc,
    }
    # off-support diagnostic: max |q . n| on each edge of the other edges' normal functions
    owner = basis.owners
    off_support = []
    for e in polygon.edges:
        others = basis.functions[(owner >= 0) & (owner != e.index)]
        trace = others.normal_trace_on(e, np.linspace(0.0, e.length, 25))
        off_support.append(float(np.max(np.abs(trace), initial=0.0)))
    summary["off_support_max"] = off_support
    try:
        tuned = tune_basis(T, basis)
    except SingularTransfer as exc:
        summary["singular"] = str(exc)
        shown = basis.functions
    else:
        report = classify_degenerate(tuned, basis)
        summary["duality_residual"] = duality_residual(T.matrix, tuned.A)
        summary["degenerated"] = report.degenerated
        summary["degenerated_per_edge"] = report.per_edge_degenerated
        shown = tuned.functions
    export_traces(shown, polygon, outdir / "traces.csv")
    export_interior(shown, basis.mesh, outdir / "interior.csv")
    _write_json(summary, outdir / "summary.json")
    return summary


def run_condstudy(study: StudyConfig) -> List[StudyRow]:
    """The study's rows.  A shape that violates the admissibility rules
    raises ``ShapeViolation``, unless ``expect_fail`` lists it: then a row
    whose DOF set violates them has cond2 = inf (SINGULAR)."""
    rows: List[StudyRow] = []
    for shape_name in study.shapes:
        polygon = resolve_shape(shape_name)
        h = polygon.diameter / study.h_divisor
        mesh = triangulate(polygon, h)
        for k in study.orders:
            for bcons, icons in itertools.product(study.bcons, study.icons):
                spec = _space_kind(study.space, k, bcons, icons)
                basis = canonical_basis(polygon, spec, mesh=mesh, allow_invalid=shape_name in study.expect_fail)
                # one DOF set per (config, bproj); each inner projector takes
                # it with its own family, and the first row carries its cost
                for config, bproj in itertools.product(study.configs, study.bproj):
                    t0 = time.perf_counter()
                    cfg = ElementConfig(config, spec, boundary_projector=_PROJECTOR_CODES[bproj])
                    try:
                        dofs = dof_set(polygon, cfg)
                    except ShapeViolation:
                        dofs = None
                    for iproj in study.iproj:
                        if dofs is None:
                            cond = math.inf
                            degen = -1
                        else:
                            T = assemble_transfer(dofs.with_family(_PROJECTOR_CODES[iproj]), basis)
                            cond = T.cond2
                            try:
                                report = classify_degenerate(tune_basis(T, basis), basis)
                                degen = report.degenerated
                            except SingularTransfer:
                                degen = -1
                        t1 = time.perf_counter()
                        rows.append(
                            StudyRow(
                                shape=shape_name,
                                k=k,
                                config=config,
                                bproj=bproj,
                                iproj=iproj,
                                bcons=bcons,
                                icons=icons,
                                cond2=cond,
                                degenerated=degen,
                                wall_time=t1 - t0,
                            )
                        )
                        t0 = t1
    rows.sort(key=lambda r: (r.cond2 if math.isfinite(r.cond2) else math.inf, r.shape, r.k, r.config, r.bproj, r.iproj, r.bcons, r.icons))
    return rows


def write_study_csv(rows: Sequence[StudyRow], path, timings_path) -> None:
    """Write the deterministic study table; wall times go to a side file so
    study.csv stays byte-identical across reruns."""
    header = ["shape", "k", "config", "bproj", "iproj", "bcons", "icons"]
    _write_csv(
        [header + ["cond2", "cond2_truncated", "degenerated"]]
        + [
            [
                r.shape,
                r.k,
                r.config,
                r.bproj,
                r.iproj,
                r.bcons,
                r.icons,
                "SINGULAR" if not math.isfinite(r.cond2) else _fmt(r.cond2),
                _truncate(r.cond2),
                r.degenerated,
            ]
            for r in rows
        ],
        path,
    )
    _write_csv(
        [header + ["wall_time_s"]]
        + [[r.shape, r.k, r.config, r.bproj, r.iproj, r.bcons, r.icons, f"{r.wall_time:.4f}"] for r in rows],
        timings_path,
    )


_BAND_COLORS = ["#4363d8", "#e6194B", "#3cb44b", "#ffe119", "#f032e6", "#42d4f4", "#9A6324"]


def write_study_svg(rows: Sequence[StudyRow], path) -> None:
    """Minimal line chart of sorted conditionings with parameter bands."""
    finite = [r for r in rows if math.isfinite(r.cond2)]
    if not finite:
        write_over(path, [b"<svg xmlns='http://www.w3.org/2000/svg'/>"])
        return
    width, height, band_h = 900, 420, 18
    n = len(finite)
    logs = [math.log10(max(r.cond2, 1.0)) for r in finite]
    lo, hi = min(logs), max(logs)
    span = max(hi - lo, 1e-9)
    xs = [40 + 820 * i / max(n - 1, 1) for i in range(n)]
    ys = [300 - 260 * (v - lo) / span for v in logs]
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    params = [
        ("iproj", [r.iproj for r in finite]),
        ("bproj", [r.bproj for r in finite]),
        ("bcons", [r.bcons for r in finite]),
        ("icons", [r.icons for r in finite]),
    ]
    bands = []
    for row_idx, (_, vals) in enumerate(params):
        y0 = 310 + row_idx * (band_h + 4)
        for i, val in enumerate(vals):
            color = _BAND_COLORS[(int(val) - 1) % len(_BAND_COLORS)]
            x0 = 40 + 820 * i / n
            bands.append(
                f"<rect x='{x0:.1f}' y='{y0}' width='{820 / n:.2f}' height='{band_h}' fill='{color}'/>"
            )
    svg = (
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>"
        "<rect width='100%' height='100%' fill='white'/>"
        f"<polyline fill='none' stroke='#4363d8' stroke-width='1.5' points='{pts}'/>"
        f"<text x='40' y='20' font-size='12'>log10 cond2, ascending ({n} cases)</text>"
        + "".join(bands)
        + "</svg>"
    )
    write_over(path, [svg.encode()])


def cmd_condstudy(study: StudyConfig, outdir, svg: bool = False) -> List[StudyRow]:
    """Run the study and write its files; a study that raises leaves no
    output directory."""
    rows = run_condstudy(study)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_study_csv(rows, outdir / "study.csv", outdir / "timings.csv")
    if svg:
        write_study_svg(rows, outdir / "study.svg")
    return rows


def cmd_rtcompare(shape: str, k: int, outdir) -> dict:
    """Compare the reduced IIb element against the classical RT element on
    the matching reference shape (trace counts, scaling, vanishing)."""
    _check("shape", shape, ("triangle", "quad"))
    _check("k", k, None)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    catalog_key = "fig151" if shape == "triangle" else "fig152"
    polygon = resolve_shape(catalog_key)
    spec = HdivSpaceKind(SpaceTag.REDUCED_LAGRANGE_BC, k)
    basis = canonical_basis(polygon, spec)
    cfg = ElementConfig("IIb", spec)
    T = assemble_transfer(dof_set(polygon, cfg), basis)
    tuned = tune_basis(T, basis)

    rt = rt_basis(shape, k, "local")
    rt_L = rt_transfer(rt_dofs(shape, k), rt.coefficients)

    report: dict = {
        "shape": shape,
        "k": k,
        "reduced": {
            "per_edge_functions": len(basis.normal_groups[0]),
            "cond2": T.cond2,
            "duality_residual": duality_residual(T.matrix, tuned.A),
        },
        "rt": {
            "per_edge_functions": len(rt.normal_groups[0]),
            "cond2": condition_2norm(rt_L),
            "duality_residual": duality_residual(rt_L, inverse_transpose(rt_L)),
        },
    }
    # scaling of the midpoint trace for the lowest order
    if k == 0:  # function j is the one normal function of edge j
        report["reduced"]["midpoint_traces"] = [
            float(tuned.functions[e.index].normal_trace_on(e, np.array([e.length / 2.0]))[0]) for e in polygon.edges
        ]
    # internal functions have vanishing traces on both sides
    internal = tuned.functions[basis.owners == -1]
    report["reduced"]["internal_trace_max"] = max(
        float(np.max(np.abs(internal.normal_trace_on(e, np.linspace(0.0, e.length, 20))), initial=0.0))
        for e in polygon.edges
    )
    _write_json(report, outdir / "rtcompare.json")
    return report


def _mesh_size(text: str) -> float:
    """The value of ``--h``: a positive, finite float, or a usage error."""
    h = float(text)
    if not 0 < h < math.inf:
        raise argparse.ArgumentTypeError(f"mesh size {text!r} is not positive and finite")
    return h


def _shape(text: str) -> str:
    """The value of ``--shape``: a catalog key or an existing file, or a
    usage error that lists the catalog keys."""
    try:
        _check("shape", text, _SHAPES)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


# the grid of ``condstudy`` without a --config-file, one StudyConfig field
# per flag
_GRID_DEFAULTS = {
    "shapes": ["fig165"],
    "orders": [1],
    "configs": ["Ib"],
    "space": "classical",
    "bproj": list(_PROJECTOR_CODES),
    "iproj": list(_PROJECTOR_CODES),
    "bcons": [1],
    "icons": [2],
    "h_divisor": DEFAULT_H_DIVISOR,
}


def _add_common(sp):
    sp.add_argument("--shape", required=True, type=_shape, help="catalog key (e.g. fig165) or JSON shape file")
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--space", default="classical", choices=sorted(_SPACE_TAGS))
    sp.add_argument("--bcons", type=int, default=1, choices=BOUNDARY_CONSTRUCTOR_KINDS, help="boundary constructor code")
    sp.add_argument("--icons", type=int, default=2, choices=INNER_CONSTRUCTOR_KINDS, help="inner constructor code")
    sp.add_argument("--h", type=_mesh_size, default=None, help="target mesh size")
    sp.add_argument("--out", default="out", help="output directory")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="polydiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="run the shape admissibility rules")
    sp.add_argument("--shape", required=True, type=_shape, help="catalog key (e.g. fig165) or JSON shape file")
    sp.add_argument("--config", default=None, choices=CONFIG_NAMES)
    sp.add_argument("--v", type=float, nargs=2, default=(1.0, 1.0))

    sp = sub.add_parser("basis", help="build and export a canonical basis")
    _add_common(sp)

    sp = sub.add_parser("element", help="assemble one element end to end")
    _add_common(sp)
    sp.add_argument("--bproj", type=int, default=3, choices=_PROJECTOR_CODES, help="boundary projector code")
    sp.add_argument("--iproj", type=int, default=3, choices=_PROJECTOR_CODES, help="inner projector code")
    sp.add_argument("--config", required=True, choices=CONFIG_NAMES)
    sp.add_argument("--v", type=float, nargs=2, default=(1.0, 1.0))

    # the grid flags default to None, so that one given beside --config-file
    # can be refused
    sp = study_parser = sub.add_parser("condstudy", help="conditioning sweep over a parameter grid")
    sp.add_argument("--config-file", default=None, help="JSON file mirroring StudyConfig, in place of the grid flags")
    sp.add_argument("--shapes", nargs="*", type=_shape)
    sp.add_argument("--orders", type=int, nargs="*")
    sp.add_argument("--configs", nargs="*", choices=CONFIG_NAMES)
    sp.add_argument("--space", choices=sorted(_SPACE_TAGS))
    sp.add_argument("--bproj", type=int, nargs="*", choices=_PROJECTOR_CODES)
    sp.add_argument("--iproj", type=int, nargs="*", choices=_PROJECTOR_CODES)
    sp.add_argument("--bcons", type=int, nargs="*", choices=BOUNDARY_CONSTRUCTOR_KINDS)
    sp.add_argument("--icons", type=int, nargs="*", choices=INNER_CONSTRUCTOR_KINDS)
    sp.add_argument("--h-divisor", type=int)
    sp.add_argument("--svg", action="store_true")
    sp.add_argument("--out", default="out")

    sp = sub.add_parser("rtcompare", help="compare reduced IIb with classical RT")
    sp.add_argument("--shape", required=True, choices=["triangle", "quad"])
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.shape, args.config, tuple(args.v))
    if args.command == "basis":
        cmd_basis(args.shape, args.space, args.k, args.out, args.bcons, args.icons, args.h)
        return 0
    if args.command == "element":
        summary = cmd_element(
            args.shape,
            args.space,
            args.config,
            args.k,
            args.out,
            args.bproj,
            args.iproj,
            args.bcons,
            args.icons,
            args.h,
            tuple(args.v),
        )
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if args.command == "condstudy":
        given = [name for name in _GRID_DEFAULTS if getattr(args, name) is not None]
        if args.config_file:
            if given:
                flags = ", ".join("--" + name.replace("_", "-") for name in given)
                study_parser.error(f"--config-file {args.config_file} holds the grid; {flags} cannot be given beside it")
            try:
                study = StudyConfig.from_json(args.config_file)
            except ValueError as exc:
                study_parser.error(f"--config-file {args.config_file}: {exc}")
        else:
            study = StudyConfig(**{**_GRID_DEFAULTS, **{name: getattr(args, name) for name in given}})
        rows = cmd_condstudy(study, args.out, svg=args.svg)
        print(f"{len(rows)} rows -> {Path(args.out) / 'study.csv'}")
        return 0
    if args.command == "rtcompare":
        report = cmd_rtcompare(args.shape, args.k, args.out)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
