"""Workload inputs, passes and output checks of the polydiv benchmark.

A workload is set up once per run (inputs written into its work
directory) and then run as repeated passes.  One pass is one public
command call (``harness.cmd_condstudy`` or ``harness.cmd_element``) with
its outputs written and checked.  The seed only shapes the generated
inputs; the program never sees it.

Checks count failures per element (one study row, or the one element of
the ``element`` workload).  A ``SINGULAR`` row is a valid result.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from polydiv import harness
from polydiv.catalog import resolve_shape
from polydiv.elements import COND_CEILING
from polydiv.geometry import GeometryError, build_polygon, validate_shape

WORKLOADS = ("sweep", "shapes", "element")
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The seed shuffles the order of the config and projector lists; study.csv
# rows are sorted by the program, so every seed must give the same bytes.
# One order on a mesh of h = diameter/32 keeps a pass near 1.5 s, so that a
# run averages over 30 or more passes.
SWEEP_GRID = {
    "shapes": ["fig165"],
    "orders": [1],
    "h_divisor": 32,
    "configs": ["Ib", "IIb"],
    "space": "classical",
    "bproj": [1, 3, 4],
    "iproj": [1, 3, 4],
}
# (edges, convex) of the eight shapes: the seed draws the geometry, the mix
# is fixed so that the work per pass (functions, mesh nodes) and the largest
# mesh vary little between seeds
SHAPE_MIX = ((3, True), (4, False), (5, True), (6, False), (7, False), (8, True), (5, False), (6, True))
# h = diameter/16: eight fresh meshes per pass in about 2 s
SHAPES_GRID = {"orders": [1], "configs": ["Ib", "IIb"], "space": "classical", "h_divisor": 16}
# the default h = diameter/64, passed explicitly
ELEMENT_INPUT = {"shape": "fig165", "space": "classical", "config": "IIb", "k": 1, "h_divisor": 64}

STUDY_KEY = ("shape", "k", "config", "bproj", "iproj", "bcons", "icons")


def cond2_rel_tol(cond2: float) -> float:
    """Relative tolerance on a cond2 value.

    Entry perturbations of order 1e-13 (solver round-off) move the smallest
    singular value by about 1e-13 * cond2 relative, so the tolerance grows
    with the conditioning."""
    return 1e-9 + 1e-13 * cond2


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- shapes


def _interior_angles(pts: List[Tuple[float, float]]) -> List[float]:
    n = len(pts)
    out = []
    for i in range(n):
        ax, ay = pts[i - 1]
        bx, by = pts[i]
        cx, cy = pts[(i + 1) % n]
        ux, uy = ax - bx, ay - by
        vx, vy = cx - bx, cy - by
        ang = math.degrees(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))
        # CCW loop: the interior angle is measured from the next edge back
        # to the previous one
        out.append((-ang) % 360.0)
    return out


def _admissible(pts: List[Tuple[float, float]]) -> bool:
    """Polygon builds, has no violation or W1-W3 warning for either
    configuration family, and is well shaped enough to mesh at default h."""
    try:
        polygon = build_polygon(pts)
    except GeometryError:
        return False
    for kind in ("IIb", "Ib"):
        diag = validate_shape(polygon, kind)
        if diag.violations or diag.warnings:
            return False
    angles = _interior_angles([(v.x, v.y) for v in polygon.vertices])
    if min(angles) < 30.0 or min(abs(a - 180.0) for a in angles) < 10.0:
        return False
    return min(e.length for e in polygon.edges) >= 0.12 * polygon.diameter


def random_shapes(seed: int) -> List[List[List[float]]]:
    """One admissible star-shaped polygon per ``SHAPE_MIX`` entry, as CCW
    vertex lists rounded to four decimals.

    Vertices sit on a circle at jittered angles around a jittered centre.
    A non-convex entry pulls one vertex inside the chord between its
    neighbours, which makes that vertex reflex while the polygon stays
    star-shaped about the centre."""
    rng = random.Random(seed)
    shapes: List[List[List[float]]] = []
    for n, convex in SHAPE_MIX:
        while True:
            cx, cy = rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08)
            scale = rng.uniform(0.3, 0.5)
            start = rng.uniform(0.0, 2.0 * math.pi)
            thetas = [start + 2.0 * math.pi / n * (i + rng.uniform(-0.3, 0.3)) for i in range(n)]
            radii = [1.0] * n
            if not convex:
                i = rng.randrange(n)
                prev, nxt = thetas[i - 1], thetas[(i + 1) % n] + (2.0 * math.pi if i == n - 1 else 0.0)
                half = (nxt - prev) / 2.0
                # distance from the centre to the neighbours' chord along the
                # ray through vertex i; no dent fits when the chord passes
                # behind the centre
                along = math.cos(half) / math.cos(thetas[i] - (prev + half))
                if along <= 0.0:
                    continue
                radii[i] = along * rng.uniform(0.4, 0.8)
            pts = [
                [round(cx + scale * r * math.cos(t), 4), round(cy + scale * r * math.sin(t), 4)]
                for r, t in zip(radii, thetas)
            ]
            if _admissible(pts):
                shapes.append(pts)
                break
    return shapes


# ---------------------------------------------------------------- inputs


@dataclass
class Workload:
    """Inputs of one workload, written into ``workdir``.

    Shape files and the study file have fixed relative names and every pass
    runs with ``workdir`` as working directory, so the ``shape`` column of
    study.csv does not depend on where the checkout lives."""

    name: str
    seed: int
    workdir: Path
    input_file: str = ""
    elements_per_pass: int = 0

    @property
    def outdir(self) -> Path:
        return self.workdir / "out"


def setup_workload(name: str, seed: int, workdir: Path) -> Workload:
    """Generate, validate and write the inputs of one workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(name, seed, workdir)
    if name == "sweep":
        grid = dict(SWEEP_GRID)
        for key in ("configs", "bproj", "iproj"):
            grid[key] = rng.sample(grid[key], len(grid[key]))
        wl.input_file = "study.json"
        (workdir / wl.input_file).write_text(json.dumps(grid, sort_keys=True))
        wl.elements_per_pass = len(grid["orders"]) * len(grid["configs"]) * len(grid["bproj"]) * len(grid["iproj"])
    elif name == "shapes":
        names = []
        for i, verts in enumerate(random_shapes(seed)):
            fname = f"shape_{i}.json"
            (workdir / fname).write_text(json.dumps({"name": f"shape_{i}", "vertices": verts}))
            names.append(fname)
        grid = dict(SHAPES_GRID, shapes=names)
        wl.input_file = "study.json"
        (workdir / wl.input_file).write_text(json.dumps(grid, sort_keys=True))
        wl.elements_per_pass = len(names) * len(grid["orders"]) * len(grid["configs"])
    else:
        spec = dict(ELEMENT_INPUT)
        spec["h"] = resolve_shape(spec["shape"]).diameter / spec.pop("h_divisor")
        wl.input_file = "element.json"
        (workdir / wl.input_file).write_text(json.dumps(spec, sort_keys=True))
        wl.elements_per_pass = 1
    return wl


def run_pass(wl: Workload):
    """One command call; the working directory must be ``wl.workdir``."""
    if wl.name in ("sweep", "shapes"):
        study = harness.StudyConfig.from_json(wl.input_file)
        return harness.cmd_condstudy(study, "out")
    spec = json.loads(Path(wl.input_file).read_text())
    return harness.cmd_element(
        spec["shape"], spec["space"], spec["config"], spec["k"], "out", h=spec["h"]
    )


# ---------------------------------------------------------------- checks


def load_reference() -> Optional[dict]:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text())


def parse_study(data: bytes) -> Dict[tuple, dict]:
    rows = {}
    for row in csv.DictReader(io.StringIO(data.decode())):
        key = tuple(row[k] for k in STUDY_KEY)
        rows[key] = row
    return rows


def expected_study_keys(wl: Workload) -> set:
    grid = json.loads((wl.workdir / wl.input_file).read_text())
    keys = set()
    for shape in grid["shapes"]:
        for k in grid["orders"]:
            for config in grid["configs"]:
                for bproj in grid.get("bproj", [3]):
                    for iproj in grid.get("iproj", [3]):
                        keys.add((shape, str(k), config, str(bproj), str(iproj), "1", "2"))
    return keys


def _row_consistent(row: dict) -> bool:
    """Internal consistency of one study row, independent of any reference."""
    degen = int(row["degenerated"])
    if row["cond2"] == "SINGULAR":
        return row["cond2_truncated"] == "SINGULAR" and degen == -1
    cond = float(row["cond2"])
    if not (math.isfinite(cond) and cond >= 1.0) or row["cond2_truncated"] != str(int(cond)):
        return False
    return (degen == -1) == (cond > COND_CEILING) and degen >= -1


def _row_matches(row: dict, ref: dict) -> bool:
    if row["degenerated"] != ref["degenerated"]:
        return False
    if (row["cond2"] == "SINGULAR") != (ref["cond2"] == "SINGULAR"):
        return False
    if row["cond2"] == "SINGULAR":
        return True
    c, c_ref = float(row["cond2"]), float(ref["cond2"])
    return abs(c - c_ref) <= cond2_rel_tol(c_ref) * c_ref


@dataclass
class CheckResult:
    attempted: int
    failed: int
    notes: List[str]
    fingerprint: Dict[str, object]


class Checker:
    """Checks every pass of one run.

    Every pass must reproduce the first pass's output bytes.  Where a
    reference exists for the run's inputs, values are compared by key."""

    def __init__(self, wl: Workload, reference: Optional[dict]):
        self.wl = wl
        self.first: Optional[Dict[str, bytes]] = None
        self.reference = self._reference_for(wl, reference)

    @staticmethod
    def _reference_for(wl: Workload, reference: Optional[dict]) -> Optional[dict]:
        if reference is None:
            return None
        entry = reference.get(wl.name)
        if entry is None:
            return None
        # sweep and element inputs do not depend on the seed (the seed
        # only reorders the grid), shapes are generated from it
        if wl.name == "shapes" and wl.seed != entry["seed"]:
            return None
        return entry

    def check(self, result) -> CheckResult:
        if self.wl.name == "element":
            return self._check_element(result)
        return self._check_study()

    def _check_study(self) -> CheckResult:
        data = (self.wl.outdir / "study.csv").read_bytes()
        expected = expected_study_keys(self.wl)
        notes: List[str] = []
        if self.first is None:
            self.first = {"study.csv": data}
        same_bytes = data == self.first["study.csv"]
        if not same_bytes:
            notes.append("study.csv differs from the first pass of this run")
        rows = parse_study(data)
        if set(rows) != expected:
            notes.append(f"study.csv keys differ from the grid ({len(rows)} rows, {len(expected)} expected)")
        ref_rows = self.reference["rows"] if self.reference else None
        failed = 0
        for key in expected:
            row = rows.get(key)
            ok = same_bytes and row is not None and _row_consistent(row)
            if ok and ref_rows is not None:
                ref = ref_rows.get(",".join(key))
                ok = ref is not None and _row_matches(row, ref)
            if not ok:
                failed += 1
        if failed and not notes:
            notes.append(f"{failed} rows failed the value check")
        fp = {"study_sha256": sha256_bytes(data)}
        if self.reference:
            fp["study_matches_reference_bytes"] = fp["study_sha256"] == self.reference["study_sha256"]
        return CheckResult(len(expected), failed, notes, fp)

    def _check_element(self, summary: dict) -> CheckResult:
        out = self.wl.outdir
        notes: List[str] = []
        names = ("lambda.csv", "traces.csv", "interior.csv", "summary.json")
        missing = [n for n in names if not (out / n).is_file()]
        if missing:
            return CheckResult(1, 1, [f"missing outputs {missing}"], {})
        lam = (out / "lambda.csv").read_bytes()
        current = {"lambda.csv": lam, "summary.json": (out / "summary.json").read_bytes()}
        if self.first is None:
            self.first = current
        if current != self.first:
            notes.append("lambda.csv or summary.json differs from the first pass of this run")
        if json.loads(current["summary.json"]) != json.loads(json.dumps(summary)):
            notes.append("summary.json differs from the returned summary")
        cond = float(summary["cond2"])
        if "singular" in summary or not (math.isfinite(cond) and cond >= 1.0):
            notes.append(f"element is singular (cond2={cond})")
        if self.reference:
            ref = self.reference
            if abs(cond - ref["cond2"]) > cond2_rel_tol(ref["cond2"]) * ref["cond2"]:
                notes.append(f"cond2 {cond!r} vs reference {ref['cond2']!r}")
            if summary.get("degenerated_per_edge") != ref["degenerated_per_edge"]:
                notes.append("degenerated_per_edge differs from the reference")
            # a last-digit change can change a repr's length, hence the slack
            if abs(len(lam) - ref["lambda_bytes"]) > 0.005 * ref["lambda_bytes"]:
                notes.append(f"lambda.csv has {len(lam)} bytes vs reference {ref['lambda_bytes']}")
        fp = {"cond2": cond, "lambda_sha256": sha256_bytes(lam), "lambda_bytes": len(lam)}
        if self.reference:
            fp["lambda_matches_reference_bytes"] = fp["lambda_sha256"] == self.reference["lambda_sha256"]
        return CheckResult(1, 1 if notes else 0, notes, fp)


def reference_entry(wl: Workload, result) -> dict:
    """Reference record of one checked pass, as stored in reference.json."""
    if wl.name == "element":
        lam = (wl.outdir / "lambda.csv").read_bytes()
        return {
            "cond2": float(result["cond2"]),
            "degenerated_per_edge": result["degenerated_per_edge"],
            "lambda_bytes": len(lam),
            "lambda_sha256": sha256_bytes(lam),
        }
    data = (wl.outdir / "study.csv").read_bytes()
    rows = {
        ",".join(key): {"cond2": row["cond2"], "degenerated": row["degenerated"]}
        for key, row in sorted(parse_study(data).items())
    }
    return {"seed": wl.seed, "study_sha256": sha256_bytes(data), "rows": rows}
