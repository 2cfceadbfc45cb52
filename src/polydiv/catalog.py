"""Built-in shape catalog and the JSON shape-file format.

Every entry reproduces a tabulated test shape to the printed two decimals;
the tabulated outward normals and edge norms are kept alongside so tests can
cross-check ``build_polygon``.  Rounding vertices to two decimals perturbs
recomputed normals of short edges in the second to third decimal.

Shape files are JSON objects ``{"name": str, "vertices": [[x, y], ...]}``
with the loop in CCW order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .geometry import GeometryError, Polygon, build_polygon

__all__ = ["CatalogEntry", "CATALOG", "catalog_polygon", "catalog_names", "load_shape", "resolve_shape"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    vertices: Tuple[Tuple[float, float], ...]
    # per-edge (normal_x, normal_y, length) as tabulated; None for the
    # reconstructed entries below
    tabulated: Optional[Tuple[Tuple[float, float, float], ...]] = None
    note: str = ""


def _entry(name, vertices, tabulated=None, note=""):
    tab = tuple(tuple(row) for row in tabulated) if tabulated else None
    return CatalogEntry(name, tuple(tuple(v) for v in vertices), tab, note)


CATALOG: Dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        # --- shapes for the Raviart-Thomas comparison ---
        _entry(
            "fig151",
            [(0.20, 0.00), (1.00, 0.20), (0.00, 1.00)],
            [(0.24, -0.97, 0.82), (0.62, 0.78, 1.28), (-0.98, -0.20, 1.02)],
            "triangle",
        ),
        _entry(
            "fig152",
            [(0.20, 0.00), (1.00, 0.20), (0.80, 1.20), (0.00, 1.00)],
            [(0.24, -0.97, 0.82), (0.98, 0.20, 1.02), (-0.24, 0.97, 0.82), (-0.98, -0.20, 1.02)],
            "quadrangle",
        ),
        # --- convex shapes ---
        _entry(
            "fig153",
            [(0.07, 0.18), (0.41, 0.05), (0.36, 0.41)],
            [(-0.34, -0.94, 0.37), (0.99, 0.15, 0.36), (-0.63, 0.78, 0.37)],
            "smallest triangle (T0)",
        ),
        _entry(
            "fig154",
            [(0.15, 0.38), (0.89, 0.10), (0.76, 0.87)],
            [(-0.34, -0.94, 0.78), (0.99, 0.15, 0.77), (-0.63, 0.78, 0.79)],
            "small triangle (T1)",
        ),
        _entry(
            "fig155",
            [(0.30, 0.75), (1.77, 0.21), (1.53, 1.74)],
            [(-0.34, -0.94, 1.57), (0.99, 0.15, 1.55), (-0.63, 0.78, 1.58)],
            "triangle (T2)",
        ),
        _entry(
            "fig156",
            [(0.60, 1.50), (3.54, 0.42), (3.06, 3.48)],
            [(-0.34, -0.94, 3.13), (0.99, 0.15, 3.10), (-0.63, 0.78, 3.16)],
            "big triangle (T3)",
        ),
        _entry(
            "fig157",
            [(0.90, 2.25), (5.31, 0.63), (4.59, 5.22)],
            [(-0.34, -0.94, 4.70), (0.99, 0.15, 4.65), (-0.63, 0.78, 4.74)],
            "biggest triangle (T4)",
        ),
        _entry(
            "fig158",
            [(0.25, 0.00), (0.50, 0.25), (0.25, 0.50), (0.00, 0.25)],
            [(0.71, -0.71, 0.35), (0.71, 0.71, 0.35), (-0.71, 0.71, 0.35), (-0.71, -0.71, 0.35)],
            "quadrangle with parallel edges",
        ),
        _entry(
            "fig159",
            [(0.08, 0.07), (0.33, 0.02), (0.48, 0.23), (0.28, 0.39), (0.03, 0.33)],
            [
                (-0.19, -0.98, 0.26),
                (0.80, -0.60, 0.26),
                (0.62, 0.79, 0.26),
                (-0.23, 0.97, 0.26),
                (-0.98, -0.19, 0.26),
            ],
            "pentagon",
        ),
        _entry(
            "fig160",
            [(2.05, 1.98), (2.31, 1.92), (2.35, 2.17), (2.31, 2.43), (2.08, 2.32), (1.86, 2.16)],
            [
                (-0.25, -0.97, 0.26),
                (0.99, -0.17, 0.26),
                (0.99, 0.15, 0.26),
                (-0.42, 0.91, 0.26),
                (-0.61, 0.80, 0.26),
                (-0.70, -0.72, 0.26),
            ],
            "regular hexagon",
        ),
        _entry(
            "fig161",
            [(0.07, 0.07), (0.16, 0.02), (0.42, 0.11), (0.34, 0.21), (0.20, 0.33), (0.04, 0.23)],
            [
                (-0.43, -0.90, 0.11),
                (0.31, -0.95, 0.27),
                (0.80, 0.61, 0.13),
                (0.65, 0.76, 0.18),
                (-0.55, 0.84, 0.19),
                (-0.99, -0.15, 0.16),
            ],
            "convex hexagon",
        ),
        _entry(
            "fig162",
            [(0.13, 0.13), (0.32, 0.04), (0.84, 0.21), (0.78, 0.38), (0.50, 0.66), (0.08, 0.45)],
            [
                (-0.43, -0.90, 0.21),
                (0.31, -0.95, 0.55),
                (0.94, 0.33, 0.18),
                (0.71, 0.71, 0.40),
                (-0.45, 0.89, 0.47),
                (-0.99, -0.15, 0.32),
            ],
            "alternative hexagon",
        ),
        # --- non-convex shapes ---
        _entry(
            "fig163",
            [(0.14, 0.03), (0.37, 0.10), (0.21, 0.14), (0.06, 0.28)],
            [(0.29, -0.96, 0.24), (0.21, 0.98, 0.16), (0.67, 0.74, 0.21), (-0.94, -0.33, 0.26)],
            "non-convex quadrilateral",
        ),
        _entry(
            "fig164",
            [(0.17, 0.03), (0.38, 0.19), (0.30, 0.18), (0.12, 0.36), (0.19, 0.11)],
            [
                (0.59, -0.80, 0.26),
                (-0.18, 0.98, 0.08),
                (0.74, 0.68, 0.26),
                (-0.97, -0.25, 0.26),
                (-0.97, 0.24, 0.08),
            ],
            "non-convex pentagon",
        ),
        _entry(
            "fig165",
            [(0.00, 0.03), (0.12, 0.07), (0.38, 0.00), (0.30, 0.25), (0.12, 0.38), (-0.12, 0.25)],
            [
                (0.37, -0.93, 0.13),
                (-0.29, -0.96, 0.26),
                (0.96, 0.29, 0.26),
                (0.58, 0.81, 0.22),
                (-0.45, 0.89, 0.28),
                (-0.87, -0.49, 0.26),
            ],
            "non-convex hexagon",
        ),
        _entry(
            "fig166",
            [(0.07, 0.03), (0.35, 0.10), (0.45, 0.25), (0.25, 0.30), (0.05, 0.25), (0.14, 0.16)],
            [
                (0.24, -0.97, 0.29),
                (0.83, -0.55, 0.18),
                (0.24, 0.97, 0.21),
                (-0.24, 0.97, 0.21),
                (-0.73, -0.69, 0.12),
                (-0.88, 0.47, 0.15),
            ],
            "alternative non-convex hexagon",
        ),
        _entry(
            "fig167",
            [
                (0.22, 0.10),
                (0.50, 0.30),
                (0.76, 0.10),
                (0.70, 0.40),
                (0.90, 0.70),
                (0.60, 0.62),
                (0.50, 0.90),
                (0.35, 0.68),
                (0.12, 0.50),
                (0.30, 0.35),
            ],
            [
                (0.58, -0.81, 0.34),
                (-0.61, -0.79, 0.33),
                (0.98, 0.20, 0.31),
                (0.83, -0.55, 0.36),
                (-0.26, 0.97, 0.31),
                (0.94, 0.34, 0.30),
                (-0.83, 0.56, 0.27),
                (-0.62, 0.79, 0.29),
                (-0.64, -0.77, 0.23),
                (-0.95, 0.30, 0.26),
            ],
            "non-convex decagon",
        ),
        # --- failing and limit cases ---
        _entry(
            "fig168",
            [(0.20, 0.00), (1.00, 0.20), (1.60, 1.40), (0.80, 1.20), (0.00, 1.00)],
            [
                (0.24, -0.97, 0.82),
                (0.89, -0.45, 1.34),
                (-0.24, 0.97, 0.82),
                (-0.24, 0.97, 0.82),
                (-0.98, -0.20, 1.02),
            ],
            "hanging node",
        ),
        _entry(
            "fig169",
            [
                (0.20, 0.00),
                (1.00, 0.20),
                (3.50, 0.00),
                (2.40, 1.60),
                (1.60, 1.40),
                (1.70, 0.90),
                (0.90, 0.70),
                (0.80, 1.20),
                (0.00, 1.00),
            ],
            [
                (0.24, -0.97, 0.82),
                (-0.08, -1.00, 2.51),
                (0.82, 0.57, 1.94),
                (-0.24, 0.97, 0.82),
                (-0.98, -0.20, 0.51),
                (-0.24, 0.97, 0.82),
                (0.98, 0.20, 0.51),
                (-0.24, 0.97, 0.82),
                (-0.98, -0.20, 1.02),
            ],
            "polygon with similar edges",
        ),
        # The remaining entries have no tabulated vertices; these are
        # reconstructions exhibiting the named defect.
        _entry(
            "fig73",
            [(0.20, 0.00), (1.00, 0.20), (0.00, 1.00)],
            None,
            "reference triangle for the transfer-matrix structure study",
        ),
        _entry(
            "fig74",
            [(0.20, -0.05), (1.00, 0.15), (-0.05, 1.20)],
            None,
            "triangle with one edge normal collinear with (1, 1)",
        ),
        _entry(
            "fig170",
            [(0.20, 0.20), (1.00, 1.00), (0.00, 1.20)],
            None,
            "edge whose vertices are aligned with the origin",
        ),
        _entry(
            "fig172",
            [(0.20, 0.10), (1.00, 0.10), (0.00, 1.00)],
            None,
            "edge parallel to the x axis",
        ),
        _entry(
            "fig173",
            [(0.20, -0.10), (1.00, 0.15), (0.20, 0.90)],
            None,
            "edge parallel to the y axis",
        ),
    ]
}


def catalog_names() -> List[str]:
    return sorted(CATALOG)


def catalog_polygon(name: str) -> Polygon:
    """Build the polygon for a catalog key such as ``fig165``."""
    try:
        entry = CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog shape {name!r}; known: {catalog_names()}") from None
    return build_polygon(entry.vertices)


def _is_coordinate(c) -> bool:
    return isinstance(c, (int, float)) and not isinstance(c, bool) and math.isfinite(c)


def load_shape(path) -> Polygon:
    """Load a polygon from a JSON shape file.  A file that is not a JSON
    object with a list of [x, y] number pairs under "vertices" raises
    ``GeometryError`` naming the file and the fault."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise GeometryError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise GeometryError(f"{path}: a shape file holds a JSON object, not a {type(data).__name__}")
    if "vertices" not in data:
        raise GeometryError(f"{path}: no \"vertices\" entry")
    verts = data["vertices"]
    if not isinstance(verts, list):
        raise GeometryError(f"{path}: \"vertices\" is a {type(verts).__name__}, not a list of [x, y] pairs")
    for i, v in enumerate(verts):
        if not (isinstance(v, list) and len(v) == 2 and all(map(_is_coordinate, v))):
            raise GeometryError(f"{path}: vertex {i} is {v!r}, not a pair of finite numbers [x, y]")
    return build_polygon(verts)


def resolve_shape(spec: str) -> Polygon:
    """Resolve a catalog key or a path to a shape file."""
    if spec in CATALOG:
        return catalog_polygon(spec)
    return load_shape(spec)
