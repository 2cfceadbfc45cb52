"""H(div)-conformal discretisation spaces and elements on arbitrary polygons,
with classical Raviart-Thomas elements on the reference triangle and square
for cross-validation."""

from .catalog import CATALOG, catalog_names, catalog_polygon, load_shape, resolve_shape
from .elements import (
    ElementConfig,
    SingularTransfer,
    TransferMatrix,
    TunedBasis,
    assemble_transfer,
    classify_degenerate,
    condition_2norm,
    dof_set,
    tune_basis,
)
from .geometry import (
    Edge,
    Point2,
    Polygon,
    ShapeDiagnostics,
    ShapeViolation,
    build_polygon,
    validate_shape,
)
from .hdiv_basis import (
    CanonicalBasis,
    HdivSpaceKind,
    SpaceTag,
    VectorField,
    canonical_basis,
)
from .poisson import (
    BoundaryData,
    MeshFailure,
    ScalarField,
    TriMesh,
    triangulate,
)
from .polyfam import (
    BOUNDARY_CONSTRUCTOR_KINDS,
    INNER_CONSTRUCTOR_KINDS,
    LagrangeSet,
    PolyFamily,
    SpaceFamily,
    SpaceSpec,
    boundary_projector,
    inner_poly,
    lagrange_set,
    space_dimension,
)
from .quadrature import QuadRule2D
from .rt_classical import RTBasis, RTDofs, ReferenceMap, piola, rt_basis, rt_dofs, rt_eval

__version__ = "0.1.0"
