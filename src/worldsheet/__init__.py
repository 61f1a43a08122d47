"""Geometry and dynamics of relativistic extended objects with massive edges.

The package computes the full extrinsic-geometry hierarchy of parametric
embeddings (worldsheet in spacetime, edge in worldsheet, edge in spacetime),
checks the kinematic identities and variational formulas of that hierarchy as
numerical residuals, and evolves strings whose endpoints carry mass.
"""

__version__ = "0.1.0"

from .background import BackgroundMetric, euclidean, minkowski
from .boundary import (
    AdaptedEdgeData,
    BoundaryData,
    BoundaryEmbedding,
    WorldsheetScalar,
    adapted_edge_data,
    boundary_condition_residual,
    boundary_data,
    boundary_laplacian_residuals,
    edge_equation_residual,
    laplacian_decomposition_residual,
)
from .catalog import (
    CatalogEntry,
    ExpectedValue,
    catalog_ids,
    collapsing_string,
    collision_time,
    endpoint_worldline,
    entry_from_id,
    euclidean_disk,
    euclidean_plane_hole,
    evaluate_entry,
    flat_torus,
    helicoid,
    planar_hole,
    plane,
    sphere,
)
from .dynamics import (
    DiagnosticsRecord,
    EndpointState,
    SimulationConfig,
    StringState,
    Tensions,
    Trajectory,
    collapsing_initial_state,
    constraint_norms,
    diagnostics,
    evolve,
    initial_state_from_config,
    rotating_initial_state,
    rotating_orbit_omega,
    step,
)
from .errors import (
    ConstraintBlowup,
    DegenerateImmersion,
    DegenerateMetric,
    EndpointCollision,
    GaugeFailure,
    InconsistentGeometry,
    InvalidParameters,
    NullBoundary,
    WorldsheetError,
)
from .geometry import (
    CurvatureData,
    Embedding,
    Frame,
    extrinsic_curvature,
    frame,
    gauss_weingarten_residual,
    induced_metric,
    normal_frame,
    tangent_basis,
)
from .integrability import (
    CurvatureTensors,
    aligned_normal_frame_fn,
    boundary_integrability_residuals,
    curvature_tensors,
    direct_embedding_residuals,
    worldsheet_connection,
    worldsheet_integrability_residuals,
    worldsheet_riemann,
)
from .variation import (
    ActionConfig,
    DeformationField,
    GridAxis,
    dng_action,
    edge_action,
    first_variation_analytic,
    first_variation_fd,
    metric_variation,
)
