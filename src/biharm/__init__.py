"""Numerical verification and construction of biharmonic geometry on
product 3-manifolds (surface x line).

The package evaluates the residual systems characterizing biharmonic
isometric immersions of surfaces into, and biharmonic Riemannian
submersions from, charts of the form e^{2q} dt^2 + ds^2 + dz^2, and
constructs new proper biharmonic submersions by integrating the
fiber-angle ODE through its Riccati reduction.
"""

from .errors import (
    DegenerateBox,
    DegenerateImmersion,
    EmptyRange,
    GeometryError,
    ImmediateSingularity,
    NonFiniteValue,
    NonOrthonormalFrame,
    NotCMC,
    OutOfProfile,
    SingularCoefficient,
    SingularProfile,
)
from .numkernel import (
    ChartBox,
    ScalarField,
    compose,
    directional_field,
    lift,
    sample_grid,
)
from .geometry import (
    FrameField,
    ProductMetric3,
    SurfaceMetric,
    christoffel_symbols,
    gauss_curvature_2d,
    laplacian_field,
    riemann_component,
)
from .frames import (
    AdaptedFrameSpec,
    IntegrabilityData,
    adapted_frame,
    frame_identity_suite,
    integrability_data,
    random_adapted_specs,
    semi_geodesic_frame,
    validate_frame,
)
from .submersion import (
    SubmersionSpec,
    biharmonic_residuals,
    catalog_examples,
    catalog_suite,
    hyperbolic_uniqueness_scan,
    residual_report,
)
from .hypersurface import (
    HopfCylinderSpec,
    SurfaceGeometry,
    SurfaceImmersion,
    ambient_ricci,
    biharmonic_residuals_surface,
    cmc_classify,
    hopf_cylinder_residuals,
    surface_geometry,
    vertical_cylinder,
)
from .constructor import (
    AlphaProfile,
    ConstructionSpec,
    alpha_ode_residual,
    build_nonflat_target,
    integrate_alpha,
    riccati_consistency,
    riccati_rhs,
    verify_construction,
)
from .report import Channel, ResidualReport

__version__ = "0.1.0"
