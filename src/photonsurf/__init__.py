"""Photon surfaces and null geodesics in static, spherically symmetric spacetimes."""

from .errors import (
    CompatibilityError,
    DomainError,
    ForbiddenRadiusError,
    IdentityNotApplicableError,
    InvalidFamilyParamsError,
    MinimalSphereError,
    PhotonSurfError,
    PrincipalNullError,
    StepBudgetError,
    StepUnderflowError,
    TooFewSamplesError,
    UnknownFamilyError,
)
from .spacetime import (
    ClassSSpacetime,
    IsotropicForm,
    MetricProfile,
    build_family,
    conformal_flatness_scan,
    custom_spacetime,
    from_isotropic,
    spacetime_from_table,
    to_isotropic,
)
from .surfaces import (
    PhotonSphere,
    PhotonSurfaceSpec,
    ProfileCurve,
    ResidualReport,
    SolveStats,
    StepControl,
    SurfaceClass,
    SurfaceKind,
    classify,
    find_photon_spheres,
    integrate_profile,
    minkowski_exact,
    ode_residuals,
    profile_slope_squared,
    turning_points,
)
from .geodesics import (
    ConservedCharges,
    NullGeodesicTrajectory,
    critical_impact_parameter,
    generated_surface_profile,
    integrate_null_geodesic,
    umbilicity_from_charges,
)
from .geometry import (
    CConstant,
    ScalarCurvatureReport,
    SliceData,
    c_constant,
    isotropic_profile_samples,
    isotropic_sphere_residual,
    isotropic_surface_residual,
    mass_flux,
    scalar_curvature_fd,
    slice_data,
    slice_identity_residual,
    surface_scalar_curvature_check,
    verification_suite,
    warped_product_metric,
    warped_scalar_curvature,
)

__version__ = "0.1.0"
