"""Numerical validation of the curvature identities behind the rigidity result.

Covers the constant scalar curvature of photon surfaces in Einstein
spacetimes, the sliced Gauss-equation identity, the constraint constant c,
the lapse mass flux, and the photon sphere/surface residuals in isotropic
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IdentityNotApplicableError, MinimalSphereError
from .spacetime import ClassSSpacetime, IsotropicForm, _radiuswise, to_isotropic
from .surfaces import (
    PhotonSurfaceSpec,
    ProfileCurve,
    StepControl,
    _check_samples,
    integrate_profile,
)

__all__ = [
    "SliceData",
    "slice_data",
    "warped_scalar_curvature",
    "warped_product_metric",
    "scalar_curvature_fd",
    "ScalarCurvatureReport",
    "surface_scalar_curvature_check",
    "slice_identity_residual",
    "CConstant",
    "c_constant",
    "mass_flux",
    "isotropic_sphere_residual",
    "isotropic_surface_residual",
    "isotropic_profile_samples",
    "verification_suite",
]


@dataclass(frozen=True)
class SliceData:
    """Geometry of the round sphere of area-radius r in a canonical time slice;
    each field has the shape of r."""

    r: float
    lapse: float                 # N = sqrt(f)
    mean_curvature: float        # H = (n-1) sqrt(f) / r
    normal_lapse_derivative: float  # nu(N) = sqrt(f) N'(r) = f'/2
    sphere_scalar_curvature: float  # R_sigma = (n-1)(n-2)/r^2


@_radiuswise
def slice_data(st: ClassSSpacetime, r) -> SliceData:
    """Slice geometry at a float or a 1-D array of radii of the radial
    interval where f > 0; DomainError at any other r, NaN included."""
    ok = st.contains(r)
    if ok.all():  # the metric is read only inside the interval
        fv, dfv = st.metric(r)
        ok = fv > 0
    if not ok.all():
        raise DomainError(f"r = {r[~ok][0]:.6g} outside radial interval or f(r) <= 0")
    n = st.n
    sq = np.sqrt(fv)
    return SliceData(
        r=r,
        lapse=sq,
        mean_curvature=(n - 1) * sq / r,
        normal_lapse_derivative=0.5 * dfv,
        sphere_scalar_curvature=(n - 1) * (n - 2) / r ** 2)


# ---------------------------------------------------------------------------
# Scalar curvature of the induced warped-product metric -ds^2 + r(s)^2 Omega
# ---------------------------------------------------------------------------

def warped_scalar_curvature(n: int, r, rdot, rddot):
    """Intrinsic scalar curvature of -ds^2 + r(s)^2 Omega_(n-1).

    Validated against the de Sitter closed form and a finite-difference
    Riemann computation (see tests) before being relied on.
    """
    r = np.asarray(r, dtype=float)
    rdot = np.asarray(rdot, dtype=float)
    rddot = np.asarray(rddot, dtype=float)
    return 2 * (n - 1) * rddot / r + (n - 1) * (n - 2) * (1 + rdot ** 2) / r ** 2


def warped_product_metric(n: int, r_of_s):
    """Coordinate metric of -ds^2 + r(s)^2 Omega_(n-1) as a callable.

    Coordinates are (s, theta_1, ..., theta_(n-1)) with the round sphere in
    nested polar form.  Used by the finite-difference curvature oracle.
    """

    def metric(x):
        s = x[0]
        r = r_of_s(s)
        g = np.zeros((n, n))
        g[0, 0] = -1.0
        warp = r * r
        for i in range(1, n):
            g[i, i] = warp
            warp = warp * math.sin(x[i]) ** 2
        return g

    return metric


def scalar_curvature_fd(metric, x, h: float = 1e-3) -> float:
    """Scalar curvature at x from centered finite differences of the metric.

    Independent of any closed-form curvature formula: Christoffel symbols
    come from first differences of the metric, the Ricci tensor from first
    differences of the Christoffel symbols.
    """
    x = np.asarray(x, dtype=float)
    d = len(x)

    def christoffel_at(pt):
        g = metric(pt)
        ginv = np.linalg.inv(g)
        dg = np.empty((d, d, d))  # dg[c, a, b] = d_c g_ab
        for c in range(d):
            e = np.zeros(d)
            e[c] = h
            dg[c] = (metric(pt + e) - metric(pt - e)) / (2 * h)
        gamma = np.empty((d, d, d))
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    s = 0.0
                    for m in range(d):
                        s += ginv[a, m] * (dg[b, m, c] + dg[c, m, b] - dg[m, b, c])
                    gamma[a, b, c] = 0.5 * s
        return gamma

    gamma0 = christoffel_at(x)
    dgamma = np.empty((d, d, d, d))  # dgamma[c, a, b, e] = d_c Gamma^a_be
    for c in range(d):
        e = np.zeros(d)
        e[c] = h
        dgamma[c] = (christoffel_at(x + e) - christoffel_at(x - e)) / (2 * h)

    ric = np.empty((d, d))
    for b in range(d):
        for c in range(d):
            val = 0.0
            for a in range(d):
                val += dgamma[a, a, b, c] - dgamma[c, a, b, a]
                for m in range(d):
                    val += gamma0[a, a, m] * gamma0[m, b, c] \
                        - gamma0[a, c, m] * gamma0[m, b, a]
            ric[b, c] = val
    ginv = np.linalg.inv(metric(x))
    return float(np.einsum("bc,bc->", ginv, ric))


@dataclass(frozen=True)
class ScalarCurvatureReport:
    residual: float | None
    expected: float | None
    skipped: bool = False
    message: str = ""


def surface_scalar_curvature_check(st: ClassSSpacetime,
                                   curve: ProfileCurve) -> ScalarCurvatureReport:
    """Residual of R_p = n(n-1) alpha^2 + (n-1) Lambda on an integrated curve.

    For Einstein spacetimes (Ric = Lambda g) the induced scalar curvature of
    a photon surface with mean curvature n*alpha, alpha = ``curve.alpha``, is
    constant.  Vacuum families use Lambda = 0 and Schwarzschild-AdS
    -n/L^2; for families that are not Einstein the check is skipped.
    """
    _check_samples(curve.s)
    lam = st.einstein_constant
    n = st.n
    if lam is None:
        return ScalarCurvatureReport(
            residual=None, expected=None, skipped=True,
            message=f"family {st.family!r}: Einstein constant unknown, "
            "identity check skipped")
    s, r = curve.s, curve.r
    rddot = np.zeros_like(r)
    # central second differences at spacings h and 2h combined by
    # Richardson extrapolation; assumes the uniform output sampling
    d2h = (r[2:] - 2 * r[1:-1] + r[:-2]) \
        / ((s[2:] - s[1:-1]) * (s[1:-1] - s[:-2]))
    if len(r) >= 9:
        d22h = (r[4:] - 2 * r[2:-2] + r[:-4]) \
            / ((s[4:] - s[2:-2]) * (s[2:-2] - s[:-4]))
        rddot[2:-2] = (4 * d2h[1:-1] - d22h) / 3
        interior = slice(2, -2)
    else:
        rddot[1:-1] = d2h
        interior = slice(1, -1)
    r_p = warped_scalar_curvature(n, curve.r, curve.rdot, rddot)
    expected = n * (n - 1) * curve.alpha ** 2 + (n - 1) * lam
    residual = float(np.max(np.abs(r_p[interior] - expected)))
    return ScalarCurvatureReport(residual=residual, expected=expected)


@_radiuswise
def slice_identity_residual(st: ClassSSpacetime, r):
    """Residual of R_sigma = 2 H nu(N)/N + ((n-2)/(n-1)) H^2 at radius r.

    Holds on round slices of static vacuum spacetimes; raises for non-vacuum
    families where the identity is not expected to hold. r is a float or a
    1-D array, and the residual has its shape.
    """
    if not st.vacuum:
        raise IdentityNotApplicableError(
            f"family {st.family!r} is not vacuum: identity not expected to hold")
    d = slice_data(st, r)
    n = st.n
    return abs(d.sphere_scalar_curvature
               - 2 * d.mean_curvature * d.normal_lapse_derivative / d.lapse
               - (n - 2) / (n - 1) * d.mean_curvature ** 2)


@dataclass(frozen=True)
class CConstant:
    c: float  # each field has the shape of the radii
    sphere_constraint_residual: float  # |R_sigma - c H^2|
    lapse_constraint_residual: float   # |2 nu(N) - (c - (n-2)/(n-1)) H N|


@_radiuswise
def c_constant(st: ClassSSpacetime, r) -> CConstant:
    """The constraint constant c = (n-2)/(n-1) + 2 nu(N)/(N H) with residuals,
    at a float or a 1-D array of radii."""
    d = slice_data(st, r)
    n = st.n
    minimal = np.abs(d.mean_curvature) < 1e-14
    if np.any(minimal):
        raise MinimalSphereError(f"H = 0 at r = {r[minimal][0]:.6g}: "
                                 "semi-static horizon case (detected only)")
    c = (n - 2) / (n - 1) + 2 * d.normal_lapse_derivative / (d.lapse * d.mean_curvature)
    res1 = abs(d.sphere_scalar_curvature - c * d.mean_curvature ** 2)
    res2 = abs(2 * d.normal_lapse_derivative
               - (c - (n - 2) / (n - 1)) * d.mean_curvature * d.lapse)
    return CConstant(c=c, sphere_constraint_residual=res1,
                     lapse_constraint_residual=res2)


@_radiuswise
def mass_flux(st: ClassSSpacetime, r):
    """Normalized lapse flux f'(r) r^(n-1) / 2 through the sphere at r.

    Constant in r when the lapse is harmonic; equals the mass m for
    Schwarzschild at n = 3 and (n-2) m in higher dimensions. r is a float
    or a 1-D array, and the flux has its shape.
    """
    return slice_data(st, r).normal_lapse_derivative * r ** (st.n - 1)


# ---------------------------------------------------------------------------
# Isotropic residuals
# ---------------------------------------------------------------------------

def _check_inside(iso, S) -> None:
    """Raise DomainError unless every entry of the array S lies in (s_lo, s_hi)."""
    outside = ~iso.contains(S)
    if np.any(outside):
        raise DomainError(f"S = {S[outside][0]:.6g} outside isotropic interval")


@_radiuswise
def isotropic_sphere_residual(iso: IsotropicForm, S):
    """|1 + (psi'/psi - Ntilde'/Ntilde) S|: zero at an isotropic photon sphere.
    S is a float or a 1-D array, and the residual has its shape."""
    _check_inside(iso, S)
    return abs(1.0 - iso.log_derivative_gap(S) * S)


def isotropic_surface_residual(iso: IsotropicForm, samples) -> float:
    """Max residual of the isotropic photon surface equation on (t, S, S', S'').

    ``samples`` is an iterable of rows (t, S, Sdot, Sddot); derivatives are
    with respect to coordinate time t.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 1 or samples.shape[1] != 4:
        raise DomainError("need >= 1 sample row of the form (t, S, Sdot, Sddot)")
    _, S, Sdot, Sddot = samples.T
    _check_inside(iso, S)
    p, dp, nn, dnn = iso.evaluate(S)
    lhs = (1.0 + dp / p * S) * (nn ** 2 - p ** 2 * Sdot ** 2)
    rhs = S * dnn * nn + S * p ** 2 * (Sddot + (dp / p - 2 * dnn / nn) * Sdot ** 2)
    return float(np.max(np.abs(lhs - rhs)))


def isotropic_profile_samples(iso: IsotropicForm, curve: ProfileCurve) -> np.ndarray:
    """Map an area-radius profile curve to isotropic samples (t, S, S', S'').

    S = s(r) uses the coordinate map attached to the isotropic form; the
    t-derivatives come from centered differences on the (slightly nonuniform)
    t grid.  Two samples are dropped at each end.
    """
    if iso.s_of_r is None:
        raise DomainError("isotropic form carries no coordinate map s(r)")
    t = np.asarray(curve.t, dtype=float)
    S = np.asarray(iso.s_of_r(curve.r), dtype=float)
    Sdot = np.gradient(S, t)
    Sddot = np.gradient(Sdot, t)
    return np.column_stack([t, S, Sdot, Sddot])[2:-2]


# ---------------------------------------------------------------------------
# Aggregate verification suite
# ---------------------------------------------------------------------------

def _check(name, residual, tol, skipped=False, message="", work=None):
    passed = bool(skipped or (residual is not None and residual <= tol))
    return {"name": name, "residual": residual, "tol": tol,
            "passed": passed, "skipped": skipped, "message": message,
            "work": work or {}}


def verification_suite(st: ClassSSpacetime, tol_scale: float = 1.0) -> list[dict]:
    """Run every curvature/isotropic check applicable to a spacetime.

    Returns one dict per check with name, residual, tolerance, pass/fail,
    an optional skip marker and ``work``: the work records of the solves the
    residual reads, keyed "profile" and "isotropic_map" (empty for
    closed-form and skipped checks).  Checks whose hypotheses the
    family does not satisfy are reported as skipped, not failed.
    """
    checks = []
    lo, hi = st.default_bracket()
    probe = math.sqrt(lo * hi) if st.r_lo > 0 or math.isfinite(st.r_hi) \
        else max(2.0, 2.0 * lo)
    radii = np.geomspace(max(lo, 1e-3 * probe), min(hi, 50 * probe), 50)
    radii = radii[st.contains(radii) & (st.f(radii) > 0)]

    # a non-constant photon surface for the scalar curvature and isotropic
    # surface checks, integrated only when one of them applies
    r0 = float(radii[len(radii) // 2])
    alpha = 1.2 * math.sqrt(st.f(r0)) / r0
    if st.einstein_constant is not None or math.isinf(st.r_hi):
        spec = PhotonSurfaceSpec(alpha=alpha, r0=r0, sign=1, span=(-1.0, 1.0))
        curve = integrate_profile(st, spec, StepControl(sample_spacing=1e-3))
        _check_samples(curve.s, f"the verify test surface (alpha {alpha:.6g}, "
                                f"r0 {r0:.6g})")
    if st.einstein_constant is None:
        checks.append(_check(
            "surface-scalar-curvature", None, 1e-5 * tol_scale, skipped=True,
            message=f"family {st.family!r}: Einstein constant unknown"))
    else:
        rep = surface_scalar_curvature_check(st, curve)
        checks.append(_check("surface-scalar-curvature", rep.residual,
                             1e-5 * tol_scale, work={"profile": curve.work}))

    # slice identity, constraint constant, mass flux (vacuum only)
    if st.vacuum:
        worst = float(np.max(slice_identity_residual(st, radii)))
        checks.append(_check("slice-identity", worst, 1e-10 * tol_scale))
        cc = c_constant(st, radii)
        for name, res in (("c-constraint-sphere", cc.sphere_constraint_residual),
                          ("c-constraint-lapse", cc.lapse_constraint_residual)):
            checks.append(_check(name, float(np.max(res)), 1e-10 * tol_scale))
        fluxes = mass_flux(st, radii)
        checks.append(_check("mass-flux-constancy", float(np.std(fluxes)),
                             1e-10 * tol_scale,
                             message=f"mean flux {float(np.mean(fluxes)):.6g}"))
    else:
        msg = f"family {st.family!r} is not vacuum: identity not expected to hold"
        for name in ("slice-identity", "c-constraint-sphere",
                     "c-constraint-lapse", "mass-flux-constancy"):
            checks.append(_check(name, None, 1e-10 * tol_scale,
                                 skipped=True, message=msg))

    # isotropic rewrites need a radius chart extending to large r
    if math.isfinite(st.r_hi):
        for name, tol in (("isotropic-photon-sphere", 1e-8),
                          ("isotropic-photon-surface", 1e-5)):
            checks.append(_check(name, None, tol * tol_scale, skipped=True,
                                 message="finite radial interval: no asymptotic calibration"))
        return checks

    iso = to_isotropic(st, r0=probe)
    if st.spheres:
        r_stars = np.array([sp.r_star for sp in st.spheres])
        worst = float(np.max(isotropic_sphere_residual(iso, iso.s_of_r(r_stars))))
        checks.append(_check("isotropic-photon-sphere", worst, 1e-8 * tol_scale,
                             work={"isotropic_map": iso.work}))
    else:
        checks.append(_check("isotropic-photon-sphere", None, 1e-8 * tol_scale,
                             skipped=True, message="no photon spheres"))
    rows = isotropic_profile_samples(iso, curve)
    checks.append(_check("isotropic-photon-surface",
                         isotropic_surface_residual(iso, rows),
                         1e-5 * tol_scale,
                         work={"profile": curve.work, "isotropic_map": iso.work}))
    return checks
