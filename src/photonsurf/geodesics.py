"""Null geodesics in class-S spacetimes via their conserved-charge reduction.

A null geodesic with energy E and total angular momentum ell obeys

    dt/ds = E / f(r),   (dr/ds)^2 = E^2 - ell^2 f(r) / r^2,

with the angular motion confined to a great circle, dphi/ds = ell / r^2.
The radial equation is integrated in its regularized second-order form
d^2r/ds^2 = (ell^2 / r^3) (f - r f'/2), smooth through turning points.
A geodesic with ell > 0 generates a photon surface of umbilicity factor
E/ell; the reparametrized profile serves as an independent oracle for the
surface integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ForbiddenRadiusError, PrincipalNullError
from .ode import _dense_eval, _inverse, _linear
from .spacetime import ClassSSpacetime
from .surfaces import (
    PhotonSphere,
    ProfileCurve,
    StepControl,
    _check_positive,
    _check_sign,
    _check_span,
    _curve,
    _integrate_radial,
    _radial,
    _sample_grid,
    _start_rate,
    _window,
)

__all__ = [
    "ConservedCharges",
    "NullGeodesicTrajectory",
    "integrate_null_geodesic",
    "umbilicity_from_charges",
    "generated_surface_profile",
    "critical_impact_parameter",
]


@dataclass(frozen=True)
class ConservedCharges:
    """Energy and total angular momentum of a null geodesic."""

    energy: float
    angular_momentum: float

    def __post_init__(self):
        _check_positive(self.energy, "energy")
        _check_positive(self.angular_momentum, "angular momentum", zero=True)

    @property
    def principal(self) -> bool:
        return self.angular_momentum == 0.0


@dataclass
class NullGeodesicTrajectory:
    """Affine-parameter samples of one null geodesic plus its charges and
    the work record of its solve (``ode._Solution.work``)."""

    s: np.ndarray
    t: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    rdot: np.ndarray
    arclength: np.ndarray  # induced profile arclength of the generated surface
    charges: ConservedCharges
    work: dict
    null_residual: np.ndarray = field(default=None, repr=False)
    # the ode._Solution the samples were read from
    _dense: object = field(default=None, repr=False)


def umbilicity_from_charges(charges: ConservedCharges) -> float:
    """Umbilicity factor E/ell of the generated surface (requires ell > 0)."""
    if charges.principal:
        raise PrincipalNullError(
            "ell = 0 generates a principal null hypersurface, not a photon surface")
    return charges.energy / charges.angular_momentum


def critical_impact_parameter(st: ClassSSpacetime, sphere: PhotonSphere) -> float:
    """b_* = ell/E for geodesics asymptotic to the photon sphere."""
    return sphere.r_star / math.sqrt(st.f(sphere.r_star))


def integrate_null_geodesic(st: ClassSSpacetime, charges: ConservedCharges,
                            r0: float, sign: int = 1,
                            span: tuple[float, float] = (0.0, 10.0),
                            step: StepControl = StepControl()
                            ) -> NullGeodesicTrajectory:
    """Integrate the reduced null-geodesic system over an affine span.

    ``sign`` is the initial sign of dr/ds; 0 is admitted only on a circular
    orbit or at a turning point.  Data with ell > 0 held on a photon sphere
    by the profile's rule (``_Radial.held`` with lambda = E/ell) gives the
    exact circular orbit.  Termination mirrors the profile integrator:
    span end, interval boundary, or photon-sphere asymptote.
    """
    _check_sign(sign)
    _check_span(span)
    sol = _null_solution(st, charges, r0, sign, span, step)
    E, ell = charges.energy, charges.angular_momentum
    s, (t, r, v, phi, sigma), _ = _window(sol, 0.0, span, step.sample_spacing)
    f = st.f(r)
    # null residual: -f tdot^2 + rdot^2/f + r^2 phidot^2 with the reductions
    residual = np.abs((v ** 2 - (E ** 2 - ell ** 2 * f / r ** 2)) / f)
    return NullGeodesicTrajectory(
        s=s, t=t, r=r, phi=phi, rdot=v, arclength=sigma, charges=charges,
        work=sol.work, null_residual=residual, _dense=sol)


def _null_solution(st, charges, r0, sign, span, step, stops=(None, None)):
    """The ``ode._Solution`` of the reduced null-geodesic state
    (t, r, dr/ds, phi, sigma) from r0 at s = 0 over span, by
    ``_integrate_radial`` with ``stops``, or, for data held on a photon
    sphere, the exact circular orbit over span."""
    E, ell = charges.energy, charges.angular_momentum
    if not st.contains(r0):
        raise ForbiddenRadiusError(f"r0 = {r0:.6g} outside radial interval")
    radial = _radial(st, E / ell) if ell > 0 else None
    r_fix = radial.held(r0) if radial else None
    if r_fix is not None:
        return _linear((0.0, r_fix, 0.0, 0.0, 0.0),
                       (E / st.f(r_fix), 0.0, 0.0, ell / r_fix ** 2, ell / r_fix),
                       span)
    f0 = st.f(r0)
    # the profile's scale max(1, alpha^2 r0^2) times ell^2/r0^2, alpha = E/ell
    v0 = _start_rate(sign, E ** 2, ell ** 2 * f0 / r0 ** 2, max(E ** 2, ell ** 2 / r0 ** 2), (
        "E^2", "ell^2 f(r0)/r0^2", "forbidden initial radius"))
    metric = st.metric.evaluate
    ell2 = ell ** 2

    def rhs(r, v):
        fv, dfv = metric(r)
        return (E / fv, v, (ell2 / r ** 3) * (fv - 0.5 * r * dfv),
                ell / r ** 2, ell / r)

    return _integrate_radial(st, rhs, (0.0, r0, v0, 0.0, 0.0), span, step,
                             radial.sphere if radial else None, stops)


def generated_surface_profile(traj: NullGeodesicTrajectory,
                              st: ClassSSpacetime) -> ProfileCurve:
    """Project a trajectory in ``st`` to the unit-speed radial profile of its
    surface, sampled every 1e-2 of its arclength.

    Requires ell > 0.  The induced profile arclength satisfies
    d(sigma)/ds = ell / r, so the projected curve obeys the photon surface
    system with alpha = E/ell.
    """
    alpha = umbilicity_from_charges(traj.charges)
    ell = traj.charges.angular_momentum

    # sample only the arclength the trajectory's own samples cover
    sol = traj._dense
    sig = _sample_grid((traj.arclength[0], traj.arclength[-1]), 1e-2)
    s = _inverse(sol, 4)(sig)
    t, r, v = _dense_eval(sol.dense, s)[:3]
    # dr/dsigma = (dr/ds) r / ell
    return _curve(st, alpha, sig, t, r, v * r / ell,
                  {"stop": traj.work["stop"], "solve_stats": {}})


def _radii_at_times(st, charges, r0, sign, t, step):
    """The null geodesic from r0 at t = 0 at the ascending coordinate times
    ``t`` (t[0] <= 0 <= t[-1]): which of them it covers, its radius at those
    times and its ``ode._Solution``.

    The geodesic is solved open-ended until t passes t[0] backward and
    t[-1] forward, or it ends first. r is read from the dense output at the
    affine parameter where the geodesic reaches each time, found by
    ``_inverse`` on t, which increases with dt/ds = E/f > 0; no interpolation
    is involved. The exact circular orbit covers every time at r_*.
    """
    t_first, t_last = float(t[0]), float(t[-1])
    stops = (lambda s, y, taken: "span" if y[0] <= t_first else None,
             lambda s, y, taken: "span" if y[0] >= t_last else None)
    span = (-math.inf if t[0] < 0 else 0.0, math.inf if t[-1] > 0 else 0.0)
    sol = _null_solution(st, charges, r0, sign, span, step, stops)
    if not sol.work["solve_stats"]:
        return np.ones(len(t), dtype=bool), np.full(len(t), sol.dense[2][0, 1]), sol
    t_lo, t_hi = sol.end_states()[0]
    covered = (t >= t_lo) & (t <= t_hi)
    s = _inverse(sol, 0)(t[covered])
    return covered, _dense_eval(sol.dense, s)[1], sol
