"""Spherically symmetric photon surfaces: spheres, profile curves, classification.

A photon surface with umbilicity factor alpha has an arclength-parametrized
radial profile (t(s), r(s)) obeying

    dt/ds = alpha r / f(r),      (dr/ds)^2 = alpha^2 r^2 - f(r),

with the conserved quantity f(r) dt/ds / r = alpha and unit-speed condition
f (dt/ds)^2 - (dr/ds)^2 / f = 1.  The radial equation is integrated in its
regularized second-order form d^2r/ds^2 = alpha^2 r - f'(r)/2, which is
smooth through turning points and preserves both conservation laws exactly
at the level of the continuous flow.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ForbiddenRadiusError, StepUnderflowError
from .ode import (
    SolveStats,
    StepControl,
    _brentq,
    _dense_eval,
    _linear,
    _newton,
    _solve,
)
from .spacetime import ClassSSpacetime

__all__ = [
    "PhotonSurfaceSpec",
    "ProfileCurve",
    "PhotonSphere",
    "SurfaceKind",
    "SurfaceClass",
    "StepControl",
    "SolveStats",
    "find_photon_spheres",
    "profile_slope_squared",
    "turning_points",
    "integrate_profile",
    "ode_residuals",
    "ResidualReport",
    "classify",
    "minkowski_exact",
]

PHOTON_SPHERE_XTOL = 1e-13
CRITICAL_RTOL = 1e-8
# closest approach to the unstable fixed point that adaptive stepping can
# resolve before amplified roundoff ejects the trajectory
ASYMPTOTE_EPS = 1e-5
# points of the log-spaced grid on which the root scans bracket sign changes
SCAN_GRID = 512


def _check_span(span) -> None:
    """Raise ValueError unless span = (lo, hi) has lo <= 0 <= hi and lo < hi."""
    if not span[0] <= 0 <= span[1] or span[0] == span[1]:
        raise ValueError("arclength span must contain 0 and have positive length")


@dataclass(frozen=True)
class PhotonSurfaceSpec:
    """Initial data for one spherically symmetric photon surface."""

    alpha: float
    r0: float
    t0: float = 0.0
    sign: int = 1
    span: tuple[float, float] = (0.0, 10.0)

    def __post_init__(self):
        if not self.alpha > 0:  # also rejects nan
            raise ValueError("umbilicity factor alpha must be positive")
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        _check_span(self.span)


@dataclass
class ProfileCurve:
    """Sampled radial profile (s, t, r, dt/ds, dr/ds) of one surface.

    ``solve_stats`` maps "forward"/"backward" to the work of each integrated
    half-line; it is empty for the exact photon-sphere cylinder.
    """

    s: np.ndarray
    t: np.ndarray
    r: np.ndarray
    tdot: np.ndarray
    rdot: np.ndarray
    alpha: float
    termination: str = "span"
    termination_start: str = "span"
    unit_residual: np.ndarray = field(default=None, repr=False)
    solve_stats: dict = field(default_factory=dict)

    @property
    def monotone_t(self) -> bool:
        return bool(np.all(np.diff(self.t) > 0))

    def umbilicity_residual(self, st: ClassSSpacetime) -> np.ndarray:
        return np.abs(st.f(self.r) * self.tdot / self.r - self.alpha)


def _unit_residual(f, tdot, rdot):
    """|f (dt/ds)^2 - (dr/ds)^2 / f - 1|: the unit-speed residual."""
    return np.abs(f * tdot ** 2 - rdot ** 2 / f - 1.0)


@dataclass(frozen=True)
class PhotonSphere:
    """Constant-radius photon surface: root of f'(r) r = 2 f(r)."""

    r_star: float
    alpha_star: float
    residual: float


class SurfaceKind(enum.Enum):
    PHOTON_SPHERE = "PhotonSphere"
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"
    NO_SPHERE_REFERENCE = "NoSphereReference"


@dataclass(frozen=True)
class SurfaceClass:
    kind: SurfaceKind
    turning_radii: tuple[float, ...]
    regions: tuple[str, ...]  # position of r0 relative to each photon sphere
    spheres: tuple[PhotonSphere, ...]


def _snapped_sphere(spheres, alpha, r0=None):
    """The photon sphere whose factor alpha_* matches ``alpha`` within
    CRITICAL_RTOL and, when ``r0`` is given, whose radius matches ``r0``
    within 1e-9 relative; None when there is none.

    Data in this band is critical: its surface is asymptotic to the sphere,
    or is the sphere itself when r0 matches too.
    """
    for sp in spheres:
        if abs(alpha - sp.alpha_star) <= CRITICAL_RTOL * sp.alpha_star and (
                r0 is None or abs(r0 - sp.r_star) <= 1e-9 * sp.r_star):
            return sp
    return None


def _fixed_radius(st, spheres, lam, r0):
    """The radius at which data of factor ``lam`` (alpha, or E/ell) at r0
    is held on a photon sphere, or None: r0 at an exact fixed point
    (|lam^2 r0^2 - f| <= 1e-12 max(1, lam^2 r0^2) and |r0 f' - 2 f| <= 1e-9),
    else r_* of the sphere whose band holds the data (``_snapped_sphere``).
    The fixed point is unstable: such data cannot be integrated for long.
    """
    f0, df0 = st.metric(r0)
    a2r2 = lam ** 2 * r0 ** 2
    if abs(a2r2 - f0) <= 1e-12 * max(1.0, a2r2) and abs(df0 * r0 - 2 * f0) <= 1e-9:
        return r0
    sp = _snapped_sphere(spheres, lam, r0)
    return None if sp is None else sp.r_star


def _scan_roots(g, lo, hi):
    """Bracketed roots of g on a log-spaced grid of SCAN_GRID points,
    refined by ``_brentq``.

    g is evaluated on the whole grid in one call, then on scalars by
    ``_brentq``.
    """
    rs = np.geomspace(lo, hi, SCAN_GRID)
    vals = g(rs)
    roots = []
    for i in range(len(rs) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(rs[i]))
        elif a * b < 0:
            roots.append(_brentq(g, rs[i], rs[i + 1], PHOTON_SPHERE_XTOL, 8.9e-16))
    if vals[-1] == 0.0:
        roots.append(float(rs[-1]))
    return roots


def find_photon_spheres(st: ClassSSpacetime) -> list[PhotonSphere]:
    """All photon sphere radii in the scan bracket, ascending."""

    def g(r):
        fv, dfv = st.metric(r)
        return dfv * r - 2 * fv

    spheres = []
    for r_star in _scan_roots(g, *st.default_bracket()):
        fv = st.f(r_star)
        spheres.append(PhotonSphere(r_star, math.sqrt(fv) / r_star, abs(g(r_star))))
    return spheres


def profile_slope_squared(st: ClassSSpacetime, alpha: float, r: float) -> float:
    """(dr/dt)^2 for a surface of factor alpha; negative means forbidden radius."""
    fv = st.f(r)
    a2r2 = alpha ** 2 * r ** 2
    return fv ** 2 * (a2r2 - fv) / a2r2


def turning_points(st: ClassSSpacetime, alpha: float) -> list[float]:
    """Radii where dr/ds changes sign: roots of alpha^2 r^2 - f(r)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _scan_roots(lambda r: alpha ** 2 * r ** 2 - st.f(r), *st.default_bracket())


def _sample_grid(span, spacing):
    lo, hi = span
    fwd = np.arange(0.0, hi + 0.5 * spacing, spacing)
    fwd = fwd[fwd <= hi + 1e-15]
    bwd = -np.arange(spacing, -lo + 0.5 * spacing, spacing)
    bwd = bwd[bwd >= lo - 1e-15]
    return np.concatenate([bwd[::-1], fwd])


def _window(sol, s0, span, spacing):
    """The output grid s of the window s0 + span of a solution, cut to its
    (lo, hi); the states at s0 + s; and, per half-line name, whether the
    cut ends the window before its span end."""
    lo, hi = max(span[0], sol.lo - s0), min(span[1], sol.hi - s0)
    s = _sample_grid((lo, hi), spacing)
    return s, _dense_eval(sol.dense, s0 + s), {"backward": lo > span[0],
                                               "forward": hi < span[1]}


def _integrate_radial(st, rhs, y0, span, step, alpha, spheres,
                      stops=(None, None)):
    """Integrate an autonomous radial system over both half-lines of span.

    The state has r = y[1] and dr/ds = y[2]. Each half-line, started at
    s = 0, stops at its span end (or by its rule in ``stops``, see
    ``ode._solve``), at the radial interval boundary, or when it comes
    within ASYMPTOTE_EPS of a photon sphere whose factor matches ``alpha``
    (None: no such test). Returns the ``ode._Solution``.
    """
    r_stop_lo = st.r_lo * (1 + 1e-9) if st.r_lo > 0 else 0.0
    events = [(lambda y: y[1] - r_stop_lo, "boundary")]
    if math.isfinite(st.r_hi):
        r_stop_hi = st.r_hi * (1 - 1e-9)
        events.append((lambda y: r_stop_hi - y[1], "boundary"))
    sp = _snapped_sphere(spheres, alpha) if alpha is not None else None
    if sp is not None:
        events.append((lambda y: (y[1] - sp.r_star) ** 2 + y[2] ** 2
                       - ASYMPTOTE_EPS ** 2, "asymptotic-to-photon-sphere"))

    return _solve(rhs, y0, span, step, events, stops)


def _profile_rhs(st, alpha):
    """Right-hand side of the profile state (t, r, dr/ds) on Python floats."""
    metric = st.metric.evaluate
    a2 = alpha ** 2

    def rhs(y):
        r, v = y[1], y[2]
        fv, dfv = metric(r)
        return (alpha * r / fv, v, a2 * r - 0.5 * dfv)

    return rhs


def integrate_profile(st: ClassSSpacetime, spec: PhotonSurfaceSpec,
                      step: StepControl = StepControl(),
                      spheres: list[PhotonSphere] | None = None) -> ProfileCurve:
    """Integrate the radial profile of one photon surface over its span.

    Data held on a photon sphere (``_fixed_radius``) gives the exact
    cylinder r = r_*, dt/ds = 1/sqrt(f(r_*)).  Otherwise the regularized
    second-order radial equation is integrated with adaptive Dormand-Prince
    5(4) stepping; the curve terminates at the span end, at the radial
    interval boundary, or when it is asymptotic to a photon sphere
    (|r - r_*| and |dr/ds| jointly below ASYMPTOTE_EPS).
    """
    alpha = spec.alpha
    if not st.contains(spec.r0):
        raise ForbiddenRadiusError(f"r0 = {spec.r0:.6g} outside radial interval")
    if spheres is None:
        spheres = find_photon_spheres(st)
    r_fix = _fixed_radius(st, spheres, alpha, spec.r0)
    if r_fix is not None:
        tdot0 = 1.0 / math.sqrt(st.f(r_fix))
        sol = _linear((spec.t0, r_fix, 0.0), (tdot0, 0.0, 0.0), spec.span)
    else:
        f0 = st.f(spec.r0)
        disc = alpha ** 2 * spec.r0 ** 2 - f0
        scale = max(1.0, alpha ** 2 * spec.r0 ** 2)
        if disc < -1e-12 * scale:
            raise ForbiddenRadiusError(
                f"alpha^2 r0^2 = {alpha**2*spec.r0**2:.6g} < f(r0) = {f0:.6g}: "
                "no real initial dr/ds")
        if spec.sign == 0 and disc > 1e-12 * scale:
            raise ForbiddenRadiusError("sign = 0 is only valid at a turning point")
        y0 = (spec.t0, spec.r0, spec.sign * math.sqrt(max(disc, 0.0)))
        sol = _integrate_radial(st, _profile_rhs(st, alpha), y0, spec.span,
                                step, alpha, spheres)

    s, (t, r, v), _ = _window(sol, 0.0, spec.span, step.sample_spacing)
    curve = _curve(st, alpha, s, t, r, v, sol.reasons, sol.stats)
    if r_fix is None:
        return curve
    # the cylinder has unit speed by construction
    return replace(curve, tdot=np.full_like(s, tdot0), unit_residual=np.zeros_like(s))


def _curve(st, alpha, s, t, r, v, reasons, stats):
    """The ProfileCurve of states sampled at s, dt/ds from the conserved
    alpha and end reasons keyed by half-line name ("span" when absent)."""
    f = st.f(r)
    tdot = alpha * r / f
    return ProfileCurve(
        s=s, t=t, r=r, tdot=tdot, rdot=v, alpha=alpha,
        termination=reasons.get("forward", "span"),
        termination_start=reasons.get("backward", "span"),
        unit_residual=_unit_residual(f, tdot, v), solve_stats=stats)


# stop reasons of an orbit half-line: it covered the windows of its cells,
# or its r turned back where no turning point was scanned
_ORBIT_SPAN, _TURNED_BACK = "span", "turned-back"


class _Orbit(NamedTuple):
    """One open-ended solve through the sweep cells of one (alpha, component):
    the anchor radius, its kind and the ``ode._Solution``."""

    alpha: float
    anchor: float
    kind: str
    sol: object


def _orbit_anchor(st, alpha, below, above, spheres, bracket):
    """(radius, kind) of the canonical anchor of the component of
    {alpha^2 r^2 >= f} between the turning points ``below`` and ``above``
    (None: open to that side), or None when there is none.

    The anchor is the component's turning point, polished by Newton so that
    dr/ds = 0 holds there to rounding; else the first root of r'' = 0, that
    is alpha^2 r = f'/2, in ``bracket``; else r_* of the first photon sphere.
    """
    a2 = alpha ** 2
    if below is not None or above is not None:
        def g(r):
            fv, dfv = st.metric(r)
            return a2 * r ** 2 - fv, 2 * a2 * r - dfv

        r_tp = below if below is not None else above
        return float(_newton(g, 0.0, r_tp, *bracket)), "turning-point"
    roots = _scan_roots(lambda r: a2 * r - 0.5 * st.metric(r)[1], *bracket)
    if roots:
        return roots[0], "inflection"
    if spheres:
        return spheres[0].r_star, "photon-sphere"
    return None


def _half_stop(direction, r_far, extent, monotone):
    """Stop rule of the orbit half-line in ``direction``: "span" at the first
    step end more than ``extent`` past the step end where r passed ``r_far``
    (s = 0 when None), so a cell's window is covered and its r0 lies before
    the last node; on a ``monotone`` half, whose dr/ds stays positive,
    "turned-back" at a step end where it does not."""
    passed = 0.0 if r_far is None else None

    def stop(s, y):
        nonlocal passed
        if monotone and not y[2] > 0:
            return _TURNED_BACK
        if passed is None and direction * (y[1] - r_far) >= 0:
            passed = s
        if passed is not None and direction * (s - passed) > extent:
            return _ORBIT_SPAN
        return None

    return stop


def _sweep_row(st, alpha, r0s, span, step, spheres, turning):
    """Sign +1 profiles of the sweep cells (alpha, r0), r0 in ``r0s``, from
    one open-ended solve per orbit.

    In a static spacetime every such cell on one component of
    {alpha^2 r^2 >= f} lies on the orbit through the component's anchor
    (``_orbit_anchor``), shifted in s and t. Its s0 solves r(s0) = r0 by
    ``ode._newton`` on the half where r increases; it is sampled at
    s0 + ``_sample_grid`` of its window, with t shifted to t(s0) = 0. Each
    half runs past its farthest r0 by its span end (``_half_stop``), so a
    cell's bytes do not depend on the other cells.

    Returns (cells, orbits): cells[i] is (curve, orbit index, s0), or None
    for a cell that ``integrate_profile`` must take: a critical row, r0
    outside the scan bracket of ``turning`` (the row's turning points), a
    cell that is forbidden, held on a sphere or at a turning point, a
    component between two turning points, and a cell whose orbit failed or
    does not reach r0 or cover its window before its stop rule ends it.
    """
    cells = [None] * len(r0s)
    orbits = []
    if _snapped_sphere(spheres, alpha) is not None:
        return cells, orbits
    bracket = st.default_bracket()
    groups = {}
    for i, r0 in enumerate(r0s):
        if not bracket[0] < r0 < bracket[1] or \
                _fixed_radius(st, spheres, alpha, r0) is not None or \
                not alpha ** 2 * r0 ** 2 - st.f(r0) > 0:
            continue
        j = bisect.bisect(turning, r0)
        ends = (turning[j - 1] if j else None,
                turning[j] if j < len(turning) else None)
        if None in ends:
            groups.setdefault(ends, []).append(i)

    rhs = _profile_rhs(st, alpha)
    for (below, above), members in groups.items():
        anchor = _orbit_anchor(st, alpha, below, above, spheres, bracket)
        if anchor is None:
            continue
        r_a, kind = anchor
        # the halves on which r increases with s: both, without turning point
        monotone = {-1: kind != "turning-point" or above is not None,
                    1: kind != "turning-point" or below is not None}
        sides = {d: [i for i in members if monotone[d] and d * (r0s[i] - r_a) > 0]
                 for d in (-1, 1)}
        far = {d: (d * max(d * r0s[i] for i in idx) if idx else None)
               for d, idx in sides.items()}
        stops = (_half_stop(-1, far[-1], -span[0], monotone[-1]),
                 _half_stop(1, far[1], span[1], monotone[1]))
        y0 = (0.0, r_a, math.sqrt(max(alpha ** 2 * r_a ** 2 - st.f(r_a), 0.0)))
        try:
            sol = _integrate_radial(st, rhs, y0, (-math.inf, math.inf), step,
                                    alpha, spheres, stops)
        except StepUnderflowError:
            continue
        orbits.append(_Orbit(alpha, r_a, kind, sol))
        for d, idx in sides.items():
            for i, s0 in zip(idx, _orbit_starts(sol, d, [r0s[i] for i in idx])):
                curve = None if s0 is None else \
                    _orbit_cell(st, alpha, sol, s0, span, step.sample_spacing)
                if curve is not None:
                    cells[i] = (curve, len(orbits) - 1, s0)
    return cells, orbits


def _orbit_starts(sol, d, r0s):
    """Points s0 with r(s0) = r0 on the half-line of ``sol`` in direction d,
    along which r increases with s: one per r0 of ``r0s``, None where the
    half does not reach r0. Newton starts from r interpolated between the
    half's nodes, its end included unless r turned back in the last step."""
    T, H, Y, _ = sol.dense
    k = np.count_nonzero(H < 0)  # backward steps come first
    r_end = sol.end_states()[1, int(d > 0)]
    if d > 0:
        s_nodes, r_nodes = np.append(T[k:], sol.hi), np.append(Y[k:, 1], r_end)
    else:
        s_nodes, r_nodes = np.append(sol.lo, T[:k]), np.append(r_end, Y[:k, 1])
    if sol.reasons["forward" if d > 0 else "backward"] == _TURNED_BACK:
        keep = slice(None, -1) if d > 0 else slice(1, None)
        s_nodes, r_nodes = s_nodes[keep], r_nodes[keep]
    targets = np.array(r0s, dtype=float)
    reached = (r_nodes[0] < targets) & (targets < r_nodes[-1])

    def fn(s):
        y = _dense_eval(sol.dense, s)
        return y[1], y[2]

    starts = iter(_newton(fn, targets[reached],
                          np.interp(targets[reached], r_nodes, s_nodes),
                          s_nodes[0], s_nodes[-1]).tolist())
    return [next(starts) if ok else None for ok in reached]


def _orbit_cell(st, alpha, sol, s0, span, spacing):
    """The profile of the cell at s0 of an orbit solution over its window
    s0 + span, or None when the window passes an end set by the orbit's stop
    rule ("span" or "turned-back")."""
    s, (t, r, v), cuts = _window(sol, s0, span, spacing)
    reasons = {name: sol.reasons[name] for name, cut in cuts.items() if cut}
    if not {_ORBIT_SPAN, _TURNED_BACK}.isdisjoint(reasons.values()):
        return None
    return _curve(st, alpha, s, t - t[np.searchsorted(s, 0.0)], r, v, reasons, {})


@dataclass(frozen=True)
class ResidualReport:
    """Maximum second-order ODE and unit-speed residuals of a sampled curve."""

    tddot_residual: float
    rddot_residual: float
    unit_residual: float

    @property
    def worst(self) -> float:
        return max(self.tddot_residual, self.rddot_residual, self.unit_residual)


def ode_residuals(st: ClassSSpacetime, curve: ProfileCurve) -> ResidualReport:
    """Residuals of the second-order profile system via centered differences."""
    if len(curve.s) < 5:
        raise ValueError("need at least 5 samples for finite differencing")
    s, t, r = curve.s, curve.t, curve.r
    tdot, rdot = curve.tdot, curve.rdot
    tddot = np.gradient(tdot, s)
    rddot = np.gradient(rdot, s)
    f, df = st.metric(r)
    res_t = tddot + (df / f) * rdot * tdot - (rdot / r) * tdot
    res_r = rddot + 0.5 * f * df * tdot ** 2 - 0.5 * (df / f) * rdot ** 2 \
        - (f * tdot) ** 2 / r
    unit = _unit_residual(f, tdot, rdot)
    interior = slice(1, -1)
    return ResidualReport(
        tddot_residual=float(np.max(np.abs(res_t[interior]))),
        rddot_residual=float(np.max(np.abs(res_r[interior]))),
        unit_residual=float(np.max(unit)))


def classify(st: ClassSSpacetime, alpha: float, r0: float,
             spheres: list[PhotonSphere] | None = None,
             turning_radii: list[float] | None = None) -> SurfaceClass:
    """Group a surface by its umbilicity factor relative to the photon spheres.

    Data held on a photon sphere (``_fixed_radius``) is PhotonSphere, even
    when ``spheres`` misses that sphere. ``spheres`` and ``turning_radii``
    (the turning points of ``alpha``) are computed when not given.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if spheres is None:
        spheres = find_photon_spheres(st)
    if turning_radii is None:
        turning_radii = turning_points(st, alpha)
    tps = tuple(turning_radii)
    regions = tuple("below" if r0 < sp.r_star else "above" for sp in spheres)

    if _fixed_radius(st, spheres, alpha, r0) is not None:
        kind = SurfaceKind.PHOTON_SPHERE
    elif not spheres:
        kind = SurfaceKind.NO_SPHERE_REFERENCE
    elif _snapped_sphere(spheres, alpha) is not None:
        kind = SurfaceKind.CRITICAL
    else:
        nearest = min(spheres, key=lambda sp: abs(alpha - sp.alpha_star))
        if alpha < nearest.alpha_star:
            kind = SurfaceKind.SUBCRITICAL
        else:
            kind = SurfaceKind.SUPERCRITICAL
    return SurfaceClass(kind=kind, turning_radii=tps, regions=regions,
                        spheres=tuple(spheres))


def minkowski_exact(alpha: float, t0: float, t) -> float:
    """Closed-form hyperboloid radius r(t) = sqrt(1/alpha^2 + (t - t0)^2)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return np.sqrt(alpha ** (-2) + (np.asarray(t, dtype=float) - t0) ** 2)
