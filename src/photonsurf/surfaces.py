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

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ForbiddenRadiusError, StepUnderflowError, \
    TooFewSamplesError
from .ode import (
    SolveStats,
    StepControl,
    _brentq,
    _dense_arrays,
    _dense_at,
    _dense_eval,
    _dopri5,
    _join,
    _linear,
    _newton,
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
# relative distance from an interval end r_lo or r_hi within which a
# half-line heading there looks ahead for its boundary crossing
_LOOKAHEAD_BAND = 0.05


def _check_span(span) -> None:
    """Raise ValueError unless span = (lo, hi) has lo <= 0 <= hi and lo < hi."""
    if not span[0] <= 0 <= span[1] or span[0] == span[1]:
        raise ValueError("arclength span must contain 0 and have positive length")


def _check_sign(sign) -> None:
    """Raise ValueError unless the initial sign of dr/ds is -1, 0 or +1."""
    if sign not in (-1, 0, 1):
        raise ValueError(f"sign = {sign!r} must be -1, 0 or +1")


def _check_positive(value, name="umbilicity factor alpha", zero=False) -> None:
    """Raise ValueError unless value > 0 (value >= 0 with ``zero``); NaN fails."""
    if not (value >= 0 if zero else value > 0):
        raise ValueError(f"{name} must be {'non-negative' if zero else 'positive'}")


def _check_samples(s, what="the curve") -> None:
    """Raise TooFewSamplesError unless the residual checks can difference s."""
    if len(s) < 5:
        raise TooFewSamplesError(f"{what} has {len(s)} samples, fewer than the 5 "
                                 "its differences need")


@dataclass(frozen=True)
class PhotonSurfaceSpec:
    """Initial data for one spherically symmetric photon surface."""

    alpha: float
    r0: float
    t0: float = 0.0
    sign: int = 1
    span: tuple[float, float] = (0.0, 10.0)

    def __post_init__(self):
        _check_positive(self.alpha)
        _check_sign(self.sign)
        _check_span(self.span)


@dataclass
class ProfileCurve:
    """Sampled radial profile (s, t, r, dt/ds, dr/ds) of one surface, with
    the work record of its solve (``ode._Solution.work``)."""

    s: np.ndarray
    t: np.ndarray
    r: np.ndarray
    tdot: np.ndarray
    rdot: np.ndarray
    alpha: float
    work: dict
    unit_residual: np.ndarray = field(default=None, repr=False)

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
    """Constant-radius photon surface: root of g = r f'(r) - 2 f(r). It is
    ``stable`` unless g goes from + to - there (a maximum of f/r^2)."""

    r_star: float
    alpha_star: float
    residual: float
    stable: bool


class SurfaceKind(enum.Enum):
    PHOTON_SPHERE = "PhotonSphere"
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"
    TRAPPED = "Trapped"  # on a component between two turning points
    NO_SPHERE_REFERENCE = "NoSphereReference"


@dataclass(frozen=True)
class SurfaceClass:
    kind: SurfaceKind
    regions: tuple[str, ...]  # position of r0 relative to each photon sphere
    spheres: tuple[PhotonSphere, ...]


def _scan_roots(g, lo, hi):
    """Bracketed roots of g on a log-spaced grid of SCAN_GRID points,
    refined by ``_brentq``, as (root, g at the last node below it, or at
    the first node when none is) pairs.

    g is evaluated on the whole grid in one call, then on scalars by
    ``_brentq``: a node where g is 0 is a root, else one whose value and the
    next node's have opposite signs starts a bracket (NaN has no sign).
    """
    rs = np.geomspace(lo, hi, SCAN_GRID)
    vals = g(rs)
    zero, a, b = vals == 0.0, vals[:-1], vals[1:]
    change = (a < 0) & (b > 0) | (a > 0) & (b < 0)
    nodes = np.flatnonzero(zero | np.append(change, False))
    roots = [float(rs[i]) if zero[i] else
             _brentq(g, rs[i], rs[i + 1], PHOTON_SPHERE_XTOL, 8.9e-16)
             for i in nodes.tolist()]
    return list(zip(roots, vals[np.maximum(np.searchsorted(rs, roots) - 1, 0)].tolist()))


def _scan_bracket(st, g, what, at=""):
    """``_scan_roots`` of g over the scan bracket of ``st``, with numpy's
    float warnings kept in; DomainError naming the ``what`` scan of ``st``
    and the parameter text ``at`` where the scan leaves the float range."""
    try:
        with np.errstate(all="ignore"):  # a node where g is not finite has no sign
            return _scan_roots(g, *st.default_bracket())
    except OverflowError:
        raise DomainError(f"the {what} scan of {st.family} {st.params}{at} "
                          "leaves the float range") from None


def find_photon_spheres(st: ClassSSpacetime) -> list[PhotonSphere]:
    """All photon sphere radii in the scan bracket, ascending; ``st.spheres``
    holds them. A sphere is unstable when g is positive at the scan node
    below it. Raises DomainError where the scan leaves the float range."""

    def g(r):
        fv, dfv = st.metric(r)
        return dfv * r - 2 * fv

    return [PhotonSphere(r, math.sqrt(st.f(r)) / r, abs(g(r)), not below > 0)
            for r, below in _scan_bracket(st, g, "photon sphere")]


def profile_slope_squared(st: ClassSSpacetime, alpha: float, r: float) -> float:
    """(dr/dt)^2 for a surface of factor alpha; negative means forbidden radius."""
    fv = st.f(r)
    a2r2 = alpha ** 2 * r ** 2
    return fv ** 2 * (a2r2 - fv) / a2r2


class _Radial:
    """The set {lam^2 r^2 >= f} of one factor lam (alpha, or E/ell for a null
    geodesic) of ``st``: its roots are the turning points, and a curve stays
    on one component. Each part is derived on first use (``_radial``)."""

    def __init__(self, st, lam):
        self.st, self.lam = st, lam

    def _g(self, r):
        return self.lam ** 2 * r ** 2 - self.st.f(r)

    @functools.cached_property
    def roots(self) -> tuple:
        """The turning points in the scan bracket, ascending."""
        return tuple(r for r, _ in _scan_bracket(self.st, self._g, "turning point",
                                                 f" at alpha = {self.lam!r}"))

    @functools.cached_property
    def components(self) -> tuple:
        """(below, above) per component, ascending: its turning points, None
        where it runs on to an end of the scan bracket. A stretch between
        roots is in the set when its geometric middle is."""
        edges = np.sqrt([self.st.default_bracket()[0], *self.roots,
                         self.st.default_bracket()[1]])
        with np.errstate(all="ignore"):
            inside = (self._g(edges[:-1] * edges[1:]) > 0).tolist()
        ends = (None, *self.roots, None)
        return tuple(c for c, keep in zip(zip(ends, ends[1:]), inside) if keep)

    def component(self, r):
        """The component that holds r, or None. One that runs on to an end of
        the scan bracket holds the radii past that end too: the scan has no
        roots there."""
        return next(((a, b) for a, b in self.components
                     if (a is None or a <= r) and (b is None or r <= b)), None)

    def anchor(self, below, above):
        """(radius, kind) of the canonical anchor of the open component
        (below, above), or None when it has none: its turning point, polished
        by Newton so that dr/ds = 0 holds there to rounding; else the first
        root of r'' = 0, that is lam^2 r = f'/2, in the scan bracket; else r_*
        of the first sphere."""
        st, a2 = self.st, self.lam ** 2
        if below is not None or above is not None:
            def g(r, _):
                fv, dfv = st.metric(r)
                return a2 * r ** 2 - fv, 2 * a2 * r - dfv

            r_tp = below if below is not None else above
            return float(_newton(g, 0.0, r_tp, *st.default_bracket())), "turning-point"
        roots = _scan_bracket(st, lambda r: a2 * r - 0.5 * st.metric(r)[1],
                              "inflection", f" at alpha = {self.lam!r}")
        if roots:
            return roots[0][0], "inflection"
        return (st.spheres[0].r_star, "photon-sphere") if st.spheres else None

    @functools.cached_property
    def snaps(self) -> tuple:
        """The photon spheres whose factor alpha_* matches lam within
        CRITICAL_RTOL. Data in this band is critical: its surface is
        asymptotic to the first, ``sphere``, or is a sphere itself (``held``)."""
        return tuple(sp for sp in self.st.spheres
                     if abs(self.lam - sp.alpha_star) <= CRITICAL_RTOL * sp.alpha_star)

    @property
    def sphere(self):
        return self.snaps[0] if self.snaps else None

    def held(self, r0):
        """The radius at which data at r0 is held on a photon sphere, or None:
        r0 at an exact fixed point (|lam^2 r0^2 - f| <= 1e-12 max(1, lam^2 r0^2)
        and |r0 f' - 2 f| <= 1e-9), else r_* of the first of ``snaps`` within
        1e-9 relative. The fixed point is unstable: such data cannot be
        integrated for long."""
        f0, df0 = self.st.metric(r0)
        a2r2 = self.lam ** 2 * r0 ** 2
        if abs(a2r2 - f0) <= 1e-12 * max(1.0, a2r2) and abs(df0 * r0 - 2 * f0) <= 1e-9:
            return r0
        return next((sp.r_star for sp in self.snaps
                     if abs(r0 - sp.r_star) <= 1e-9 * sp.r_star), None)


def _radial(st, lam):
    """The ``_Radial`` of factor lam of ``st``, kept on it as ``st.spheres`` is."""
    radials = st.__dict__.setdefault("_radials", {})
    if lam not in radials:
        radials[lam] = _Radial(st, lam)
    return radials[lam]


def turning_points(st: ClassSSpacetime, alpha: float) -> list[float]:
    """Radii where dr/ds changes sign: roots of alpha^2 r^2 - f(r). Raises
    DomainError where the scan leaves the float range."""
    _check_positive(alpha)
    return list(_radial(st, alpha).roots)


def _sample_grid(span, spacing):
    lo, hi = span
    fwd = np.arange(0.0, hi + 0.5 * spacing, spacing)
    fwd = fwd[fwd <= hi + 1e-15]
    bwd = -np.arange(spacing, -lo + 0.5 * spacing, spacing)
    bwd = bwd[bwd >= lo - 1e-15]
    return np.concatenate([bwd[::-1], fwd])


def _cut(span, s0, lo, hi):
    """The window s0 + span, as offsets from s0, cut to a solution over
    (lo, hi)."""
    return max(span[0], lo - s0), min(span[1], hi - s0)


def _window(sol, s0, span, spacing):
    """The output grid s of the window s0 + span of a solution, cut to its
    ends lo and hi; the states at s0 + s; and, per half-line name, whether
    the cut ends the window before its span end."""
    lo, hi = _cut(span, s0, sol.lo, sol.hi)
    s = _sample_grid((lo, hi), spacing)
    return s, _dense_eval(sol.dense, s0 + s), {"backward": lo > span[0],
                                               "forward": hi < span[1]}


def _reads(d, starts, span, spacing, end):
    """Per window s0 + span, s0 in ``starts``, of a solution that ends at
    ``end`` on side d: (s0, the offset from s0 up to which ``_window``
    reads it on that side), its span end when the cut leaves the window
    whole, else its farthest sample."""
    reads = []
    for s0 in starts:
        e = _cut(span, s0, end, end)[d > 0]
        if e != span[d > 0]:
            e = _sample_grid((e, 0.0) if d < 0 else (0.0, e), spacing)[0 if d < 0 else -1]
        reads.append((s0, e))
    return reads


def _integrate_radial(st, rhs, y0, span, step, sphere=None,
                      stops=(None, None), window=None, first=1):
    """Integrate an autonomous radial system over both half-lines of span.

    The state has r = y[1] and dr/ds = y[2], and rhs(r, dr/ds) returns its
    rates. Each half-line, started at s = 0, stops at its span end (an
    infinite one only by its rule in ``stops`` = (backward, forward), see
    ``ode._dopri5``), at the radial interval boundary r_lo (1 + 1e-9) or
    r_hi (1 - 1e-9), or when it comes within ASYMPTOTE_EPS of the photon
    sphere ``sphere`` (None: no such test), the one whose band holds the
    caller's factor (``_Radial.sphere``). The half-line in direction
    ``first`` is solved first.

    ``window`` = (wspan, starts) names the samples the caller will read:
    ``_sample_grid(wspan, step.sample_spacing)`` about each s0 of starts(d),
    where d is the direction of the half-line being solved; starts returns
    None while it cannot tell. A finite span without ``window`` is its own
    window about s = 0; an infinite one has none. A half-line that comes
    within _LOOKAHEAD_BAND of an interval end, heading there, then looks
    ahead: a ``_dopri5`` run of (r, dr/ds) alone from its state, with the
    same events, over what the samples need. When that run ends at the
    boundary, the half-line, whose dt/ds grows without bound there, ends
    with reason "boundary" at its first accepted step end from which
    ``_window`` reads every window as it would from a solve ending at the
    crossing (``_reads``): past its span end when that lies before the
    crossing, else past its last sample before it. Its steps up to there
    are those of the solve without look-ahead, and the samples and cut
    flags are the same unless one lies within rounding of the crossing.
    Returns the ``ode._Solution``.
    """
    r_lo, r_hi = st.r_lo, st.r_hi
    r_stop_lo, r_stop_hi = r_lo * (1 + 1e-9) if r_lo > 0 else 0.0, r_hi * (1 - 1e-9)
    events = [(lambda y: y[1] - r_stop_lo, "boundary")]
    if math.isfinite(r_hi):
        events.append((lambda y: r_stop_hi - y[1], "boundary"))
    if sphere is not None:
        events.append((lambda y: (y[1] - sphere.r_star) ** 2 + y[2] ** 2
                       - ASYMPTOTE_EPS ** 2, "asymptotic-to-photon-sphere"))
    if window is None and math.isfinite(span[0]) and math.isfinite(span[1]):
        window = (span, lambda d: (0.0,))

    def cut_rule(d, stop):
        """``stop``, and the boundary cut of the half-line in direction d."""
        (wspan, starts_of), spacing = window, step.sample_spacing
        band_lo, band_hi = _LOOKAHEAD_BAND * r_lo, _LOOKAHEAD_BAND * r_hi
        reads = None  # what the windows read; False: the half-line needs no cut

        def rule(s, y, taken):
            nonlocal reads
            reason = None if stop is None else stop(s, y, taken)
            if reason is not None or reads is False:
                return reason
            if reads is None:
                r, dr = y[1], d * y[2]  # dr: the rate of r along the half-line
                if r - r_lo > band_lo and not r_hi - r <= band_hi < math.inf:
                    return None  # outside both bands
                near_lo = dr < 0 and r - r_lo <= band_lo
                near_hi = dr > 0 and r_hi - r <= band_hi < math.inf
                starts = starts_of(d) if near_lo or near_hi else None
                if starts is None:
                    return None
                # the farthest sample of any window
                far = d * max((d * s0 for s0 in starts), default=-math.inf) \
                    + _sample_grid(wspan, spacing)[0 if d < 0 else -1]
                reads = False
                if d * (far - s) <= 0:
                    return None
                try:
                    ahead = _dopri5(lambda r, v: rhs(r, v)[1:3], y[1:3], far - s, step, [
                        (lambda y, g=g: g((0.0, *y)), tag) for g, tag in events])
                except (ArithmeticError, ValueError, StepUnderflowError):
                    return None  # no cut: the half-line runs on as it would
                if ahead.reason != "boundary":
                    return None
                reads = _reads(d, starts, wspan, spacing, s + ahead.s_end)
            done = all(d * (_cut(wspan, s0, s, s)[d > 0] - e) >= 0 for s0, e in reads)
            return "boundary" if done else None

        return rule

    halves = {}
    for d in (first, -first):
        end, stop = span[d > 0], stops[d > 0]
        if end != 0:
            rule = stop if window is None else cut_rule(d, stop)
            halves["forward" if d > 0 else "backward"] = _dopri5(
                rhs, y0, end, step, events, rule, reads=(1, 2))
    return _join(halves)


def _start_rate(sign, rate2, bound, scale, names):
    """dr/ds at s = 0 of sign ``sign``, where (dr/ds)^2 = rate2 - bound.

    Raises ForbiddenRadiusError when rate2 - bound < -1e-12 scale, naming
    rate2 and bound by ``names`` = (rate2's, bound's, what that means), and
    when sign is 0 but rate2 - bound > 1e-12 scale (no turning point).
    """
    disc = rate2 - bound
    if disc < -1e-12 * scale:
        raise ForbiddenRadiusError(
            f"{names[0]} = {rate2:.6g} < {names[1]} = {bound:.6g}: {names[2]}")
    if sign == 0 and disc > 1e-12 * scale:
        raise ForbiddenRadiusError("sign = 0 is only valid at a turning point")
    return sign * math.sqrt(max(disc, 0.0))


def _profile_rhs(st, alpha):
    """Right-hand side rhs(r, dr/ds) of the profile state (t, r, dr/ds), on floats."""
    metric = st.metric.evaluate
    a2 = alpha ** 2

    def rhs(r, v):
        fv, dfv = metric(r)
        return (alpha * r / fv, v, a2 * r - 0.5 * dfv)

    return rhs


def integrate_profile(st: ClassSSpacetime, spec: PhotonSurfaceSpec,
                      step: StepControl = StepControl()) -> ProfileCurve:
    """Integrate the radial profile of one photon surface over its span.

    Data held on a photon sphere (``_Radial.held``) gives the exact
    cylinder r = r_*, dt/ds = 1/sqrt(f(r_*)).  Otherwise the regularized
    second-order radial equation is integrated with adaptive Dormand-Prince
    5(4) stepping; the curve terminates at the span end, at the radial
    interval boundary, or when it is asymptotic to a photon sphere
    (|r - r_*| and |dr/ds| jointly below ASYMPTOTE_EPS).
    """
    alpha = spec.alpha
    if not st.contains(spec.r0):
        raise ForbiddenRadiusError(f"r0 = {spec.r0:.6g} outside radial interval")
    radial = _radial(st, alpha)
    r_fix = radial.held(spec.r0)
    if r_fix is not None:
        tdot0 = 1.0 / math.sqrt(st.f(r_fix))
        sol = _linear((spec.t0, r_fix, 0.0), (tdot0, 0.0, 0.0), spec.span)
    else:
        a2r2 = alpha ** 2 * spec.r0 ** 2
        v0 = _start_rate(spec.sign, a2r2, st.f(spec.r0), max(1.0, a2r2), (
            "alpha^2 r0^2", "f(r0)", "no real initial dr/ds"))
        sol = _integrate_radial(st, _profile_rhs(st, alpha), (spec.t0, spec.r0, v0),
                                spec.span, step, radial.sphere)

    s, (t, r, v), _ = _window(sol, 0.0, spec.span, step.sample_spacing)
    curve = _curve(st, alpha, s, t, r, v, sol.work)
    if r_fix is None:
        return curve
    # the cylinder has unit speed by construction
    return replace(curve, tdot=np.full_like(s, tdot0), unit_residual=np.zeros_like(s))


def _curve(st, alpha, s, t, r, v, work):
    """The ProfileCurve of states sampled at s, with dt/ds from the conserved
    alpha and the work record ``work``."""
    f = st.f(r)
    tdot = alpha * r / f
    return ProfileCurve(s=s, t=t, r=r, tdot=tdot, rdot=v, alpha=alpha, work=work,
                        unit_residual=_unit_residual(f, tdot, v))


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


def _orbit_stop(d, cells, extent, monotone, s0s, passed):
    """Stop rule of the orbit half-line in direction d through the cells
    {index: r0} ``cells``, along which r increases with s when ``monotone``.

    At the accepted step that carries the half past a cell's r0, the one an
    event ends included, it appends the cell with that step to ``passed``,
    the list both halves share, for ``_orbit_starts`` to set s0s[index] to
    the s0 with r(s0) = r0. It returns "turned-back" at a step end where
    dr/ds is not positive on a monotone half, and, once every cell is passed,
    "span" at the first step end more than ``extent`` past the farthest s0
    in direction d of all of ``s0s`` (past s = 0 when it is empty), so that
    every window known by then is covered.
    """
    todo, far = dict(cells), None

    def stop(s, y, taken):
        nonlocal far
        if monotone and not y[2] > 0:
            return _TURNED_BACK
        now = [i for i, r0 in todo.items() if d * (y[1] - r0) > 0]
        if now:
            # the step's nodes in ascending s, and so in ascending r
            (s_a, r_a), (s_b, r_b) = sorted([(taken[0], taken[2][1]), (s, y[1])])
            targets = [todo.pop(i) for i in now]
            x0 = np.interp(np.array(targets), (r_a, r_b), (s_a, s_b)).tolist()
            passed.extend((i, r0, x, s_a, s_b, *taken)
                          for i, r0, x in zip(now, targets, x0))
        if todo:
            return None
        if far is None:  # the halves run one after the other: s0s holds still
            _orbit_starts(passed, s0s)
            far = d * max((d * s0 for s0 in s0s.values()), default=0.0)
        return _ORBIT_SPAN if d * (s - far) > extent else None

    return stop


def _orbit_starts(passed, s0s):
    """Sets s0s[index] for each cell that ``_orbit_stop`` put in ``passed``,
    and empties it: one batch of Newton runs, each on the dense output of
    the step that passed its cell, from linear interpolation of r between
    the step's two nodes and kept inside them."""
    if passed:
        index, targets, x0, lo, hi, *steps = zip(*passed)
        dense = _dense_arrays(*steps)  # step j is the one cell j was passed in

        def fn(s, j):  # r and dr/ds
            y = _dense_at(dense, j, s)
            return y[1], y[2]

        s0s.update(zip(index, _newton(fn, np.array(targets), x0, lo, hi).tolist()))
        passed.clear()


def _sweep_row(st, alpha, r0s, span, step):
    """Sign +1 profiles of the sweep cells (alpha, r0), r0 in ``r0s``, from
    one open-ended solve per orbit.

    In a static spacetime every such cell on one component of
    {alpha^2 r^2 >= f} lies on the orbit through the component's anchor
    (``_Radial.anchor``), shifted in s and t. Its s0 solves r(s0) = r0 on
    the half where r increases, at the step that passes r0
    (``_orbit_stop``, ``_orbit_starts``); it is sampled at s0 +
    ``_sample_grid`` of its window, with t shifted to t(s0) = 0. The half
    that carries cells is solved first, the forward one when both do, so
    each half runs a span end past the orbit's farthest s0 in its
    direction, and a cell's bytes do not depend on the other cells. A half
    that runs into the interval boundary ends after the last sample of
    every cell's window (``_integrate_radial``), which it knows once it has
    passed its own cells and the other half is solved or carries none.

    Returns (cells, orbits): cells[i] is (curve, orbit index, s0), or None
    for a cell that ``integrate_profile`` must take: a critical row, r0
    outside the scan bracket, a cell that is forbidden, held on a sphere or
    at a turning point, a component between two turning points or without
    an anchor, and a cell whose orbit failed or does not reach r0 or cover
    its window before its stop rule ends it.
    """
    cells = [None] * len(r0s)
    orbits = []
    radial = _radial(st, alpha)
    if radial.sphere is not None:
        return cells, orbits
    groups, (lo, hi) = {}, st.default_bracket()
    for i, r0 in enumerate(r0s):
        ends = radial.component(r0)
        try:  # r0 in the bracket on an open component, not held, not at a turning point
            if not lo < r0 < hi or ends is None or None not in ends or \
                    radial.held(r0) is not None or not alpha ** 2 * r0 ** 2 - st.f(r0) > 0:
                continue
        except (OverflowError, ZeroDivisionError):
            continue  # beyond the float range: integrate_profile says why
        groups.setdefault(ends, []).append(i)

    rhs = _profile_rhs(st, alpha)
    for (below, above), members in groups.items():
        anchor = radial.anchor(below, above)
        if anchor is None:
            continue
        r_a, kind = anchor
        # the halves on which r increases with s: neither the forward half
        # below the turning point ``above`` nor the backward half above ``below``
        monotone = {-1: below is None, 1: above is None}
        sides = {d: {i: r0s[i] for i in members
                     if monotone[d] and d * (r0s[i] - r_a) > 0} for d in (-1, 1)}
        first = -1 if sides[-1] and not sides[1] else 1
        s0s, passed = {}, []

        def starts(d):  # every window is known once these hold
            if s0s.keys() >= sides[d].keys() and not (d == first and sides[-d]):
                return list(s0s.values())
            return None

        stops = (_orbit_stop(-1, sides[-1], -span[0], monotone[-1], s0s, passed),
                 _orbit_stop(1, sides[1], span[1], monotone[1], s0s, passed))
        y0 = (0.0, r_a, math.sqrt(max(alpha ** 2 * r_a ** 2 - st.f(r_a), 0.0)))
        try:
            sol = _integrate_radial(st, rhs, y0, (-math.inf, math.inf), step,
                                    stops=stops, window=(span, starts), first=first)
        except StepUnderflowError:
            continue
        _orbit_starts(passed, s0s)  # the cells of a half that ended early
        orbits.append(_Orbit(alpha, r_a, kind, sol))
        for i, s0 in s0s.items():
            curve = _orbit_cell(st, alpha, sol, s0, span, step.sample_spacing)
            if curve is not None:
                cells[i] = (curve, len(orbits) - 1, s0)
    return cells, orbits


def _orbit_cell(st, alpha, sol, s0, span, spacing):
    """The profile of the cell at s0 of an orbit solution over its window
    s0 + span, or None when the window passes an end set by the orbit's stop
    rule ("span" or "turned-back"). Its work record holds no solve: the stop
    reason of each half of the window, "span" where the orbit does not cut it."""
    s, (t, r, v), cuts = _window(sol, s0, span, spacing)
    reasons = {name: sol.work["stop"][name] for name, cut in cuts.items() if cut}
    if not {_ORBIT_SPAN, _TURNED_BACK}.isdisjoint(reasons.values()):
        return None
    stop = {name: reasons.get(name, "span") for name, end in zip(cuts, span) if end != 0}
    return _curve(st, alpha, s, t - t[np.searchsorted(s, 0.0)], r, v,
                  {"stop": stop, "solve_stats": {}})


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
    _check_samples(curve.s)
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


def classify(st: ClassSSpacetime, alpha: float, r0: float) -> SurfaceClass:
    """Group a surface by its umbilicity factor relative to ``st.spheres``.

    Data held on a photon sphere (``_Radial.held``) is PhotonSphere, even
    when the scan missed that sphere; data on a component of
    {alpha^2 r^2 >= f} between two turning points is Trapped. Off the
    critical band, a surface is Supercritical when the component that holds
    r0 holds an unstable sphere too (which needs alpha above its alpha_*),
    else Subcritical.
    """
    _check_positive(alpha)
    spheres = st.spheres
    regions = tuple("below" if r0 < sp.r_star else "above" for sp in spheres)
    radial = _radial(st, alpha)

    if radial.held(r0) is not None:
        kind = SurfaceKind.PHOTON_SPHERE
    elif None not in ((ends := radial.component(r0)) or (None,)):
        kind = SurfaceKind.TRAPPED
    elif not spheres:
        kind = SurfaceKind.NO_SPHERE_REFERENCE
    elif radial.sphere is not None:
        kind = SurfaceKind.CRITICAL
    elif ends is not None and any(not sp.stable and radial.component(sp.r_star) == ends
                                  for sp in spheres):
        kind = SurfaceKind.SUPERCRITICAL
    else:
        kind = SurfaceKind.SUBCRITICAL
    return SurfaceClass(kind=kind, regions=regions, spheres=spheres)


def minkowski_exact(alpha: float, t0: float, t) -> float:
    """Closed-form hyperboloid radius r(t) = sqrt(1/alpha^2 + (t - t0)^2)."""
    _check_positive(alpha)
    return np.sqrt(alpha ** (-2) + (np.asarray(t, dtype=float) - t0) ** 2)
