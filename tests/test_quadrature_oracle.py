"""Errors of sampled curves against quadratures in r, with no stepper.

On a stretch where r is monotone, a surface of factor alpha has

    s(r) = int dr / sqrt(G),  t(r) = int alpha r dr / (f sqrt(G)),  G = alpha^2 r^2 - f,

and a null geodesic of charges E, ell has

    phi(r) = int ell dr / (r^2 sqrt(G)),  t(r) = int E dr / (f sqrt(G)),  G = E^2 - ell^2 f / r^2.

In Schwarzschild (m = 1) both G are c(r) / r^k with the cubic
c(r) = a r^3 + b r - 2 b: a profile has a = alpha^2, b = -1, k = 1, a
geodesic a = E^2, b = -ell^2, k = 3. A Schwarzschild-AdS (m = 1) profile has
the same cubic with a = alpha^2 - L^-2, and a Reissner-Nordstrom (m = 1)
profile the quartic c(r) = alpha^2 r^4 - r^2 + 2 r - q^2 with k = 2, and a
Schwarzschild profile in n >= 4 dimensions (f = 1 - 2/r^p, p = n - 2) the
polynomial c(r) = alpha^2 r^(p+2) - r^p + 2 with k = p. From a
turning point r_tp, a root of c, the integrals run in x = sqrt(r - r_tp),
where G = x^2 p(r) / r^k with the quotient p(r) = c(r) / (r - r_tp) (for
the cubic a r^2 + a r_tp r + a r_tp^2 + b), so no cancellation is left;
elsewhere they run in y = log(r - r_H), which keeps the 1/f of t bounded at
the horizon r_H. On the critical row alpha* = 27^(-1/2), G = (r - 3)^2
(r + 6) / (27 r) has a double root at the photon sphere, which the surface
approaches without reaching; there they run in z = log|r - 3|, where both
integrands are bounded. ``scipy.integrate.quad`` evaluates them to about
1e-15 (checked against a 30-digit quadrature); each bound below is about
twice the error measured on its curve.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from photonsurf import (
    ConservedCharges,
    PhotonSurfaceSpec,
    StepControl,
    build_family,
    integrate_null_geodesic,
    integrate_profile,
    turning_points,
)
from photonsurf.geodesics import _radii_at_times
from photonsurf.surfaces import _radial, _sweep_row

from test_sweep import ALPHA_STAR, sweep_grid

ST = build_family("schwarzschild", m=1)


def f(r):
    return 1 - 2 / r


def horner(coeffs, r):
    """The polynomial of ``coeffs`` (highest power first) at r."""
    value = 0.0
    for c in coeffs:
        value = value * r + c
    return value


class Radial:
    """(dr/ds)^2 = G(r) = c(r) / r^k, c the polynomial of ``coeffs`` (highest
    power first), and its quadratures; r_h is the horizon, a simple zero of f."""

    def __init__(self, coeffs, k, r_h=2.0):
        self.c, self.k, self.r_h = tuple(coeffs), k, r_h

    def G(self, r):
        return horner(self.c, r) / r ** self.k

    def turning_point(self, lo, hi):
        return brentq(lambda r: horner(self.c, r), lo, hi,
                      xtol=1e-300, rtol=4 * np.finfo(float).eps)

    def integral(self, rate, r, tp=None, start=None):
        """int rate / sqrt(G) dr from the turning point tp, or from start,
        to r."""
        if tp is not None:
            # c(q) = (q - tp) p(q): p by synthetic division, with no cancellation
            p = [self.c[0]]
            for c in self.c[1:-1]:
                p.append(c + tp * p[-1])

            def fn(x):
                q = tp + x * x
                return 2 * rate(q) / math.sqrt(horner(p, q) / q ** self.k)

            return quad(fn, 0.0, math.sqrt(r - tp), epsabs=0.0, epsrel=1e-13,
                        limit=200)[0]

        def fn(y):
            q = self.r_h + math.exp(y)
            return rate(q) * (q - self.r_h) / math.sqrt(self.G(q))

        return quad(fn, math.log(start - self.r_h), math.log(r - self.r_h), epsabs=0.0,
                    epsrel=1e-13, limit=200)[0]


def cubic(a, b, k, r_h=2.0):
    """The Radial of c(r) = a r^3 + b r - 2 b."""
    return Radial((a, 0.0, b, -2 * b), k, r_h)


def samples(radial, rates, s, r, qs, sign0, r0, tp=None, every=5):
    """(got, want) per quantity, s first and then one q per rate, on every
    ``every``-th sample where |dr/ds| >= 0.1, so that a radius error does
    not swamp s(r) and q(r). The curve passes r0 at s = 0 with dr/ds of sign
    ``sign0``, each q of ``qs`` is 0 there, and it turns at ``tp`` (None: r
    is monotone)."""
    rates = (lambda q: 1.0, *rates)
    # s and each q at the turning point, or at r0 when there is none
    turn = [0.0 if tp is None else -sign0 * radial.integral(rate, r0, tp)
            for rate in rates]
    pairs = [([], []) for _ in rates]
    for i in range(0, len(s), every):
        if radial.G(r[i]) < 0.01:
            continue
        side = sign0 if tp is None else np.sign(s[i] - turn[0])
        for (got, want), q, base, rate in zip(pairs, (s, *qs), turn, rates):
            got.append(q[i])
            want.append(base + side * radial.integral(rate, r[i], tp, r0))
    return [(np.array(got), np.array(want)) for got, want in pairs]


def worst(pair, relative=False):
    got, want = pair
    err = np.abs(got - want)
    return float(np.max(err / np.abs(want) if relative else err))


def test_criterion_4_profile_against_quadrature():
    # alpha 0.15, r0 6, span +-5: r rises monotonically forward, and falls
    # backward to the turning point near 5.24, which it reaches at s = -4.2.
    # Measured: s 2.6e-12 and t 2.3e-12 forward, s 1.8e-12 and t 2.4e-12
    # backward; the bounds are about twice that
    alpha, r0 = 0.15, 6.0
    curve = integrate_profile(ST, PhotonSurfaceSpec(alpha=alpha, r0=r0, span=(-5.0, 5.0)))
    radial = cubic(alpha ** 2, -1.0, 1)
    rate_t = (lambda r: alpha * r / f(r),)
    fwd, bwd = curve.s >= 0, curve.s <= 0
    s, t = samples(radial, rate_t, curve.s[fwd], curve.r[fwd], (curve.t[fwd],), 1, r0)
    assert len(s[0]) > 90
    assert worst(s) <= 5e-12 and worst(t) <= 5e-12
    tp = radial.turning_point(4.0, r0)
    assert tp < curve.r.min() < tp + 1e-6
    s, t = samples(radial, rate_t, curve.s[bwd], curve.r[bwd], (curve.t[bwd],), 1, r0, tp)
    assert len(s[0]) > 50
    assert worst(s) <= 4e-12 and worst(t) <= 5e-12


def test_seed_3_sweep_cell_against_quadrature():
    # the sweep-grid seed-3 cell whose unit residual is 1.3e-7: its backward
    # half runs into the horizon down to r - 2 = 5.5e-6, where 1/f is 3.7e5,
    # yet the errors stay small. Measured: s 5.5e-13, t 7.8e-12 relative;
    # the bounds are about twice that
    alpha, r0 = 0.3788894953734038, 8.856705219598716
    curve = integrate_profile(ST, PhotonSurfaceSpec(alpha=alpha, r0=r0, span=(-5.0, 5.0)))
    assert curve.unit_residual.max() > 1e-7 and curve.r.min() - 2 < 1e-5
    bwd = curve.s < 0
    s, t = samples(cubic(alpha ** 2, -1.0, 1), (lambda r: alpha * r / f(r),),
                   curve.s[bwd], curve.r[bwd], (curve.t[bwd],), 1, r0, every=1)
    assert len(s[0]) > 400
    assert worst(s) <= 1.1e-12 and worst(t, relative=True) <= 1.6e-11


@pytest.mark.parametrize("sign", [1, -1])
def test_geodesic_against_quadrature(sign):
    # E = 1, ell = 6, r0 = 10 over affine parameter 0-40: outward, or inward
    # through the periapsis near 4.2 and out again. Measured (sign +1, -1):
    # phi 2.6e-11, 7.3e-12 relative, t 3.5e-12, 2.8e-12 relative, s 3.7e-11,
    # 3.9e-11; the bounds are about twice the larger
    E, ell, r0 = 1.0, 6.0, 10.0
    traj = integrate_null_geodesic(ST, ConservedCharges(E, ell), r0, sign=sign,
                                   span=(0.0, 40.0))
    radial = cubic(E ** 2, -ell ** 2, 3)
    tp = None if sign > 0 else radial.turning_point(3.0, r0)
    # from the first sample after s = 0, where phi and t are 0
    s, phi, t = samples(radial, (lambda r: ell / r ** 2, lambda r: E / f(r)), traj.s[1:],
                        traj.r[1:], (traj.phi[1:], traj.t[1:]), sign, r0, tp)
    assert len(s[0]) > 700
    assert worst(phi, relative=True) <= 5e-11 and worst(t, relative=True) <= 7e-12
    assert worst(s) <= 8e-11


@pytest.mark.parametrize("family, params, sign, bound_phi, bound_t, bound_s", [
    # measured: phi 2.6e-11 and t 3.4e-12 relative, s 3.7e-11
    ("reissner-nordstrom", dict(m=1, q=0.6), 1, 5.2e-11, 7e-12, 7.5e-11),
    # measured: phi 7.2e-12 and t 2.8e-12 relative, s 4.0e-11
    ("reissner-nordstrom", dict(m=1, q=0.6), -1, 1.5e-11, 5.6e-12, 8e-11),
    # measured: phi 1.5e-11 and t 9.4e-12 relative, s 4.7e-11
    ("schwarzschild-ads", dict(m=1, L=10.0), 1, 3e-11, 1.9e-11, 9.5e-11),
    # measured: phi 2.5e-12 and t 1.6e-12 relative, s 4.3e-11
    ("schwarzschild-ads", dict(m=1, L=10.0), -1, 5e-12, 3.2e-12, 8.6e-11),
], ids=["rn-q0.6-out", "rn-q0.6-in", "sads-L10-out", "sads-L10-in"])
def test_rn_and_sads_geodesics_against_quadrature(family, params, sign, bound_phi,
                                                  bound_t, bound_s):
    # E = 1, ell = 6, r0 = 10 over affine parameter 0-40, as the
    # Schwarzschild geodesic above: outward, or inward through the periapsis
    # and out again. With f = 1 - 2/r + q^2/r^2, G = E^2 - ell^2 f / r^2 is
    # the quartic E^2 r^4 - ell^2 r^2 + 2 ell^2 r - ell^2 q^2 over r^4; with
    # f = 1 - 2/r + r^2/L^2 it is the cubic of a = E^2 - ell^2/L^2, b = -ell^2
    # over r^3. The bounds are about twice the errors measured
    E, ell, r0 = 1.0, 6.0, 10.0
    st = build_family(family, **params)
    if family == "reissner-nordstrom":
        radial = Radial((E ** 2, 0.0, -ell ** 2, 2 * ell ** 2, -ell ** 2 * params["q"] ** 2),
                        4, st.r_lo)
    else:
        radial = cubic(E ** 2 - ell ** 2 / params["L"] ** 2, -ell ** 2, 3, st.r_lo)
    traj = integrate_null_geodesic(st, ConservedCharges(E, ell), r0, sign=sign,
                                   span=(0.0, 40.0))
    assert traj.work["stop"] == {"forward": "span"}
    tp = None if sign > 0 else radial.turning_point(3.0, r0)
    s, phi, t = samples(radial, (lambda r: ell / r ** 2, lambda r: E / st.f(r)), traj.s[1:],
                        traj.r[1:], (traj.phi[1:], traj.t[1:]), sign, r0, tp)
    assert len(s[0]) > 700
    assert worst(phi, relative=True) <= bound_phi and worst(t, relative=True) <= bound_t
    assert worst(s) <= bound_s
    if tp is not None:
        assert tp < traj.r.min() < tp + 1e-6


def test_oracle_geodesic_into_the_horizon_against_quadrature():
    # the open-ended geodesic that `profile --oracle` compares with the
    # profile (E = alpha, ell = 1), at the profile's times: alpha 0.4567 >
    # alpha*, r0 7.925, sign -1, span +-4. The profile runs into the horizon
    # and ends at the boundary; the geodesic follows it down to r - 2 = 3.3e-4,
    # where t = int E dr / (f sqrt(G)) grows like -2 log(r - 2). r at each
    # time is compared through t(r) by a quadrature in log(r - 2): to first
    # order its error is |t - t(r)| dr/dt, dr/dt = f sqrt(G) / E. Measured:
    # r 2.9e-11, t 1.1e-11 relative to max(1, |t|); the bounds are about
    # twice that
    alpha, r0, sign = 0.4567, 7.925, -1
    curve = integrate_profile(ST, PhotonSurfaceSpec(alpha=alpha, r0=r0, sign=sign,
                                                    span=(-4.0, 4.0)))
    assert curve.work["stop"] == {"backward": "span", "forward": "boundary"}
    covered, r, sol = _radii_at_times(ST, ConservedCharges(alpha, 1.0), r0, sign,
                                      curve.t, StepControl())
    assert covered.all() and sol.work["stop"] == {"backward": "span", "forward": "span"}
    assert r.min() - 2 < 1e-3
    radial = cubic(alpha ** 2, -1.0, 3)
    want = np.array([sign * radial.integral(lambda q: alpha / f(q), q, None, r0)
                     for q in r.tolist()])
    dr_dt = f(r) * np.sqrt(radial.G(r)) / alpha
    assert np.max(np.abs(curve.t - want) * dr_dt) <= 6e-11
    assert np.max(np.abs(curve.t - want) / np.maximum(1.0, np.abs(want))) <= 2.2e-11


@pytest.mark.parametrize("family, params, factor, bound_s, bound_t", [
    # measured: s 4.5e-12, t 8.9e-13
    ("reissner-nordstrom", dict(m=1, q=0.6), 0.8, 9e-12, 1.8e-12),
    # measured: s 1.7e-12, t 9.8e-12
    ("reissner-nordstrom", dict(m=1, q=0.6), 1.2, 3.5e-12, 2e-11),
    # measured: s 3.5e-12, t 1.8e-12
    ("schwarzschild-ads", dict(m=1, L=10.0), 0.8, 7e-12, 3.6e-12),
    # measured: s 2.3e-12, t 8.4e-12
    ("schwarzschild-ads", dict(m=1, L=10.0), 1.2, 4.5e-12, 1.7e-11),
], ids=["rn-q0.6-below", "rn-q0.6-above", "sads-L10-below", "sads-L10-above"])
def test_rn_and_sads_profiles_against_quadrature(family, params, factor, bound_s, bound_t):
    # alpha = factor alpha*, r0 6, span (-10, 5): r rises monotonically
    # forward; backward it turns at the turning point below r0 when alpha is
    # below alpha*, and else falls into the horizon, where the half ends. t
    # is compared relative to max(1, |t|); the bounds, over both halves, are
    # about twice the errors measured
    st = build_family(family, **params)
    alpha = factor * st.spheres[0].alpha_star
    if family == "reissner-nordstrom":
        radial = Radial((alpha ** 2, 0.0, -1.0, 2.0, -params["q"] ** 2), 2, st.r_lo)
    else:
        radial = cubic(alpha ** 2 - params["L"] ** -2, -1.0, 1, st.r_lo)
    curve = integrate_profile(st, PhotonSurfaceSpec(alpha=alpha, r0=6.0, span=(-10.0, 5.0)))
    turning = turning_points(st, alpha)
    assert curve.work["stop"] == {
        "backward": "span" if factor < 1 else "boundary", "forward": "span"}
    assert len(turning) == (2 if factor < 1 else 0)
    for d, half in ((1, curve.s >= 0), (-1, curve.s <= 0)):
        tp = radial.turning_point(turning[-1] * (1 - 1e-6), turning[-1] * (1 + 1e-6)) \
            if d < 0 and turning else None
        s, (got, want) = samples(radial, (lambda r: alpha * r / st.f(r),), curve.s[half],
                                 curve.r[half], (curve.t[half],), 1, 6.0, tp)
        assert len(s[0]) > 100
        assert worst(s) <= bound_s, d
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= bound_t, d
    assert curve.r.min() < (tp + 1e-6 if factor < 1 else st.r_lo * (1 + 1e-2))


@pytest.mark.parametrize("n, factor, bound_s, bound_t", [
    # measured: s 3.3e-12, t 6.6e-13
    (4, 0.8, 6.6e-12, 1.3e-12),
    # measured: s 1.3e-12, t 9.2e-12
    (4, 1.2, 2.6e-12, 1.8e-11),
    # measured: s 3.5e-12, t 6.0e-13
    (5, 0.8, 7e-12, 1.2e-12),
    # measured: s 1.2e-12, t 5.2e-12
    (5, 1.2, 2.4e-12, 1e-11),
], ids=["n4-below", "n4-above", "n5-below", "n5-above"])
def test_higher_dimensional_schwarzschild_profiles_against_quadrature(n, factor, bound_s,
                                                                       bound_t):
    # Schwarzschild (m = 1) in n = 4 and 5, as the RN and SAdS profiles
    # above: alpha = factor alpha*, r0 6, span (-10, 5). Below alpha* the
    # backward half passes the outer turning point; above it, it runs into
    # the horizon r_H = 2^(1/p) and ends there. t is compared relative to
    # max(1, |t|); the bounds, over both halves, are about twice the errors
    # measured
    p = n - 2
    st = build_family("schwarzschild", n=n, m=1)
    alpha = factor * st.spheres[0].alpha_star
    radial = Radial((alpha ** 2, 0.0, -1.0) + (0.0,) * (p - 1) + (2.0,), p, 2 ** (1 / p))
    curve = integrate_profile(st, PhotonSurfaceSpec(alpha=alpha, r0=6.0, span=(-10.0, 5.0)))
    turning = turning_points(st, alpha)
    assert curve.work["stop"] == {
        "backward": "span" if factor < 1 else "boundary", "forward": "span"}
    assert len(turning) == (2 if factor < 1 else 0)
    for d, half in ((1, curve.s >= 0), (-1, curve.s <= 0)):
        tp = radial.turning_point(turning[-1] * (1 - 1e-6), turning[-1] * (1 + 1e-6)) \
            if d < 0 and turning else None
        s, (got, want) = samples(radial, (lambda r: alpha * r / (1 - 2 / r ** p),),
                                 curve.s[half], curve.r[half], (curve.t[half],), 1, 6.0, tp)
        assert len(s[0]) > 70
        assert worst(s) <= bound_s, d
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= bound_t, d
    # the nearest sample to the turning point or the horizon, relative
    assert curve.r.min() < (tp * (1 + 1e-6) if factor < 1 else 2 ** (1 / p) * (1 + 1e-2))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sweep_grid_orbit_cells_against_quadrature(seed):
    # every cell of the seed's `sweep-grid` run that one orbit solve serves
    # (``_sweep_row``), about every 100th sample of its window; the critical
    # row is solved per cell and runs asymptotic to the sphere, so it is not
    # here. A cell passes r0 outward at s = 0, from the turning point below
    # it when its component has one, else with r monotone (alpha > alpha*).
    # t is compared relative to max(1, |t|). Measured over seeds 1-5 (87 and
    # 288 cells): from a turning point s 3.5e-12 and t 9.4e-13; monotone s
    # 1.1e-11 and t 2.0e-11 (alpha 0.19, just above alpha*, near the
    # horizon); the bounds are about twice that
    bounds = {True: (7e-12, 2e-12), False: (2.5e-11, 4e-11)}
    alphas, r0s = sweep_grid(seed)
    cells = 0
    for alpha in alphas:
        if alpha == ALPHA_STAR:
            continue
        turning = turning_points(ST, alpha)
        row, _ = _sweep_row(ST, alpha, r0s, (-5.0, 5.0), StepControl())
        radial = cubic(alpha ** 2, -1.0, 1)
        for r0, cell in zip(r0s, row):
            if cell is None:
                continue
            curve = cell[0]
            below = [r for r in turning if r < r0]
            tp = radial.turning_point(below[-1] * (1 - 1e-6), below[-1] * (1 + 1e-6)) \
                if below else None
            s, (got, want) = samples(radial, (lambda r: alpha * r / f(r),), curve.s,
                                     curve.r, (curve.t,), 1, r0, tp, every=100)
            label = f"alpha {alpha!r} r0 {r0!r}"
            assert len(s[0]) >= 5, label
            bound_s, bound_t = bounds[tp is not None]
            assert worst(s) <= bound_s, label
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= bound_t, label
            cells += 1
    assert cells >= 70


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sweep_grid_turning_points_against_quadrature(seed):
    # every row of the seed's `sweep-grid` run: each root of the row's
    # turning-point scan (``_radial``), and each turning-point anchor of its
    # orbits (``_sweep_row``), against the root of the test's own cubic.
    # Measured over seeds 1-5: 38 roots within 9.9e-15 relative, at the
    # scan's tolerance, and 18 anchors, polished by Newton, within 2.1e-16;
    # the bounds are about twice that
    alphas, r0s = sweep_grid(seed)
    roots = anchors = 0
    for alpha in alphas:
        radial = cubic(alpha ** 2, -1.0, 1)

        def root(r):
            return radial.turning_point(r * (1 - 1e-6), r * (1 + 1e-6))

        label = f"alpha {alpha!r}"
        for r in _radial(ST, alpha).roots:
            assert abs(r - root(r)) <= 2e-14 * root(r), label
            roots += 1
        _, orbits = _sweep_row(ST, alpha, r0s, (-5.0, 5.0), StepControl())
        for orbit in orbits:
            if orbit.kind == "turning-point":
                assert abs(orbit.anchor - root(orbit.anchor)) <= 4.4e-16 * orbit.anchor, label
                anchors += 1
    assert roots >= 6 and anchors >= 3


@pytest.mark.parametrize("r0, span, bound_r, bound_t", [
    # measured: r 5.0e-12, t 7.3e-13
    (6.0, (-5.0, 5.0), 1e-11, 1.5e-12),
    # down to r = 3.005, where dr/ds is 1.7e-3, so s(r) is off by 5.1e-9
    # while r(s) is off by 8.6e-12; t 7.3e-13
    (6.0, (-20.0, 5.0), 1.7e-11, 1.5e-12),
    # measured: r 1.8e-12, t 7.7e-14
    (3.5, (-10.0, 5.0), 3.6e-12, 1.5e-13),
])
def test_critical_row_against_quadrature(r0, span, bound_r, bound_t):
    # alpha*: with sign +1, s(r) and t(r) from r0 are integrals in
    # z = log|r - 3|, on the side of the sphere r0 is on. Where dr/ds is
    # small, a sample's s(r) error is large and means little, so the test
    # bounds the errors at the sample's s: in r, |s - s(r)| |dr/ds| to first
    # order, and in t, t - t(r) - (dt/ds)(s - s(r)), relative to max(1, |t|).
    # The bounds are about twice the errors measured on every sample
    alpha = ALPHA_STAR
    curve = integrate_profile(ST, PhotonSurfaceSpec(alpha=alpha, r0=r0, span=span))
    assert curve.work["stop"] == {"backward": "span", "forward": "span"}
    side = math.copysign(1.0, r0 - 3.0)

    def ds_dz(z):
        r = 3.0 + side * math.exp(z)
        return side * math.sqrt(27 * r / (r + 6))

    def dt_dz(z):
        r = 3.0 + side * math.exp(z)
        return alpha * r / f(r) * ds_dz(z)

    z0 = math.log(abs(r0 - 3.0))
    s_r, t_r = (np.array([quad(rate, z0, math.log(abs(r - 3.0)), epsabs=0.0,
                               epsrel=1e-13, limit=200)[0] for r in curve.r.tolist()])
                for rate in (ds_dz, dt_dz))
    r = curve.r
    rdot = np.abs(r - 3.0) * np.sqrt((r + 6) / (27 * r))
    assert np.max(np.abs(curve.s - s_r) * rdot) <= bound_r
    t_err = curve.t - t_r - alpha * r / f(r) * (curve.s - s_r)
    assert np.max(np.abs(t_err) / np.maximum(1.0, np.abs(curve.t))) <= bound_t
