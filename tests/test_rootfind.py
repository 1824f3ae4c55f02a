"""Brent's root finder against scipy.optimize.brentq, whose C iteration it
replays: on the brackets the package hands it, the roots must agree bit for
bit."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from photonsurf import StepControl, build_family, ode
from photonsurf.ode import _EVENT_TOL, _brentq, _dense_eval, _dopri5
from photonsurf.surfaces import PHOTON_SPHERE_XTOL

SPACETIMES = {
    "schwarzschild-n3": dict(family="schwarzschild", n=3, m=1),
    "schwarzschild-n5": dict(family="schwarzschild", n=5, m=1),
    "rn-q0.6": dict(family="reissner-nordstrom", m=1, q=0.6),
    "sads-L10": dict(family="schwarzschild-ads", n=3, m=1, L=10),
}


def scan_brackets(st, g, grid=512):
    """Sign-change brackets of g on the scan grid of surfaces._scan_roots."""
    rs = np.geomspace(*st.default_bracket(), grid)
    vals = g(rs)
    return [(rs[i], rs[i + 1]) for i in range(grid - 1) if vals[i] * vals[i + 1] < 0]


def assert_same_root(g, a, b, xtol, rtol):
    assert _brentq(g, a, b, xtol, rtol) == brentq(g, a, b, xtol=xtol, rtol=rtol)


@pytest.mark.parametrize("name", sorted(SPACETIMES))
def test_photon_sphere_roots_match_scipy(name):
    st = build_family(**SPACETIMES[name])

    def g(r):
        fv, dfv = st.metric(r)
        return dfv * r - 2 * fv

    brackets = scan_brackets(st, g)
    assert brackets
    for a, b in brackets:
        assert_same_root(g, a, b, PHOTON_SPHERE_XTOL, 8.9e-16)


def test_turning_point_roots_match_scipy():
    found = 0
    for name in sorted(SPACETIMES):
        st = build_family(**SPACETIMES[name])
        for alpha in np.linspace(0.05, 0.6, 56):
            def g(r, alpha=alpha):
                return alpha ** 2 * r ** 2 - st.f(r)

            for a, b in scan_brackets(st, g):
                assert_same_root(g, a, b, PHOTON_SPHERE_XTOL, 8.9e-16)
                found += 1
    assert found >= 50


@pytest.mark.parametrize("n, L", [(3, 10.0), (4, 10.0), (3, 1.0)])
def test_ads_horizon_matches_scipy(n, L):
    p = n - 2

    def fval(r):
        return 1 - 2 / r ** p + r ** 2 / L ** 2

    hi = max(2 ** (1 / p), L) * 4  # build_family's first bracket end; f > 0 there
    assert fval(hi) > 0
    st = build_family("schwarzschild-ads", n=n, m=1, L=L)
    assert st.r_lo == brentq(fval, 1e-12, hi, xtol=1e-14, rtol=8.9e-16)


@pytest.mark.parametrize("s_end", [-50.0, 8.0])
def test_dense_output_events_match_scipy(s_end):
    # a level crossing inside every step of a Schwarzschild profile, found on
    # that step's dense output with the bracket ordered as _dopri5 orders it
    # (step start first, so descending on the backward half-line)
    st = build_family("schwarzschild", n=3, m=1)
    alpha, r0 = 0.3, 4.5

    def rhs(y):
        fv, dfv = st.metric(y[1])
        return (alpha * y[1] / fv, y[2], alpha ** 2 * y[1] - 0.5 * dfv)

    r_stop = st.r_lo * (1 + 1e-9)
    y0 = (0.0, r0, math.sqrt(alpha ** 2 * r0 ** 2 - st.f(r0)))
    half = _dopri5(rhs, y0, s_end, StepControl(),
                   [(lambda y: y[1] - r_stop, "boundary")])
    assert half.reason == ("boundary" if s_end < 0 else "span")
    T, H = half.dense[:2]
    assert len(T) > 20
    checked = 0
    for j in range(len(T)):
        step = tuple(a[j:j + 1] for a in half.dense)

        def r_at(s, step=step):
            return _dense_eval(step, np.array([s]))[1, 0]

        a, b = T[j], T[j] + H[j]
        for level in (r_at(a + 0.37 * H[j]), r_stop):
            g = (lambda s, level=level, r_at=r_at: r_at(s) - level)
            if g(a) * g(b) < 0:
                assert_same_root(g, a, b, _EVENT_TOL, _EVENT_TOL)
                checked += 1
    # every step's own level, plus the boundary on the last backward step
    assert checked == len(T) + (s_end < 0)


def test_endpoint_roots_are_returned_unchanged():
    g = (lambda x: x - 1.0)
    assert _brentq(g, 1.0, 2.0, 1e-12, 8.9e-16) == 1.0
    assert _brentq(g, 0.0, 1.0, 1e-12, 8.9e-16) == 1.0
    assert _brentq(math.sin, 0.0, 1.0, 1e-12, 8.9e-16) == 0.0


def test_errors_match_scipy(monkeypatch):
    def square(x):
        return x * x + 1.0

    def nan_inside(x):
        return math.nan if 0.2 < x < 0.8 else x - 0.5

    for f, a, b in ((square, -1.0, 1.0), ((lambda x: math.nan), 0.0, 1.0),
                    (nan_inside, 0.0, 1.0)):
        with pytest.raises(ValueError):
            brentq(f, a, b)
        with pytest.raises(ValueError):
            _brentq(f, a, b, 2e-12, 8.9e-16)
    with pytest.raises(RuntimeError):
        brentq(math.cos, 0.0, 3.0, maxiter=2)
    assert _brentq(math.cos, 0.0, 3.0, 2e-12, 8.9e-16) == brentq(math.cos, 0.0, 3.0)
    monkeypatch.setattr(ode, "_BRENT_MAXITER", 2)
    with pytest.raises(RuntimeError):
        _brentq(math.cos, 0.0, 3.0, 2e-12, 8.9e-16)
