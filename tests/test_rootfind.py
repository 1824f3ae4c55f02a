"""Brent's root finder against scipy.optimize.brentq, whose C iteration it
replays: on the brackets the package hands it, the roots must agree bit for
bit."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from photonsurf import StepControl, build_family, ode, surfaces
from photonsurf.ode import _EVENT_TOL, _brentq, _dense_eval, _dopri5
from photonsurf.surfaces import PHOTON_SPHERE_XTOL, SCAN_GRID, _scan_roots

SPACETIMES = {
    "schwarzschild-n3": dict(family="schwarzschild", n=3, m=1),
    "schwarzschild-n5": dict(family="schwarzschild", n=5, m=1),
    "rn-q0.6": dict(family="reissner-nordstrom", m=1, q=0.6),
    "sads-L10": dict(family="schwarzschild-ads", n=3, m=1, L=10),
}


def opposite(a, b):
    """Whether a and b have opposite signs: the bracket rule of
    surfaces._scan_roots, which no product under- or overflow can change."""
    return a < 0 < b or b < 0 < a


def scan_brackets(lo, hi, g, grid=512):
    """Sign-change brackets of g on the scan grid of surfaces._scan_roots."""
    rs = np.geomspace(lo, hi, grid)
    vals = g(rs)
    return [(rs[i], rs[i + 1]) for i in range(grid - 1) if opposite(vals[i], vals[i + 1])]


def assert_same_root(g, a, b, xtol, rtol):
    assert _brentq(g, a, b, xtol, rtol) == brentq(g, a, b, xtol=xtol, rtol=rtol)


@pytest.mark.parametrize("name", sorted(SPACETIMES))
def test_photon_sphere_roots_match_scipy(name):
    st = build_family(**SPACETIMES[name])

    def g(r):
        fv, dfv = st.metric(r)
        return dfv * r - 2 * fv

    brackets = scan_brackets(*st.default_bracket(), g)
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

            for a, b in scan_brackets(*st.default_bracket(), g):
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

    def rhs(r, v):
        fv, dfv = st.metric(r)
        return (alpha * r / fv, v, alpha ** 2 * r - 0.5 * dfv)

    r_stop = st.r_lo * (1 + 1e-9)
    y0 = (0.0, r0, math.sqrt(alpha ** 2 * r0 ** 2 - st.f(r0)))
    half = _dopri5(rhs, y0, s_end, StepControl(),
                   [(lambda y: y[1] - r_stop, "boundary")], reads=(1, 2))
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


def _scan_roots_loop(g, lo, hi, brentq):
    """``surfaces._scan_roots`` as a loop over the pairs of grid values."""
    rs = np.geomspace(lo, hi, SCAN_GRID)
    vals = g(rs)
    roots = []
    for i in range(len(rs) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(rs[i]))
        elif opposite(a, b):
            roots.append(brentq(g, rs[i], rs[i + 1], PHOTON_SPHERE_XTOL, 8.9e-16))
    if vals[-1] == 0.0:
        roots.append(float(rs[-1]))
    return roots


def test_scan_roots_matches_the_loop_over_pairs(monkeypatch):
    # roots at grid nodes (exact zeros, the first and last nodes among
    # them), roots in adjacent grid intervals, a NaN stretch that ends at a
    # root, and values whose products under- and overflow: the same
    # brackets, in the same order, and the same root bits
    lo, hi = 2.0, 50.0
    rs = np.geomspace(lo, hi, SCAN_GRID)
    nodes = [rs[0], rs[40], rs[41], rs[-1]]
    mids = [(rs[i] + rs[i + 1]) / 2 for i in (100, 101, 102, 300)]

    def poly(r):
        out = 1.0
        for c in (*nodes, *mids, 30.0, 31.0):
            out = out * (r - c)
        return out

    cases = {
        "poly": poly,
        "nan": lambda r: np.where((r > 29.0) & (r < 30.0), np.nan, poly(r)),
        "tiny": lambda r: 1e-200 * np.sin(r),
        "huge": lambda r: 1e200 * np.sin(r),
    }
    calls = {"array": [], "loop": []}

    def recorder(key):
        def brentq(g, a, b, xtol, rtol):
            calls[key].append((a, b, xtol, rtol))
            return _brentq(g, a, b, xtol, rtol)
        return brentq

    monkeypatch.setattr(surfaces, "_brentq", recorder("array"))
    for name, g in cases.items():
        for log in calls.values():
            log.clear()
        with np.errstate(all="ignore"):
            roots = _scan_roots(g, lo, hi)
            reference = _scan_roots_loop(g, lo, hi, recorder("loop"))
        assert [x.hex() for x in roots] == [x.hex() for x in reference], name
        assert calls["array"] == calls["loop"], name
        if name == "poly":
            assert len(calls["array"]) == len(mids) + 2
            assert set(nodes) <= set(roots) and len(roots) == len(nodes) + len(mids) + 2
        if name == "nan":  # the root 30 at the edge of the NaN stretch is lost
            assert len(roots) == len(nodes) + len(mids) + 1 and 30.0 not in roots
        if name in ("tiny", "huge"):  # products that under- or overflow
            assert [x.hex() for x in roots] == [x.hex() for x in _scan_roots(np.sin, lo, hi)]
            assert len(roots) == 15, name


def test_roots_of_values_near_the_underflow_match_scipy():
    # on 1e-200 sin(r) the extrapolation denominator of Brent's step
    # underflows to 0 in some brackets, where scipy's C code bisects
    g = (lambda r: 1e-200 * np.sin(r))
    brackets = scan_brackets(2.0, 50.0, g)
    assert len(brackets) == 15
    for a, b in brackets:
        assert_same_root(g, a, b, PHOTON_SPHERE_XTOL, 8.9e-16)
        assert _brentq(g, a, b, PHOTON_SPHERE_XTOL, 8.9e-16) == \
            brentq(np.sin, a, b, xtol=PHOTON_SPHERE_XTOL, rtol=8.9e-16)
