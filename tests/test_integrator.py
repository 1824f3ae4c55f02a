"""The Dormand-Prince stepper against scipy's RK45, which it replays.

scipy's solve_ivp(method="RK45", dense_output=True) is the reference: the
same tableau, step controller and event rule, so dense output, step counts
and event locations must agree up to rounding.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from photonsurf import (
    StepControl,
    StepUnderflowError,
    build_family,
    find_photon_spheres,
    to_isotropic,
)
from photonsurf import ode
from photonsurf.errors import StepBudgetError
from photonsurf.ode import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7,
    _dense_eval, _dopri5, _rms, _solve,
)
from photonsurf.surfaces import ASYMPTOTE_EPS, _sample_grid

STEP = StepControl()


def profile_rhs(st, alpha):
    def rhs(y):
        fv, dfv = st.metric(y[1])
        return (alpha * y[1] / fv, y[2], alpha ** 2 * y[1] - 0.5 * dfv)
    return rhs


def geodesic_rhs(st, energy, ell):
    def rhs(y):
        r, v = y[1], y[2]
        fv, dfv = st.metric(r)
        return (energy / fv, v, (ell ** 2 / r ** 3) * (fv - 0.5 * r * dfv),
                ell / r ** 2, ell / r)
    return rhs


def radial_events(st, alpha, spheres):
    events = [(lambda y: y[1] - st.r_lo * (1 + 1e-9), "boundary")]
    for sp in spheres:
        if alpha == sp.alpha_star:
            events.append((lambda y, rs=sp.r_star: (y[1] - rs) ** 2 + y[2] ** 2
                           - ASYMPTOTE_EPS ** 2, "asymptotic-to-photon-sphere"))
    return events


SPACETIMES = {
    "schwarzschild-n3": dict(family="schwarzschild", n=3, m=1),
    "schwarzschild-n5": dict(family="schwarzschild", n=5, m=1),
    "rn-q0.6": dict(family="reissner-nordstrom", m=1, q=0.6),
    "minkowski": dict(family="minkowski"),
}


def cases(name):
    """(system, alpha, y0, s_end, expected termination) runs for one spacetime."""
    st = build_family(**SPACETIMES[name])
    spheres = find_photon_spheres(st)
    if not spheres:  # Minkowski: hyperboloid from its waist, both directions
        alpha = 0.5
        y0 = (0.0, 1 / alpha, 0.0)
        return st, spheres, [("profile", alpha, y0, 6.0, "span"),
                             ("profile", alpha, y0, -6.0, "span"),
                             ("geodesic", alpha, (0.0, 2.0, 0.0, 0.0, 0.0), 8.0,
                              "span")]
    sp = spheres[0]
    runs = []
    for alpha, r0, sign, s_end, reason in (
            (1.5 * sp.alpha_star, 1.5 * sp.r_star, 1, 6.0, "span"),
            (1.5 * sp.alpha_star, 1.5 * sp.r_star, -1, 50.0, "boundary"),
            (sp.alpha_star, 0.5 * (st.r_lo + sp.r_star), 1, 200.0,
             "asymptotic-to-photon-sphere")):
        fv = st.f(r0)
        v0 = sign * math.sqrt(alpha ** 2 * r0 ** 2 - fv)
        runs.append(("profile", alpha, (0.0, r0, v0), s_end, reason))
        # the geodesic with E/ell = alpha through the same radius, ell = 1
        vg = sign * math.sqrt(alpha ** 2 - fv / r0 ** 2)
        runs.append(("geodesic", alpha, (0.0, r0, vg, 0.0, 0.0), s_end * r0,
                     reason))
    return st, spheres, runs


@pytest.mark.parametrize("name", sorted(SPACETIMES))
def test_dopri5_matches_scipy_rk45(name):
    st, spheres, runs = cases(name)
    for system, alpha, y0, s_end, reason in runs:
        rhs = profile_rhs(st, alpha) if system == "profile" \
            else geodesic_rhs(st, alpha, 1.0)
        events = radial_events(st, alpha, spheres)
        half = _dopri5(rhs, y0, s_end, STEP, events)

        scipy_events = []
        for g, _ in events:
            def ev(s, y, g=g):
                return g(y)
            ev.terminal = True
            scipy_events.append(ev)
        sol = solve_ivp(lambda s, y: rhs(y), (0.0, s_end), y0, method="RK45",
                        dense_output=True, rtol=STEP.rtol, atol=STEP.atol,
                        events=scipy_events)
        label = f"{name} {system} alpha={alpha:.6g} s_end={s_end}"
        assert half.reason == reason, label

        s = np.linspace(0.0, half.s_end, 2001)
        r_new = _dense_eval(half.dense, s)[1]
        assert np.max(np.abs(r_new - sol.sol(s)[1])) <= 1e-10, label

        # Near a horizon tdot = alpha r / f diverges and the accept/reject
        # decisions there follow rounding, so infalling runs get 5 %.
        work_tol = 0.05 if reason == "boundary" else 0.02
        steps = len(sol.t) - 1
        assert abs(half.stats.accepted - steps) <= work_tol * steps, label
        assert abs(half.stats.rhs_evals - sol.nfev) <= work_tol * sol.nfev, label
        assert half.stats.rhs_evals == 2 + 6 * (half.stats.accepted
                                                + half.stats.rejected), label
        if reason == "boundary":
            assert half.stats.rejected > 0, label

        y_end = _dense_eval(half.dense, np.array([half.s_end]))[:, 0]
        assert np.max(np.abs(y_end[1:3] - sol.y[1:3, -1])) <= 1e-9, label
        if reason == "asymptotic-to-photon-sphere":
            # the orbit creeps onto the sphere at a speed ~ ASYMPTOTE_EPS, so
            # a 1e-12 difference in r moves the crossing by up to ~1e-5 in s
            assert abs(half.s_end - sol.t[-1]) <= 1e-4, label
        else:
            assert abs(half.s_end - sol.t[-1]) <= 1e-9, label


def test_dopri5_zero_rhs_initial_step_matches_scipy_rk45():
    # y' = 0: both derivative norms of the initial step selection vanish,
    # so the first step is max(1e-6, 1e-3 h0); every step then grows by the
    # controller's maximum factor 10 until the last one is clipped at s = 5
    half = _dopri5(lambda y: (0.0,), (0.0,), 5.0, STEP, [])
    sol = solve_ivp(lambda s, y: [0.0], (0.0, 5.0), [0.0], method="RK45",
                    rtol=STEP.rtol, atol=STEP.atol)
    nodes = np.append(half.dense[0], half.s_end)
    np.testing.assert_array_equal(nodes, sol.t)
    assert half.stats.accepted == len(sol.t) - 1 == 8
    assert half.stats.rhs_evals == sol.nfev
    assert half.reason == "span"


def test_dopri5_blowup_raises_step_underflow():
    # y' = y^2, y(0) = 1 blows up at s = 1
    with pytest.raises(StepUnderflowError) as info:
        _dopri5(lambda y: (y[0] ** 2,), (1.0,), 2.0, STEP, [])
    s_last, y_last = info.value.last_state
    assert 0.999 < s_last < 1.0
    assert y_last[0] > 1e6


def test_dopri5_step_budget(monkeypatch):
    # an ordinary solve, with rejected steps, passes with a budget of exactly
    # the steps it attempts, and raises, carrying its last state, with one
    # fewer
    st, spheres, _ = cases("schwarzschild-n3")
    alpha, r0 = 0.3, 4.5
    y0 = (0.0, r0, math.sqrt(alpha ** 2 * r0 ** 2 - st.f(r0)))
    rhs, events = profile_rhs(st, alpha), radial_events(st, alpha, spheres)
    half = _dopri5(rhs, y0, -50.0, STEP, events)
    assert half.reason == "boundary" and half.stats.rejected > 0
    attempted = half.stats.accepted + half.stats.rejected
    monkeypatch.setattr(ode, "_STEP_BUDGET", attempted)
    assert _dopri5(rhs, y0, -50.0, STEP, events).stats == half.stats
    monkeypatch.setattr(ode, "_STEP_BUDGET", attempted - 1)
    with pytest.raises(StepBudgetError) as info:
        _dopri5(rhs, y0, -50.0, STEP, events)
    s_last, y_last = info.value.last_state
    assert half.s_end < s_last < 0
    assert st.r_lo < y_last[1] < r0


@pytest.mark.parametrize("span", [(-50.0, 6.0), (0.0, 6.0), (-6.0, 0.0)])
def test_solve_matches_each_half_line(span):
    # the joined dense output picks each point's step as one half-line would:
    # a step boundary goes to the step nearer s = 0, s = 0 to the forward
    # half-line when there is one
    st, spheres, _ = cases("schwarzschild-n3")
    sp = spheres[0]
    alpha, r0 = 1.5 * sp.alpha_star, 1.5 * sp.r_star
    y0 = (0.0, r0, math.sqrt(alpha ** 2 * r0 ** 2 - st.f(r0)))
    rhs, events = profile_rhs(st, alpha), radial_events(st, alpha, spheres)
    sol = _solve(rhs, y0, span, STEP, events)
    halves = {name: _dopri5(rhs, y0, end, STEP, events)
              for name, end in (("backward", span[0]), ("forward", span[1]))
              if end != 0}
    assert (sol.lo, sol.hi) == (halves["backward"].s_end if span[0] else 0.0,
                                halves["forward"].s_end if span[1] else 0.0)
    assert sol.reasons == {name: h.reason for name, h in halves.items()}
    assert sol.stats == {name: h.stats for name, h in halves.items()}
    if span[0]:
        assert sol.reasons["backward"] == "boundary"

    grid = _sample_grid((sol.lo, sol.hi), STEP.sample_spacing)
    for name, half in halves.items():
        nodes = np.append(half.dense[0], half.s_end)
        for s in (nodes, np.array([0.0]), grid):
            if len(halves) == 2:
                s = s[s < 0] if name == "backward" else s[s >= 0]
            np.testing.assert_array_equal(_dense_eval(sol.dense, s),
                                          _dense_eval(half.dense, s))


def test_open_solve_extends_shorter_one_bit_for_bit():
    # with a stop rule no step is clipped and the initial step ignores the
    # extent, so the steps of a solve that stops earlier are a prefix of
    # those of one that stops later; an event ends both at the same point
    st, spheres, _ = cases("schwarzschild-n3")
    alpha, r0 = 0.3, 4.5
    y0 = (0.0, r0, math.sqrt(alpha ** 2 * r0 ** 2 - st.f(r0)))
    rhs, events = profile_rhs(st, alpha), radial_events(st, alpha, spheres)

    def open_solve(direction, extent):
        return _dopri5(rhs, y0, direction, STEP, events,
                       stop=lambda s, y: "far" if abs(s) > extent else None)

    for direction, extents in ((1.0, (2.0, 7.5)), (-1.0, (0.5, 1.5))):
        short, long_ = (open_solve(direction, e) for e in extents)
        assert short.reason == long_.reason == "far"
        assert extents[0] < abs(short.s_end) < extents[1] < abs(long_.s_end)
        n = short.stats.accepted
        assert 0 < n < long_.stats.accepted
        rows = slice(None, n) if direction > 0 else slice(-n, None)
        for a, b in zip(short.dense, long_.dense):
            np.testing.assert_array_equal(a, b[rows])
        # the step that ends the short solve is a node of the long one
        assert short.s_end in long_.dense[0]
    # inward, a solve runs into the horizon whatever its extent
    first, second = open_solve(-1.0, 50.0), open_solve(-1.0, 500.0)
    assert first.reason == second.reason == "boundary"
    assert first.s_end == second.s_end and first.stats == second.stats


def _reference_step(rhs, y, k1, h, atol, rtol):
    """One step attempt written as comprehensions over zipped components, the
    form that the unrolled kernels of ``ode._kernel`` replace: stages k2-k7,
    y_new and the RMS error norm."""
    k2 = rhs([v + (_A21 * a) * h for v, a in zip(y, k1)])
    k3 = rhs([v + (_A31 * a + _A32 * b) * h
              for v, a, b in zip(y, k1, k2)])
    k4 = rhs([v + (_A41 * a + _A42 * b + _A43 * c) * h
              for v, a, b, c in zip(y, k1, k2, k3)])
    k5 = rhs([v + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h
              for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = rhs([v + (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e) * h
              for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * p)
             for v, a, c, d, e, p in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(y_new)
    error_norm = _rms(
        [(_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * p + _E7 * q) * h
         for a, c, d, e, p, q in zip(k1, k3, k4, k5, k6, k7)],
        [atol + max(abs(u), abs(v)) * rtol for u, v in zip(y, y_new)])
    return y_new, k7, (*k1, *k3, *k4, *k5, *k6, *k7), error_norm


def _kernel_cases():
    """name -> solve() returning the half-lines of one run, for state sizes
    2 (the isotropic map), 3 (profiles) and 5 (a null geodesic)."""
    st, spheres, runs = cases("schwarzschild-n3")
    alpha, r0 = 0.3, 4.5
    y0 = (0.0, r0, math.sqrt(alpha ** 2 * r0 ** 2 - st.f(r0)))
    rhs, events = profile_rhs(st, alpha), radial_events(st, alpha, spheres)
    # the infalling geodesic, which ends at the boundary after rejected steps
    _, g_alpha, g_y0, g_end, _ = next(run for run in runs
                                      if run[0] == "geodesic" and run[4] == "boundary")

    def isotropic_halves():
        halves, solve = [], ode._dopri5

        def recording(*args, **kwargs):
            halves.append(solve(*args, **kwargs))
            return halves[-1]

        ode._dopri5 = recording
        try:
            to_isotropic(build_family("reissner-nordstrom", m=1, q=0.6), 4.0)
        finally:
            ode._dopri5 = solve
        return halves

    return {
        "isotropic-rn": isotropic_halves,
        "profile-boundary": lambda: [_dopri5(rhs, y0, -50.0, STEP, events)],
        "profile-open": lambda: [_dopri5(
            rhs, y0, 1.0, STEP, events,
            stop=lambda s, y: "far" if s > 7.5 else None)],
        "geodesic": lambda: [_dopri5(geodesic_rhs(st, g_alpha, 1.0), g_y0,
                                     g_end, STEP, radial_events(st, g_alpha, spheres))],
    }


@pytest.mark.parametrize("name, n, reason", [
    ("isotropic-rn", 2, "span"), ("profile-boundary", 3, "boundary"),
    ("profile-open", 3, "far"), ("geodesic", 5, "boundary")])
def test_kernel_matches_reference_stepper_bit_for_bit(monkeypatch, name, n, reason):
    solve = _kernel_cases()[name]
    halves = solve()
    monkeypatch.setattr(ode, "_kernel", lambda size: _reference_step)
    reference = solve()
    assert len(halves) == len(reference) >= 1
    for half, ref in zip(halves, reference):
        assert half.dense[2].shape[1] == n
        assert half.reason == ref.reason == reason
        assert half.stats == ref.stats
        assert half.s_end.hex() == ref.s_end.hex()
        for a, b in zip(half.dense, ref.dense):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    if name == "profile-boundary":
        assert halves[0].stats.rejected > 0


def test_kernel_matches_reference_stepper_on_blowup(monkeypatch):
    # n = 1: both step forms underflow at the same point of y' = y^2
    def last_state():
        with pytest.raises(StepUnderflowError) as info:
            _dopri5(lambda y: (y[0] ** 2,), (1.0,), 2.0, STEP, [])
        return str(info.value), info.value.last_state

    kernel = last_state()
    monkeypatch.setattr(ode, "_kernel", lambda size: _reference_step)
    assert kernel == last_state()


def test_kernel_compiled_once_per_state_size(monkeypatch):
    monkeypatch.setattr(ode, "_KERNELS", {})
    solve = _kernel_cases()["profile-boundary"]
    solve()
    first = ode._KERNELS[3]
    solve()
    assert ode._KERNELS == {3: first}
    # and none is built on import
    src = os.path.dirname(os.path.dirname(ode.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import photonsurf.cli, photonsurf.ode as o; "
         "print(o._KERNELS)"], env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True).stdout
    assert out.strip() == "{}"


def test_dopri5_float_range_ends_at_last_accepted_step():
    def rhs(y):  # y = s leaves the float range of this rhs past s = 10
        if y[0] > 10:
            raise OverflowError("math range error")
        return (1.0,)

    half = _dopri5(rhs, (0.0,), 100.0, STEP, [])
    assert half.reason == "float-range"
    assert half.stats.accepted > 0
    # the attempt that overflowed is not counted
    assert half.stats.rhs_evals == 2 + 6 * (half.stats.accepted
                                            + half.stats.rejected)
    assert 0 < half.s_end <= 10
    T, H, _, _ = half.dense
    assert half.s_end == pytest.approx(T[-1] + H[-1], rel=1e-15)
    assert _dense_eval(half.dense, np.array([half.s_end]))[0, 0] == \
        pytest.approx(half.s_end, rel=1e-12)
    # before the first accepted step it is an underflow of the solve
    with pytest.raises(StepUnderflowError) as info:
        _dopri5(rhs, (11.0,), 100.0, STEP, [])
    assert info.value.last_state == (0.0, (11.0,))
