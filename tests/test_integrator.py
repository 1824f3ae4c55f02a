"""The Dormand-Prince stepper against scipy's RK45, which it replays.

scipy's solve_ivp(method="RK45", dense_output=True) is the reference: the
same tableau, step controller and event rule, so dense output, step counts
and event locations must agree up to rounding.
"""

import functools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from photonsurf import (
    MetricProfile,
    PhotonSurfaceSpec,
    StepControl,
    StepUnderflowError,
    build_family,
    find_photon_spheres,
    integrate_profile,
    to_isotropic,
)
from photonsurf import ode, spacetime, surfaces
from photonsurf.errors import StepBudgetError
from photonsurf.ode import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7,
    _dense_eval, _dopri5, _rms,
)
from photonsurf.surfaces import ASYMPTOTE_EPS, _sample_grid

from test_spacetime import ISO_FAMILIES

STEP = StepControl()
# the components (r, dr/ds) that the radial right-hand sides read
RADIAL = (1, 2)


def profile_rhs(st, alpha):
    def rhs(r, v):
        fv, dfv = st.metric(r)
        return (alpha * r / fv, v, alpha ** 2 * r - 0.5 * dfv)
    return rhs


def geodesic_rhs(st, energy, ell):
    def rhs(r, v):
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


def joined(rhs, y0, span, events):
    """``_dopri5`` from s = 0 to each nonzero end of span = (lo, hi), joined
    into one ``_Solution``."""
    return ode._join({name: _dopri5(rhs, y0, end, STEP, events, reads=RADIAL)
                      for name, end in zip(("backward", "forward"), span) if end != 0})


@pytest.mark.parametrize("name", sorted(SPACETIMES))
def test_dopri5_matches_scipy_rk45(name):
    st, spheres, runs = cases(name)
    for system, alpha, y0, s_end, reason in runs:
        rhs = profile_rhs(st, alpha) if system == "profile" \
            else geodesic_rhs(st, alpha, 1.0)
        events = radial_events(st, alpha, spheres)
        half = _dopri5(rhs, y0, s_end, STEP, events, reads=RADIAL)

        scipy_events = []
        for g, _ in events:
            def ev(s, y, g=g):
                return g(y)
            ev.terminal = True
            scipy_events.append(ev)
        sol = solve_ivp(lambda s, y: rhs(y[1], y[2]), (0.0, s_end), y0, method="RK45",
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
        _dopri5(lambda y: (y ** 2,), (1.0,), 2.0, STEP, [])
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
    half = _dopri5(rhs, y0, -50.0, STEP, events, reads=RADIAL)
    assert half.reason == "boundary" and half.stats.rejected > 0
    attempted = half.stats.accepted + half.stats.rejected
    monkeypatch.setattr(ode, "_STEP_BUDGET", attempted)
    assert _dopri5(rhs, y0, -50.0, STEP, events, reads=RADIAL).stats == half.stats
    monkeypatch.setattr(ode, "_STEP_BUDGET", attempted - 1)
    with pytest.raises(StepBudgetError) as info:
        _dopri5(rhs, y0, -50.0, STEP, events, reads=RADIAL)
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
    sol = joined(rhs, y0, span, events)
    halves = {name: _dopri5(rhs, y0, end, STEP, events, reads=RADIAL)
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
        return _dopri5(rhs, y0, direction, STEP, events, reads=RADIAL,
                       stop=lambda s, y, steps: "far" if abs(s) > extent else None)

    for direction, extents in ((math.inf, (2.0, 7.5)), (-math.inf, (0.5, 1.5))):
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
    first, second = open_solve(-math.inf, 50.0), open_solve(-math.inf, 500.0)
    assert first.reason == second.reason == "boundary"
    assert first.s_end == second.s_end and first.stats == second.stats


def _reference_step(rhs, y, k1, h, atol, rtol, reads):
    """One step attempt written as comprehensions over zipped components, the
    form that the unrolled kernels of ``ode._kernel`` replace: stages k2-k7,
    y_new and the RMS error norm. It computes the stage inputs of every
    component and hands rhs the components ``reads``."""
    def rates(state):
        return rhs(*[state[i] for i in reads])

    k2 = rates([v + (_A21 * a) * h for v, a in zip(y, k1)])
    k3 = rates([v + (_A31 * a + _A32 * b) * h
                for v, a, b in zip(y, k1, k2)])
    k4 = rates([v + (_A41 * a + _A42 * b + _A43 * c) * h
                for v, a, b, c in zip(y, k1, k2, k3)])
    k5 = rates([v + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = rates([v + (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e) * h
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * p)
             for v, a, c, d, e, p in zip(y, k1, k3, k4, k5, k6)]
    k7 = rates(y_new)
    error_norm = _rms(
        [(_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * p + _E7 * q) * h
         for a, c, d, e, p, q in zip(k1, k3, k4, k5, k6, k7)],
        [atol + max(abs(u), abs(v)) * rtol for u, v in zip(y, y_new)])
    return y_new, k7, (*k1, *k3, *k4, *k5, *k6, *k7), error_norm


def _reference_kernel(n, reads):
    return functools.partial(_reference_step, reads=reads)


def kepler_rhs(x, y, vx, vy):
    """A Kepler orbit in the plane: every component is read."""
    r3 = (x * x + y * y) ** 1.5
    return (vx, vy, -x / r3, -y / r3)


def _kernel_cases():
    """name -> solve() returning the half-lines of one run, for state sizes
    2 (a look-ahead on (r, dr/ds)), 3 (profiles) and 5 (a null geodesic),
    whose right-hand sides read r and dr/ds alone, and 4 (a Kepler orbit of
    eccentricity 0.9, one period from apoapsis), whose right-hand side
    reads every component."""
    st, spheres, runs = cases("schwarzschild-n3")
    alpha, r0 = 0.3, 4.5
    y0 = (0.0, r0, math.sqrt(alpha ** 2 * r0 ** 2 - st.f(r0)))
    rhs, events = profile_rhs(st, alpha), radial_events(st, alpha, spheres)
    # the infalling geodesic, which ends at the boundary after rejected steps
    _, g_alpha, g_y0, g_end, _ = next(run for run in runs
                                      if run[0] == "geodesic" and run[4] == "boundary")

    def lookahead_halves():
        # the look-ahead of a profile half-line falling into the horizon
        halves, solve = [], surfaces._dopri5

        def recording(rhs, y0, *args, **kwargs):
            half = solve(rhs, y0, *args, **kwargs)
            if len(y0) == 2:
                halves.append(half)
            return half

        surfaces._dopri5 = recording
        try:
            integrate_profile(st, PhotonSurfaceSpec(
                0.3568087075647066, 6.856597721117346, sign=-1, span=(-4.0, 4.0)),
                STEP)
        finally:
            surfaces._dopri5 = solve
        return halves

    return {
        "lookahead": lookahead_halves,
        "profile-boundary": lambda: [_dopri5(rhs, y0, -50.0, STEP, events,
                                             reads=RADIAL)],
        "profile-open": lambda: [_dopri5(
            rhs, y0, math.inf, STEP, events, reads=RADIAL,
            stop=lambda s, y, steps: "far" if s > 7.5 else None)],
        "geodesic": lambda: [_dopri5(geodesic_rhs(st, g_alpha, 1.0), g_y0,
                                     g_end, STEP, radial_events(st, g_alpha, spheres),
                                     reads=RADIAL)],
        "kepler": lambda: [_dopri5(kepler_rhs, (1.0, 0.0, 0.0, math.sqrt(0.1)),
                                   2 * math.pi / 1.9 ** 1.5, STEP, [])],
    }


@pytest.mark.parametrize("name, n, reason", [
    ("lookahead", 2, "boundary"), ("profile-boundary", 3, "boundary"),
    ("profile-open", 3, "far"), ("geodesic", 5, "boundary"), ("kepler", 4, "span")])
def test_kernel_matches_reference_stepper_bit_for_bit(monkeypatch, name, n, reason):
    solve = _kernel_cases()[name]
    halves = solve()
    monkeypatch.setattr(ode, "_kernel", _reference_kernel)
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
            _dopri5(lambda y: (y ** 2,), (1.0,), 2.0, STEP, [])
        return str(info.value), info.value.last_state

    kernel = last_state()
    monkeypatch.setattr(ode, "_kernel", _reference_kernel)
    assert kernel == last_state()


def test_kernel_compiled_once_per_state_size(monkeypatch):
    # once per state size and components read: the profile's n = 3 kernel
    # reading (r, dr/ds), and the n = 2 look-ahead reading both components
    monkeypatch.setattr(ode, "_KERNELS", {})
    solve = _kernel_cases()["profile-boundary"]
    solve()
    first = ode._KERNELS[3, RADIAL]
    solve()
    assert ode._KERNELS == {(3, RADIAL): first}
    lookahead = _kernel_cases()["lookahead"]
    lookahead()
    second = ode._KERNELS[2, (0, 1)]
    lookahead()
    assert ode._KERNELS == {(3, RADIAL): first, (2, (0, 1)): second}
    # and none is built on import
    src = os.path.dirname(os.path.dirname(ode.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import photonsurf.cli, photonsurf.ode as o; "
         "print(o._KERNELS)"], env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True).stdout
    assert out.strip() == "{}"


def test_dopri5_float_range_ends_at_last_accepted_step():
    def rhs(y):  # y = s leaves the float range of this rhs past s = 10
        if y > 10:
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


def _invert_cases():
    """name -> (solution, k, rhs): solutions whose component k strictly
    increases in s, with the right-hand side they solve (None: a _linear)."""
    st, spheres, _ = cases("schwarzschild-n3")
    sp = spheres[0]
    alpha, r0 = 1.5 * sp.alpha_star, 1.5 * sp.r_star
    y0 = (0.0, r0, math.sqrt(alpha ** 2 * r0 ** 2 - st.f(r0)))
    rhs, events = profile_rhs(st, alpha), radial_events(st, alpha, spheres)
    out = {name: (joined(rhs, y0, span, events), 0, lambda y: rhs(y[1], y[2]))
           for name, span in (("forward", (0.0, 6.0)), ("backward", (-6.0, 0.0)),
                              ("joined", (-50.0, 6.0)))}
    out["linear"] = (ode._linear((0.5, 3.0, 0.0), (2.0, 0.0, 0.0), (-5.0, 5.0)), 0, None)
    # the isotropic map of Schwarzschild-AdS, u = log(s/C) over x, whose
    # steps out to r = 5e16 have du/dx = 2L/r down to about 4e-16
    (g, *_), sol = quadrature_of_map(ISO_FAMILIES["sads-L10"], 5.0)
    out["isotropic-sads"] = (sol, 1, lambda y: (1.0, float(g(np.array([y[0]]))[0])))
    return out


def _newton_true_slope(sol, k, rhs, target):
    """Reference for ode._inverse on one target: scalar Newton on the same
    step from the same start, with the slope rhs(y)[k] of the solved system
    in place of the interpolant's."""
    T, H, Y, Q = sol.dense
    k_lo, k_hi = sol.end_states()[k]
    s = float(np.interp(target, np.concatenate(([k_lo], Y[:, k], [k_hi])),
                        np.concatenate(([sol.lo], T, [sol.hi]))))
    left = np.minimum(T, T + H)
    j = max(int(np.searchsorted(left, s, "right")) - 1, 0)
    lo = sol.lo if j == 0 else left[j]
    hi = sol.hi if j == len(T) - 1 else left[j + 1]
    for _ in range(80):
        x = (s - T[j]) / H[j]
        poly = 0.0
        for p in (3, 2, 1, 0):
            poly = Q[j, k, p] + x * poly
        value = (Y[j, k] - target) + H[j] * (x * poly)
        y = ode._dense_at(sol.dense, np.array([j]), np.array([s]))[:, 0]
        slope = rhs(y.tolist())[k] if rhs is not None else Q[0, k, 0]
        s_new = min(max(s - value / slope, lo), hi)
        done = abs(s_new - s) <= 1e-15 * max(1.0, abs(s_new))
        s = s_new
        if done:
            break
    return s


@pytest.mark.parametrize("name", ["forward", "backward", "joined", "linear",
                                  "isotropic-sads"])
def test_invert_on_the_step_that_holds_each_target(name):
    sol, k, rhs = _invert_cases()[name]
    assert set(sol.reasons) == ({name} if name in ("forward", "backward")
                                else {"backward", "forward"})
    T, H, Y, Q = sol.dense
    k_lo, k_hi = sol.end_states()[k]
    rng = np.random.default_rng(7)
    targets = np.concatenate((Y[:, k], [k_lo, k_hi], rng.uniform(k_lo, k_hi, 200)))
    s = ode._inverse(sol, k)(targets)
    assert np.all((sol.lo <= s) & (s <= sol.hi))
    # each result lies on a step of the solution, the first and last reaching
    # lo and hi, and is a root of its interpolant to a few ulps: of the
    # values over the step, and of s times the slope
    left, right = np.minimum(T, T + H), np.maximum(T, T + H)
    left[0], right[-1] = min(left[0], sol.lo), max(right[-1], sol.hi)
    size = np.abs(Y[:, k]) + np.abs(H) * np.abs(Q[:, k]).sum(axis=1)
    for x, target, state in zip(s.tolist(), targets.tolist(),
                                _dense_eval(sol.dense, s).T.tolist()):
        steps = np.flatnonzero((left <= x) & (x <= right))
        assert steps.size
        slope = rhs(state)[k] if rhs is not None else Q[0, k, 0]
        tol = 4 * (np.spacing(max(abs(target), *size[steps]))
                   + abs(slope) * np.spacing(abs(x)))
        values = ode._dense_at(sol.dense, steps, np.full(steps.size, x))[k]
        assert np.min(np.abs(values - target)) <= tol
    # the interpolant's own slope finds the root that the system's slope does
    reference = np.array([_newton_true_slope(sol, k, rhs, target)
                          for target in targets.tolist()])
    assert np.all(np.abs(s - reference) <= 2 * np.spacing(np.abs(reference)))


def test_r_of_s_makes_no_metric_call():
    st = build_family("schwarzschild-ads", m=1, L=10)
    calls = []

    def evaluate(r):
        calls.append(np.size(r))
        return st.metric.evaluate(r)

    counted = replace(st, metric=MetricProfile(evaluate))
    iso = to_isotropic(counted, 5.0)
    assert calls  # the map's solve reads the metric
    # from r = 3 out, where s(r) is not ill-conditioned by the horizon
    s = np.geomspace(iso.s_of_r(3.0), iso.s_hi * (1 - 1e-7), 1997)
    calls.clear()
    r = iso.r_of_s(s)
    assert calls == []
    np.testing.assert_allclose(iso.s_of_r(r), s, rtol=1e-13)


# the isotropic maps of the verify-iso workload (ISO_FAMILIES), and two
# whose ends take the most steps
SLOW_ENDS = {
    "minkowski": dict(family="minkowski"),
    "rn-q0.999999": dict(family="reissner-nordstrom", m=1, q=0.999999),
}
ISO_STEP = StepControl(rtol=1e-14, atol=1e-14)


def quadrature_of_map(params, r0):
    """(g, x0, span, step) of the quadrature behind to_isotropic, and its
    solution."""
    calls = []

    def recording(*args):
        calls.append((args, ode._quadrature(*args)))
        return calls[-1][1]

    solve, spacetime._quadrature = spacetime._quadrature, recording
    try:
        to_isotropic(build_family(**params), r0)
    finally:
        spacetime._quadrature = solve
    (call,) = calls
    return call


@pytest.mark.parametrize("degree", [3, 4])
def test_quadrature_integrates_polynomials_exactly(degree):
    # the fifth-order weights integrate a g of degree <= 4 exactly over each
    # step, so the nodes carry only the rounding of the sums; the
    # interpolant, of degree 4 in x, is exact inside the steps for degree <= 3
    coeffs = np.array([1.0, 2.0, -3.0, 0.5, 0.25][:degree + 1])

    def g(x):
        return np.polyval(coeffs[::-1], x)

    def u(x):  # the antiderivative that vanishes at 0
        return x * np.polyval((coeffs / np.arange(1, degree + 2))[::-1], x)

    x0, span = 0.3, (-1.2, 2.5)
    sol = ode._quadrature(g, x0, span, ISO_STEP)
    assert set(sol.reasons) == {"backward", "forward"}
    assert (sol.lo, sol.hi) == span
    T, H, Y, Q = sol.dense
    ulp = np.spacing(np.abs(u(x0 + np.linspace(*span, 1001)) - u(x0)).max())
    np.testing.assert_array_equal(Y[:, 0], x0 + T)
    assert np.abs(Y[:, 1] - (u(Y[:, 0]) - u(x0))).max() <= 8 * ulp
    assert np.abs(sol.end_states()[1] - (u(x0 + np.array(span)) - u(x0))).max() \
        <= 8 * ulp
    if degree <= 3:
        xs = np.linspace(*span, 1001)
        inside = ode._dense_eval(sol.dense, xs)[1]
        assert np.abs(inside - (u(x0 + xs) - u(x0))).max() <= 16 * ulp


@pytest.mark.parametrize("name", sorted(ISO_FAMILIES) + sorted(SLOW_ENDS))
def test_quadrature_steps_meet_the_tolerance(name):
    # the error norm of every step of a map, recomputed here from g at its
    # stage points, is below 1; the stats count its steps
    (g, x0, span, step), sol = quadrature_of_map(
        {**ISO_FAMILIES, **SLOW_ENDS}[name], 5.0)
    T, H, Y, Q = sol.dense
    k1, k3, k4, k5, k6 = (g(Y[:, 0] + c * H) for c in (0.0, 0.3, 0.8, 8 / 9, 1.0))
    u_new = Y[:, 1] + H * (ode._B1 * k1 + ode._B3 * k3 + ode._B4 * k4
                           + ode._B5 * k5 + ode._B6 * k6)
    err = (ode._E1 * k1 + ode._E3 * k3 + ode._E4 * k4 + ode._E5 * k5
           + (ode._E6 + ode._E7) * k6) * H
    scale = step.atol + step.rtol * np.maximum(np.abs(Y[:, 1]), np.abs(u_new))
    assert np.max(np.abs(err) / scale / math.sqrt(2)) < 1
    assert sum(h.accepted for h in sol.stats.values()) == len(T)
    assert all(h.rhs_evals > 4 * h.accepted for h in sol.stats.values())


@pytest.mark.parametrize("r0", [3.0, 5.0, 8.0])
@pytest.mark.parametrize("name", sorted(ISO_FAMILIES))
def test_quadrature_matches_the_dopri5_map(name, r0):
    # the same u' = g(x) stepped by _dopri5, one scalar g call per stage, as
    # the map was solved before the quadrature: u, the log of s, agrees to
    # 2e-12 on 20,001 points (measured: at most 1.03e-12, Schwarzschild
    # n = 5 at r0 = 3), and each half-line takes at most 10 % or one step
    # more or fewer
    (g, x0, span, step), sol = quadrature_of_map(ISO_FAMILIES[name], r0)
    ref = ode._join({half: _dopri5(lambda x: (1.0, float(g(np.array([x]))[0])),
                                   (x0, 0.0), end, step, [], reads=(0,))
                     for half, end in zip(("backward", "forward"), span)})
    assert (sol.lo, sol.hi) == (ref.lo, ref.hi)
    x = np.linspace(*span, 20001)
    gap = np.abs(_dense_eval(sol.dense, x)[1] - _dense_eval(ref.dense, x)[1])
    assert gap.max() <= 2e-12
    for half, stats in sol.stats.items():
        steps = ref.stats[half].accepted
        assert abs(stats.accepted - steps) <= max(1, 0.1 * steps), half


@pytest.mark.parametrize("r0", [3.0, 4.5, 6.0, 8.0])
def test_quadrature_reads_rounding_as_no_error(r0):
    # Schwarzschild n = 3 has du/dx = 2 exactly, so the preliminary errors
    # are rounding, amplified next to the horizon where f loses digits: read
    # as truncation they crowd the steps there and the map loses accuracy.
    # The map takes _dopri5's 5 + 7 steps or fewer and meets the closed form
    # to 5e-14 (measured: at most 2.8e-14 with r0 from 3 to 8)
    st = build_family("schwarzschild", n=3, m=1)
    iso = to_isotropic(st, r0)
    assert all(h.accepted <= 7 and h.rejected == 0 for h in iso.solve_stats.values())
    r = np.geomspace(st.r_lo * (1 + 1e-10), 1e14, 2000)
    np.testing.assert_allclose(iso.s_of_r(r), (np.sqrt(r) + np.sqrt(r - 2)) ** 2 / 4,
                               rtol=5e-14, atol=0)


def test_quadrature_of_a_non_finite_g_fails_as_dopri5_does():
    # a g that turns NaN past x = 1, and one with a pole at x = 1: the
    # stepper rejects its steps there down to the underflow test, and the
    # quadrature raises the same error rather than return NaN
    cases = {"nan": lambda x: np.where(x < 1.0, 1.0 + x, np.nan),
             "pole": lambda x: 1.0 / (1.0 - x)}
    for name, g in cases.items():
        with np.errstate(all="ignore"), pytest.raises(StepUnderflowError):
            _dopri5(lambda x: (1.0, float(g(np.array([x]))[0])), (0.0, 0.0),
                    2.0, ISO_STEP, [], reads=(0,))
        with pytest.raises(StepUnderflowError):
            ode._quadrature(g, 0.0, (-0.5, 2.0), ISO_STEP)
    # NaN at the start, where the stepper's steps turn NaN until its budget
    # is spent, and an infinite end, where its first step overflows
    for g, x0, span in ((cases["nan"], 1.5, (-0.5, 2.0)),
                        (lambda x: 1.0 + x, 0.0, (-0.5, math.inf))):
        with pytest.raises(StepUnderflowError):
            ode._quadrature(g, x0, span, ISO_STEP)
    # so a map whose cap r_top = 1e16 r0 leaves the float range fails as before
    with pytest.raises(StepUnderflowError, match="left the float range at s = 0"):
        to_isotropic(build_family("schwarzschild", n=3, m=1), 1e300)


@pytest.mark.parametrize("name", sorted(ISO_FAMILIES) + sorted(SLOW_ENDS))
def test_isotropic_map_emits_no_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r0 in (3.0, 5.0, 8.0):
            to_isotropic(build_family(**{**ISO_FAMILIES, **SLOW_ENDS}[name]), r0)


def test_replay_does_not_grow_right_after_a_rejection():
    # modelled norms rate * h^5 with rate 0 except on [0.7, 0.8): the first
    # step, over the whole length, is rejected and shrinks by _MIN_FACTOR to
    # 0.2, where the norm is 0. RK45 and _dopri5 accept it without growth,
    # so the next step is 0.2 again, and it is accepted too
    rate = [0.0] * 10
    rate[7] = 1e5
    nodes = ode._replay(rate, 1.0, 1.0)
    assert nodes[:3].tolist() == [0.0, 0.2, 0.4]
    assert nodes[-1] == 1.0


@pytest.mark.parametrize("field, value", [
    ("sample_spacing", -0.01), ("sample_spacing", 0.0), ("sample_spacing", math.nan),
    ("sample_spacing", math.inf), ("rtol", 0.0), ("atol", 0.0), ("rtol", math.nan),
    ("rtol", math.inf), ("atol", -1e-13)])
def test_step_control_fields_must_be_finite_and_positive(field, value):
    # these gave an empty curve (negative spacing), a numpy ValueError (NaN
    # or inf spacing) or a spent step budget (rtol NaN or inf), and rtol =
    # atol = 0 a bare ZeroDivisionError; the CLI's spacing was already finite
    with pytest.raises(ValueError, match=f"{field} = .* is not a finite positive number"):
        StepControl(**{field: value})


def test_dopri5_overflow_in_the_first_step_attempt():
    # y' = 10^(1e7 y) from y = 0: the initial step selection reads it at
    # y = 0 and 1e-6, then the fourth stage of the first attempt overflows
    with pytest.raises(StepUnderflowError, match="left the float range at s = 0, "
                       "before the first accepted step") as info:
        _dopri5(lambda y: (10.0 ** (1e7 * y),), (0.0,), 1.0, STEP, [])
    assert info.value.last_state == (0.0, (0.0,))
