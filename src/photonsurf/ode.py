"""Plain-float Dormand-Prince 5(4) stepper shared by the radial integrators
and the isotropic coordinate map.

``_dopri5`` solves an autonomous system from 0 to an end point and returns
its dense output as arrays; ``_solve`` joins the two half-lines of a span
into one such output and ``_linear`` builds one of constant rates.
``_dense_eval`` samples it and ``_invert`` solves for the points where one
monotone component takes given values, by the batched Newton iteration
``_newton``. ``_brentq``, Brent's bracketed root finder, locates stop
events and serves the root scans elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StepBudgetError, StepUnderflowError

@dataclass(frozen=True)
class StepControl:
    """Adaptive step control and output sampling for the integrators."""

    rtol: float = 1e-12
    atol: float = 1e-13
    sample_spacing: float = 1e-2


@dataclass(frozen=True)
class SolveStats:
    """Work of one adaptive half-line solve: steps and right-hand side calls."""

    accepted: int
    rejected: int
    rhs_evals: int



# Dormand-Prince 5(4) tableau with the continuous extension of scipy's RK45
# (Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6).
# Stage 2 enters only stages 3-6: B, E and _P skip it.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([  # rows: stages 1, 3, 4, 5, 6, 7
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
# step controller of scipy's RK45
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10.0, -1 / 5
_EVENT_TOL = 4 * np.finfo(float).eps
# iterations of _brentq, as scipy's brentq default
_BRENT_MAXITER = 100
# attempted steps (accepted and rejected) allowed on one half-line; the
# largest legitimate solves on record take about 30k
_STEP_BUDGET = 100_000


class _HalfLine(NamedTuple):
    """One solve from s = 0 to s_end: dense output (T, H, Y, Q) per step,
    stored in ascending s. Each step starts at T, its end nearer s = 0."""

    dense: tuple
    s_end: float
    reason: str
    stats: SolveStats


class _Solution(NamedTuple):
    """Both half-lines of one solve over (lo, hi) around s = 0: one dense
    output in ascending s, and the stop reason and work of each half-line,
    keyed "backward"/"forward"."""

    dense: tuple
    lo: float
    hi: float
    reasons: dict
    stats: dict

    def end_states(self):
        """States (n, 2) at lo and hi."""
        return _dense_eval(self.dense, np.array([self.lo, self.hi]))


def _dense_arrays(ts, hs, ys, ks):
    """(T, H, Y, Q): step starts, signed steps, start states, interpolant
    coefficients Q[i, component, power - 1]. ``ks`` holds each step's stages
    1, 3, 4, 5, 6 and 7, concatenated."""
    K = np.array(ks).reshape(len(ks), 6, -1)
    # explicit sums in a fixed order keep every step's bits independent of
    # the number of steps
    Q = K[:, 0, :, None] * _P[0]
    for i in range(1, 6):
        Q = Q + K[:, i, :, None] * _P[i]
    return np.array(ts), np.array(hs), np.array(ys), Q


def _dense_eval(dense, s):
    """States (n, *s.shape) of a dense output at the points s.

    A point on a step boundary is taken from the step nearer s = 0, as
    scipy's OdeSolution does on each half-line, and s = 0 from the forward
    half-line when there is one. Points past an end extrapolate its step.
    """
    T, H, Y, Q = dense
    s = np.asarray(s, dtype=float)
    k = np.count_nonzero(H < 0)  # backward steps come first
    fwd = ((s >= 0) | (k == 0)) & (k < len(T))
    i = np.where(fwd, np.maximum(np.searchsorted(T, s) - 1, k),
                 np.minimum(np.searchsorted(T, s, "right"), k - 1))
    x = ((s - T[i]) / H[i])[..., None]
    # Horner's rule, one gathered coefficient at a time: gathering Q[i]
    # whole would hold an (n_points, n, 4) array on long grids
    poly = Q[:, :, 3][i]
    for j in (2, 1, 0):
        poly = Q[:, :, j][i] + x * poly
    return np.moveaxis(Y[i] + H[i][..., None] * (x * poly), -1, 0)


def _rms(xs, scale):
    return math.sqrt(sum((x / sc) ** 2 for x, sc in zip(xs, scale))) / len(xs) ** 0.5


def _dopri5(rhs, y0, s_end, step, events, stop=None):
    """Adaptive Dormand-Prince 5(4) solve of y' = rhs(y) from s = 0 to s_end.

    Replays scipy's RK45 on Python floats: the same initial step selection,
    step controller and 10-ulp underflow test. ``events`` are (g(y), tag)
    pairs; the solve stops at the first root of any g bracketed by a sign
    change between accepted steps, located by ``_brentq`` on the dense
    output. Raises ``StepUnderflowError`` when the step underflows and
    ``StepBudgetError`` after ``_STEP_BUDGET`` attempted steps.

    With a ``stop`` rule the solve is open-ended: s_end gives only the
    direction, and the solve ends after the first accepted step at whose end
    stop(s, y) returns a reason rather than None. No step is clipped and the
    initial step ignores the extent, so a solve whose rule stops later
    extends one that stops earlier bit for bit.
    """
    rtol, atol = step.rtol, step.atol
    direction = 1.0 if s_end > 0 else -1.0
    if stop is not None:
        s_end = direction * math.inf
    length = abs(s_end)
    t, y = 0.0, [float(v) for v in y0]
    f = rhs(y)

    # initial step (Hairer, Norsett & Wanner II.4; scipy select_initial_step)
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    f1 = rhs([v + h0 * direction * fv for v, fv in zip(y, f)])
    d2 = _rms([a - b for a, b in zip(f1, f)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, length)

    nfev, rejected = 2, 0
    g = [ev(y) for ev, _ in events]
    ts, hs, ys, ks = [], [], [], []
    reason = "span"
    while direction * (t - s_end) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if len(ts) + rejected >= _STEP_BUDGET:
                raise StepBudgetError(
                    f"step budget of {_STEP_BUDGET} attempted steps spent at "
                    f"s = {t:.6g} before the end of the span",
                    last_state=(t, tuple(y)))
            if h_abs < min_step:
                raise StepUnderflowError(
                    f"step-size underflow at s = {t:.6g}: required step size "
                    "is less than spacing between numbers",
                    last_state=(t, tuple(y)))
            t_new = t + h_abs * direction
            if direction * (t_new - s_end) > 0:
                t_new = s_end
            h = t_new - t
            h_abs = abs(h)
            k1 = f
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
            nfev += 6
            error_norm = _rms(
                [(_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * p + _E7 * q) * h
                 for a, c, d, e, p, q in zip(k1, k3, k4, k5, k6, k7)],
                [atol + max(abs(u), abs(v)) * rtol for u, v in zip(y, y_new)])
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else \
                    min(_MAX_FACTOR, _SAFETY * error_norm ** _ERR_EXP)
                if step_rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERR_EXP)
            step_rejected = True
            rejected += 1

        ts.append(t)
        hs.append(h)
        ys.append(y)
        ks.append((*k1, *k3, *k4, *k5, *k6, *k7))
        t_old, t, y, f = t, t_new, y_new, k7
        if events:
            g_new = [ev(y) for ev, _ in events]
            active = [i for i, (a, b) in enumerate(zip(g, g_new))
                      if (a <= 0 <= b) or (b <= 0 <= a)]
            if active:
                last = _dense_arrays(ts[-1:], hs[-1:], ys[-1:], ks[-1:])
                hits = []
                for i in active:
                    ev = events[i][0]
                    hits.append((_brentq(
                        lambda s: ev(_dense_eval(last, np.array([s]))[:, 0]),
                        t_old, t, _EVENT_TOL, _EVENT_TOL), i))
                t, i = min(hits, key=lambda hit: direction * hit[0])
                reason = events[i][1]
                break
            g = g_new
        if stop is not None:
            reason = stop(t, y)
            if reason is not None:
                break

    stats = SolveStats(accepted=len(ts), rejected=rejected, rhs_evals=nfev)
    order = slice(None, None, 1 if direction > 0 else -1)
    return _HalfLine(_dense_arrays(ts[order], hs[order], ys[order], ks[order]),
                     t, reason, stats)


def _brentq(f, a, b, xtol, rtol):
    """Root of f in the bracket [a, b] by Brent's method (R. P. Brent,
    Algorithms for Minimization Without Derivatives, 1973, ch. 4).

    The iteration of scipy's C ``brentq`` on Python floats, so it returns
    the same bits: the same bracket bookkeeping, interpolation or
    extrapolation step taken only when it is short, and stop once the
    bracket half-width or the step is below delta = (xtol + rtol |x|) / 2.
    Raises ValueError when
    f(a) and f(b) have the same sign or f returns NaN, and RuntimeError
    after ``_BRENT_MAXITER`` iterations.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x = {x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    # xcur is the best estimate, xblk the other end of the bracket and xpre
    # the previous estimate; spre and scur are the last two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(
        f"failed to converge after {_BRENT_MAXITER} iterations, value is {xcur!r}")


def _solve(rhs, y0, span, step, events, stops=(None, None)):
    """``_dopri5`` from s = 0 to each nonzero end of span = (lo, hi), joined
    into one ``_Solution``; ``stops`` are the backward and forward stop rules
    of an open-ended solve, whose span ends give only the directions."""
    halves = {name: _dopri5(rhs, y0, end, step, events, stop)
              for name, end, stop in zip(("backward", "forward"), span, stops)
              if end != 0}
    dense = tuple(map(np.concatenate, zip(*(h.dense for h in halves.values()))))
    lo, hi = (halves[name].s_end if name in halves else 0.0
              for name in ("backward", "forward"))
    return _Solution(dense, lo, hi, {name: h.reason for name, h in halves.items()},
                     {name: h.stats for name, h in halves.items()})


def _linear(y0, rates, span):
    """y0 + s rates over span = (lo, hi), exact to the bit under
    ``_dense_eval``: one unit step from s = 0 with Q[:, :, 0] = rates. It
    holds data on a photon sphere: no work, "photon-sphere-snap" as reason."""
    Q = np.zeros((1, len(y0), 4))
    Q[0, :, 0] = rates
    dense = (np.zeros(1), np.ones(1), np.array([y0], dtype=float), Q)
    ends = {"backward": span[0], "forward": span[1]}
    return _Solution(dense, span[0], span[1], {
        name: "photon-sphere-snap" for name, end in ends.items() if end != 0}, {})


def _newton(fn, targets, x0, lo, hi):
    """Points x in [lo, hi] where fn(x)[0] = targets, by Newton's method
    from x0.

    ``fn`` maps an array x to the arrays (value, derivative). Each point
    stops once its own step is at most 1e-15 max(1, |x|), so its result
    does not depend on the other points of the batch.
    """
    shape = np.shape(targets)
    goal, x = np.ravel(targets), np.array(x0, dtype=float).ravel()
    active = np.arange(x.size)
    for _ in range(80):
        value, slope = fn(x[active])
        x_new = np.clip(x[active] - (value - goal[active]) / slope, lo, hi)
        moved = np.abs(x_new - x[active])
        x[active] = x_new
        active = active[moved > 1e-15 * np.maximum(1.0, np.abs(x_new))]
        if not active.size:
            break
    return x.reshape(shape)


def _invert(sol, k, targets, slope):
    """Points s of a solution where component k, strictly increasing in s,
    takes the values ``targets``.

    Newton with dy_k/ds = slope(y) on the dense output, started from linear
    interpolation of y_k between the step nodes and kept inside (lo, hi).
    """
    T, _, Y, _ = sol.dense
    k_lo, k_hi = sol.end_states()[k]
    x0 = np.interp(targets, np.concatenate(([k_lo], Y[:, k], [k_hi])),
                   np.concatenate(([sol.lo], T, [sol.hi])))

    def fn(s):
        y = _dense_eval(sol.dense, s)
        return y[k], slope(y)

    return _newton(fn, targets, x0, sol.lo, sol.hi)
