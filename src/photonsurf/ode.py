"""Dormand-Prince 5(4) solves for the radial integrators and the isotropic
coordinate map.

``_dopri5`` solves an autonomous system from 0 to an end point on Python
floats, one step attempt at a time in a kernel compiled per state size by
``_kernel``, and returns its dense output as arrays. ``_quadrature`` gives
the same output for u' = g(x), evaluating every stage in array calls of g
on steps from RK45's controller replayed on a model of the error. ``_join``
joins two half-lines into one output and ``_linear`` builds one of constant
rates. ``_dense_eval`` samples it (``_dense_at`` on given steps), and
``_inverse`` inverts a monotone component by the batched Newton iteration
``_newton`` on the step that holds each value. ``_brentq``, Brent's root
finder, locates stop events and serves the root scans of the package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import StepBudgetError, StepUnderflowError

@dataclass(frozen=True)
class StepControl:
    """Adaptive step control and output sampling for the integrators; each
    field must be finite and positive (ValueError otherwise)."""

    rtol: float = 1e-12
    atol: float = 1e-13
    sample_spacing: float = 1e-2

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} = {value!r} is not a finite positive number")


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
# _quadrature: stages 3-5 at these fractions of a step, equal steps per
# half-line of its first pass, and the error norm that split steps aim at
_C, _E67, _EPS = (3 / 10, 4 / 5, 8 / 9), _E6 + _E7, np.finfo(float).eps
_PRELIM_STEPS, _SPLIT_NORM = 128, 0.59
# attempted steps (accepted and rejected) allowed on one half-line; the
# largest legitimate solves on record take about 30k
_STEP_BUDGET = 100_000


class _HalfLine(NamedTuple):
    """One solve from s = 0 to s_end: dense output (T, H, Y, Q) per step,
    stored in ascending s. Each step starts at T, its end nearer s = 0."""

    dense: tuple
    s_end: float
    reason: str
    cost: SolveStats


class _Solution(NamedTuple):
    """Both half-lines of one solve over (lo, hi) around s = 0: one dense
    output in ascending s, and its work record ``work`` = {"stop": {half:
    reason}, "solve_stats": {half: SolveStats}}, keyed "backward"/"forward"
    by the half-lines that were solved."""

    dense: tuple
    lo: float
    hi: float
    work: dict

    def end_states(self):
        """States (n, 2) at lo and hi."""
        return _dense_eval(self.dense, np.array([self.lo, self.hi]))


def _dense_arrays(ts, hs, ys, ks):
    """(T, H, Y, Q): step starts, signed steps, start states, interpolant
    coefficients Q[i, component, power - 1]. ``ks`` holds each step's stages
    1, 3, 4, 5, 6 and 7, concatenated, or is the array K[i, stage, component]."""
    if not isinstance(ks, np.ndarray):  # lists per step, of Python floats
        n = len(ys[0])
        ys = np.fromiter(chain.from_iterable(ys), float, len(ys) * n).reshape(-1, n)
        ks = np.fromiter(chain.from_iterable(ks), float, len(ks) * 6 * n).reshape(-1, 6, n)
    # explicit sums in a fixed order keep every step's bits independent of
    # the number of steps
    Q = ks[:, 0, :, None] * _P[0]
    for i in range(1, 6):
        Q = Q + ks[:, i, :, None] * _P[i]
    return np.array(ts), np.array(hs), np.asarray(ys), Q


def _dense_eval(dense, s):
    """States (n, *s.shape) of a dense output at the points s.

    A point on a step boundary is taken from the step nearer s = 0, as
    scipy's OdeSolution does on each half-line, and s = 0 from the forward
    half-line when there is one. Points past an end extrapolate its step.
    """
    T, H = dense[:2]
    s = np.asarray(s, dtype=float)
    k = np.count_nonzero(H < 0)  # backward steps come first
    fwd = ((s >= 0) | (k == 0)) & (k < len(T))
    i = np.where(fwd, np.maximum(np.searchsorted(T, s) - 1, k),
                 np.minimum(np.searchsorted(T, s, "right"), k - 1))
    return _dense_at(dense, i, s)


def _dense_at(dense, i, s):
    """States (n, *s.shape) of a dense output at the points s, each on its
    step in the index array i."""
    T, H, Y, Q = dense
    x = ((s - T[i]) / H[i])[..., None]
    # Horner's rule, one gathered coefficient at a time: gathering Q[i]
    # whole would hold an (n_points, n, 4) array on long grids
    poly = Q[:, :, 3][i]
    for j in (2, 1, 0):
        poly = Q[:, :, j][i] + x * poly
    return np.moveaxis(Y[i] + H[i][..., None] * (x * poly), -1, 0)


def _rms(xs, scale):
    # left to right on every Python, as the step kernel's norm
    total = 0.0
    for x, sc in zip(xs, scale):
        total += (x / sc) ** 2
    return math.sqrt(total) / len(xs) ** 0.5


# One step attempt from (s, y) with step h: the stages k2-k7 (k1 is the
# first-same-as-last stage of the previous step), y_new and the RMS error
# norm of RK45. ``_kernel`` writes each <...> (" > " the only < or > in it)
# out once per component i, each <*...> once per component i that rhs reads,
# with the one-letter names v, a, ..., x renamed v{i}, a{i}, ..., x{i} and
# each copy followed by ", ", and each tableau name as its float literal, so
# every component keeps the arithmetic of RK45's per-component formulas in
# the same order ("w if w > v else v" on |y| and |y_new| is max's rule).
# Each <+...> is written out as <...> is, its copies joined by " + ", so the
# squares of the norm add left to right on every Python (sum() compensates
# float additions since Python 3.12).
_STEP_TEMPLATE = """\
def step(rhs, y, k1, h, atol, rtol):
    <v> = y
    <a> = k1
    <b> = rhs(<*v + (_A21 * a) * h>)
    <c> = rhs(<*v + (_A31 * a + _A32 * b) * h>)
    <d> = rhs(<*v + (_A41 * a + _A42 * b + _A43 * c) * h>)
    <e> = rhs(<*v + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h>)
    <p> = rhs(<*v + (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e) * h>)
    <w> = <v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * p)>
    y_new = [<w>]
    <q> = k7 = rhs(<*w>)
    <x> = <(_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * p + _E7 * q) * h>
    <v><w> = <abs(v)><abs(w)>
    error_norm = math.sqrt(
        <+(x / (atol + (w if w > v else v) * rtol)) ** 2>) / {n} ** 0.5
    return y_new, k7, (<a><c><d><e><p><q>), error_norm
"""
_KERNELS = {}


def _kernel(n, reads):
    """The step attempt of ``_STEP_TEMPLATE`` for n components, rhs reading
    ``reads``, compiled on first use and cached in ``_KERNELS``."""
    if (n, reads) not in _KERNELS:
        def unroll(match):
            copies = [re.sub(r"\b([vabcdepqwx])\b", rf"\g<1>{i}", match[2])
                      for i in (reads if match[1] == "*" else range(n))]
            return " + ".join(copies) if match[1] == "+" else "".join(
                copy + ", " for copy in copies)

        source = re.sub(r"<([*+]?)((?: > |[^<>])*)>", unroll, _STEP_TEMPLATE.format(n=n))
        source = re.sub(r"\b_[ABE]\d+\b", lambda m: repr(globals()[m[0]]), source)
        namespace = {}
        exec(compile(source, f"<dopri5 step {n} {reads}>", "exec"), globals(), namespace)
        _KERNELS[n, reads] = namespace["step"]
    return _KERNELS[n, reads]


def _dopri5(rhs, y0, s_end, step, events, stop=None, reads=None):
    """Adaptive Dormand-Prince 5(4) solve of y' = rhs(*y[reads]) from s = 0
    to s_end; rhs takes floats (reads None: all of y) and returns all of y'.

    Replays scipy's RK45 on Python floats: the same initial step selection,
    step controller and 10-ulp underflow test. Each step attempt runs the
    kernel that ``_kernel`` compiles for n and reads: RK45's formulas written
    out per component, stage inputs only for those read. ``events`` are
    (g(y), tag) pairs; the solve stops at the first root of any g bracketed
    by a sign change between accepted steps, located by ``_brentq`` on the
    dense output. Raises ``StepUnderflowError`` when the step underflows and
    ``StepBudgetError`` after ``_STEP_BUDGET`` attempted steps. An
    ``OverflowError`` in a step attempt, a right-hand side leaving the float
    range, ends the solve at its last accepted step with reason
    "float-range", not counting that attempt; before the first accepted step
    it raises ``StepUnderflowError``.

    A ``stop`` rule is called as stop(s, y, taken) at the end of every
    accepted step, at the event's root for the step an event ends; ``taken``
    is that step's (T, H, Y, K): its start, signed step, start state and
    stages, one item each of what ``_dense_arrays`` takes. The solve ends
    after the first step at whose end the rule returns a reason rather than
    None, unless an event ended it first. An infinite s_end makes the solve
    open-ended: no step is clipped and the initial step ignores the extent,
    so an open solve whose rule stops later extends one that stops earlier
    bit for bit.
    """
    rtol, atol = step.rtol, step.atol
    direction = 1.0 if s_end > 0 else -1.0
    length = abs(s_end)
    t, y = 0.0, [float(v) for v in y0]
    reads = tuple(range(len(y))) if reads is None else reads
    kernel = _kernel(len(y), reads)
    try:
        f = rhs(*[y[i] for i in reads])
        h_abs = _initial_step(rhs, reads, y, f, direction, length, step)
    except OverflowError:
        raise _float_range_error(t, y) from None

    rejected, toward = 0, direction * math.inf
    funcs = [ev for ev, _ in events]
    g = [ev(y) for ev in funcs]
    steps = []  # (T, H, Y, K) of each accepted step
    reason = "span"
    while direction * (t - s_end) < 0:
        min_step = 10 * abs(math.nextafter(t, toward) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if len(steps) + rejected >= _STEP_BUDGET:
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
            try:
                y_new, k7, stages, error_norm = kernel(rhs, y, f, h, atol, rtol)
            except OverflowError:
                if not steps:
                    raise _float_range_error(t, y) from None
                reason = "float-range"
                break
            h_abs = _resize(h_abs, error_norm, step_rejected)
            if error_norm < 1:
                break
            step_rejected = True
            rejected += 1
        if reason == "float-range":
            break

        taken = (t, h, y, stages)
        steps.append(taken)
        t_old, t, y, f = t, t_new, y_new, k7
        if funcs:
            g_old, g = g, [ev(y) for ev in funcs]
            for a, b in zip(g_old, g):
                if a <= 0 <= b or b <= 0 <= a:
                    last = _dense_arrays(*zip(taken))
                    hits = [(_brentq(lambda s: ev(_dense_eval(last, np.array([s]))[:, 0]),
                                     t_old, t, _EVENT_TOL, _EVENT_TOL), tag)
                            for (ev, tag), a, b in zip(events, g_old, g)
                            if (a <= 0 <= b) or (b <= 0 <= a)]
                    t, reason = min(hits, key=lambda hit: direction * hit[0])
                    y = _dense_eval(last, np.array([t]))[:, 0].tolist()
                    break
        stopped = None if stop is None else stop(t, y, taken)
        if reason != "span":
            break
        if stopped is not None:
            reason = stopped
            break

    cost = SolveStats(len(steps), rejected, 2 + 6 * (len(steps) + rejected))
    order = slice(None, None, 1 if direction > 0 else -1)
    return _HalfLine(_dense_arrays(*zip(*steps[order])), t, reason, cost)


def _resize(h_abs, norm, rejected):
    """RK45's next step size after a step h_abs of error norm ``norm``: no growth
    on acceptance (norm < 1) right after a rejection; a NaN norm rejects."""
    if norm < 1:
        factor = _MAX_FACTOR if norm == 0 else min(_MAX_FACTOR, _SAFETY * norm ** _ERR_EXP)
        return h_abs * (min(1.0, factor) if rejected else factor)
    return h_abs * max(_MIN_FACTOR, _SAFETY * norm ** _ERR_EXP)


def _initial_step(rhs, reads, y, f, direction, length, step):
    """The first step size from the state y with rate f, for ``_dopri5``'s
    rhs and reads (Hairer, Norsett & Wanner II.4; scipy select_initial_step)."""
    scale = [step.atol + abs(v) * step.rtol for v in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    y1 = [v + h0 * direction * fv for v, fv in zip(y, f)]
    f1 = rhs(*[y1[i] for i in reads])
    d2 = _rms([a - b for a, b in zip(f1, f)], scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else \
        (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, length)


def _float_range_error(t, y):
    return StepUnderflowError(
        f"the right-hand side left the float range at s = {t:.6g}, before "
        "the first accepted step", last_state=(t, tuple(y)))


@np.errstate(all="ignore")  # a non-finite g fails the solve below
def _quadrature(g, x0, span, step):
    """``_dopri5``'s ``_Solution`` of y = (x, u) for u' = g(x), u(x0) = 0,
    over x - x0 in span = (lo, hi), with g evaluated on arrays of points as
    the README describes. Each half-line stops with "span" at its solved end
    and counts the steps of its final grid, the steps split and the points
    where g was evaluated."""
    ends = {name: end for name, end in zip(("backward", "forward"), span) if end != 0}
    rejected, evals, todo, halves = dict.fromkeys(ends, 0), {}, {}, {}
    coarse = [end / _PRELIM_STEPS * np.arange(_PRELIM_STEPS + 1) for end in ends.values()]
    prelim = _stages(g, x0, [t[::k] for t in coarse for k in (1, 2)], step)
    for name, t in zip(ends, coarse):
        (u, err, norm, K), (_, err2, _, _) = next(prelim), next(prelim)
        if not np.isfinite(t[-1] * K[0][0]):  # an infinite end, or g(x0): as _dopri5
            raise _float_range_error(0.0, (x0, 0.0))
        # norm per |h|^5; a step with rounding error (<= sqrt(eps) of the
        # increment, not ~2^5 times larger doubled) takes the last other's, or 0
        grows = np.abs(err2) >= 16 * np.abs(err).reshape(-1, 2).max(1)
        grows &= np.convolve(grows, [1, 0, 1], "same") > 0
        known = grows.repeat(2) | ~(np.abs(err / np.diff(u)) <= _EPS ** 0.5)
        last = np.maximum.accumulate(np.where(known, np.arange(_PRELIM_STEPS), -1))
        rate = np.nan_to_num(norm / np.abs(np.diff(t)) ** 5, nan=np.inf)[last]  # NaN stalls
        rate = np.where(last >= 0, rate, 0.0).tolist()
        g0, end = float(K[0][0]), float(t[-1])
        evals[name] = 6 * _PRELIM_STEPS + 3  # and one more point below
        first = _initial_step(lambda x: (1.0, float(g(np.array([x]))[0])), (0,),
                              [x0, 0.0], [1.0, g0], math.copysign(1.0, end), abs(end), step)
        todo[name] = math.copysign(1.0, end) * _replay(rate, abs(end), first)
    while todo:
        solved, todo = zip(todo.items(), _stages(g, x0, todo.values(), step)), {}
        for (name, t), (u, _, norm, K) in solved:
            evals[name] += 4 * len(t) - 3
            h, m = np.diff(t), np.where(norm < 1, 1.0, np.ceil((norm / _SPLIT_NORM) ** 0.2))
            rejected[name] += int(np.count_nonzero(m > 1))
            small = (m != 1) & ~(np.abs(h) / m >= 10 * np.spacing(np.abs(t[:-1])))  # NaN
            if small.any() or len(t) + rejected[name] + m.sum() > _STEP_BUDGET:
                i = np.argmax(m != 1)
                raise StepUnderflowError(f"the quadrature stalled at s = {t[i]:.6g}",
                                         last_state=(t[i], (x0 + t[i], u[i])))
            i = np.repeat(np.arange(len(h)), m.astype(int))  # failed steps split
            if len(i) > len(h):
                k = np.arange(len(i)) - np.searchsorted(i, i)
                todo[name] = np.append(t[i] + h[i] * k / m[i], t[-1])
                continue
            K = np.stack((np.ones((len(h), 6)), np.stack(K + K[-1:], 1)), 2)
            dense = _dense_arrays(t[:-1], h, np.stack((x0 + t[:-1], u[:-1]), 1), K)
            halves[name] = _HalfLine(tuple(a[::1 if t[-1] > 0 else -1] for a in dense),
                                     t[-1], "span", SolveStats(len(h), rejected[name],
                                                               evals[name]))
    return _join(halves)


def _replay(rate, length, h_abs):
    """Nodes a = |x - x0| from 0 to ``length`` of the steps that RK45's
    controller takes from the step ``h_abs`` when the error norm of a step
    is |h|^5 times the largest ``rate`` of the equal first-pass steps it
    overlaps: ``_dopri5``'s loop on Python floats."""
    n, a, nodes, attempts = len(rate), 0.0, [0.0], 0
    width = length / n
    while a < length:
        min_step = 10 * (math.nextafter(a, math.inf) - a)
        h_abs, i, rejected = max(h_abs, min_step), min(int(a / width), n - 1), False
        while True:
            attempts += 1
            if attempts > _STEP_BUDGET or h_abs < min_step:
                raise StepUnderflowError(f"the quadrature stalled at |s| = {a:.6g}",
                                         last_state=(a, ()))
            b = a + h_abs
            if b > length:
                b = length
            h_abs, j = b - a, math.ceil(b / width)
            norm = (rate[i] if j <= i + 1 else max(rate[i:j])) * h_abs ** 5
            h_abs = _resize(h_abs, norm, rejected)
            if norm < 1:
                break
            rejected = True
        a = b
        nodes.append(a)
    return np.array(nodes)


def _stages(g, x0, grids, step):
    """Per node array t of ``grids``: u at t, the steps' error estimates and
    ``_dopri5``'s norms of them on (x, u), and stages 1, 3, 4, 5 and 6, all
    summed in a fixed order per step, from one call of g at x0 + t and at
    3/10, 4/5 and 8/9 of each step."""
    steps = [(x0 + t, np.diff(t)) for t in grids]
    parts = [p for x, h in steps for p in (x, *(x[:-1] + c * h for c in _C))]
    values = iter(np.split(g(np.concatenate(parts)), np.cumsum([len(p) for p in parts])))
    for x, h in steps:
        k, k3, k4, k5 = (next(values) for _ in range(4))
        k1, k6 = k[:-1], k[1:]
        u = np.concatenate(([0.0], np.cumsum(
            h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6))))
        err = (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E67 * k6) * h
        yield u, err, np.abs(err) / (step.atol + step.rtol * np.maximum(
            np.abs(u[:-1]), np.abs(u[1:]))) / 2 ** 0.5, (k1, k3, k4, k5, k6)


def _brentq(f, a, b, xtol, rtol):
    """Root of f in the bracket [a, b] by Brent's method (R. P. Brent,
    Algorithms for Minimization Without Derivatives, 1973, ch. 4).

    The iteration of scipy's C ``brentq`` on Python floats, so it returns
    the same bits: the same bracket bookkeeping, interpolation or
    extrapolation step taken only when it is short, and stop once the
    bracket half-width or the step is below delta = (xtol + rtol |x|) / 2.
    An extrapolation whose denominator underflows to 0 counts as long, so
    it bisects, as C does on its inf or NaN quotient. Raises ValueError when
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
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:  # C's quotient is inf or NaN: not short
                    stry = math.inf
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


def _join(halves):
    """One ``_Solution`` of the half-lines ``halves``, keyed "backward" and
    "forward"."""
    names = [name for name in ("backward", "forward") if name in halves]
    dense = tuple(map(np.concatenate, zip(*(halves[name].dense for name in names))))
    lo, hi = (halves[name].s_end if name in halves else 0.0
              for name in ("backward", "forward"))
    return _Solution(dense, lo, hi, {
        "stop": {name: halves[name].reason for name in names},
        "solve_stats": {name: halves[name].cost for name in names}})


def _linear(y0, rates, span):
    """y0 + s rates over span = (lo, hi), exact to the bit under
    ``_dense_eval``: one unit step from s = 0 with Q[:, :, 0] = rates. It
    holds data on a photon sphere: no work, "photon-sphere-snap" as reason."""
    Q = np.zeros((1, len(y0), 4))
    Q[0, :, 0] = rates
    dense = (np.zeros(1), np.ones(1), np.array([y0], dtype=float), Q)
    stop = {name: "photon-sphere-snap"
            for name, end in zip(("backward", "forward"), span) if end != 0}
    return _Solution(dense, span[0], span[1], {"stop": stop, "solve_stats": {}})


def _newton(fn, targets, x0, lo, hi):
    """Points x in [lo, hi] where fn(x, i)[0] = targets, by Newton's method
    from x0.

    ``fn`` maps the points x at the positions i of the flattened batch to
    the arrays (value, derivative); lo and hi are floats or arrays of the
    shape of ``targets``. Each point stops once its own step is at most
    1e-15 max(1, |x|), so its result does not depend on the other points
    of the batch.
    """
    shape = np.shape(targets)
    goal, x = np.ravel(targets), np.array(x0, dtype=float).ravel()
    lo, hi = (np.broadcast_to(b, shape).ravel() for b in (lo, hi))
    active = np.arange(x.size)
    for _ in range(80):
        value, slope = fn(x[active], active)
        x_new = np.clip(x[active] - (value - goal[active]) / slope,
                        lo[active], hi[active])
        moved = np.abs(x_new - x[active])
        x[active] = x_new
        active = active[moved > 1e-15 * np.maximum(1.0, np.abs(x_new))]
        if not active.size:
            break
    return x.reshape(shape)


def _inverse(sol, k):
    """The inverse of component k of a solution, strictly increasing in s,
    on a 1-D array of values: Newton on the interpolant of the step that
    holds each value, from linear interpolation between the nodes, kept in
    that step and [lo, hi] (the first and last steps reach lo and hi), with
    y_k - value summed as (Y - value) + H x P(x). Set up once per solution."""
    T, H, Y, Q = sol.dense
    nodes = np.insert(sol.end_states()[k], 1, Y[:, k]), np.r_[sol.lo, T, sol.hi]
    left = np.minimum(T, T + H)  # the steps' left ends, ascending
    edges = np.r_[sol.lo, left[1:], sol.hi]

    def inverse(targets):
        x0 = np.interp(targets, *nodes)
        j = np.maximum(np.searchsorted(left, x0, "right") - 1, 0)
        t, h, gap, q = T[j], H[j], Y[j, k] - targets, Q[j, k]

        def fn(s, i):  # y_k - target and dy_k/ds, the interpolant's own slope
            x = (s - t[i]) / h[i]
            poly, slope = q[i, 3], 4 * q[i, 3]
            for p in (2, 1, 0):
                poly, slope = q[i, p] + x * poly, (p + 1) * q[i, p] + x * slope
            return gap[i] + h[i] * (x * poly), slope

        return _newton(fn, np.zeros(len(targets)), x0, edges[j], edges[j + 1])
    return inverse
