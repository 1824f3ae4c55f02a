"""Static, spherically symmetric spacetimes -f(r)dt^2 + dr^2/f(r) + r^2 Omega.

Provides the built-in metric families (Minkowski, Schwarzschild and its
higher-dimensional analogue, Reissner-Nordstrom, Schwarzschild-AdS), custom
profiles, and the conversion between area-radius and isotropic form.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    CompatibilityError,
    DomainError,
    InvalidFamilyParamsError,
    UnknownFamilyError,
    _FLOAT_RANGE_ERRORS,
)
from .ode import StepControl, _brentq, _dense_eval, _inverse, _newton, _quadrature

__all__ = [
    "MetricProfile",
    "ClassSSpacetime",
    "IsotropicForm",
    "build_family",
    "custom_spacetime",
    "spacetime_from_table",
    "to_isotropic",
    "from_isotropic",
    "conformal_flatness_scan",
]


@dataclass(frozen=True)
class MetricProfile:
    """Radial metric profile: maps r to (f(r), f'(r)).

    ``evaluate`` takes a float or a 1-D array of radii and returns values of
    the same shape.
    """

    evaluate: Callable[[float], tuple[float, float]]

    def __call__(self, r):
        return self.evaluate(r)

    def f(self, r):
        return self.evaluate(r)[0]

    def fprime(self, r):
        return self.evaluate(r)[1]

    @classmethod
    def from_f(cls, f: Callable[[float], float]) -> "MetricProfile":
        """Profile from f alone; f' from a 5-point central difference with
        step 1e-4 max(1, |r|)."""

        def evaluate(r):
            step = 1e-4 * np.maximum(1.0, abs(r))
            d = (f(r - 2 * step) - 8 * f(r - step)
                 + 8 * f(r + step) - f(r + 2 * step)) / (12 * step)
            return f(r), d

        return cls(evaluate)


@dataclass(frozen=True)
class ClassSSpacetime:
    """A spacetime of the static, spherically symmetric class on I x S^(n-1).

    ``n`` is the spatial dimension (the spacetime is n+1 dimensional),
    ``(r_lo, r_hi)`` the open radial interval with f > 0 throughout.
    """

    n: int
    r_lo: float
    r_hi: float
    metric: MetricProfile
    family: str = "custom"
    params: dict = field(default_factory=dict)
    flags: tuple = ()

    def f(self, r):
        return self.metric.f(r)

    def fprime(self, r):
        return self.metric.fprime(r)

    def contains(self, r):
        """Whether r lies in (r_lo, r_hi); a float or a 1-D array of radii."""
        return np.logical_and(self.r_lo < r, r < self.r_hi)

    @property
    def vacuum(self) -> bool:
        return self.einstein_constant == 0.0

    @property
    def einstein_constant(self) -> Optional[float]:
        """Lambda with Ric = Lambda * g, or None when not an Einstein metric."""
        if self.family in ("minkowski", "schwarzschild"):
            return 0.0
        if self.family == "schwarzschild-ads":
            return -self.n / self.params["L"] ** 2
        return None

    def default_bracket(self) -> tuple[float, float]:
        """Finite radial sub-range for root scans; an infinite r_hi becomes
        max(10 lo, 100, 10 |m|), m the mass parameter or 0."""
        lo = self.r_lo * (1 + 1e-6) if self.r_lo > 0 else 1e-6
        if math.isfinite(self.r_hi):
            hi = self.r_hi * (1 - 1e-9)
        else:
            hi = max(10 * lo, 100.0, 10 * abs(self.params.get("m", 0.0)))
        return lo, hi

    @functools.cached_property
    def spheres(self) -> tuple:
        """The photon spheres of the scan bracket, ascending: the
        ``surfaces.find_photon_spheres`` scan, run on first use."""
        from .surfaces import find_photon_spheres  # surfaces imports this module
        return tuple(find_photon_spheres(self))


def _interval(r_lo, r_hi) -> tuple[float, float]:
    """The radial interval (r_lo, r_hi), a negative r_lo raised to 0; raises
    InvalidFamilyParamsError unless r_lo is finite, r_hi finite or inf, r_lo < r_hi."""
    r_lo, r_hi = float(r_lo), float(r_hi)
    if not (math.isfinite(r_lo) and (math.isfinite(r_hi) or r_hi == math.inf)):
        raise InvalidFamilyParamsError(f"radial interval ({r_lo!r}, {r_hi!r}) is not finite")
    r_lo = r_lo if r_lo > 0 else 0.0
    if not r_lo < r_hi:
        raise InvalidFamilyParamsError(f"empty radial interval ({r_lo!r}, {r_hi!r})")
    return r_lo, r_hi


def _spacetime(n, r_lo, r_hi, metric, *args) -> ClassSSpacetime:
    """ClassSSpacetime(n, r_lo, r_hi, metric, *args) on ``_interval(r_lo,
    r_hi)``, once f > 0 holds on 256 log-spaced points of its scan bracket,
    and at r_lo (1 + 1e-12) when r_lo > 0."""
    st = ClassSSpacetime(n, *_interval(r_lo, r_hi), metric, *args)
    rs = np.concatenate(([st.r_lo * (1 + 1e-12)] if st.r_lo > 0 else [],
                         np.geomspace(*st.default_bracket(), 256)))
    with np.errstate(all="ignore"):  # f' is not read; a NaN f fails below
        fs = st.f(rs)
    if not np.all(fs > 0):  # NaN fails too, and argmin finds it first
        i = np.argmin(fs)
        raise InvalidFamilyParamsError(
            f"f(r) = {fs[i]:.6g}, not > 0, at r = {rs[i]:.6g} inside declared "
            f"interval ({st.r_lo:.6g}, {st.r_hi})")
    return st


def build_family(family: str, n: int = 3, m: float | None = None,
                 q: float | None = None, L: float | None = None,
                 r_lo: float | None = None,
                 r_hi: float | None = None) -> ClassSSpacetime:
    """Construct a built-in spacetime family.

    Families: "minkowski"; "schwarzschild" (any n >= 3, mass m);
    "reissner-nordstrom" (n = 3, mass m, charge q); "schwarzschild-ads"
    (any n >= 3, mass m, curvature radius L > 0).  Parameters must be
    finite (r_hi may be inf); the interval follows ``_interval``, so a
    negative r_lo, given or computed, becomes 0.
    """
    family = family.lower().replace("_", "-")
    family = {"rn": "reissner-nordstrom",
              "sads": "schwarzschild-ads"}.get(family, family)
    if n < 3:
        raise InvalidFamilyParamsError(
            "built-in families require n >= 3; use custom_spacetime for n = 2")
    for name, value in (("m", m), ("q", q), ("L", L)):
        if value is not None and not math.isfinite(value):
            raise InvalidFamilyParamsError(f"{name} = {value!r} is not finite")
    r_hi = math.inf if r_hi is None else r_hi
    flags: tuple = ()
    params: dict = {}

    if family == "minkowski":
        lo, power = 0.0 if r_lo is None else float(r_lo), 0
        # 0 * r keeps the shape of array arguments
        metric = MetricProfile(lambda r: (1.0 + 0.0 * r, 0.0 * r))
    elif family == "schwarzschild":
        if m is None:
            raise InvalidFamilyParamsError("schwarzschild requires mass m")
        m = float(m)
        rm = (2 * m) ** (1 / (n - 2)) if m > 0 else 0.0
        lo = rm if r_lo is None else float(r_lo)
        p = n - 2
        # constants folded when built, every operation in its order: the
        # bits of 1 - 2 m / r^p and 2 p m / r^(p + 1), with r^1 = r
        m2, pm2, power = 2 * m, 2 * p * m, p + 1
        if p == 1:
            def evaluate(r):
                return 1 - m2 / r, pm2 / r ** 2
        else:
            def evaluate(r):
                return 1 - m2 / r ** p, pm2 / r ** power

        metric = MetricProfile(evaluate)
        params = {"m": m}
    elif family == "reissner-nordstrom":
        if m is None or q is None:
            raise InvalidFamilyParamsError("reissner-nordstrom requires m and q")
        if n != 3:
            raise InvalidFamilyParamsError(
                "reissner-nordstrom built-in is n = 3 only; use a custom profile")
        m, q = float(m), float(q)
        try:
            m_sq, q_sq = m ** 2, q ** 2
        except OverflowError:
            raise InvalidFamilyParamsError(
                f"reissner-nordstrom: m^2 or q^2 of m = {m!r}, q = {q!r} is outside "
                "the float range") from None
        m2, q_sq2 = 2 * m, 2 * q_sq
        if q_sq > m_sq:
            flags = ("super-extremal",)
            rplus = 0.0

            def fval(r):
                return 1 - m2 / r + q_sq / r ** 2
        else:
            root = math.sqrt(m_sq - q_sq)
            rplus, rminus = m + root, m - root

            def fval(r):
                # factored, f keeps its relative precision next to r_+
                return (r - rplus) * (r - rminus) / r ** 2
        lo, power = rplus if r_lo is None else float(r_lo), 3

        def evaluate(r):
            return fval(r), m2 / r ** 2 - q_sq2 / r ** 3

        metric = MetricProfile(evaluate)
        params = {"m": m, "q": q}
    elif family == "schwarzschild-ads":
        if m is None or L is None or L <= 0:
            raise InvalidFamilyParamsError("schwarzschild-ads requires m and L > 0")
        m, L = float(m), float(L)
        p = n - 2
        try:
            L2 = L ** 2
        except OverflowError:
            L2 = math.inf
        if not sys.float_info.min <= L2 < math.inf:
            raise InvalidFamilyParamsError(
                f"schwarzschild-ads: L^2 = {L2!r} is outside the normal float range")

        m2, pm2, power = 2 * m, 2 * p * m, p + 1

        def fval(r):
            return 1 - m2 / r ** p + r ** 2 / L2

        def evaluate(r):
            return fval(r), pm2 / r ** power + 2 * r / L2

        if m > 0:
            # f is increasing from -inf with a single positive root r_H; if
            # r_H < 1e-12, halving brackets it to a factor 2, to rtol alone
            lo_end, hi_end, xtol = 1e-12, max((2 * m) ** (1 / p), L) * 4, 1e-14
            try:
                while fval(lo_end) >= 0:
                    lo_end, hi_end, xtol = lo_end / 2, lo_end, 0.0
                while fval(hi_end) <= 0:
                    hi_end *= 2
            except _FLOAT_RANGE_ERRORS:  # r ** p out of range
                hi_end = math.inf
            if not sys.float_info.min <= lo_end < hi_end < math.inf:
                raise InvalidFamilyParamsError(
                    "schwarzschild-ads: the horizon radius is outside the float range")
            # Brent falls back on bisection, which halves a bracket: one
            # wider than 2^60 tolerances is first cut at geometric means
            while hi_end - lo_end > 2.0 ** 60 * (xtol + 8.9e-16 * lo_end):
                mid = math.sqrt(lo_end) * math.sqrt(hi_end)
                if fval(mid) < 0:
                    lo_end = mid
                else:
                    hi_end = mid
            rH = _brentq(fval, lo_end, hi_end, xtol, 8.9e-16)
        else:
            rH = 0.0
        lo = rH if r_lo is None else float(r_lo)
        metric = MetricProfile(evaluate)
        params = {"m": m, "L": L}
    else:
        raise UnknownFamilyError(f"unknown family {family!r}")
    # r^power, the divisor of f', must stay a normal float at r_lo (the horizon by default)
    if power and 0 < lo < 1 and lo ** power < sys.float_info.min:
        raise InvalidFamilyParamsError(
            f"{family}: r^{power} at r_lo = {lo!r} is below the normal float range")

    return _spacetime(n, lo, r_hi, metric, family, params, flags)


def custom_spacetime(f, n: int, r_lo: float, r_hi: float,
                     fprime=None) -> ClassSSpacetime:
    """Spacetime with a user-supplied profile; n = 2 is permitted here.

    ``f`` and ``fprime`` that take floats alone are extended to arrays point
    by point: the one place where the package adapts a function to the
    array contract of ``MetricProfile.evaluate``.
    """
    if n < 2:
        raise InvalidFamilyParamsError("need n >= 2")
    r_lo, r_hi = _interval(r_lo, r_hi)
    if isinstance(f, MetricProfile):
        metric = f
    else:
        probe = np.geomspace(*ClassSSpacetime(n, r_lo, r_hi, None).default_bracket(), 4)
        f = _array_callable(f, probe)
        if fprime is not None:
            fprime = _array_callable(fprime, probe)
            metric = MetricProfile(lambda r: (f(r), fprime(r)))
        else:
            metric = MetricProfile.from_f(f)
    return _spacetime(n, r_lo, r_hi, metric, "custom")


def _pointwise(fn):
    """A scalar function ``fn`` extended to 1-D arrays entry by entry; a
    tuple-valued ``fn`` gives one array per tuple member."""
    def wrapped(r):
        if isinstance(r, np.ndarray) and r.ndim:
            return np.array([fn(x) for x in r.tolist()]).T
        return fn(r)

    return wrapped


def _radiuswise(fn):
    """``fn(..., x)``, written for a 1-D array x, on a float or a 1-D array.
    A float runs as a one-element array, so it gets the bits it would get
    inside an array (numpy's scalar and array powers can differ in the last
    bit), and each array of the result, alone, in a tuple or as a field of
    a dataclass, takes the shape of x."""

    @functools.wraps(fn)
    def wrapped(*args):
        *head, x = args
        out = fn(*head, np.atleast_1d(np.asarray(x, dtype=float)))
        shape = np.shape(x)

        def shaped(v):
            return v.reshape(shape)[()]

        if isinstance(out, np.ndarray):
            return shaped(out)
        if isinstance(out, tuple):
            return tuple(map(shaped, out))
        return replace(out, **{f.name: shaped(getattr(out, f.name))
                               for f in fields(out)})

    return wrapped


def _array_callable(fn, probe):
    """``fn`` if it maps the 1-D array ``probe`` to an array of its shape (or
    to a tuple of such arrays), otherwise its pointwise extension."""
    try:
        out = fn(probe)
        ok = all(np.shape(v) == probe.shape
                 for v in (out if isinstance(out, tuple) else (out,)))
    except (TypeError, ValueError):  # e.g. math functions, `if r < x` tests
        ok = False
    return fn if ok else _pointwise(fn)


def spacetime_from_table(path, n: int = 3, r_lo: float | None = None,
                         r_hi: float | None = None) -> ClassSSpacetime:
    """Custom profile from a CSV table with header "r,f" (monotone r)."""
    # imported here: scipy.interpolate takes over 0.5 s, and only tables need it
    from scipy.interpolate import PchipInterpolator

    rs, fs = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [c.strip() for c in header[:2]] != ["r", "f"]:
            raise DomainError(f"profile table must have header 'r,f', got {header}")
        for row in reader:
            if not row:
                continue
            try:
                r, f = map(float, row[:2])
            except ValueError:
                r = f = math.nan
            if not (math.isfinite(r) and math.isfinite(f)):
                raise DomainError(f"profile table line {reader.line_num}: {row} "
                                  "is not two finite numbers r, f")
            rs.append(r)
            fs.append(f)
    rs, fs = np.asarray(rs), np.asarray(fs)
    if len(rs) < 4 or np.any(np.diff(rs) <= 0):
        raise DomainError("profile table needs >= 4 rows with strictly increasing r")
    interp = PchipInterpolator(rs, fs)
    dinterp = interp.derivative()
    metric = MetricProfile(lambda r: (interp(r), dinterp(r)))
    return _spacetime(n, rs[0] if r_lo is None else r_lo, rs[-1] if r_hi is None else r_hi,
                      metric, "custom")


# ---------------------------------------------------------------------------
# Isotropic form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsotropicForm:
    """Conformally flat form -Ntilde^2 dt^2 + psi^2 delta on s in (s_lo, s_hi).

    ``evaluate`` maps s to (psi, psi', Ntilde, Ntilde'). Like
    ``MetricProfile.evaluate`` it takes a float or a 1-D array and returns
    values of the same shape; only :func:`custom_spacetime` adapts functions
    that take floats alone. When the form was produced by
    :func:`to_isotropic`, the coordinate maps ``s_of_r``/``r_of_s``, the
    source spacetime and the work record of the map's solve (``work``, with
    no half-lines for a form built by hand) are attached.
    """

    s_lo: float
    s_hi: float
    evaluate: Callable
    source: Optional[ClassSSpacetime] = None
    s_of_r: Optional[Callable] = None
    r_of_s: Optional[Callable] = None
    work: dict = field(default_factory=lambda: {"stop": {}, "solve_stats": {}})
    psi = lapse = None  # not fields: names perfbench/tracer.py wraps when set

    def contains(self, s):
        """Whether s lies in (s_lo, s_hi); a float or a 1-D array."""
        return np.logical_and(self.s_lo < s, s < self.s_hi)

    def log_derivative_gap(self, s) -> float:
        """Ntilde'/Ntilde - psi'/psi at s; zero signals local conformal flatness."""
        p, dp, nn, dnn = self.evaluate(s)
        return dnn / nn - dp / p


ISO_R_CAP = 1e16  # where the map stops for r_hi = inf, in units of max(1, r0)
# the absolute error of u = log(s/C) is the relative error of s
_ISO_STEP = StepControl(rtol=1e-14, atol=1e-14)


def _check_range(name, x, lo, hi):
    bad = ~((lo <= x) & (x <= hi))
    if np.any(bad):
        raise DomainError(f"{name} = {x[bad][0]:.6g} outside the solved range "
                          f"[{lo:.6g}, {hi:.6g}] of the isotropic map")


def to_isotropic(st: ClassSSpacetime, r0: float) -> IsotropicForm:
    """Rewrite a class-S spacetime in isotropic form around base radius r0.

    s(r) = C exp(u), du/dr = 1/(r sqrt(f)), u(r0) = 0; psi(s) = r(s)/s and
    lapse sqrt(f(r(s))). C is the closed-form Schwarzschild s(r0) for
    Schwarzschild with m > 0, else r0. The four maps take floats or 1-D
    arrays and raise DomainError outside the solved range, as the solve
    does where it leaves the float range; the README describes the solve.
    """
    try:
        return _isotropic_form(st, r0)
    except OverflowError:
        raise DomainError(f"the isotropic map of {st.family} {st.params} about "
                          f"r0 = {r0:.6g} leaves the float range") from None


def _isotropic_form(st, r0):
    r_lo = st.r_lo
    r0 = r_lo * (1 + 1e-9) if r0 == r_lo else r0
    f_lo, df_lo = st.metric(r_lo) if r_lo > 0 else (0.0, 0.0)
    to_zero = r_lo > 0 and (f_lo > 1e-10 or df_lo > 0)  # else u -> -inf at r_lo
    # at a simple zero of f, du/dw -> 2/(r_lo sqrt(f'(r_lo))) as w -> 0: the
    # limit is used below a w scaled by the length r_lo min(1, r_lo f') of f'
    w_reg, limit = (1e-4 * math.sqrt(r_lo * min(1.0, r_lo * df_lo)),
                    2 / (r_lo * math.sqrt(df_lo))) \
        if to_zero and f_lo <= 1e-10 else (0.0, 0.0)
    r_bot = r_lo if to_zero else st.default_bracket()[0]
    r_top = st.r_hi * (1 - 1e-12) if math.isfinite(st.r_hi) \
        else ISO_R_CAP * max(1.0, r0)
    if not r_bot < r0 < r_top:
        raise DomainError(f"r0 = {r0:.6g} outside the solved range "
                          f"({r_bot:.6g}, {r_top:.6g})")
    # u is solved in x = asinh(w/c): x ~ w/c near w = 0 keeps the limit
    # above, and x ~ log(2w/c) for large w makes du/dx tend to a constant
    c = math.sqrt(r_lo) if r_lo > 0 else math.sqrt(r0)

    def x_of_r(r):
        return np.arcsinh(np.sqrt(r - r_lo) / c)

    x_bot, x0, x_top = x_of_r(np.array([r_bot, r0, r_top])).tolist()
    metric = st.metric.evaluate

    def du_dx(x):  # du/dw c cosh x, f read above w_reg, at w of the rounded r
        w, du_dw = c * np.sinh(x), np.full(x.shape, limit)
        r = r_lo + w[w > w_reg] ** 2
        du_dw[w > w_reg] = 2 * np.sqrt(r - r_lo) / (r * np.sqrt(metric(r)[0]))
        return c * np.cosh(x) * du_dw

    sol = _quadrature(du_dx, x0, (x_bot - x0, x_top - x0), _ISO_STEP)
    inverse = _inverse(sol, 1)
    u_bot, u_top = sol.end_states()[1].tolist()
    if st.family == "schwarzschild" and st.params["m"] > 0:
        p = st.n - 2  # exterior root of r0 = s (1 + m/(2 s^p))^(2/p)
        const = ((r0 ** (p / 2) + math.sqrt(r0 ** p - 2 * st.params["m"])) / 2) ** (2 / p)
    else:
        const = r0

    @_radiuswise
    def s_of_r(r):
        _check_range("r", r, r_bot, r_top)
        return const * np.exp(_dense_eval(sol.dense, x_of_r(r) - x0)[1])

    @_radiuswise
    def r_of_s(s):
        _check_range("s", s, const * math.exp(u_bot), const * math.exp(u_top))
        w = c * np.sinh(x0 + inverse(np.log(s / const)))
        return r_lo + w * w

    @_radiuswise
    def evaluate(s):  # psi, psi', Ntilde, Ntilde' from one r(s)
        r = r_of_s(s)
        fv, dfv = st.metric(r)
        lapse = np.sqrt(fv)
        return r / s, r * (lapse - 1.0) / s ** 2, lapse, dfv * r / (2 * s)

    s_lo = const * math.exp(u_bot) if to_zero else 0.0
    s_hi = const * math.exp(u_top)
    if math.isinf(st.r_hi):
        # the rest of the integral, as for a power law f ~ r^k beyond r_top
        f_top, df_top = st.metric(r_top)
        tail = 2 * math.sqrt(f_top) / (r_top * df_top) if df_top > 0 else math.inf
        s_hi = s_hi * math.exp(tail) if tail < 1e-3 else math.inf
    return IsotropicForm(s_lo, s_hi, evaluate, source=st, s_of_r=s_of_r,
                         r_of_s=r_of_s, work=sol.work)


def _iso_grid(iso: IsotropicForm, num: int) -> np.ndarray:
    lo = iso.s_lo
    if lo <= 0:
        lo = 1e-6
        if iso.source is not None and iso.s_of_r is not None:
            # to_isotropic solves s(r) down to the scan bracket only
            lo = max(lo, float(iso.s_of_r(iso.source.default_bracket()[0])))
    lo *= 1 + 1e-7
    hi = iso.s_hi if math.isfinite(iso.s_hi) else max(100.0, 100 * lo)
    hi *= 1 - 1e-7
    return np.geomspace(lo, hi, num)


def from_isotropic(iso: IsotropicForm) -> ClassSSpacetime:
    """Rewrite isotropic data in area-radius form.

    Requires the compatibility condition Ntilde = 1 + s psi'/psi > 0 on the
    interval, to 1e-8 on 512 grid points; then r(s) = s psi(s) and
    f(r) = Ntilde(s(r))^2.
    """
    ss = _iso_grid(iso, 512)
    p, dp, nn, _ = iso.evaluate(ss)
    res = np.abs(nn - (1.0 + ss * dp / p))
    worst = int(np.argmax(res))
    if res[worst] > 1e-8:
        raise CompatibilityError(
            f"compatibility condition violated: |Ntilde - (1 + s psi'/psi)| = "
            f"{res[worst]:.3e} at s = {ss[worst]:.6g}", float(ss[worst]),
            float(res[worst]))
    rs = ss * p
    if np.any(np.diff(rs) <= 0):
        raise CompatibilityError("r(s) = s psi(s) is not strictly increasing")

    def radius(s, _):  # r = s psi(s) and dr/ds
        p, dp = iso.evaluate(s)[:2]
        return s * p, p + s * dp

    def evaluate(r):
        s = _newton(radius, r, np.interp(r, rs, ss), iso.s_lo, iso.s_hi)
        p, dp, nn, dnn = iso.evaluate(s)
        return nn * nn, 2 * nn * dnn / (p + s * dp)

    metric = MetricProfile(evaluate)
    r_lo = float(rs[0]) * (1 - 1e-9)
    r_hi = math.inf if math.isinf(iso.s_hi) else float(rs[-1]) * (1 + 1e-9)
    n = iso.source.n if iso.source is not None else 3
    return ClassSSpacetime(n, r_lo, r_hi, metric, "custom",
                           {"origin": "from_isotropic"})


def conformal_flatness_scan(iso: IsotropicForm) -> list[tuple[float, float]]:
    """Maximal subintervals of the 512-point grid where the log-derivatives
    of lapse and psi agree to 1e-10.

    On such subintervals the spacetime is locally conformally flat and extra
    photon surfaces (translated hyperboloids, tilted planes) may exist; an
    empty list certifies the generic condition on the grid.
    """
    if not (iso.s_lo < iso.s_hi):
        return []
    ss = _iso_grid(iso, 512)
    flat = np.abs(iso.log_derivative_gap(ss)) < 1e-10
    # each run of flat points starts where the padded mask rises and ends
    # just before it falls
    edges = np.flatnonzero(np.diff(np.concatenate([[0], flat, [0]])))
    return [(float(ss[i]), float(ss[j - 1])) for i, j in edges.reshape(-1, 2)]
