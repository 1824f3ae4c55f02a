"""Static, spherically symmetric spacetimes -f(r)dt^2 + dr^2/f(r) + r^2 Omega.

Provides the built-in metric families (Minkowski, Schwarzschild and its
higher-dimensional analogue, Reissner-Nordstrom, Schwarzschild-AdS), custom
profiles, and the conversion between area-radius and isotropic form.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import (
    CompatibilityError,
    DomainError,
    InvalidFamilyParamsError,
    UnknownFamilyError,
)

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
    description: str = ""

    def __call__(self, r):
        return self.evaluate(r)

    def f(self, r):
        return self.evaluate(r)[0]

    def fprime(self, r):
        return self.evaluate(r)[1]

    @classmethod
    def from_f(cls, f: Callable[[float], float], description: str = "",
               h: float = 1e-4) -> "MetricProfile":
        """Profile from f alone; f' from a 5-point central difference."""

        def evaluate(r):
            step = h * np.maximum(1.0, abs(r))
            d = (f(r - 2 * step) - 8 * f(r - step)
                 + 8 * f(r + step) - f(r + 2 * step)) / (12 * step)
            return f(r), d

        return cls(evaluate, description)


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

    def contains(self, r) -> bool:
        return self.r_lo < r < self.r_hi

    @property
    def vacuum(self) -> bool:
        return self.family in ("minkowski", "schwarzschild")

    @property
    def einstein_constant(self) -> Optional[float]:
        """Lambda with Ric = Lambda * g, or None when not an Einstein metric."""
        if self.family in ("minkowski", "schwarzschild"):
            return 0.0
        if self.family == "schwarzschild-ads":
            return -self.n / self.params["L"] ** 2
        return None

    def default_bracket(self) -> tuple[float, float]:
        """Finite radial sub-range used for root scans on unbounded intervals."""
        lo = self.r_lo * (1 + 1e-6) if self.r_lo > 0 else 1e-6
        if math.isfinite(self.r_hi):
            hi = self.r_hi * (1 - 1e-9)
        else:
            hi = max(10 * lo, 100.0)
        return lo, hi

    @property
    def unit_sphere_area(self) -> float:
        """Area of the unit (n-1)-sphere."""
        n = self.n
        return 2 * math.pi ** (n / 2) / math.gamma(n / 2)


def _check_positive_f(st: ClassSSpacetime, samples: int = 256) -> None:
    lo, hi = st.default_bracket()
    rs = np.geomspace(lo, hi, samples)
    fs = st.f(rs)
    if np.any(fs <= 0):
        bad = rs[np.argmin(fs)]
        raise InvalidFamilyParamsError(
            f"f(r) <= 0 at r = {bad:.6g} inside declared interval "
            f"({st.r_lo:.6g}, {st.r_hi})")


def build_family(family: str, n: int = 3, m: float | None = None,
                 q: float | None = None, L: float | None = None,
                 r_lo: float | None = None,
                 r_hi: float | None = None) -> ClassSSpacetime:
    """Construct a built-in spacetime family.

    Families: "minkowski"; "schwarzschild" (any n >= 3, mass m);
    "reissner-nordstrom" (n = 3, mass m, charge q); "schwarzschild-ads"
    (any n >= 3, mass m, curvature radius L > 0).
    """
    family = family.lower().replace("_", "-")
    if n < 3:
        raise InvalidFamilyParamsError(
            "built-in families require n >= 3; use custom_spacetime for n = 2")
    r_hi = math.inf if r_hi is None else float(r_hi)
    flags: tuple = ()

    if family == "minkowski":
        lo = 0.0 if r_lo is None else float(r_lo)
        # 0 * r keeps the shape of array arguments
        metric = MetricProfile(lambda r: (1.0 + 0.0 * r, 0.0 * r), "flat: f = 1")
        st = ClassSSpacetime(n, lo, r_hi, metric, "minkowski", {})
    elif family == "schwarzschild":
        if m is None:
            raise InvalidFamilyParamsError("schwarzschild requires mass m")
        m = float(m)
        rm = (2 * m) ** (1 / (n - 2)) if m > 0 else 0.0
        lo = rm if r_lo is None else float(r_lo)
        if m > 0 and lo < rm * (1 - 1e-12):
            raise InvalidFamilyParamsError(
                f"r_lo = {lo:.6g} below horizon radius {rm:.6g}")
        p = n - 2

        def evaluate(r, m=m, p=p):
            return 1 - 2 * m / r ** p, 2 * p * m / r ** (p + 1)

        metric = MetricProfile(evaluate, f"schwarzschild: f = 1 - 2m/r^{p}")
        st = ClassSSpacetime(n, lo, r_hi, metric, "schwarzschild", {"m": m})
    elif family in ("reissner-nordstrom", "rn"):
        if m is None or q is None:
            raise InvalidFamilyParamsError("reissner-nordstrom requires m and q")
        if n != 3:
            raise InvalidFamilyParamsError(
                "reissner-nordstrom built-in is n = 3 only; use a custom profile")
        m, q = float(m), float(q)
        if q ** 2 > m ** 2:
            flags = ("super-extremal",)
            rplus = 0.0
        else:
            rplus = m + math.sqrt(m ** 2 - q ** 2)
        lo = rplus if r_lo is None else float(r_lo)

        def evaluate(r, m=m, q=q):
            return 1 - 2 * m / r + q ** 2 / r ** 2, 2 * m / r ** 2 - 2 * q ** 2 / r ** 3

        metric = MetricProfile(evaluate, "reissner-nordstrom: f = 1 - 2m/r + q^2/r^2")
        st = ClassSSpacetime(n, lo, r_hi, metric, "reissner-nordstrom",
                             {"m": m, "q": q}, flags)
    elif family in ("schwarzschild-ads", "sads"):
        if m is None or L is None or L <= 0:
            raise InvalidFamilyParamsError("schwarzschild-ads requires m and L > 0")
        m, L = float(m), float(L)
        p = n - 2

        def fval(r, m=m, L=L, p=p):
            return 1 - 2 * m / r ** p + r ** 2 / L ** 2

        def evaluate(r, m=m, L=L, p=p):
            return fval(r), 2 * p * m / r ** (p + 1) + 2 * r / L ** 2

        if m > 0:
            # f is increasing from -inf with a single positive root r_H
            hi_guess = max((2 * m) ** (1 / p), L) * 4
            while fval(hi_guess) <= 0:
                hi_guess *= 2
            rH = brentq(fval, 1e-12, hi_guess, xtol=1e-14, rtol=8.9e-16)
        else:
            rH = 0.0
        lo = rH if r_lo is None else float(r_lo)
        metric = MetricProfile(evaluate, f"schwarzschild-ads: f = 1 - 2m/r^{p} + r^2/L^2")
        st = ClassSSpacetime(n, lo, r_hi, metric, "schwarzschild-ads",
                             {"m": m, "L": L})
    else:
        raise UnknownFamilyError(f"unknown family {family!r}")

    if st.r_lo >= st.r_hi:
        raise InvalidFamilyParamsError("empty radial interval")
    _check_positive_f(st)
    return st


def custom_spacetime(f, n: int, r_lo: float, r_hi: float,
                     fprime=None, description: str = "custom") -> ClassSSpacetime:
    """Spacetime with a user-supplied profile; n = 2 is permitted here."""
    if n < 2:
        raise InvalidFamilyParamsError("need n >= 2")
    r_lo, r_hi = float(r_lo), float(r_hi)
    if isinstance(f, MetricProfile):
        metric = f
    else:
        probe = np.geomspace(*ClassSSpacetime(n, r_lo, r_hi, None).default_bracket(), 4)
        f = _array_callable(f, probe)
        if fprime is not None:
            fprime = _array_callable(fprime, probe)
            metric = MetricProfile(lambda r: (f(r), fprime(r)), description)
        else:
            metric = MetricProfile.from_f(f, description)
    st = ClassSSpacetime(n, r_lo, r_hi, metric, "custom")
    _check_positive_f(st)
    return st


def _pointwise(fn):
    """A scalar function ``fn`` extended to 1-D arrays entry by entry; a
    tuple-valued ``fn`` gives one array per tuple member."""
    def wrapped(r):
        if isinstance(r, np.ndarray) and r.ndim:
            return np.array([fn(x) for x in r.tolist()]).T
        return fn(r)

    return wrapped


def _array_callable(fn, probe):
    """``fn`` if it maps the 1-D array ``probe`` to an array of its shape,
    otherwise its pointwise extension."""
    try:
        ok = np.shape(fn(probe)) == probe.shape
    except (TypeError, ValueError):  # e.g. math functions, `if r < x` tests
        ok = False
    return fn if ok else _pointwise(fn)


def spacetime_from_table(path, n: int = 3, r_lo: float | None = None,
                         r_hi: float | None = None) -> ClassSSpacetime:
    """Custom profile from a CSV table with header "r,f" (monotone r)."""
    rs, fs = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip() for c in header[:2]] != ["r", "f"]:
            raise DomainError(f"profile table must have header 'r,f', got {header}")
        for row in reader:
            if not row:
                continue
            rs.append(float(row[0]))
            fs.append(float(row[1]))
    rs, fs = np.asarray(rs), np.asarray(fs)
    if len(rs) < 4 or np.any(np.diff(rs) <= 0):
        raise DomainError("profile table needs >= 4 rows with strictly increasing r")
    interp = PchipInterpolator(rs, fs)
    dinterp = interp.derivative()
    metric = MetricProfile(lambda r: (interp(r), dinterp(r)),
                           f"table profile ({path})")
    lo = rs[0] if r_lo is None else float(r_lo)
    hi = rs[-1] if r_hi is None else float(r_hi)
    st = ClassSSpacetime(n, lo, hi, metric, "custom")
    _check_positive_f(st)
    return st


# ---------------------------------------------------------------------------
# Isotropic form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsotropicForm:
    """Conformally flat form -Ntilde^2 dt^2 + psi^2 delta on s in (s_lo, s_hi).

    ``psi`` and ``lapse`` map s to (value, d/ds). When the form was produced
    by :func:`to_isotropic`, the coordinate maps ``s_of_r``/``r_of_s`` and the
    source spacetime are attached.
    """

    s_lo: float
    s_hi: float
    psi: Callable[[float], tuple[float, float]]
    lapse: Callable[[float], tuple[float, float]]
    source: Optional[ClassSSpacetime] = None
    r0: Optional[float] = None
    s_of_r: Optional[Callable] = None
    r_of_s: Optional[Callable] = None

    def contains(self, s) -> bool:
        return self.s_lo < s < self.s_hi

    def log_derivative_gap(self, s) -> float:
        """Ntilde'/Ntilde - psi'/psi at s; zero signals local conformal flatness."""
        p, dp = self.psi(s)
        nn, dnn = self.lapse(s)
        return dnn / nn - dp / p


def _quad(func, a, b, **kw):
    """Adaptive quadrature with roundoff-level accuracy warnings silenced.

    Tolerances are requested near machine precision on purpose; QUADPACK
    then reports that the extrapolation table is roundoff limited, which is
    the expected best case, not a failure.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(func, a, b, **kw)


def _schwarzschild_iso_radius(r: float, m: float, n: int) -> float:
    """Solve r = s * (1 + m/(2 s^(n-2)))^(2/(n-2)) for s (m > 0, exterior)."""
    p = n - 2
    sm = (m / 2) ** (1 / p)

    def g(s):
        return s * (1 + m / (2 * s ** p)) ** (2 / p) - r

    hi = max(r, 2 * sm)
    while g(hi) < 0:
        hi *= 2
    return brentq(g, sm * (1 + 1e-14), hi, xtol=1e-15, rtol=8.9e-16)


def to_isotropic(st: ClassSSpacetime, r0: float,
                 normalization: float | None = None,
                 quad_tol: float = 1e-12) -> IsotropicForm:
    """Rewrite a class-S spacetime in isotropic form around base radius r0.

    The isotropic radius is s(r) = C exp(int_{r0}^{r} (rho sqrt(f))^{-1} drho)
    with psi(s) = r(s)/s and lapse sqrt(f(r(s))). The multiplicative constant
    C is calibrated against the closed-form Schwarzschild transformation when
    the family is Schwarzschild with m > 0, and defaults to s(r0) = r0
    otherwise (pass ``normalization`` to override).
    """
    if not (st.r_lo <= r0 <= st.r_hi):
        raise DomainError(f"r0 = {r0:.6g} outside closure of ({st.r_lo:.6g}, {st.r_hi})")
    if r0 <= st.r_lo:
        r0 = st.r_lo * (1 + 1e-9)

    def integrand(rho):
        fv = st.f(rho)
        if fv <= 0:
            raise DomainError(f"f <= 0 at r = {rho:.6g} in integration range")
        return 1.0 / (rho * math.sqrt(fv))

    def u_of_r(r):
        # log of the unnormalized isotropic radius
        if r == r0:
            return 0.0
        val, _ = _quad(integrand, r0, r, epsabs=1e-14, epsrel=quad_tol, limit=300)
        return val

    if normalization is not None:
        const = float(normalization)
    elif st.family == "schwarzschild" and st.params.get("m", 0) > 0:
        const = _schwarzschild_iso_radius(r0, st.params["m"], st.n)
    else:
        const = r0
    log_const = math.log(const)

    # monotone guide grid for the inverse map
    lo, hi = st.default_bracket()
    lo = max(lo, st.r_lo * (1 + 1e-8)) if st.r_lo > 0 else lo
    hi = min(st.r_hi, max(hi, 10 * r0, 100.0))
    grid_r = np.geomspace(lo, hi, 240)
    if not np.any(np.isclose(grid_r, r0)):
        grid_r = np.sort(np.append(grid_r, r0))
    # cumulative integral between neighbours (cheap, smooth panels)
    grid_u = np.empty_like(grid_r)
    i0 = int(np.argmin(np.abs(grid_r - r0)))
    grid_u[i0] = u_of_r(grid_r[i0])
    for i in range(i0 + 1, len(grid_r)):
        inc, _ = _quad(integrand, grid_r[i - 1], grid_r[i],
                      epsabs=1e-14, epsrel=quad_tol, limit=200)
        grid_u[i] = grid_u[i - 1] + inc
    for i in range(i0 - 1, -1, -1):
        inc, _ = _quad(integrand, grid_r[i], grid_r[i + 1],
                      epsabs=1e-14, epsrel=quad_tol, limit=200)
        grid_u[i] = grid_u[i + 1] - inc
    guess_r = PchipInterpolator(grid_u, np.log(grid_r))

    def s_of_r(r):
        r = np.asarray(r, dtype=float)
        if r.ndim == 0:
            return const * math.exp(u_of_r(float(r)))
        order = np.argsort(r)
        rs = r[order]
        us = np.empty_like(rs)
        us[0] = u_of_r(rs[0])
        for i in range(1, len(rs)):
            if rs[i] == rs[i - 1]:
                us[i] = us[i - 1]
                continue
            inc, _ = _quad(integrand, rs[i - 1], rs[i],
                          epsabs=1e-14, epsrel=quad_tol, limit=200)
            us[i] = us[i - 1] + inc
        out = np.empty_like(us)
        out[order] = const * np.exp(us)
        return out

    def r_of_s(s):
        s_arr = np.asarray(s, dtype=float)
        scalar = s_arr.ndim == 0

        def solve_one(sv):
            target = math.log(sv) - log_const
            r = float(np.exp(guess_r(np.clip(target, grid_u[0], grid_u[-1]))))
            # Newton on u(r) - target with u' = 1/(r sqrt(f))
            for _ in range(60):
                resid = u_of_r(r) - target
                step = -resid * r * math.sqrt(st.f(r))
                if r + step <= st.r_lo:
                    step = (st.r_lo * (1 + 1e-13) - r)
                r += step
                if abs(step) <= 1e-15 * max(1.0, abs(r)):
                    break
            return r

        if scalar:
            return solve_one(float(s_arr))
        return np.array([solve_one(sv) for sv in s_arr.ravel()]).reshape(s_arr.shape)

    def psi(s):
        r = r_of_s(s)
        fv = st.f(r)
        sq = math.sqrt(fv)
        return r / s, r * (sq - 1.0) / s ** 2

    def lapse(s):
        r = r_of_s(s)
        fv, dfv = st.metric(r)
        return math.sqrt(fv), dfv * r / (2 * s)

    # interval endpoints in s
    if st.r_lo > 0:
        a = grid_r[0]
        f_lo, df_lo = st.metric(st.r_lo)
        if f_lo > 1e-10:
            # no degeneration at the boundary: plain integral
            tail, _ = _quad(integrand, st.r_lo, a,
                           epsabs=1e-13, epsrel=quad_tol, limit=300)
            s_lo = const * math.exp(grid_u[0] - tail)
        elif df_lo > 0:
            # integrable sqrt-singularity at a simple zero of f: substitute
            # rho = r_lo + w^2 so the integrand is regular at w = 0
            w_reg = 1e-7 * math.sqrt(a - st.r_lo)
            limit_val = 2.0 / (st.r_lo * math.sqrt(df_lo))

            def sub_integrand(w):
                if w <= w_reg:
                    return limit_val
                rho = st.r_lo + w * w
                fv = st.f(rho)
                return 2 * w / (rho * math.sqrt(fv)) if fv > 0 else limit_val

            try:
                tail, _ = _quad(sub_integrand, 0.0, math.sqrt(a - st.r_lo),
                                epsabs=1e-13, epsrel=quad_tol, limit=300)
                s_lo = const * math.exp(grid_u[0] - tail) \
                    if math.isfinite(tail) else 0.0
            except Exception:
                s_lo = 0.0
        else:
            s_lo = 0.0
    else:
        s_lo = 0.0
    if math.isinf(st.r_hi):
        # s ~ r when f -> const > 0 (integrand ~ 1/rho, divergent tail);
        # when f grows, the tail converges and s_hi is finite
        big = 1e8 * grid_r[-1]
        if big * integrand(big) > 1e-3:
            s_hi = math.inf
        else:
            try:
                tail, _ = _quad(integrand, grid_r[-1], np.inf,
                               epsabs=1e-13, epsrel=quad_tol, limit=300)
                s_hi = const * math.exp(grid_u[-1] + tail) \
                    if math.isfinite(tail) else math.inf
            except Exception:
                s_hi = math.inf
    else:
        s_hi = float(s_of_r(st.r_hi * (1 - 1e-12)))

    return IsotropicForm(s_lo, s_hi, psi, lapse, source=st, r0=r0,
                         s_of_r=s_of_r, r_of_s=r_of_s)


def _iso_grid(iso: IsotropicForm, num: int) -> np.ndarray:
    lo = iso.s_lo if iso.s_lo > 0 else 1e-6
    lo *= 1 + 1e-7
    hi = iso.s_hi if math.isfinite(iso.s_hi) else max(100.0, 100 * lo)
    hi *= 1 - 1e-7
    return np.geomspace(lo, hi, num)


def from_isotropic(iso: IsotropicForm, samples: int = 512,
                   tol: float = 1e-8) -> ClassSSpacetime:
    """Rewrite isotropic data in area-radius form.

    Requires the compatibility condition Ntilde = 1 + s psi'/psi > 0 on the
    interval; then r(s) = s psi(s) and f(r) = Ntilde(s(r))^2.
    """
    ss = _iso_grid(iso, samples)
    worst_s, worst_res = None, 0.0
    rs = np.empty_like(ss)
    for i, s in enumerate(ss):
        p, dp = iso.psi(s)
        nn, _ = iso.lapse(s)
        res = abs(nn - (1.0 + s * dp / p))
        if res > worst_res:
            worst_res, worst_s = res, s
        rs[i] = s * p
    if worst_res > tol:
        raise CompatibilityError(
            f"compatibility condition violated: |Ntilde - (1 + s psi'/psi)| = "
            f"{worst_res:.3e} at s = {worst_s:.6g}", worst_s, worst_res)
    if np.any(np.diff(rs) <= 0):
        raise CompatibilityError("r(s) = s psi(s) is not strictly increasing")

    guess_s = PchipInterpolator(rs, ss)

    def s_of_r(r):
        s = float(guess_s(np.clip(r, rs[0], rs[-1])))
        for _ in range(60):
            p, dp = iso.psi(s)
            step = (r - s * p) / (p + s * dp)
            s += step
            if abs(step) <= 1e-15 * max(1.0, abs(s)):
                break
        return s

    def evaluate(r):
        s = s_of_r(r)
        p, dp = iso.psi(s)
        nn, dnn = iso.lapse(s)
        return nn * nn, 2 * nn * dnn / (p + s * dp)

    # the inverse map s_of_r is a scalar Newton solve
    metric = MetricProfile(_pointwise(evaluate), "from isotropic data")
    r_lo = float(rs[0]) * (1 - 1e-9)
    r_hi = math.inf if math.isinf(iso.s_hi) else float(rs[-1]) * (1 + 1e-9)
    n = iso.source.n if iso.source is not None else 3
    return ClassSSpacetime(n, r_lo, r_hi, metric, "custom",
                           {"origin": "from_isotropic"})


def conformal_flatness_scan(iso: IsotropicForm, grid: int = 512,
                            tol: float = 1e-10) -> list[tuple[float, float]]:
    """Maximal grid subintervals where the log-derivatives of lapse and psi agree.

    On such subintervals the spacetime is locally conformally flat and extra
    photon surfaces (translated hyperboloids, tilted planes) may exist; an
    empty list certifies the generic condition on the grid.
    """
    if grid < 2:
        raise DomainError("need grid >= 2")
    if not (iso.s_lo < iso.s_hi):
        return []
    ss = _iso_grid(iso, grid)
    flat = np.array([abs(iso.log_derivative_gap(s)) < tol for s in ss])
    intervals = []
    i = 0
    while i < len(ss):
        if flat[i]:
            j = i
            while j + 1 < len(ss) and flat[j + 1]:
                j += 1
            intervals.append((float(ss[i]), float(ss[j])))
            i = j + 1
        else:
            i += 1
    return intervals
