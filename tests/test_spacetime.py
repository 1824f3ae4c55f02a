import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from photonsurf import (
    CompatibilityError,
    DomainError,
    IsotropicForm,
    InvalidFamilyParamsError,
    UnknownFamilyError,
    build_family,
    conformal_flatness_scan,
    custom_spacetime,
    from_isotropic,
    spacetime_from_table,
    to_isotropic,
)
from photonsurf import ode


def test_minkowski_profile(minkowski):
    assert minkowski.f(3.7) == 1.0
    assert minkowski.fprime(3.7) == 0.0
    assert minkowski.vacuum
    assert minkowski.einstein_constant == 0.0


def test_schwarzschild_profile(schw3):
    assert schw3.f(4.0) == pytest.approx(0.5, abs=1e-15)
    assert schw3.fprime(4.0) == pytest.approx(2 / 16, abs=1e-15)
    assert schw3.r_lo == 2.0
    assert math.isinf(schw3.r_hi)
    assert schw3.vacuum


def test_schwarzschild_higher_dim_horizon():
    st = build_family("schwarzschild", n=5, m=1)
    rm = 2.0 ** (1 / 3)
    assert st.r_lo == pytest.approx(rm, rel=1e-15)
    assert st.f(rm * 1.0000001) > 0


def test_reissner_nordstrom():
    st = build_family("reissner-nordstrom", m=1, q=0.5)
    rplus = 1 + math.sqrt(1 - 0.25)
    assert st.r_lo == pytest.approx(rplus, rel=1e-15)
    assert st.f(3.0) == pytest.approx(1 - 2 / 3 + 0.25 / 9, rel=1e-15)
    assert not st.vacuum
    assert st.einstein_constant is None


def test_reissner_nordstrom_super_extremal_flag():
    st = build_family("rn", m=1, q=1.5)
    assert "super-extremal" in st.flags
    assert st.r_lo == 0.0


def test_reissner_nordstrom_rejects_higher_dim():
    with pytest.raises(InvalidFamilyParamsError):
        build_family("reissner-nordstrom", n=4, m=1, q=0.5)


@pytest.mark.parametrize("m, q", [(2e154, 1e154), (1e155, 0.0), (1e200, 0.0), (1.0, 3e154)])
def test_reissner_nordstrom_beyond_the_float_range_is_invalid(m, q):
    # m^2 or q^2 overflows a Python float
    with pytest.raises(InvalidFamilyParamsError,
                       match="reissner-nordstrom: .* outside the float range"):
        build_family("reissner-nordstrom", m=m, q=q)


@pytest.mark.parametrize("n", [3, 4])
def test_positivity_scan_keeps_its_warnings(n):
    # f' = 2 p m / r^(p + 1) overflows on the scan of f > 0 with m = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = build_family("schwarzschild", n=n, m=1e300)
    assert st.r_lo == (2e300) ** (1 / (n - 2))


def test_schwarzschild_ads_horizon_and_lambda():
    st = build_family("schwarzschild-ads", n=3, m=1, L=10.0)
    rH = st.r_lo
    assert st.f(rH * (1 + 1e-13)) == pytest.approx(0.0, abs=1e-10)
    assert st.einstein_constant == pytest.approx(-3 / 100, rel=1e-15)


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        build_family("goedel", m=1)


def test_builtin_rejects_n2():
    with pytest.raises(InvalidFamilyParamsError):
        build_family("minkowski", n=2)


def test_custom_allows_n2():
    st = custom_spacetime(lambda r: 1.0, n=2, r_lo=0.0, r_hi=10.0)
    assert st.n == 2
    assert st.f(1.0) == 1.0


def test_custom_rejects_a_profile_nan_inside_its_interval():
    # f(2.5) = NaN: NaN <= 0 is False, so the check reads f > 0 instead
    with np.errstate(invalid="ignore"), pytest.raises(InvalidFamilyParamsError) as info:
        custom_spacetime(lambda r: np.sqrt(r - 3.0) + 0.5, 3, 2.0, 10.0)
    assert "f(r) = nan" in str(info.value)


def test_custom_numeric_derivative():
    st = custom_spacetime(lambda r: 1 - 2 / r, n=3, r_lo=2.0, r_hi=100.0)
    assert st.fprime(5.0) == pytest.approx(2 / 25, rel=1e-9)


def test_metric_profiles_accept_arrays(tmp_path):
    rs = np.geomspace(2.5, 40.0, 7)
    table = tmp_path / "prof.csv"
    table.write_text("r,f\n" + "".join(
        f"{float(r)!r},{float(1 - 2 / r)!r}\n" for r in np.geomspace(2.2, 60.0, 50)))
    spacetimes = [
        build_family("minkowski"),
        build_family("schwarzschild", n=4, m=1),
        build_family("reissner-nordstrom", m=1, q=0.6),
        build_family("schwarzschild-ads", m=1, L=10.0),
        spacetime_from_table(table),
        custom_spacetime(lambda r: 1 - 2 / r, n=3, r_lo=2.0, r_hi=100.0),
        custom_spacetime(lambda r: 1 - 2 * math.exp(-math.log(r)), n=3,
                         r_lo=2.0, r_hi=100.0,
                         fprime=lambda r: 2 * math.exp(-2 * math.log(r))),
        custom_spacetime(lambda r: 1.0, n=2, r_lo=0.0, r_hi=10.0),
    ]
    for st in spacetimes:
        f, df = st.metric(rs)
        assert np.shape(f) == rs.shape and np.shape(df) == rs.shape
        scalar = np.array([st.metric(float(r)) for r in rs]).T
        np.testing.assert_allclose(f, scalar[0], rtol=1e-14, atol=0)
        np.testing.assert_allclose(df, scalar[1], rtol=1e-12, atol=1e-15)


def textbook_profile(family, n=3, m=None, q=None, L=None):
    """(f, f') of a built-in family as its textbook formula, every constant
    worked out again at each call."""
    p = n - 2
    if family == "minkowski":
        return lambda r: (1.0 + 0.0 * r, 0.0 * r)
    if family == "schwarzschild":
        return lambda r: (1 - 2 * m / r ** p, 2 * p * m / r ** (p + 1))
    if family == "schwarzschild-ads":
        return lambda r: (1 - 2 * m / r ** p + r ** 2 / L ** 2,
                          2 * p * m / r ** (p + 1) + 2 * r / L ** 2)

    def f(r):
        if q ** 2 > m ** 2:
            return 1 - 2 * m / r + q ** 2 / r ** 2
        root = math.sqrt(m ** 2 - q ** 2)
        return (r - (m + root)) * (r - (m - root)) / r ** 2

    return lambda r: (f(r), 2 * m / r ** 2 - 2 * q ** 2 / r ** 3)


def profile_outcome(evaluate, r):
    """The bytes of (f, f') at r, or the type of the exception raised."""
    try:
        with np.errstate(all="ignore"):
            f, df = evaluate(r)
    except (ZeroDivisionError, OverflowError) as e:
        return type(e)
    return np.asarray(f, dtype=float).tobytes(), np.asarray(df, dtype=float).tobytes()


FAMILY_PARAMS = [("minkowski", 3, {})] + [
    (family, n, params)
    for n in (3, 4, 5, 6)
    for family, params in [("schwarzschild", dict(m=1.0)), ("schwarzschild", dict(m=0.37)),
                           ("schwarzschild", dict(m=1e300)), ("schwarzschild", dict(m=-0.5)),
                           ("schwarzschild-ads", dict(m=1.0, L=10.0)),
                           ("schwarzschild-ads", dict(m=0.3, L=2.5))]
] + [("reissner-nordstrom", 3, dict(m=m, q=q))
     for m, q in [(1.0, 0.6), (1.0, 0.999999), (1.0, 1.1 ** 0.5), (3.7, 2.0), (1.0, 1.5)]]


@pytest.mark.parametrize("family, n, params", FAMILY_PARAMS,
                         ids=[f"{f}-n{n}-{p}" for f, n, p in FAMILY_PARAMS])
def test_built_in_profiles_equal_their_textbook_formulas_bit_for_bit(family, n, params):
    # the built-in profiles fold their constants when built; on floats and on
    # arrays they give the bits of the formulas written out, and raise the
    # same exceptions: ZeroDivisionError at r = 0 and OverflowError where a
    # power of r leaves the float range
    st = build_family(family, n=n, **params)
    reference = textbook_profile(family, n, **params)
    rng = np.random.default_rng(n)
    scale = max(1.0, st.r_lo)
    radii = np.concatenate((scale * 10 ** rng.uniform(-4, 4, 2000), -10 ** rng.uniform(-4, 4, 200),
                            [0.0, -0.0, 1e155, 1e200, 1e308, math.inf, -math.inf, math.nan]))
    for r in radii.tolist():
        assert profile_outcome(st.metric.evaluate, r) == profile_outcome(reference, r), r
    assert profile_outcome(st.metric.evaluate, radii) == profile_outcome(reference, radii)
    for r, error in ((0.0, ZeroDivisionError), (1e200, OverflowError)):
        if family != "minkowski":
            assert profile_outcome(st.metric.evaluate, r) is error


def test_math_module_profile_integrates(schw3):
    from photonsurf import PhotonSurfaceSpec, integrate_profile
    # Schwarzschild written with scalar-only math functions: the profile is
    # applied point by point to arrays and gives the built-in curve
    st = custom_spacetime(lambda r: 1 - 2 * math.exp(-math.log(r)), n=3,
                          r_lo=2.0, r_hi=math.inf)
    spec = PhotonSurfaceSpec(alpha=0.15, r0=6.0, sign=1, span=(-2.0, 2.0))
    curve = integrate_profile(st, spec)
    reference = integrate_profile(schw3, spec)
    assert len(curve.s) == len(reference.s)
    assert np.max(np.abs(curve.r - reference.r)) < 1e-8
    assert np.max(curve.unit_residual) < 1e-9


def test_negative_f_rejected():
    with pytest.raises(InvalidFamilyParamsError):
        custom_spacetime(lambda r: 1 - r, n=3, r_lo=0.5, r_hi=10.0)


def test_table_profile(tmp_path):
    rs = np.geomspace(2.2, 60.0, 400)
    path = tmp_path / "prof.csv"
    with open(path, "w") as fh:
        fh.write("r,f\n")
        for r in rs:
            fh.write(f"{float(r)!r},{float(1 - 2 / r)!r}\n")
    st = spacetime_from_table(path)
    assert st.f(10.0) == pytest.approx(0.8, abs=1e-8)
    assert st.fprime(10.0) == pytest.approx(0.02, abs=1e-6)


def test_table_profile_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("radius,value\n1,1\n2,1\n3,1\n4,1\n")
    with pytest.raises(DomainError):
        spacetime_from_table(path)


# isotropic form ------------------------------------------------------------

def test_isotropic_beyond_the_float_range_raises_domain_error():
    # f'(r_lo) = 2m / r_lo^2 leaves the float range with m = 1e300
    st = build_family("schwarzschild", m=1e300)
    with pytest.raises(DomainError, match=r"r0 = 3e\+300 leaves the float range"):
        to_isotropic(st, 3e300)


def test_isotropic_schwarzschild_closed_form(schw3_iso):
    # phi_m = (1 + m/(2s))^2 and Ntilde = (1 - m/2s)/(1 + m/2s) at n = 3
    for s in (0.7, 1.0, 2.0, 5.0, 20.0):
        p, dp, nn, dnn = schw3_iso.evaluate(s)
        phi = (1 + 1 / (2 * s)) ** 2
        ntil = (1 - 1 / (2 * s)) / (1 + 1 / (2 * s))
        assert p == pytest.approx(phi, abs=1e-8)
        assert nn == pytest.approx(abs(ntil), abs=1e-8)
        assert dp == pytest.approx(-2 * (1 + 1 / (2 * s)) / (2 * s ** 2), abs=1e-8)


def test_isotropic_interval_endpoints(schw3_iso):
    assert schw3_iso.s_lo == pytest.approx(0.5, abs=1e-8)
    assert math.isinf(schw3_iso.s_hi)


def test_isotropic_coordinate_maps(schw3_iso):
    s4 = (3 + 2 * math.sqrt(2)) / 2
    assert float(schw3_iso.s_of_r(4.0)) == pytest.approx(s4, abs=1e-10)
    assert float(schw3_iso.r_of_s(s4)) == pytest.approx(4.0, abs=1e-10)
    arr = schw3_iso.s_of_r(np.array([3.0, 4.0, 10.0]))
    assert arr[1] == pytest.approx(s4, abs=1e-10)
    assert np.all(np.diff(arr) > 0)


def test_isotropic_round_trip(schw3, schw3_iso):
    back = from_isotropic(schw3_iso)
    for r in (2.5, 3.0, 7.0, 40.0):
        assert back.f(r) == pytest.approx(schw3.f(r), abs=1e-8)
        assert back.fprime(r) == pytest.approx(schw3.fprime(r), abs=1e-6)
    rs = np.array([2.5, 7.0])
    f, df = back.metric(rs)
    assert np.array_equal(f, [back.f(2.5), back.f(7.0)])
    assert np.array_equal(df, [back.fprime(2.5), back.fprime(7.0)])


def test_from_isotropic_evaluates_arrays_in_one_pass(schw3_iso):
    calls = []

    def evaluate(s):
        calls.append(np.size(s))
        return schw3_iso.evaluate(s)

    back = from_isotropic(dataclasses.replace(schw3_iso, evaluate=evaluate))
    counts = {}
    for n in (2, 200):
        rs = np.geomspace(2.5, 40.0, n)
        calls.clear()
        f, df = back.metric(rs)
        counts[n] = len(calls)
        scalar = np.array([back.metric(float(r)) for r in rs]).T
        np.testing.assert_array_equal(f, scalar[0])
        np.testing.assert_array_equal(df, scalar[1])
    assert counts[200] <= counts[2] + 2 < 20


def test_from_isotropic_incompatible_data():
    from photonsurf import IsotropicForm
    iso = IsotropicForm(
        s_lo=1.0, s_hi=10.0,
        evaluate=lambda s: (1.0, 0.0, 2.0, 0.0))  # Ntilde != 1 + s psi'/psi
    with pytest.raises(CompatibilityError) as exc:
        from_isotropic(iso)
    assert exc.value.worst_residual == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family,params", [
    ("schwarzschild", {"n": 3, "m": 1}), ("schwarzschild", {"n": 5, "m": 1}),
    ("reissner-nordstrom", {"m": 1, "q": 0.6}),
    ("schwarzschild-ads", {"m": 1, "L": 10})])
def test_isotropic_evaluate_matches_psi_and_lapse(family, params):
    # one r(s) for both pairs gives the bits of psi and lapse, each of them
    # evaluated on its own r(s) as psi = r/s, psi' = r (sqrt(f) - 1)/s^2,
    # N = sqrt(f), N' = f' r/(2 s)
    from photonsurf.spacetime import _iso_grid
    st = build_family(family, **params)
    iso = to_isotropic(st, r0=4.7)
    ss = _iso_grid(iso, 256)

    def psi(s):
        r = iso.r_of_s(s)
        return r / s, r * (np.sqrt(st.f(r)) - 1.0) / s ** 2

    def lapse(s):
        r = iso.r_of_s(s)
        fv, dfv = st.metric(r)
        return np.sqrt(fv), dfv * r / (2 * s)

    for s in (ss, float(ss[100])):
        both = iso.evaluate(s)
        assert len(both) == 4
        for a, b in zip(both, (*psi(s), *lapse(s))):
            assert np.shape(a) == np.shape(s)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_isotropic_evaluate_of_a_form_built_by_hand():
    # the one function a form is built from is its evaluator, and the checks
    # read it: log_derivative_gap = N'/N - psi'/psi
    from photonsurf import IsotropicForm
    iso = IsotropicForm(1.0, 10.0, lambda s: (s, 1.0, 2 * s, 2.0))
    assert iso.evaluate(3.0) == (3.0, 1.0, 6.0, 2.0)
    assert iso.log_derivative_gap(3.0) == 2.0 / 6.0 - 1.0 / 3.0
    assert iso.source is None and iso.s_of_r is None and iso.r_of_s is None


def test_conformal_flatness_scan_schwarzschild_empty(schw3_iso):
    assert conformal_flatness_scan(schw3_iso) == []


def test_conformal_flatness_scan_flat_everywhere(minkowski):
    iso = to_isotropic(minkowski, r0=1.0)
    intervals = conformal_flatness_scan(iso)
    assert len(intervals) == 1


def test_conformal_flatness_scan_separate_runs():
    # psi = 1 and a lapse that grows only on (4, 7): flat below 4 and above 7
    from photonsurf import IsotropicForm
    from photonsurf.spacetime import _iso_grid

    def evaluate(s):
        return 1.0, 0.0, 1 + np.clip(s, 4.0, 7.0), ((s > 4) & (s < 7)).astype(float)

    iso = IsotropicForm(1.0, 10.0, evaluate)
    ss = _iso_grid(iso, 512)
    below, above = ss[ss <= 4], ss[ss >= 7]
    assert conformal_flatness_scan(iso) == [
        (float(below[0]), float(below[-1])), (float(above[0]), float(above[-1]))]


@settings(max_examples=25, deadline=None)
@given(r=st_.floats(min_value=2.05, max_value=80.0))
def test_isotropic_map_round_trips(schw3_iso, r):
    s = float(schw3_iso.s_of_r(r))
    assert schw3_iso.s_lo < s < 1000.0
    assert float(schw3_iso.r_of_s(s)) == pytest.approx(r, rel=1e-9)


# Interval endpoints of the isotropic map against independent references.
# Schwarzschild: closed form s_lo = (m/2)^(1/(n-2)). The others are mpmath
# quadratures at 30 digits with s(r0) = r0: s_lo = r0 exp(-int_0^w0 2w/(r
# sqrt(f)) dw) with r = r_lo + w^2, s_hi = r0 exp(int_r0^inf dr/(r sqrt(f))).
@pytest.mark.parametrize("params, r0, s_lo, s_hi", [
    (dict(family="schwarzschild", n=3, m=1), 4.0, 0.5, math.inf),
    (dict(family="schwarzschild", n=5, m=1), 4.0, 2 ** (-1 / 3), math.inf),
    (dict(family="reissner-nordstrom", m=1, q=0.6), 5.0,
     0.50510257216821924, math.inf),
    (dict(family="schwarzschild-ads", m=1, L=10.0), 5.0,
     0.71399592517886235, 22.957006764602625),
], ids=["schwarzschild-n3", "schwarzschild-n5", "rn-q0.6", "sads-L10"])
def test_isotropic_endpoints_match_references(params, r0, s_lo, s_hi):
    iso = to_isotropic(build_family(**params), r0=r0)
    assert iso.s_lo == pytest.approx(s_lo, rel=1e-10, abs=0)
    if math.isinf(s_hi):
        assert math.isinf(iso.s_hi)
    else:
        assert iso.s_hi == pytest.approx(s_hi, rel=1e-10, abs=0)


@pytest.mark.parametrize("params, r0", [
    (dict(family="schwarzschild", n=3, m=1), 4.0),
    (dict(family="schwarzschild", n=5, m=1), 4.0),
    (dict(family="reissner-nordstrom", m=1, q=0.6), 5.0),
    (dict(family="schwarzschild-ads", m=1, L=10.0), 5.0),
], ids=["schwarzschild-n3", "schwarzschild-n5", "rn-q0.6", "sads-L10"])
def test_isotropic_maps_accept_arrays(params, r0):
    # a float runs through the maps as a one-element array, so it gets the
    # bits of the same value inside an array: numpy's scalar powers never
    # stand in for its array powers (checked on 500 radii up to 1e3 too)
    iso = to_isotropic(build_family(**params), r0=r0)
    ss = np.concatenate([
        np.geomspace(iso.s_lo * 1.001, min(iso.s_hi, 1e3) * 0.999, 9),
        iso.s_of_r(np.geomspace(iso.source.r_lo * (1 + 1e-6), 1e3, 500))])
    rs = iso.r_of_s(ss)
    assert rs.shape == ss.shape
    for fn, x in ((iso.evaluate, ss), (iso.s_of_r, rs), (iso.r_of_s, ss)):
        scalar = np.array([fn(float(v)) for v in x])
        np.testing.assert_array_equal(np.array(fn(x)), scalar.T)


def test_isotropic_maps_reject_queries_outside_solved_range(schw3_iso):
    sads = to_isotropic(build_family("schwarzschild-ads", m=1, L=10.0), r0=5.0)
    bad = [(schw3_iso.s_of_r, 1.5), (schw3_iso.s_of_r, math.nan),
           (schw3_iso.r_of_s, 0.4), (schw3_iso.r_of_s, 1e30),
           (schw3_iso.evaluate, np.array([1.0, 0.25])), (schw3_iso.evaluate, -1.0),
           (sads.r_of_s, 1.01 * sads.s_hi), (sads.evaluate, 1.01 * sads.s_hi)]
    for fn, x in bad:
        with pytest.raises(DomainError):
            fn(x)


def test_isotropic_minkowski_is_identity(minkowski):
    iso = to_isotropic(minkowski, r0=1.0)
    assert iso.s_lo == 0.0 and math.isinf(iso.s_hi)
    rs = np.array([1e-3, 0.5, 1.0, 7.0, 1e4])
    np.testing.assert_allclose(iso.s_of_r(rs), rs, rtol=1e-11)
    np.testing.assert_allclose(iso.evaluate(rs)[0], 1.0, rtol=1e-11)


@pytest.mark.parametrize("q", [0.6, 0.999999])
def test_isotropic_reissner_nordstrom_closed_form(q):
    # with r_pm the horizons, int dr/(r sqrt(f)) = 2 log(sqrt(r - r_+) +
    # sqrt(r - r_-)), so s(r) = r0 (a(r) / a(r0))^2 with s(r0) = r0
    st = build_family("reissner-nordstrom", m=1, q=q)
    r_plus, r_minus, r0 = st.r_lo, 2 - st.r_lo, 5.0
    iso = to_isotropic(st, r0=r0)

    def a(r):
        return np.sqrt(r - r_plus) + np.sqrt(r - r_minus)

    rs = r_plus + np.array([0.0, 1e-8, 1e-4, 0.1, 1.0, 3.0, 50.0])
    np.testing.assert_allclose(iso.s_of_r(rs), r0 * (a(rs) / a(r0)) ** 2,
                               rtol=1e-10, atol=0)


def test_sads_horizon_across_hundreds_of_binary_orders():
    # the first bracket [1e-12, ~5.7e150] is cut at geometric means before
    # Brent's method, whose bisection steps would need ~540 halvings
    st = build_family("schwarzschild-ads", n=4, m=1e300, L=10)
    r_h = st.r_lo
    assert 1e75 < r_h < 1e76
    assert st.f(r_h * (1 - 1e-12)) < 0 < st.f(r_h * (1 + 1e-12))


def test_isotropic_form_keeps_the_work_of_its_solve(monkeypatch):
    # the form carries the work record of the map's one solve: the same as
    # running that solve directly; a form built by hand has none
    from photonsurf import IsotropicForm, spacetime

    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return ode._quadrature(*args, **kwargs)

    monkeypatch.setattr(spacetime, "_quadrature", recording)
    iso = to_isotropic(build_family("reissner-nordstrom", m=1, q=0.6), r0=4.0)
    (call,) = calls
    assert iso.work == ode._quadrature(*call[0], **call[1]).work
    assert sorted(iso.work["solve_stats"]) == ["backward", "forward"]
    assert all(h.accepted > 0 for h in iso.work["solve_stats"].values())
    assert IsotropicForm(1.0, 2.0, lambda s: (1.0, 0.0, 1.0, 0.0)
                         ).work["solve_stats"] == {}


def test_isotropic_form_runs_under_the_benchmark_tracer():
    # perfbench/tracer.py wraps to_isotropic, then every map of the returned
    # form that it names (psi, lapse, s_of_r, r_of_s) and that is not None:
    # here s_of_r and r_of_s. The traced form gives the untraced one's bits
    import importlib.util
    from pathlib import Path

    from photonsurf import spacetime
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    st = build_family("schwarzschild", m=1)
    plain = to_isotropic(st, 4.0)
    tracer = module.Tracer()
    tracer.install()
    try:
        traced = spacetime.to_isotropic(st, 4.0)
    finally:
        tracer.uninstall()
    ss, rs = np.geomspace(0.6, 50.0, 7), np.geomspace(2.5, 50.0, 7)
    assert [fn.__qualname__.startswith("Tracer.") for fn in (
        traced.s_of_r, traced.r_of_s, traced.evaluate)] == [True, True, False]
    for a, b in zip((*traced.evaluate(ss), traced.r_of_s(ss), traced.s_of_r(rs)),
                    (*plain.evaluate(ss), plain.r_of_s(ss), plain.s_of_r(rs))):
        assert a.tobytes() == b.tobytes()


# the four spacetimes of the isotropic checks (perfbench verify-iso)
ISO_FAMILIES = {
    "schwarzschild-n3": dict(family="schwarzschild", n=3, m=1),
    "schwarzschild-n5": dict(family="schwarzschild", n=5, m=1),
    "rn-q0.6": dict(family="reissner-nordstrom", m=1, q=0.6),
    "sads-L10": dict(family="schwarzschild-ads", m=1, L=10.0),
}


@pytest.mark.parametrize("r0", [3.0, 5.0, 8.0])
@pytest.mark.parametrize("name", sorted(ISO_FAMILIES))
def test_isotropic_forward_solve_steps_do_not_grow_with_log_r(name, r0):
    # in x = asinh(w/c), du/dx tends to a constant on the way out to
    # ISO_R_CAP r0; in w the same half-line took about 1,550 steps
    iso = to_isotropic(build_family(**ISO_FAMILIES[name]), r0=r0)
    assert 0 < iso.work["solve_stats"]["forward"].accepted <= 400


@pytest.mark.parametrize("r0", [3.0, 8.0])
@pytest.mark.parametrize("n", [3, 5])
def test_isotropic_schwarzschild_map_matches_closed_form_out_to_1e14(n, r0):
    # s = ((r^(p/2) + sqrt(r^p - 2m)) / 2)^(2/p), p = n - 2, from next to the
    # horizon out to 1e14
    st = build_family("schwarzschild", n=n, m=1)
    iso = to_isotropic(st, r0=r0)
    p = n - 2
    rs = np.geomspace(st.r_lo * (1 + 1e-10), 1e14, 2000)
    exact = ((rs ** (p / 2) + np.sqrt(rs ** p - 2)) / 2) ** (2 / p)
    np.testing.assert_allclose(iso.s_of_r(rs), exact, rtol=2e-12, atol=0)


@pytest.mark.parametrize("r_lo, r_hi", [(-math.inf, 10.0), (math.nan, 10.0),
                                        (2.0, math.nan), (2.0, -math.inf),
                                        (math.inf, math.inf), (7.0, 4.0), (3.0, 3.0)])
def test_every_constructor_rejects_a_bad_interval(tmp_path, r_lo, r_hi):
    # build_family alone checked the interval; custom_spacetime took all of
    # these and spacetime_from_table took (7, 4)
    table = tmp_path / "f.csv"
    table.write_text("r,f\n" + "".join(f"{r},1.0\n" for r in range(1, 12)))
    with pytest.raises(InvalidFamilyParamsError):
        build_family("minkowski", r_lo=r_lo, r_hi=r_hi)
    with pytest.raises(InvalidFamilyParamsError):
        custom_spacetime(lambda r: 1.0 + 0.0 * r, 3, r_lo, r_hi)
    with pytest.raises(InvalidFamilyParamsError):
        spacetime_from_table(table, r_lo=r_lo, r_hi=r_hi)


def horizon_table(path):
    """A Schwarzschild (m = 1) table of 400 rows: the first lies 1e-7 inside
    r = 2, the rest at 2 + 1e-12 ... 50 spaced in log(r - 2), so that the
    monotone interpolant is positive just above r = 2."""
    rs = np.concatenate(([2 * (1 - 1e-7)], 2 + np.geomspace(1e-12, 48, 399)))
    path.write_text("r,f\n" + "".join(f"{r!r},{1 - 2 / r!r}\n" for r in rs.tolist()))
    return path


@pytest.mark.parametrize("build, r_h", [
    (lambda r_lo, _: build_family("reissner-nordstrom", m=1, q=0.6, r_lo=r_lo),
     build_family("reissner-nordstrom", m=1, q=0.6).r_lo),
    (lambda r_lo, _: build_family("schwarzschild-ads", m=1, L=10.0, r_lo=r_lo),
     build_family("schwarzschild-ads", m=1, L=10.0).r_lo),
    (lambda r_lo, _: build_family("schwarzschild", n=3, m=1, r_lo=r_lo), 2.0),
    (lambda r_lo, _: build_family("schwarzschild", n=5, m=1, r_lo=r_lo),
     build_family("schwarzschild", n=5, m=1).r_lo),
    (lambda r_lo, _: custom_spacetime(lambda r: 1 - 2 / r, 3, r_lo, math.inf), 2.0),
    (lambda r_lo, path: spacetime_from_table(horizon_table(path), r_lo=r_lo), 2.0),
], ids=["rn", "sads", "schwarzschild-n3", "schwarzschild-n5", "custom", "table"])
def test_every_constructor_refuses_r_lo_just_inside_a_horizon(tmp_path, build, r_h):
    # the scan of f > 0 starts at r_lo (1 + 1e-6), so a zero of f between
    # r_lo and there is seen only by the read of f at r_lo (1 + 1e-12)
    path = tmp_path / "f.csv"
    for r_lo in (r_h, r_h * (1 - 1e-13)):
        assert build(r_lo, path).r_lo == r_lo
    with pytest.raises(InvalidFamilyParamsError, match="not > 0"):
        build(r_h * (1 - 1e-7), path)


def test_table_whose_first_row_lies_inside_the_horizon_is_refused(tmp_path):
    with pytest.raises(InvalidFamilyParamsError, match="not > 0"):
        spacetime_from_table(horizon_table(tmp_path / "f.csv"))


def test_negative_r_lo_becomes_zero_in_every_constructor(tmp_path):
    table = tmp_path / "f.csv"
    table.write_text("r,f\n" + "".join(f"{r},1.0\n" for r in range(0, 12)))
    for st in (build_family("minkowski", r_lo=-1.0, r_hi=10.0),
               custom_spacetime(lambda r: 1.0 + 0.0 * r, 3, -1.0, 10.0),
               spacetime_from_table(table, r_lo=-1.0, r_hi=10.0)):
        assert (st.r_lo, st.r_hi) == (0.0, 10.0)


def test_custom_rejects_n_below_2():
    with pytest.raises(InvalidFamilyParamsError, match="need n >= 2"):
        custom_spacetime(lambda r: 1.0, n=1, r_lo=0.0, r_hi=10.0)


def test_table_skips_blank_rows_and_needs_four(tmp_path):
    rows = "r,f\n2,0.5\n\n3,0.6\n4,0.7\n\n5,0.8\n"
    (tmp_path / "blank.csv").write_text(rows)
    (tmp_path / "plain.csv").write_text(rows.replace("\n\n", "\n"))
    # a third column, here not a number in one row, is not read
    (tmp_path / "wide.csv").write_text("r,f,g\n2,0.5,1\n3,0.6,x\n\n4,0.7,\n5,0.8,2,3\n")
    blank = spacetime_from_table(tmp_path / "blank.csv")
    plain = spacetime_from_table(tmp_path / "plain.csv")
    wide = spacetime_from_table(tmp_path / "wide.csv")
    assert (blank.r_lo, blank.r_hi) == (plain.r_lo, plain.r_hi) == (2.0, 5.0)
    assert (wide.r_lo, wide.r_hi) == (2.0, 5.0)
    rs = np.linspace(2.1, 4.9, 9)
    assert blank.f(rs).tobytes() == plain.f(rs).tobytes() == wide.f(rs).tobytes()
    (tmp_path / "three.csv").write_text("r,f\n2,0.5\n3,0.6\n\n4,0.7\n")
    with pytest.raises(DomainError, match=">= 4 rows"):
        spacetime_from_table(tmp_path / "three.csv")


def test_table_values_load_as_float_parses_their_text(tmp_path, monkeypatch):
    # 10^4 random finite doubles of every exponent, subnormals included,
    # written as repr writes them: the rows the interpolant is given are
    # float() of each field, bit for bit
    import scipy.interpolate

    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, size=(2, 9000), dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2 ** 52, size=(2, 1000), dtype=np.uint64).view(np.float64)
    values = np.concatenate([bits, subnormal * rng.choice([-1.0, 1.0], (2, 1000))], axis=1)
    rs = np.unique(np.abs(values[0][np.isfinite(values[0])]))
    fs = rng.permutation(values[1][np.isfinite(values[1])])[:len(rs)]
    text = [(repr(r), repr(f)) for r, f in zip(rs.tolist(), fs.tolist())]
    assert sum(0 < r < 2.3e-308 for r in rs.tolist()) > 100
    assert sum(0 < abs(f) < 2.3e-308 for f in fs.tolist()) > 100
    path = tmp_path / "f.csv"
    path.write_text("r,f\n" + "".join(f"{r},{f}\n" for r, f in text))
    seen = []

    class Read(Exception):
        pass

    def interpolant(x, y):
        seen.append((x, y))
        raise Read  # the table is read; nothing more is needed

    monkeypatch.setattr(scipy.interpolate, "PchipInterpolator", interpolant)
    with pytest.raises(Read):
        spacetime_from_table(path)
    (x, y), = seen
    assert x.tobytes() == np.array([float(r) for r, _ in text]).tobytes()
    assert y.tobytes() == np.array([float(f) for _, f in text]).tobytes()


@pytest.mark.parametrize("row", ["6,abc", "6", "6,", "x,1"])
def test_a_table_row_that_is_not_two_numbers_is_refused_naming_the_file(tmp_path, row):
    path = tmp_path / "f.csv"
    path.write_text(f"r,f\n2,0.5\n3,0.6\n4,0.7\n5,0.8\n{row}\n")
    with pytest.raises(DomainError, match=f"profile table {re.escape(str(path))}: "):
        spacetime_from_table(path)


@pytest.mark.parametrize("q, r_lo", [(1.0, 0.5), (1.0, 1 - 1e-7),
                                     (0.99999, 0.5), (0.9999999, 0.5)])
def test_rn_refuses_an_interval_holding_a_zero_the_scan_steps_over(q, r_lo):
    # f = (r - r_+)(r - r_-)/r^2 is 0 at the double zero r_+ = r_- = m of q = m
    # and at most 2e-5 below 0 between r_- and r_+ for the others, a band
    # that no point of the 256-point scan lands in
    with pytest.raises(InvalidFamilyParamsError, match="not > 0"):
        build_family("reissner-nordstrom", m=1, q=q, r_lo=r_lo)


def test_rn_keeps_its_horizon_default_and_an_interval_inside_r_minus():
    assert build_family("reissner-nordstrom", m=1, q=1).r_lo == 1.0
    assert build_family("reissner-nordstrom", m=1, q=0.6).r_lo == 1.8
    # f > 0 on (0, r_-): an interval below the inner zero is taken
    st = build_family("reissner-nordstrom", m=1, q=1, r_lo=0.5, r_hi=0.99)
    assert (st.r_lo, st.r_hi) == (0.5, 0.99)


def test_from_isotropic_rejects_a_decreasing_radius():
    # psi = s^-2 and Ntilde = -1 satisfy Ntilde = 1 + s psi'/psi exactly, but
    # r = s psi = 1/s decreases: dr/ds = psi Ntilde < 0
    iso = IsotropicForm(1.0, 10.0, lambda s: (s ** -2.0, -2.0 * s ** -3.0,
                                              -1.0 + 0.0 * s, 0.0 * s))
    with pytest.raises(CompatibilityError, match="not strictly increasing"):
        from_isotropic(iso)


@pytest.mark.parametrize("s_lo, s_hi", [(5.0, 5.0), (6.0, 5.0)])
def test_conformal_flatness_scan_of_an_empty_interval(s_lo, s_hi):
    iso = IsotropicForm(s_lo, s_hi, lambda s: (1.0, 0.0, 1.0, 0.0))
    assert conformal_flatness_scan(iso) == []


def test_schwarzschild_ads_horizon_search_ends():
    # m = 5e-13, L = 1e150: f(1e-12) = 1 - 1 + 1e-24/1e300 is exactly 0, so
    # the halving leaves the upper end where f = 0 and the search doubles it
    st = build_family("schwarzschild-ads", m=1e-12 / 2, L=1e150)
    assert st.r_lo == pytest.approx(1e-12, rel=1e-15)
    # L = 1e154: r^2 at the upper end 4 L leaves the float range
    with pytest.raises(InvalidFamilyParamsError,
                       match="the horizon radius is outside the float range"):
        build_family("schwarzschild-ads", m=1, L=1e154)
