import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from photonsurf import (
    CompatibilityError,
    DomainError,
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

def test_isotropic_schwarzschild_closed_form(schw3_iso):
    # phi_m = (1 + m/(2s))^2 and Ntilde = (1 - m/2s)/(1 + m/2s) at n = 3
    for s in (0.7, 1.0, 2.0, 5.0, 20.0):
        p, dp = schw3_iso.psi(s)
        nn, dnn = schw3_iso.lapse(s)
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

    def psi(s):
        calls.append(np.size(s))
        return schw3_iso.psi(s)

    back = from_isotropic(dataclasses.replace(schw3_iso, psi=psi))
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
        psi=lambda s: (1.0, 0.0),
        lapse=lambda s: (2.0, 0.0))  # Ntilde != 1 + s psi'/psi
    with pytest.raises(CompatibilityError) as exc:
        from_isotropic(iso)
    assert exc.value.worst_residual == pytest.approx(1.0, abs=1e-12)


def test_conformal_flatness_scan_schwarzschild_empty(schw3_iso):
    assert conformal_flatness_scan(schw3_iso) == []


def test_conformal_flatness_scan_flat_everywhere(minkowski):
    iso = to_isotropic(minkowski, r0=1.0)
    intervals = conformal_flatness_scan(iso, grid=64)
    assert len(intervals) == 1


def test_conformal_flatness_scan_separate_runs():
    # psi = 1 and a lapse that grows only on (4, 7): flat below 4 and above 7
    from photonsurf import IsotropicForm
    from photonsurf.spacetime import _iso_grid

    def lapse(s):
        return 1 + np.clip(s, 4.0, 7.0), ((s > 4) & (s < 7)).astype(float)

    iso = IsotropicForm(1.0, 10.0, lambda s: (1.0, 0.0), lapse)
    ss = _iso_grid(iso, 64)
    below, above = ss[ss <= 4], ss[ss >= 7]
    assert conformal_flatness_scan(iso, grid=64) == [
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
    for fn, x in ((iso.psi, ss), (iso.lapse, ss), (iso.s_of_r, rs),
                  (iso.r_of_s, ss)):
        scalar = np.array([fn(float(v)) for v in x])
        np.testing.assert_array_equal(np.array(fn(x)), scalar.T)


def test_isotropic_maps_reject_queries_outside_solved_range(schw3_iso):
    sads = to_isotropic(build_family("schwarzschild-ads", m=1, L=10.0), r0=5.0)
    bad = [(schw3_iso.s_of_r, 1.5), (schw3_iso.s_of_r, math.nan),
           (schw3_iso.r_of_s, 0.4), (schw3_iso.r_of_s, 1e30),
           (schw3_iso.psi, np.array([1.0, 0.25])), (schw3_iso.lapse, -1.0),
           (sads.r_of_s, 1.01 * sads.s_hi), (sads.psi, 1.01 * sads.s_hi)]
    for fn, x in bad:
        with pytest.raises(DomainError):
            fn(x)


def test_isotropic_minkowski_is_identity(minkowski):
    iso = to_isotropic(minkowski, r0=1.0)
    assert iso.s_lo == 0.0 and math.isinf(iso.s_hi)
    rs = np.array([1e-3, 0.5, 1.0, 7.0, 1e4])
    np.testing.assert_allclose(iso.s_of_r(rs), rs, rtol=1e-11)
    np.testing.assert_allclose(iso.psi(rs)[0], 1.0, rtol=1e-11)


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
    # the form carries the per-half-line stats of the map's one solve: the
    # same as running that solve directly; a form built by hand has none
    from photonsurf import IsotropicForm, spacetime

    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return ode._solve(*args, **kwargs)

    monkeypatch.setattr(spacetime, "_solve", recording)
    iso = to_isotropic(build_family("reissner-nordstrom", m=1, q=0.6), r0=4.0)
    (call,) = calls
    assert iso.solve_stats == ode._solve(*call[0], **call[1]).stats
    assert sorted(iso.solve_stats) == ["backward", "forward"]
    assert all(h.accepted > 0 for h in iso.solve_stats.values())
    assert IsotropicForm(1.0, 2.0, lambda s: (1.0, 0.0),
                         lambda s: (1.0, 0.0)).solve_stats == {}


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
    assert 0 < iso.solve_stats["forward"].accepted <= 400


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
