import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.optimize import brentq

from photonsurf import (
    DomainError,
    ForbiddenRadiusError,
    PhotonSurfaceSpec,
    StepControl,
    SurfaceKind,
    build_family,
    classify,
    find_photon_spheres,
    integrate_profile,
    minkowski_exact,
    ode_residuals,
    profile_slope_squared,
    surface_scalar_curvature_check,
    turning_points,
)
from photonsurf.errors import TooFewSamplesError

ALPHA_STAR = 1.0 / math.sqrt(27.0)


def test_schwarzschild_photon_sphere(schw3, schw3_spheres):
    assert len(schw3_spheres) == 1
    sp = schw3_spheres[0]
    assert sp.r_star == pytest.approx(3.0, abs=1e-12)
    assert sp.alpha_star == pytest.approx(ALPHA_STAR, abs=1e-14)
    assert sp.residual < 1e-10


def test_minkowski_has_no_photon_sphere(minkowski):
    assert find_photon_spheres(minkowski) == []


def test_reissner_nordstrom_photon_sphere():
    st = build_family("reissner-nordstrom", m=1, q=0.5)
    spheres = find_photon_spheres(st)
    assert len(spheres) == 1
    assert spheres[0].r_star == pytest.approx((3 + math.sqrt(7)) / 2, abs=1e-11)


def scalar_scan_roots(g, lo, hi, grid=512):
    """Root scan with g evaluated point by point: the loop the array scan
    replaced, kept as its reference."""
    rs = np.geomspace(lo, hi, grid)
    vals = [g(float(r)) for r in rs]
    roots = [float(brentq(g, rs[i], rs[i + 1], xtol=1e-13, rtol=8.9e-16))
             for i in range(grid - 1) if vals[i] * vals[i + 1] < 0]
    return roots + [float(r) for r, v in zip(rs, vals) if v == 0.0]


@pytest.mark.parametrize("family", [
    dict(family="schwarzschild", n=3, m=1), dict(family="schwarzschild", n=4, m=1),
    dict(family="schwarzschild", n=5, m=1), dict(family="schwarzschild", n=6, m=1),
    dict(family="schwarzschild", n=7, m=1),
    dict(family="reissner-nordstrom", m=1, q=0.6)])
def test_array_root_scans_match_scalar_loop(family):
    st = build_family(**family)
    lo, hi = st.default_bracket()
    spheres = find_photon_spheres(st)
    expected = scalar_scan_roots(
        lambda r: st.fprime(r) * r - 2 * st.f(r), lo, hi)
    assert len(spheres) == len(expected) == 1
    assert abs(spheres[0].r_star - expected[0]) <= 1e-12
    for factor in (0.6, 0.9, 1.3):
        alpha = factor * spheres[0].alpha_star
        expected = sorted(scalar_scan_roots(
            lambda r: alpha ** 2 * r ** 2 - st.f(r), lo, hi))
        got = turning_points(st, alpha)
        assert len(got) == len(expected)
        assert np.max(np.abs(np.array(got) - expected), initial=0.0) <= 1e-12


def test_turning_points_subcritical(schw3):
    tps = turning_points(schw3, 0.15)
    assert len(tps) == 2
    assert tps[0] == pytest.approx(2.259574943966662, abs=1e-10)
    assert tps[1] == pytest.approx(5.243216941077511, abs=1e-10)


def test_turning_points_supercritical(schw3):
    assert turning_points(schw3, 0.25) == []


def test_turning_points_satisfy_defining_equation(schw3):
    for r in turning_points(schw3, 0.18):
        assert 0.18 ** 2 * r ** 2 == pytest.approx(schw3.f(r), abs=1e-11)


def test_profile_slope_squared_sign(schw3):
    assert profile_slope_squared(schw3, 0.15, 3.0) < 0  # between turning radii
    assert profile_slope_squared(schw3, 0.15, 6.0) > 0


def test_minkowski_hyperboloid(minkowski):
    spec = PhotonSurfaceSpec(alpha=0.5, r0=2.0, sign=0, span=(-5.0, 5.0))
    curve = integrate_profile(minkowski, spec)
    exact = minkowski_exact(0.5, 0.0, curve.t)
    assert np.max(np.abs(curve.r - exact)) < 1e-9
    assert curve.monotone_t


def test_forbidden_radius(schw3):
    spec = PhotonSurfaceSpec(alpha=0.15, r0=3.0)
    with pytest.raises(ForbiddenRadiusError):
        integrate_profile(schw3, spec)


def test_r0_outside_interval(schw3):
    spec = PhotonSurfaceSpec(alpha=0.5, r0=1.9)
    with pytest.raises(ForbiddenRadiusError):
        integrate_profile(schw3, spec)


def test_photon_sphere_constant_curve(schw3):
    # alpha given to 8 digits still snaps to the exact cylinder
    spec = PhotonSurfaceSpec(alpha=0.19245009, r0=3.0, span=(-50.0, 50.0))
    curve = integrate_profile(schw3, spec)
    assert np.max(np.abs(curve.r - 3.0)) == 0.0
    assert np.max(curve.unit_residual) == 0.0
    assert curve.monotone_t


def test_critical_curve_asymptotes_to_sphere(schw3):
    spec = PhotonSurfaceSpec(alpha=ALPHA_STAR, r0=2.5, sign=1, span=(0.0, 100.0))
    curve = integrate_profile(schw3, spec)
    assert curve.termination == "asymptotic-to-photon-sphere"
    assert abs(curve.r[-1] - 3.0) < 1e-4
    assert np.max(np.abs(curve.r - 3.0)) <= 0.5 + 1e-9


def test_subcritical_curve_turns(schw3):
    spec = PhotonSurfaceSpec(alpha=0.15, r0=6.0, sign=-1, span=(0.0, 10.0))
    curve = integrate_profile(schw3, spec)
    # inward motion bounces at the outer turning radius (sampling limited)
    assert curve.r.min() == pytest.approx(5.243216941077511, abs=1e-5)
    assert curve.r[-1] > curve.r.min()


def test_inward_curve_stops_at_boundary(schw3):
    spec = PhotonSurfaceSpec(alpha=0.25, r0=3.0, sign=-1, span=(0.0, 100.0))
    curve = integrate_profile(schw3, spec)
    assert curve.termination == "boundary"
    assert curve.r[-1] < 2.1


def test_residual_report(schw3):
    spec = PhotonSurfaceSpec(alpha=0.15, r0=6.0, sign=1, span=(-2.0, 2.0))
    curve = integrate_profile(schw3, spec, StepControl(sample_spacing=1e-3))
    rep = ode_residuals(schw3, curve)
    assert rep.worst < 1e-5


def test_classification_kinds(schw3):
    assert classify(schw3, 0.15, 6.0).kind is SurfaceKind.SUBCRITICAL
    assert classify(schw3, 0.25, 3.0).kind is SurfaceKind.SUPERCRITICAL
    assert classify(schw3, ALPHA_STAR, 2.5).kind is SurfaceKind.CRITICAL
    assert classify(schw3, ALPHA_STAR, 3.0).kind is SurfaceKind.PHOTON_SPHERE


def test_classification_without_spheres(minkowski):
    cls = classify(minkowski, 0.5, 3.0)
    assert cls.kind is SurfaceKind.NO_SPHERE_REFERENCE
    assert turning_points(minkowski, 0.5) == [2.0]


def test_classification_regions(schw3):
    cls = classify(schw3, 0.15, 6.0)
    assert cls.regions == ("above",)
    assert classify(schw3, 0.25, 2.5).regions == ("below",)


def test_spec_validation():
    with pytest.raises(ValueError):
        PhotonSurfaceSpec(alpha=-1.0, r0=2.0)
    with pytest.raises(ValueError):
        PhotonSurfaceSpec(alpha=1.0, r0=2.0, sign=2)
    with pytest.raises(ValueError):
        PhotonSurfaceSpec(alpha=1.0, r0=2.0, span=(1.0, 2.0))
    with pytest.raises(ValueError):
        PhotonSurfaceSpec(alpha=math.nan, r0=2.0)
    with pytest.raises(ValueError):
        PhotonSurfaceSpec(alpha=1.0, r0=2.0, span=(0.0, 0.0))


@settings(max_examples=20, deadline=None)
@given(alpha=st_.floats(min_value=0.1, max_value=2.0))
def test_minkowski_profiles_match_hyperboloid(minkowski, alpha):
    r0 = 1.0 / alpha
    spec = PhotonSurfaceSpec(alpha=alpha, r0=r0, sign=0, span=(-2.0, 2.0))
    curve = integrate_profile(minkowski, spec)
    exact = minkowski_exact(alpha, 0.0, curve.t)
    assert np.max(np.abs(curve.r - exact)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(alpha=st_.floats(min_value=0.05, max_value=0.8),
       r0=st_.floats(min_value=2.2, max_value=20.0))
def test_conserved_quantities_hold(schw3, alpha, r0):
    if alpha ** 2 * r0 ** 2 < schw3.f(r0) * 1.05:
        return  # forbidden or marginal initial radius
    spec = PhotonSurfaceSpec(alpha=alpha, r0=r0, sign=1, span=(-1.0, 1.0))
    curve = integrate_profile(schw3, spec)
    assert np.max(curve.unit_residual) < 1e-9
    assert np.max(curve.umbilicity_residual(schw3)) < 1e-12


def test_alpha_checks_reject_nan(schw3):
    # classify(st, nan, 6) said Supercritical and turning_points(st, nan)
    # returned []: every alpha check is the spec's, which rejects NaN
    for call in (lambda a: classify(schw3, a, 6.0), lambda a: turning_points(schw3, a),
                 lambda a: minkowski_exact(a, 0.0, 1.0),
                 lambda a: PhotonSurfaceSpec(alpha=a, r0=6.0)):
        for alpha in (math.nan, 0.0, -0.1):
            with pytest.raises(ValueError, match="alpha must be positive"):
                call(alpha)


def test_too_few_samples_error_from_every_residual_check(schw3):
    spec = PhotonSurfaceSpec(alpha=0.15, r0=6.0, span=(0.0, 0.02))
    curve = integrate_profile(schw3, spec)
    assert len(curve.s) == 3
    with pytest.raises(TooFewSamplesError, match="fewer than the 5"):
        ode_residuals(schw3, curve)
    with pytest.raises(TooFewSamplesError, match="fewer than the 5"):
        surface_scalar_curvature_check(schw3, curve)


@pytest.mark.parametrize("m, q", [(60.0, 61.0), (100.0, 101.0), (1.0, 1.05)])
def test_super_extremal_rn_spheres_above_r_100(m, q):
    # for r_lo = 0 the spheres lie at (3m +- sqrt(9m^2 - 8q^2)) / 2, between
    # m and 2m: above the old scan top of 100 once m > 50
    st = build_family("reissner-nordstrom", m=m, q=q)
    root = math.sqrt(9 * m ** 2 - 8 * q ** 2)
    expected = [(3 * m - root) / 2, (3 * m + root) / 2]
    r_stars = [sp.r_star for sp in find_photon_spheres(st)]
    np.testing.assert_allclose(r_stars, expected, rtol=1e-12)


def test_sphere_scan_beyond_the_float_range_raises_domain_error():
    # m = 5e153: the array scan brackets r* = 1.5e154, whose r^2 leaves the
    # float range in the float arithmetic of the root polish; the scan must
    # say so with a package error and no numpy warning
    st = build_family("schwarzschild", m=5e153)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scan in (lambda: find_photon_spheres(st), lambda: st.spheres):
            with pytest.raises(DomainError, match=r"photon sphere scan of "
                               r"schwarzschild \{'m': 5e\+153\} leaves the float range"):
                scan()


def test_spheres_are_scanned_once_per_spacetime(monkeypatch):
    from photonsurf import surfaces
    scans = []

    def counting(st):
        scans.append(st)
        return find_photon_spheres(st)

    monkeypatch.setattr(surfaces, "find_photon_spheres", counting)
    st = build_family("schwarzschild", m=1)
    assert st.spheres == tuple(find_photon_spheres(st))
    classify(st, 0.15, 6.0)
    integrate_profile(st, PhotonSurfaceSpec(alpha=0.15, r0=6.0, span=(-1.0, 1.0)))
    assert st.spheres[0].r_star == pytest.approx(3.0, abs=1e-12)
    assert scans == [st]


def test_sign_zero_off_a_turning_point_is_forbidden(schw3):
    # alpha^2 r0^2 - f(r0) = 2.57 at r0 = 6: dr/ds cannot start at 0
    spec = PhotonSurfaceSpec(alpha=0.3, r0=6.0, sign=0, span=(-1.0, 1.0))
    with pytest.raises(ForbiddenRadiusError, match="sign = 0 is only valid at a turning point"):
        integrate_profile(schw3, spec)
