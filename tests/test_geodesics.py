import math

import numpy as np
import pytest

from photonsurf import (
    ConservedCharges,
    ForbiddenRadiusError,
    PhotonSurfaceSpec,
    PrincipalNullError,
    SurfaceKind,
    build_family,
    classify,
    critical_impact_parameter,
    generated_surface_profile,
    integrate_null_geodesic,
    integrate_profile,
    umbilicity_from_charges,
)
from photonsurf import surfaces

ALPHA_STAR = 1.0 / math.sqrt(27.0)


def test_charges_validation():
    with pytest.raises(ValueError):
        ConservedCharges(energy=0.0, angular_momentum=1.0)
    with pytest.raises(ValueError):
        ConservedCharges(energy=1.0, angular_momentum=-1.0)
    assert ConservedCharges(energy=1.0, angular_momentum=0.0).principal


def test_umbilicity_factor():
    ch = ConservedCharges(energy=0.3, angular_momentum=1.5)
    assert umbilicity_from_charges(ch) == pytest.approx(0.2, rel=1e-15)
    with pytest.raises(PrincipalNullError):
        umbilicity_from_charges(ConservedCharges(energy=1.0, angular_momentum=0.0))


def test_critical_impact_parameter_schwarzschild(schw3, schw3_spheres):
    b = critical_impact_parameter(schw3, schw3_spheres[0])
    assert b == pytest.approx(3 * math.sqrt(3), abs=1e-12)


def test_critical_impact_parameter_schwarzschild_n4():
    from photonsurf import build_family, find_photon_spheres
    st = build_family("schwarzschild", n=4, m=1)
    sp = find_photon_spheres(st)[0]
    assert sp.r_star == pytest.approx(2.0, abs=1e-12)
    assert critical_impact_parameter(st, sp) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_null_constraint_preserved(schw3):
    ch = ConservedCharges(energy=0.3, angular_momentum=1.0)
    traj = integrate_null_geodesic(schw3, ch, 4.0, sign=1, span=(-10.0, 10.0))
    assert np.max(traj.null_residual) < 1e-10
    assert np.all(np.diff(traj.s) > 0)


def test_radial_geodesic(schw3):
    ch = ConservedCharges(energy=1.0, angular_momentum=0.0)
    traj = integrate_null_geodesic(schw3, ch, 4.0, sign=-1, span=(0.0, 10.0))
    assert traj.work["stop"]["forward"] == "boundary"
    assert np.all(np.diff(traj.r) < 0)
    assert np.max(np.abs(traj.phi)) == 0.0


def test_forbidden_initial_radius(schw3):
    ch = ConservedCharges(energy=0.1, angular_momentum=1.0)
    # E^2 < f/r^2 * ell^2 near the potential peak
    with pytest.raises(ForbiddenRadiusError):
        integrate_null_geodesic(schw3, ch, 3.0)


def test_circular_orbit_snaps(schw3):
    ch = ConservedCharges(energy=ALPHA_STAR, angular_momentum=1.0)
    traj = integrate_null_geodesic(schw3, ch, 3.0, span=(-30.0, 30.0))
    assert traj.work["stop"]["forward"] == "photon-sphere-snap"
    assert np.max(np.abs(traj.r - 3.0)) == 0.0
    # affine rates: dt/ds = E/f, dphi/ds = ell/r^2
    f = 1 / 3
    assert np.allclose(traj.t, ALPHA_STAR / f * traj.s, atol=1e-12)
    assert np.allclose(traj.phi, traj.s / 9.0, atol=1e-12)


def test_turning_point_start_with_zero_sign(schw3):
    # r0 on the turning radius of E/ell = 0.15
    r_turn = 5.243216941077511
    ch = ConservedCharges(energy=0.15, angular_momentum=1.0)
    traj = integrate_null_geodesic(schw3, ch, r_turn, sign=0, span=(-5.0, 5.0))
    assert traj.r.min() == pytest.approx(r_turn, abs=1e-9)


def test_generated_surface_matches_profile(schw3):
    ch = ConservedCharges(energy=0.15, angular_momentum=1.0)
    traj = integrate_null_geodesic(schw3, ch, 6.0, sign=1, span=(-25.0, 25.0))
    prof = generated_surface_profile(traj, st=schw3)
    spec = PhotonSurfaceSpec(alpha=0.15, r0=6.0, sign=1, span=(-5.0, 5.0))
    curve = integrate_profile(schw3, spec)
    r_interp = np.interp(curve.s, prof.s, prof.r)
    t_interp = np.interp(curve.s, prof.s, prof.t)
    mask = (curve.s > prof.s[0]) & (curve.s < prof.s[-1])
    assert np.max(np.abs(r_interp[mask] - curve.r[mask])) < 1e-8
    assert np.max(np.abs(t_interp[mask] - curve.t[mask])) < 1e-8
    assert np.max(prof.unit_residual) < 1e-9


def test_generated_surface_requires_angular_momentum(schw3):
    ch = ConservedCharges(energy=1.0, angular_momentum=0.0)
    traj = integrate_null_geodesic(schw3, ch, 4.0, sign=1, span=(0.0, 5.0))
    with pytest.raises(PrincipalNullError):
        generated_surface_profile(traj, schw3)


def test_generated_surface_from_circular_orbit(schw3):
    ch = ConservedCharges(energy=ALPHA_STAR, angular_momentum=1.0)
    traj = integrate_null_geodesic(schw3, ch, 3.0, span=(0.0, 30.0))
    prof = generated_surface_profile(traj, st=schw3)
    assert np.max(np.abs(prof.r - 3.0)) == 0.0
    assert np.max(prof.unit_residual) < 1e-12


def test_asymptotic_geodesic_terminates(schw3):
    # lambda = E/ell exactly critical but started off the sphere
    ch = ConservedCharges(energy=ALPHA_STAR, angular_momentum=1.0)
    traj = integrate_null_geodesic(schw3, ch, 2.5, sign=1, span=(0.0, 2000.0))
    assert traj.work["stop"]["forward"] == "asymptotic-to-photon-sphere"
    assert abs(traj.r[-1] - 3.0) < 1e-4


def test_generated_surface_from_circular_orbit_samples_its_own_range(schw3):
    # sigma runs over (-10, 10) on this orbit: the grid must hold sigma = 0,
    # end inside that range and carry the orbit's start reason
    ch = ConservedCharges(energy=ALPHA_STAR, angular_momentum=1.0)
    traj = integrate_null_geodesic(schw3, ch, 3.0, span=(-30.0, 30.0))
    prof = generated_surface_profile(traj, st=schw3)
    assert 0.0 in prof.s
    assert traj.arclength[0] - 1e-12 <= prof.s[0]
    assert prof.s[-1] <= traj.arclength[-1] + 1e-12
    assert prof.work["stop"]["backward"] == traj.work["stop"]["backward"] == \
        "photon-sphere-snap"


def _verdicts(st, lam, r0, span):
    """Whether integrate_profile, integrate_null_geodesic (E = lam, ell = 1)
    and classify each hold (lam, r0) on a photon sphere, and the held curves."""
    try:
        curve = integrate_profile(st, PhotonSurfaceSpec(alpha=lam, r0=r0, span=span))
    except ForbiddenRadiusError:
        curve = None
    try:
        traj = integrate_null_geodesic(
            st, ConservedCharges(energy=lam, angular_momentum=1.0), r0, span=span)
    except ForbiddenRadiusError:
        traj = None
    held = [c is not None and c.work["stop"]["forward"] == "photon-sphere-snap"
            for c in (curve, traj)]
    held.append(classify(st, lam, r0).kind is SurfaceKind.PHOTON_SPHERE)
    return held, curve, traj


def _off_sphere_data():
    """(lam, r0, spheres given?, expected held) at the edges of the band."""
    f3 = 1.0 - 2.0 / 3.0
    cases = []
    for r0 in (3.0 + 1e-11, 3.0 + 1e-9):  # exact fixed point, sphere missed
        lam = math.sqrt(1.0 - 2.0 / r0) / r0
        cases.append((lam, r0, False, True))
    alpha_star = math.sqrt(f3) / 3.0
    for rel, held in ((0.5e-8, True), (2e-8, False)):
        for sgn in (1, -1):
            cases.append((alpha_star * (1 + sgn * rel), 3.0, True, held))
    for rel, held in ((0.5e-9, True), (2e-9, False)):
        for sgn in (1, -1):
            cases.append((alpha_star, 3.0 * (1 + sgn * rel), True, held))
    return cases


@pytest.mark.parametrize("lam, r0, with_spheres, expected", _off_sphere_data())
def test_one_fixed_point_rule(schw3, monkeypatch, lam, r0, with_spheres, expected):
    # profile, geodesic and classify decide "held on a photon sphere" by
    # one rule, also when the sphere scan missed the sphere: a fresh
    # spacetime whose scan finds none
    st = schw3
    if not with_spheres:
        monkeypatch.setattr(surfaces, "find_photon_spheres", lambda st: [])
        st = build_family("schwarzschild", n=3, m=1)
        assert st.spheres == ()
    span = (-60.0, 60.0) if not with_spheres else (-10.0, 10.0)
    held, curve, traj = _verdicts(st, lam, r0, span)
    assert held == [expected] * 3
    if expected:
        for c in (curve, traj):
            assert np.all(c.r == c.r[0])
            assert c.work["stop"]["forward"] == c.work["stop"]["backward"] == \
                "photon-sphere-snap"
            assert c.work["solve_stats"] == {}
        assert curve.r[0] == traj.r[0]


@pytest.mark.parametrize("energy, ell", [(math.nan, 1.0), (1.0, math.nan),
                                         (-1.0, 1.0), (1.0, -0.5)])
def test_charges_reject_nan_and_wrong_signs(energy, ell):
    # ConservedCharges(nan, 1.0) used to pass and spend the step budget
    with pytest.raises(ValueError, match="must be"):
        ConservedCharges(energy=energy, angular_momentum=ell)


@pytest.mark.parametrize("sign", [2, -3, 0.5, math.nan])
def test_geodesic_sign_checked_as_the_spec_does(schw3, sign):
    # sign = 2 gave a curve with null residual 3.75 and reason "span"
    charges = ConservedCharges(energy=1.0, angular_momentum=3.0)
    with pytest.raises(ValueError, match="must be -1, 0 or \\+1"):
        integrate_null_geodesic(schw3, charges, 6.0, sign=sign, span=(0.0, 1.0))
    with pytest.raises(ValueError, match="must be -1, 0 or \\+1"):
        PhotonSurfaceSpec(alpha=0.2, r0=6.0, sign=sign)


def test_profile_and_geodesic_share_the_forbidden_radius_tolerance(schw3):
    # alpha^2 r0^2 - f = -8e-13 at r0 = 4 with sign 0: inside the profile's
    # tolerance 1e-12 max(1, alpha^2 r0^2), so inside the geodesic's, that
    # rule times ell^2 / r0^2, for E = alpha, ell = 1 too
    r0 = 4.0
    alpha = math.sqrt((schw3.f(r0) - 8e-13) / r0 ** 2)
    assert -1e-12 < alpha ** 2 * r0 ** 2 - schw3.f(r0) < -5e-13
    spec = PhotonSurfaceSpec(alpha=alpha, r0=r0, sign=0, span=(-1.0, 1.0))
    curve = integrate_profile(schw3, spec)
    traj = integrate_null_geodesic(
        schw3, ConservedCharges(energy=alpha, angular_momentum=1.0), r0, sign=0,
        span=(-1.0, 1.0))
    assert curve.r.min() >= r0 and traj.r.min() >= r0
    # beyond the tolerance both refuse the radius
    alpha = math.sqrt((schw3.f(r0) - 2e-12) / r0 ** 2)
    with pytest.raises(ForbiddenRadiusError):
        integrate_profile(schw3, PhotonSurfaceSpec(alpha=alpha, r0=r0, sign=0))
    with pytest.raises(ForbiddenRadiusError):
        integrate_null_geodesic(
            schw3, ConservedCharges(energy=alpha, angular_momentum=1.0), r0, sign=0)


def test_geodesic_start_checks(schw3):
    # r0 inside the horizon, and sign 0 where (dr/ds)^2 = E^2 - ell^2 f/r0^2 > 0
    charges = ConservedCharges(energy=0.3, angular_momentum=1.0)
    with pytest.raises(ForbiddenRadiusError, match="r0 = 1.5 outside radial interval"):
        integrate_null_geodesic(schw3, charges, 1.5, span=(0.0, 1.0))
    with pytest.raises(ForbiddenRadiusError, match="sign = 0 is only valid at a turning point"):
        integrate_null_geodesic(schw3, charges, 6.0, sign=0, span=(0.0, 1.0))
