import math

import numpy as np
import pytest

from photonsurf import (
    DomainError,
    IdentityNotApplicableError,
    IsotropicForm,
    MinimalSphereError,
    PhotonSurfError,
    PhotonSurfaceSpec,
    StepControl,
    build_family,
    c_constant,
    custom_spacetime,
    integrate_profile,
    isotropic_profile_samples,
    isotropic_sphere_residual,
    isotropic_surface_residual,
    mass_flux,
    scalar_curvature_fd,
    slice_data,
    slice_identity_residual,
    surface_scalar_curvature_check,
    to_isotropic,
    verification_suite,
    warped_product_metric,
    warped_scalar_curvature,
)

ALPHA_STAR = 1.0 / math.sqrt(27.0)


def test_slice_data_schwarzschild(schw3):
    d = slice_data(schw3, 4.0)
    assert d.lapse == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert d.mean_curvature == pytest.approx(math.sqrt(2) / 4, rel=1e-15)
    assert d.normal_lapse_derivative == pytest.approx(1 / 16, rel=1e-15)
    assert d.sphere_scalar_curvature == pytest.approx(0.125, rel=1e-15)


def test_slice_data_inside_horizon_rejected(schw3):
    with pytest.raises(DomainError):
        slice_data(schw3, 1.5)


# warped curvature formula validated against two independent oracles --------

def test_warped_curvature_de_sitter_oracle():
    # hyperboloid r(s) = cosh(alpha s)/alpha in Minkowski: R = n(n-1) alpha^2
    alpha = 0.5
    for n in (3, 4):
        s = np.linspace(-1.0, 1.0, 9)
        r = np.cosh(alpha * s) / alpha
        rdot = np.sinh(alpha * s)
        rddot = alpha * np.cosh(alpha * s)
        vals = warped_scalar_curvature(n, r, rdot, rddot)
        assert np.max(np.abs(vals - n * (n - 1) * alpha ** 2)) < 1e-12


def test_warped_curvature_finite_difference_oracle():
    alpha = 0.5

    def r_of_s(s):
        return math.cosh(alpha * s) / alpha

    for n, x in ((3, (0.3, 1.1, 0.7)), (4, (0.2, 1.2, 0.9, 0.4))):
        metric = warped_product_metric(n, r_of_s)
        fd = scalar_curvature_fd(metric, x, h=1e-3)
        closed = float(warped_scalar_curvature(
            n, r_of_s(x[0]), math.sinh(alpha * x[0]),
            alpha * math.cosh(alpha * x[0])))
        assert abs(fd - closed) < 1e-6
        assert abs(fd - n * (n - 1) * alpha ** 2) < 1e-6


def test_surface_scalar_curvature_on_photon_sphere(schw3):
    spec = PhotonSurfaceSpec(alpha=ALPHA_STAR, r0=3.0, span=(-1.0, 1.0))
    curve = integrate_profile(schw3, spec)
    rep = surface_scalar_curvature_check(schw3, curve)
    assert rep.expected == pytest.approx(2 / 9, rel=1e-12)
    assert rep.residual < 1e-8


def test_surface_scalar_curvature_ads_includes_lambda():
    st = build_family("schwarzschild-ads", n=3, m=1, L=10.0)
    r0 = 6.0
    alpha = 1.3 * math.sqrt(st.f(r0)) / r0
    spec = PhotonSurfaceSpec(alpha=alpha, r0=r0, sign=1, span=(-0.5, 0.5))
    curve = integrate_profile(st, spec, StepControl(sample_spacing=1e-3))
    rep = surface_scalar_curvature_check(st, curve)
    assert not rep.skipped
    assert rep.expected == pytest.approx(6 * alpha ** 2 - 2 * 3 / 100, rel=1e-12)
    assert rep.residual < 1e-5


def test_surface_scalar_curvature_skipped_for_unknown_lambda():
    st = custom_spacetime(lambda r: 1 - 2 / r, n=3, r_lo=2.0, r_hi=100.0)
    spec = PhotonSurfaceSpec(alpha=0.3, r0=5.0, sign=1, span=(-0.5, 0.5))
    curve = integrate_profile(st, spec)
    rep = surface_scalar_curvature_check(st, curve)
    assert rep.skipped
    assert "Einstein constant" in rep.message


def test_slice_identity_vacuum(schw3):
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 6, 7):
        st = build_family("schwarzschild", n=n, m=1)
        lo = st.r_lo * 1.1
        for r in rng.uniform(lo, 50.0, 20):
            assert slice_identity_residual(st, float(r)) < 1e-10


def test_slice_identity_minkowski(minkowski):
    assert slice_identity_residual(minkowski, 2.0) < 1e-15


def test_slice_identity_rejects_non_vacuum():
    st = build_family("reissner-nordstrom", m=1, q=0.5)
    with pytest.raises(IdentityNotApplicableError):
        slice_identity_residual(st, 4.0)


def test_c_constant_schwarzschild(schw3):
    cc = c_constant(schw3, 4.0)
    assert cc.c == pytest.approx(1.0, abs=1e-14)
    assert cc.sphere_constraint_residual < 1e-12
    assert cc.lapse_constraint_residual < 1e-12


def test_c_constant_minkowski(minkowski):
    cc = c_constant(minkowski, 7.0)
    assert cc.c == pytest.approx(0.5, abs=1e-15)
    assert cc.sphere_constraint_residual < 1e-15


def test_c_constant_horizon_limit(schw3):
    with pytest.raises(DomainError):
        c_constant(schw3, 2.0)


def test_c_constant_minimal_sphere_detected():
    st = custom_spacetime(lambda r: 1e-30, n=3, r_lo=1.0, r_hi=10.0)
    with pytest.raises(MinimalSphereError):
        c_constant(st, 5.0)


def test_mass_flux_schwarzschild(schw3):
    assert mass_flux(schw3, 5.0) == pytest.approx(1.0, abs=1e-14)
    vals = [mass_flux(schw3, r) for r in (3.0, 7.0, 20.0)]
    assert max(vals) - min(vals) < 1e-12


def test_mass_flux_higher_dim_constant():
    st = build_family("schwarzschild", n=5, m=1)
    vals = [mass_flux(st, r) for r in np.geomspace(1.5, 40.0, 30)]
    assert np.std(vals) < 1e-10
    assert vals[0] == pytest.approx(3.0, abs=1e-12)  # (n-2) m


def test_mass_flux_minkowski(minkowski):
    assert mass_flux(minkowski, 9.0) == 0.0


def test_isotropic_sphere_residual(schw3_iso):
    s_star = 1 + math.sqrt(3) / 2
    assert isotropic_sphere_residual(schw3_iso, s_star) < 1e-8
    assert isotropic_sphere_residual(schw3_iso, 3.0) > 0.1


def test_isotropic_sphere_residual_minkowski(minkowski):
    from photonsurf import to_isotropic
    iso = to_isotropic(minkowski, r0=1.0)
    assert isotropic_sphere_residual(iso, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_isotropic_surface_residual_constant_sample(schw3_iso):
    s_star = 1 + math.sqrt(3) / 2
    assert isotropic_surface_residual(schw3_iso, [(0.0, s_star, 0.0, 0.0)]) < 1e-8


def test_isotropic_surface_residual_mapped_curve(schw3, schw3_iso):
    spec = PhotonSurfaceSpec(alpha=0.25, r0=3.0, sign=1, span=(-2.0, 2.0))
    curve = integrate_profile(schw3, spec, StepControl(sample_spacing=2e-3))
    rows = isotropic_profile_samples(schw3_iso, curve)
    assert isotropic_surface_residual(schw3_iso, rows) < 1e-5


def test_verification_suite_passes_for_schwarzschild(schw3):
    checks = verification_suite(schw3)
    assert all(c["passed"] for c in checks)
    assert not any(c["skipped"] for c in checks)


def test_verification_suite_skips_for_non_vacuum():
    st = build_family("reissner-nordstrom", m=1, q=0.5)
    checks = verification_suite(st)
    assert all(c["passed"] for c in checks)
    assert any(c["skipped"] for c in checks)


# one array contract: a 1-D array of radii gives, entry by entry, the bits
# of the float calls, and an out-of-range entry the float path's error -----

ARRAY_SPACETIMES = {
    "schwarzschild-n3": dict(family="schwarzschild", n=3, m=1),
    "schwarzschild-n5": dict(family="schwarzschild", n=5, m=1),
    "rn-q0.6": dict(family="reissner-nordstrom", m=1, q=0.6),
    "sads-L10": dict(family="schwarzschild-ads", m=1, L=10.0),
}


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def outcome(fn, *args):
    """The result of fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except PhotonSurfError as e:
        return type(e)


def assert_same_bits(st_or_iso, fn, xs, fields=None):
    whole = outcome(fn, st_or_iso, xs)
    each = [outcome(fn, st_or_iso, float(x)) for x in xs]
    if isinstance(whole, type):  # the family rejects the check outright
        assert each == [whole] * len(xs)
        return
    for name in fields or [None]:
        def get(result):
            return result if name is None else getattr(result, name)
        assert np.shape(get(whole)) == xs.shape, name
        np.testing.assert_array_equal(bits(get(whole)), bits([get(e) for e in each]),
                                      err_msg=f"{fn.__name__} {name}")


@pytest.mark.parametrize("name", sorted(ARRAY_SPACETIMES))
def test_checks_take_arrays_bit_for_bit(name):
    st = build_family(**ARRAY_SPACETIMES[name])
    radii = np.geomspace(st.r_lo * 1.01, 60.0, 50)
    assert_same_bits(st, slice_data, radii, ["r", "lapse", "mean_curvature",
                                             "normal_lapse_derivative",
                                             "sphere_scalar_curvature"])
    assert_same_bits(st, slice_identity_residual, radii)
    assert_same_bits(st, c_constant, radii, ["c", "sphere_constraint_residual",
                                             "lapse_constraint_residual"])
    assert_same_bits(st, mass_flux, radii)
    iso = to_isotropic(st, r0=5.0)
    S = iso.s_of_r(radii)
    assert_same_bits(iso, isotropic_sphere_residual, S)

    # membership, with entries on and outside both ends
    for domain, xs in ((st, np.concatenate([[st.r_lo, 0.5 * st.r_lo], radii])),
                       (iso, np.concatenate([[iso.s_lo, -1.0, 2 * S[-1]], S]))):
        inside = domain.contains(xs)
        assert inside.shape == xs.shape
        assert inside.tolist() == [bool(domain.contains(float(x))) for x in xs]
        assert not inside[0] and not inside[1] and inside[-1]


@pytest.mark.parametrize("name", sorted(ARRAY_SPACETIMES))
def test_checks_reject_an_out_of_range_entry_as_floats_do(name):
    st = build_family(**ARRAY_SPACETIMES[name])
    iso = to_isotropic(st, r0=5.0)
    radii = np.geomspace(st.r_lo * 1.01, 60.0, 50)
    inside_horizon = 0.5 * st.r_lo
    for fn, domain, xs, bad in (
            (slice_data, st, radii, inside_horizon),
            (slice_identity_residual, st, radii, inside_horizon),
            (c_constant, st, radii, inside_horizon),
            (mass_flux, st, radii, inside_horizon),
            (isotropic_sphere_residual, iso, iso.s_of_r(radii), -1.0)):
        xs = xs.copy()
        xs[17] = bad
        error = outcome(fn, domain, bad)
        assert isinstance(error, type), fn.__name__
        with pytest.raises(error) as info:
            fn(domain, xs)
        if error is DomainError:  # the message names the failing entry
            assert f"{bad:.6g}" in str(info.value), fn.__name__


def test_slice_functions_reject_radii_outside_the_interval(schw3):
    # slice_data tested only f <= 0, so r = NaN returned NaN fields, while
    # mass_flux tested the interval: both now read one test
    for r in (math.nan, 1.0, 2.0, -3.0, np.array([4.0, math.nan])):
        for call in (slice_data, c_constant, slice_identity_residual, mass_flux):
            with pytest.raises(DomainError, match="outside radial interval"):
                call(schw3, r)


def test_mass_flux_reads_slice_data(schw3):
    st = build_family("schwarzschild", n=5, m=1.5)
    for space in (schw3, st):
        r = np.geomspace(space.r_lo * 1.01, 1e4, 101)
        expected = 0.5 * space.fprime(r) * r ** (space.n - 1)
        np.testing.assert_array_equal(mass_flux(space, r), expected)
        assert mass_flux(space, 7.0) == 0.5 * space.fprime(7.0) * 7.0 ** (space.n - 1)


@pytest.mark.parametrize("hi, samples", [(0.04, 5), (0.05, 6), (0.06, 7), (0.07, 8)])
def test_surface_scalar_curvature_on_few_samples_uses_plain_differences(schw3, hi, samples):
    # below 9 samples there is no 2h stencil for Richardson extrapolation:
    # plain central second differences on every interior sample. Measured
    # 1.52e-8 to 1.53e-8; with Richardson (9 samples) 2.1e-10
    curve = integrate_profile(schw3, PhotonSurfaceSpec(alpha=0.15, r0=6.0, span=(0.0, hi)))
    assert len(curve.s) == samples
    rep = surface_scalar_curvature_check(schw3, curve)
    s, r = curve.s, curve.r
    rddot = (r[2:] - 2 * r[1:-1] + r[:-2]) / ((s[2:] - s[1:-1]) * (s[1:-1] - s[:-2]))
    plain = warped_scalar_curvature(3, r[1:-1], curve.rdot[1:-1], rddot)
    assert rep.expected == 6 * 0.15 ** 2
    assert rep.residual == pytest.approx(float(np.max(np.abs(plain - rep.expected))),
                                         rel=1e-12)
    assert rep.residual < 3e-8


def test_isotropic_surface_residual_checks_its_rows(schw3_iso):
    for rows in ([[0.0, 3.0, 0.1]], np.zeros((0, 4))):
        with pytest.raises(DomainError, match="need >= 1 sample row"):
            isotropic_surface_residual(schw3_iso, rows)
    # s_lo = 1/2 for Schwarzschild m = 1
    with pytest.raises(DomainError, match="S = 0.25 outside isotropic interval"):
        isotropic_surface_residual(schw3_iso, [[0.0, 3.0, 0.1, 0.0], [0.1, 0.25, 0.1, 0.0]])


def test_isotropic_profile_samples_need_the_coordinate_map(schw3):
    iso = IsotropicForm(1.0, 10.0, lambda s: (s, 1.0, 2 * s, 2.0))
    curve = integrate_profile(schw3, PhotonSurfaceSpec(alpha=0.15, r0=6.0, span=(0.0, 0.1)))
    with pytest.raises(DomainError, match="carries no coordinate map s\\(r\\)"):
        isotropic_profile_samples(iso, curve)
