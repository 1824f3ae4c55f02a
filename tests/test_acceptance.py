"""End-to-end acceptance checks with pinned tolerances.

Each test prints exactly one PASS/FAIL line for its criterion.
"""

import contextlib
import json
import math
import os
import time

import numpy as np
import pytest

from photonsurf import (
    ConservedCharges,
    PhotonSurfaceSpec,
    StepControl,
    build_family,
    c_constant,
    conformal_flatness_scan,
    find_photon_spheres,
    generated_surface_profile,
    integrate_null_geodesic,
    integrate_profile,
    isotropic_profile_samples,
    isotropic_sphere_residual,
    isotropic_surface_residual,
    mass_flux,
    minkowski_exact,
    ode_residuals,
    scalar_curvature_fd,
    slice_identity_residual,
    surface_scalar_curvature_check,
    turning_points,
    warped_product_metric,
    warped_scalar_curvature,
)
from photonsurf.cli import main as cli_main

ALPHA_STAR = 1.0 / math.sqrt(27.0)


@contextlib.contextmanager
def report(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_1_photon_sphere_radii():
    with report("criterion 1 (photon sphere radii, n = 3..7)"):
        start = time.perf_counter()
        for n in (3, 4, 5, 6, 7):
            st = build_family("schwarzschild", n=n, m=1)
            spheres = find_photon_spheres(st)
            assert len(spheres) == 1
            expected = float(n) ** (1 / (n - 2))
            assert abs(spheres[0].r_star - expected) < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_2_minkowski_oracle(minkowski):
    with report("criterion 2 (Minkowski hyperboloid oracle)"):
        start = time.perf_counter()
        for alpha in (0.2, 0.5, 1.0, 2.0):
            smax = math.asinh(10.5 * alpha) / alpha
            spec = PhotonSurfaceSpec(alpha=alpha, r0=1.0 / alpha, sign=0,
                                     span=(-smax, smax))
            curve = integrate_profile(minkowski, spec)
            mask = np.abs(curve.t) <= 10.0
            exact = minkowski_exact(alpha, 0.0, curve.t[mask])
            assert np.max(np.abs(curve.r[mask] - exact)) < 1e-7
        assert time.perf_counter() - start < 1.0


def test_criterion_3_geodesic_surface_equivalence(schw3):
    with report("criterion 3 (geodesic/surface equivalence, 20 random specs)"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        done = 0
        while done < 20:
            r0 = rng.uniform(2.3, 9.0)
            lam = rng.uniform(0.05, 0.6)
            f0 = schw3.f(r0)
            if lam ** 2 * r0 ** 2 < 1.1 * f0:
                continue  # forbidden or marginal radius
            if abs(lam - ALPHA_STAR) < 1e-3:
                continue  # avoid the unstable asymptotic regime
            ell = rng.uniform(0.5, 2.0)
            charges = ConservedCharges(energy=lam * ell, angular_momentum=ell)
            sign = 1 if rng.random() < 0.5 else -1
            traj = integrate_null_geodesic(
                schw3, charges, r0, sign=sign, span=(-8.0 / lam, 8.0 / lam))
            prof = generated_surface_profile(traj, st=schw3)
            spec = PhotonSurfaceSpec(alpha=lam, r0=r0, sign=sign,
                                     span=(-2.0, 2.0))
            curve = integrate_profile(schw3, spec)
            mask = (curve.s > prof.s[0]) & (curve.s < prof.s[-1])
            assert mask.sum() > 50
            r_i = np.interp(curve.s[mask], prof.s, prof.r)
            t_i = np.interp(curve.s[mask], prof.s, prof.t)
            assert np.max(np.abs(r_i - curve.r[mask])) < 1e-6
            assert np.max(np.abs(t_i - curve.t[mask])) < 1e-6
            done += 1
        assert time.perf_counter() - start < 5.0


def test_criterion_4_conservation_drift(schw3, minkowski):
    with report("criterion 4 (conservation over arclength span 100)"):
        # curves whose radius stays moderate for the full span, so the
        # conserved quantities are meaningful at the 1e-8 level: the
        # cylinder, slow far-field surfaces, and a wide hyperboloid
        runs = [
            (schw3, PhotonSurfaceSpec(alpha=ALPHA_STAR, r0=3.0,
                                      span=(-50.0, 50.0))),
            (schw3, PhotonSurfaceSpec(alpha=0.02, r0=60.0, sign=-1,
                                      span=(-50.0, 50.0))),
            (minkowski, PhotonSurfaceSpec(alpha=0.05, r0=20.0, sign=0,
                                          span=(-50.0, 50.0))),
        ]
        for st, spec in runs:
            curve = integrate_profile(st, spec)
            assert abs(curve.s[-1] - curve.s[0]) >= 100.0 - 1e-9
            assert np.max(curve.unit_residual) < 1e-8
            assert np.max(curve.umbilicity_residual(st)) < 1e-8


def test_criterion_5_second_order_residuals(schw3):
    with report("criterion 5 (second-order residuals, O(h^2) convergence)"):
        spec = PhotonSurfaceSpec(alpha=0.15, r0=6.0, sign=1, span=(-2.0, 2.0))
        res = {}
        for h in (2e-3, 1e-3):
            curve = integrate_profile(schw3, spec, StepControl(sample_spacing=h))
            rep = ode_residuals(schw3, curve)
            res[h] = max(rep.tddot_residual, rep.rddot_residual)
        assert res[1e-3] < 1e-5
        ratio = res[2e-3] / res[1e-3]
        assert 3.5 <= ratio <= 4.5


def test_criterion_6_vacuum_scalar_identity():
    with report("criterion 6 (vacuum scalar curvature identity, 9 curves)"):
        # gate: the warped curvature formula must agree with both oracles
        alpha = 0.5

        def r_of_s(s):
            return math.cosh(alpha * s) / alpha

        s0 = 0.3
        closed = float(warped_scalar_curvature(
            3, r_of_s(s0), math.sinh(alpha * s0), alpha * math.cosh(alpha * s0)))
        assert abs(closed - 3 * 2 * alpha ** 2) < 1e-6  # de Sitter closed form
        fd = scalar_curvature_fd(warped_product_metric(3, r_of_s),
                                 (s0, 1.1, 0.7), h=1e-3)
        assert abs(fd - closed) < 1e-6  # finite-difference curvature

        step = StepControl(sample_spacing=1e-3)
        for n in (3, 4, 5):
            st = build_family("schwarzschild", n=n, m=1)
            sp = find_photon_spheres(st)[0]
            outer = turning_points(st, 0.5 * sp.alpha_star)[-1]
            cases = [
                (0.5 * sp.alpha_star, 1.5 * outer, 1),
                (sp.alpha_star, sp.r_star, 1),
                (2.0 * sp.alpha_star, sp.r_star, 1),
            ]
            for a, r0, sign in cases:
                spec = PhotonSurfaceSpec(alpha=a, r0=r0, sign=sign,
                                         span=(-1.0, 1.0))
                curve = integrate_profile(st, spec, step)
                rep = surface_scalar_curvature_check(st, curve)
                assert rep.residual < 1e-5


def test_criterion_7_slice_identities():
    with report("criterion 7 (slice identity and c constraints, n = 3..7)"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        for n in (3, 4, 5, 6, 7):
            st = build_family("schwarzschild", n=n, m=1)
            radii = rng.uniform(st.r_lo * 1.05, 50.0, 100)
            for r in radii:
                assert slice_identity_residual(st, float(r)) < 1e-10
                cc = c_constant(st, float(r))
                assert cc.sphere_constraint_residual < 1e-10
                assert cc.lapse_constraint_residual < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_8_isotropic_consistency(schw3, schw3_iso):
    with report("criterion 8 (isotropic form consistency)"):
        for s in (0.75, 1.0, 1.5, 3.0, 12.0):
            p, _, nn, _ = schw3_iso.evaluate(s)
            phi = (1 + 1 / (2 * s)) ** 2
            ntil = (1 - 1 / (2 * s)) / (1 + 1 / (2 * s))
            assert abs(p - phi) < 1e-8
            assert abs(nn - abs(ntil)) < 1e-8
        s_star = 1 + math.sqrt(3) / 2
        assert isotropic_sphere_residual(schw3_iso, s_star) < 1e-8
        assert conformal_flatness_scan(schw3_iso) == []
        spec = PhotonSurfaceSpec(alpha=0.25, r0=3.0, sign=1, span=(-2.0, 2.0))
        curve = integrate_profile(schw3, spec,
                                  StepControl(sample_spacing=2e-3))
        rows = isotropic_profile_samples(schw3_iso, curve)
        assert isotropic_surface_residual(schw3_iso, rows) < 1e-5


def test_criterion_9_mass_flux(schw3):
    with report("criterion 9 (mass flux constancy and normalization)"):
        radii = np.geomspace(2.1, 80.0, 50)
        fluxes = np.array([mass_flux(schw3, float(r)) for r in radii])
        assert np.std(fluxes) < 1e-10
        assert np.all(fluxes > 0)
        assert abs(fluxes[0] - 1.0) < 1e-12


def test_criterion_10_sweep_determinism(tmp_path):
    with report("criterion 10 (byte-identical sweep outputs)"):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("""
[spacetime]
family = schwarzschild
n = 3
m = 1

[sweep]
alphas = 0.15, 0.19245008972987526, 0.25
r0s = 2.5, 3, 6
span_lo = -2
span_hi = 2
""")
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert cli_main(["--config", str(cfg), "--out", str(out1), "sweep"]) == 0
        assert cli_main(["--config", str(cfg), "--out", str(out2), "sweep"]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = json.loads((out1 / "sweep_manifest.json").read_text())
        assert len(manifest["classification_groups"]) == 3
