"""The radial structure of one factor: `surfaces._radial(st, lam)`.

For a factor lam (alpha, or E/ell for a null geodesic) the set
{lam^2 r^2 >= f} decides what a curve does: its roots are the turning
points, and a curve stays on the component of the set that holds it. One
`_Radial` per (spacetime, lam) holds the roots, the components, each open
component's anchor and the photon sphere rule, and every caller reads it.
"""

import contextlib
import importlib.util
import io
import math
from pathlib import Path

import numpy as np
import pytest

from photonsurf import (
    PhotonSurfaceSpec,
    SurfaceKind,
    build_family,
    classify,
    integrate_profile,
    surfaces,
    turning_points,
)
from photonsurf.cli import main

from test_sweep import SCHW, bump_spacetime, sweep_grid


def rn_trapped():
    """Reissner-Nordstrom m = 1, q^2 = 1.1 and a factor just above the inner,
    stable sphere's alpha_*: the surface through that sphere's radius is
    trapped between two turning points around it."""
    st = build_family("reissner-nordstrom", m=1, q=math.sqrt(1.1))
    inner = st.spheres[0]
    return st, 1.001 * inner.alpha_star, inner.r_star


@pytest.fixture
def scans(monkeypatch):
    """The calls of surfaces._scan_roots, which every root scan runs."""
    calls = []
    scan = surfaces._scan_roots

    def counting(g, lo, hi):
        calls.append((lo, hi))
        return scan(g, lo, hi)

    monkeypatch.setattr(surfaces, "_scan_roots", counting)
    return calls


def test_schwarzschild_below_alpha_star_has_two_open_components():
    # the anchors are the values of the separate anchor function this
    # structure replaced, bit for bit
    st = build_family("schwarzschild", n=3, m=1)
    radial = surfaces._radial(st, 0.15)
    below, above = radial.roots
    assert list(radial.roots) == turning_points(st, 0.15)
    assert radial.components == ((None, below), (above, None))
    assert radial.anchor(None, below) == (float.fromhex("0x1.2139c0739952bp+1"),
                                          "turning-point")
    assert radial.anchor(above, None) == (float.fromhex("0x1.4f90ddc9f0b5ap+2"),
                                          "turning-point")
    # a turning point belongs to the component it bounds; between the two
    # the surface is forbidden
    assert radial.component(below) == (None, below)
    assert radial.component(above) == (above, None)
    assert radial.component(4.0) is None
    assert classify(st, 0.15, below).kind is SurfaceKind.SUBCRITICAL


def test_schwarzschild_above_alpha_star_anchors_at_the_inflection():
    st = build_family("schwarzschild", n=3, m=1)
    radial = surfaces._radial(st, 0.3)
    assert radial.roots == ()
    assert radial.components == ((None, None),)
    assert radial.anchor(None, None) == (float.fromhex("0x1.1d9fee007239ep+1"),
                                         "inflection")


def test_reissner_nordstrom_component_between_two_turning_points():
    st, alpha, r0 = rn_trapped()
    radial = surfaces._radial(st, alpha)
    inner, middle, outer = radial.roots
    assert [round(r, 4) for r in radial.roots] == [1.2465, 1.3104, 2.1489]
    assert radial.components == ((inner, middle), (outer, None))
    assert radial.component(r0) == (inner, middle)
    assert radial.component(1.8) is None  # forbidden
    assert radial.anchor(outer, None) == (float.fromhex("0x1.130ff9e76a98ep+1"),
                                          "turning-point")


def test_classify_trapped_curve():
    # the separate classification compared alpha only with the nearest
    # alpha_* and called this surface Supercritical
    st, alpha, r0 = rn_trapped()
    assert classify(st, alpha, r0).kind is SurfaceKind.TRAPPED
    curve = integrate_profile(st, PhotonSurfaceSpec(alpha, r0, span=(-5.0, 5.0)))
    low, high = surfaces._radial(st, alpha).roots[:2]
    assert low - 1e-9 < curve.r.min() < curve.r.max() < high + 1e-9
    # on the open component above the outer turning point it is not trapped
    assert classify(st, alpha, 3.0).kind is not SurfaceKind.TRAPPED


def test_classify_curve_that_turns_back_before_the_unstable_sphere():
    # r0 = 3 lies on the component above the outer turning point 2.1489,
    # outside the unstable sphere at 1.7236: the curve turns back before it,
    # although the nearest alpha_* is the stable inner sphere's
    st, alpha, _ = rn_trapped()
    inner, outer = st.spheres
    assert inner.stable and not outer.stable
    assert round(outer.r_star, 4) == 1.7236
    assert classify(st, alpha, 3.0).kind is SurfaceKind.SUBCRITICAL
    curve = integrate_profile(st, PhotonSurfaceSpec(alpha, 3.0, sign=-1, span=(0.0, 20.0)))
    assert curve.r.min() == pytest.approx(2.1489, abs=1e-4) and curve.r[-1] > 3.0
    # above the outer sphere's factor the component holds both spheres
    assert classify(st, 1.001 * outer.alpha_star, 3.0).kind is SurfaceKind.SUPERCRITICAL


@pytest.mark.parametrize("family, params", [
    ("schwarzschild", dict(n=3, m=1)), ("schwarzschild", dict(n=5, m=1)),
    ("reissner-nordstrom", dict(m=1, q=0.6)), ("schwarzschild-ads", dict(m=1, L=10)),
    ("reissner-nordstrom", dict(m=1, q=math.sqrt(1.1))),
    ("reissner-nordstrom", dict(m=1, q=math.sqrt(1.05)))])
def test_classify_grid_is_supercritical_above_the_unstable_factor(family, params):
    # on a 24 x 24 (alpha, r0) grid each spacetime has one unstable sphere,
    # and a Sub/Supercritical cell is Supercritical exactly when alpha is
    # above its alpha_*: with one sphere, as the nearest alpha_* rule said;
    # with two, also between the two alpha_*, where that rule was wrong
    st = build_family(family, **params)
    (unstable,) = [sp for sp in st.spheres if not sp.stable]
    kinds = set()
    for alpha in np.linspace(0.5, 1.5, 24) * unstable.alpha_star:
        for r0 in np.geomspace(max(1.02 * st.r_lo, 0.1), 20.0, 24):
            alpha, r0 = float(alpha), float(r0)
            if alpha ** 2 * r0 ** 2 < st.f(r0):
                continue
            kind = classify(st, alpha, r0).kind
            if kind in (SurfaceKind.SUBCRITICAL, SurfaceKind.SUPERCRITICAL):
                kinds.add(kind)
                assert (kind is SurfaceKind.SUPERCRITICAL) == \
                    (alpha > unstable.alpha_star), (alpha, r0)
    assert len(kinds) == 2


def test_cut_schwarzschild_row_has_no_anchor():
    # r_lo = 5, alpha = 0.3: the set is the whole interval, the root of
    # alpha^2 r = f'/2 (near 2.23) lies below r_lo and the sphere r = 3
    # outside the interval
    st = build_family("schwarzschild", n=3, m=1, r_lo=5.0)
    radial = surfaces._radial(st, 0.3)
    assert radial.components == ((None, None),)
    assert radial.anchor(None, None) is None


def test_bump_keeps_its_pair_of_turning_points_missed():
    # the 512-point scan steps over the bump at r = 5, where alpha^2 r^2 < f
    st = bump_spacetime()
    radial = surfaces._radial(st, 0.3)
    (tp,) = radial.roots
    assert tp == pytest.approx(1 / 0.3)
    assert radial.components == ((tp, None),)
    assert radial.anchor(tp, None) == (float.fromhex("0x1.aaaaaaaaaaaabp+1"),
                                       "turning-point")


def test_one_radial_per_factor(scans):
    st = build_family("schwarzschild", n=3, m=1)
    st.spheres
    assert len(scans) == 1
    for _ in range(2):
        turning_points(st, 0.15)
        classify(st, 0.15, 6.0)
        integrate_profile(st, PhotonSurfaceSpec(0.15, 6.0, span=(-1.0, 1.0)))
    assert len(scans) == 2  # the sphere scan and one turning-point scan
    radial = surfaces._radial(st, 0.15)
    assert surfaces._radial(st, 0.15) is radial
    assert surfaces._radial(st, 0.3) is not radial


def _workloads():
    """The benchmark's own operation generators (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_root_scans_per_benchmark_operation(scans, tmp_path):
    # measured before the radial structure: 20 scans for the sweep (1 for
    # the spheres, 12 turning-point and 7 inflection scans), 2 per profile
    # --oracle and 1 per verify or isotropic; the geodesic of --oracle has
    # E/ell = alpha / 1.0 and reads the profile's structure
    alphas, r0s = sweep_grid(1)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SCHW + f"[sweep]\nalphas = {', '.join(map(repr, alphas))}\n"
                   f"r0s = {', '.join(map(repr, r0s))}\nspan_lo = -5\nspan_hi = 5\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "sweep"), "sweep"]) == 0
    assert len(scans) <= 20

    workloads = _workloads()
    for name, most in (("oracle-pairs", 2), ("verify-iso", 1)):
        plan = workloads.make_plan(name, 1, str(tmp_path / name))
        for op in plan["ops"]:
            scans.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--config", op["config"], "--out",
                             str(tmp_path / name / op["id"]), *op["argv"]]) == 0
            assert len(scans) <= most, (name, op["id"])
