"""`sweep` rows from one solve per orbit against per-cell integration.

Every sign +1 cell of a row on one component of {alpha^2 r^2 >= f} is a
window of the orbit through the component's anchor; the cells that cannot
be, or that the orbit does not reach, take `integrate_profile`.
"""

import json
import math
import random

import numpy as np
import pytest

from photonsurf import (
    PhotonSurfaceSpec,
    StepControl,
    build_family,
    custom_spacetime,
    integrate_profile,
    turning_points,
)
from photonsurf import cli, surfaces
from photonsurf.cli import main
from photonsurf.errors import StepUnderflowError
from photonsurf.spacetime import ClassSSpacetime, MetricProfile
from photonsurf.ode import _brentq, _dense_eval
from photonsurf.surfaces import _orbit_cell, _sweep_row

ALPHA_STAR = 27 ** -0.5
STEP = StepControl()
SPAN = (-5.0, 5.0)
SCHW = "[spacetime]\nfamily = schwarzschild\nn = 3\nm = 1\n"


def sweep_grid(seed):
    """The (alphas, r0s) of one seed of the `sweep-grid` benchmark workload:
    one uniform draw in each of k equal strata."""
    rng = random.Random(f"sweep-grid:{seed}")

    def stratified(lo, hi, k):
        width = (hi - lo) / k
        return [lo + (i + rng.random()) * width for i in range(k)]

    alphas = sorted(stratified(0.08, 0.40, 11) + [ALPHA_STAR])
    return alphas, stratified(2.4, 12.0, 8)


def attempted(stats):
    return sum(h["accepted"] + h["rejected"] for h in stats.values())


def run_sweep(tmp_path, name, alphas, r0s, spacetime=SCHW, span=SPAN):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(spacetime + "[sweep]\n"
                   f"alphas = {', '.join(map(repr, alphas))}\n"
                   f"r0s = {', '.join(map(repr, r0s))}\n"
                   f"span_lo = {span[0]!r}\nspan_hi = {span[1]!r}\n")
    out = tmp_path / name
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    return out, json.loads((out / "sweep_manifest.json").read_text())


def run_profile(tmp_path, name, alpha, r0, spacetime=SCHW, span=SPAN):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(spacetime + f"[profile]\nalpha = {alpha!r}\nr0 = {r0!r}\n"
                   f"span_lo = {span[0]!r}\nspan_hi = {span[1]!r}\n")
    out = tmp_path / name
    assert main(["--config", str(cfg), "--out", str(out), "profile"]) == 0
    return (out / "profile.csv").read_bytes()


def assert_cell_matches_profile(st, alpha, r0, span, curve):
    ref = integrate_profile(st, PhotonSurfaceSpec(alpha, r0, span=span), STEP)
    label = f"alpha {alpha!r} r0 {r0!r}"
    np.testing.assert_array_equal(curve.s, ref.s, err_msg=label)
    assert (curve.termination, curve.termination_start) == \
        (ref.termination, ref.termination_start), label
    assert np.max(np.abs(curve.r - ref.r) / ref.r) <= 1e-11, label
    assert curve.t[curve.s == 0] == 0.0, label


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_orbit_cells_match_per_cell_profiles(schw3, seed):
    alphas, r0s = sweep_grid(seed)
    orbit_cells = 0
    for alpha in alphas:
        cells, _ = _sweep_row(schw3, alpha, r0s, SPAN, STEP)
        for r0, cell in zip(r0s, cells):
            if cell is None:
                continue
            orbit_cells += 1
            assert_cell_matches_profile(schw3, alpha, r0, SPAN, cell[0])
    # all but the critical row and the cells in the forbidden band
    assert orbit_cells >= 70


def test_half_without_cells_solved_after_the_half_with_them(schw3):
    # the inner component below the turning point near 2.09: the cells lie
    # on the backward half, and the forward half falls into the horizon;
    # solved after the backward half, it stops a span end past the farthest
    # s0 instead of crawling into the horizon (709 attempts)
    alpha, r0s, span = 0.1, [2.005, 2.01, 2.015], (-1.0, 1.0)
    cells, (orbit,) = _sweep_row(schw3, alpha, r0s, span, STEP)
    assert orbit.kind == "turning-point"
    assert orbit.sol.reasons == {"backward": "boundary", "forward": "span"}
    forward = orbit.sol.stats["forward"]
    assert forward.accepted + forward.rejected <= 50
    for r0, cell in zip(r0s, cells):
        assert cell is not None and cell[2] < 0, r0
        assert_cell_matches_profile(schw3, alpha, r0, span, cell[0])


def test_span_stop_is_exact(schw3):
    # a half that ends "span" ends at its first step end more than the span
    # end past the farthest s0 of its orbit in its direction (s = 0 without
    # cells): the step before it, unless it is the first, ends at or before
    # that point
    alphas, r0s = sweep_grid(1)
    halves = 0
    for alpha in alphas:
        cells, orbits = _sweep_row(schw3, alpha, r0s, SPAN, STEP)
        for k, orbit in enumerate(orbits):
            s0s = [cell[2] for cell in cells if cell is not None and cell[1] == k]
            T = orbit.sol.dense[0]  # step starts: the last backward step's first
            for name, d, end, extent, previous in (
                    ("backward", -1, orbit.sol.lo, -SPAN[0], T[0]),
                    ("forward", 1, orbit.sol.hi, SPAN[1], T[-1])):
                if orbit.sol.reasons[name] != "span":
                    continue
                halves += 1
                far = d * max((d * s0 for s0 in s0s), default=0.0)
                label = f"alpha {alpha!r} {name}"
                assert d * (end - far) > extent, label
                assert previous == 0.0 or d * (previous - far) <= extent, label
    assert halves >= 11


@pytest.mark.parametrize("alpha, r0s, span", [
    (0.3, [2.2, 2.3, 2.4], (-0.503, 0.503)),
    (0.3, [2.5, 2.6], (-1.005, 1.005)),
])
def test_off_grid_span_end_before_the_horizon_keeps_cell_reasons(
        schw3, alpha, r0s, span):
    # the backward half runs into the horizon and is cut there; a window
    # whose span end lies between its last sample and the crossing is whole,
    # so the cut must not end the half before that span end
    cells, (orbit,) = _sweep_row(schw3, alpha, r0s, span, STEP)
    assert orbit.sol.reasons["backward"] == "boundary"
    for r0, cell in zip(r0s, cells):
        assert cell is not None, r0
        assert_cell_matches_profile(schw3, alpha, r0, span, cell[0])


def test_orbit_cells_alone_give_same_bytes_and_save_work(tmp_path, schw3):
    alphas, r0s = sweep_grid(1)
    out, manifest = run_sweep(tmp_path, "grid", alphas, r0s)
    cells = manifest["cells"]
    orbits = manifest["orbits"]

    # the lowest and the highest r0 on each (row, component) orbit: on both
    # halves when the anchor lies between them
    ends = {}
    for cell in cells:
        if "orbit" in cell:
            ends.setdefault(cell["orbit"], []).append(cell)
    assert len(ends) == 11  # one orbit per row but the critical one
    assert {o["anchor_kind"] for o in orbits} == {"turning-point", "inflection",
                                                  "photon-sphere"}
    for k, members in ends.items():
        for cell in {members[0]["file"]: members[0],
                     members[-1]["file"]: members[-1]}.values():
            alone, _ = run_sweep(tmp_path, cell["file"], [cell["alpha"]], [cell["r0"]])
            assert (alone / "sweep_a0_r0.csv").read_bytes() == \
                (out / cell["file"]).read_bytes(), cell["file"]

    # work guard: the orbits and per-cell fallbacks of the grid against
    # solving every cell on its own
    grid_work = sum(attempted(o["solve_stats"]) for o in orbits) + sum(
        attempted(c["solve_stats"]) for c in cells if "solve_stats" in c)
    per_cell = 0
    for cell in cells:
        if cell["status"] == "ok":
            curve = integrate_profile(
                schw3, PhotonSurfaceSpec(cell["alpha"], cell["r0"], span=SPAN), STEP)
            per_cell += sum(h.accepted + h.rejected for h in curve.solve_stats.values())
    assert grid_work <= 0.4 * per_cell, (grid_work, per_cell)


@pytest.mark.parametrize("alpha, r0, why", [
    # turning_points scans r < 100 and misses the outer turning point near
    # 200: the cell must not anchor at the inner one, 2.0002
    (0.005, 300.0, "outside the scan bracket"),
    (ALPHA_STAR, 6.0, "critical row"),
    (ALPHA_STAR, 2.5, "critical row"),
])
def test_fallback_cells_match_profile_bytes(tmp_path, alpha, r0, why):
    out, manifest = run_sweep(tmp_path, "sweep", [alpha], [r0])
    (cell,) = manifest["cells"]
    assert "orbit" not in cell and attempted(cell["solve_stats"]) > 0, why
    assert (out / cell["file"]).read_bytes() == \
        run_profile(tmp_path, "profile", alpha, r0), why


def test_turning_point_cell_takes_per_cell_path(tmp_path):
    # Minkowski, alpha = 0.5: r0 = 2 is the turning point itself (dr/ds = 0),
    # r0 = 3 lies on the orbit through it
    flat = "[spacetime]\nfamily = minkowski\n"
    out, manifest = run_sweep(tmp_path, "sweep", [0.5], [2.0, 3.0], flat, (-2.0, 2.0))
    at_turn, on_orbit = manifest["cells"]
    assert "solve_stats" in at_turn and "orbit" not in at_turn
    assert on_orbit["orbit"] == 0
    assert manifest["orbits"][0]["anchor_kind"] == "turning-point"
    assert manifest["orbits"][0]["anchor_r"] == 2.0
    assert (out / at_turn["file"]).read_bytes() == \
        run_profile(tmp_path, "profile", 0.5, 2.0, flat, (-2.0, 2.0))


def test_cell_between_two_turning_points_takes_per_cell_path(tmp_path):
    # Reissner-Nordstrom q^2 = 1.1: just above the inner sphere's factor the
    # surface is trapped between two turning radii around that sphere
    st = build_family("reissner-nordstrom", m=1, q=math.sqrt(1.1))
    inner = st.spheres[0]
    alpha = 1.001 * inner.alpha_star
    below, above = (r for r in turning_points(st, alpha)
                    if abs(r - inner.r_star) < 0.1)
    assert below < inner.r_star < above
    cells, orbits = _sweep_row(st, alpha, [inner.r_star], (-1.0, 1.0), STEP)
    assert cells == [None] and orbits == []

    rn = "[spacetime]\nfamily = reissner-nordstrom\nm = 1\nq = 1.0488088481701516\n"
    out, manifest = run_sweep(tmp_path, "sweep", [alpha], [inner.r_star], rn,
                              (-1.0, 1.0))
    (cell,) = manifest["cells"]
    assert "solve_stats" in cell
    assert (out / cell["file"]).read_bytes() == \
        run_profile(tmp_path, "profile", alpha, inner.r_star, rn, (-1.0, 1.0))
    # classified by its component, not by the nearest alpha_* (Supercritical)
    assert cell["classification"] == "Trapped"
    assert "Trapped" in manifest["classification_groups"]


def bump_spacetime():
    """Minkowski with a narrow bump f = 1 + 2 exp(-((r - 5)/1e-3)^2), which
    the 512-point turning-point scan steps over."""
    def evaluate(r):
        x = (r - 5.0) / 1e-3
        bump = 2 * np.exp(-x * x)
        return 1 + bump, -2 * x * bump / 1e-3

    return custom_spacetime(MetricProfile(evaluate), 3, 0.0, math.inf)


def test_orbit_that_turns_back_at_a_missed_turning_point():
    st = bump_spacetime()
    alpha = 0.3  # alpha^2 r^2 < f on the bump: two turning radii near r = 5
    turning = turning_points(st, alpha)
    assert turning == [pytest.approx(1 / alpha)]  # the bump's pair is missed
    span = (-0.2, 0.2)
    assert st.spheres == ()  # the scan steps over the bump too
    cells, orbits = _sweep_row(st, alpha, [3.6, 8.0], span, STEP)
    (orbit,) = orbits
    assert orbit.sol.reasons["forward"] == "turned-back"
    # before the bump, the orbit's window matches the cell's own solve
    curve = cells[0][0]
    ref = integrate_profile(st, PhotonSurfaceSpec(alpha, 3.6, span=span), STEP)
    np.testing.assert_array_equal(curve.s, ref.s)
    assert np.max(np.abs(curve.r - ref.r) / ref.r) <= 1e-11
    # beyond it the orbit never arrives: r0 = 8 is solved on its own
    assert cells[1] is None


def test_cell_the_orbit_does_not_reach_before_the_boundary(monkeypatch):
    # the inward half stops at r_lo (1 + 1e-9); a cell below that stop lies
    # inside a scan bracket widened to r_lo but is never reached, while one
    # between the stop and the start of the last step, which the stop ends,
    # is served by the orbit
    st = build_family("schwarzschild", n=3, m=1)  # its scan runs in the wider bracket
    monkeypatch.setattr(ClassSSpacetime, "default_bracket",
                        lambda self: (self.r_lo, 100.0))
    alpha, r0s, span = 0.1, [2.0 * (1 + 1e-10), 2.0000000020005, 2.02], (-1.0, 1.0)
    cells, orbits = _sweep_row(st, alpha, r0s, span, STEP)
    (orbit,) = orbits
    assert orbit.kind == "turning-point"
    assert orbit.sol.reasons["backward"] == "boundary"
    r_end, r_last = orbit.sol.end_states()[1, 0], orbit.sol.dense[2][0, 1]
    assert r_end == pytest.approx(2.0 * (1 + 1e-9), rel=1e-15) and r0s[1] < r_last
    assert cells[0] is None and cells[2] is not None
    curve, _, s0 = cells[1]
    assert orbit.sol.lo < s0 < orbit.sol.dense[0][0]
    assert_cell_matches_profile(st, alpha, r0s[1], span, curve)


def test_cells_of_a_second_half_that_ends_before_its_last_cell(monkeypatch):
    # alpha = 0.3 has no turning point: both halves of the orbit through the
    # inflection radius carry cells, the forward one is solved first, and the
    # backward one passes r0 = 2.1, then ends at r_lo (1 + 1e-9) before the
    # cell below that stop; the cell it passed keeps its orbit s0
    st = build_family("schwarzschild", n=3, m=1)  # its scan runs in the wider bracket
    monkeypatch.setattr(ClassSSpacetime, "default_bracket",
                        lambda self: (self.r_lo, 100.0))
    alpha, r0s, span = 0.3, [2.0 * (1 + 1e-10), 2.1, 5.0], (-1.0, 1.0)
    cells, orbits = _sweep_row(st, alpha, r0s, span, STEP)
    (orbit,) = orbits
    assert orbit.kind == "inflection"
    assert orbit.sol.reasons == {"forward": "span", "backward": "boundary"}
    assert cells[0] is None
    for r0, cell in zip(r0s[1:], cells[1:]):
        curve, _, s0 = cell
        assert orbit.sol.lo < s0 < orbit.sol.hi
        assert_cell_matches_profile(st, alpha, r0, span, curve)


def test_row_without_orbit_anchor_takes_per_cell_path(tmp_path):
    # Schwarzschild cut at r_lo = 5, alpha = 0.3: alpha^2 r^2 > f on the
    # whole interval, so there is no turning point; the root of
    # alpha^2 r = f'/2 (near 2.23) lies below r_lo, and the photon sphere
    # r = 3 lies outside the interval, so the row has no anchor
    cut = "[spacetime]\nfamily = schwarzschild\nn = 3\nm = 1\nr_lo = 5\n"
    st = build_family("schwarzschild", n=3, m=1, r_lo=5.0)
    alpha, r0s = 0.3, [6.0, 8.0]
    assert turning_points(st, alpha) == [] and st.spheres == ()
    assert _sweep_row(st, alpha, r0s, SPAN, STEP) == ([None, None], [])

    out, manifest = run_sweep(tmp_path, "sweep", [alpha], r0s, cut)
    assert manifest["orbits"] == []
    for cell, r0 in zip(manifest["cells"], r0s):
        assert "orbit" not in cell and attempted(cell["solve_stats"]) > 0
        assert (out / cell["file"]).read_bytes() == \
            run_profile(tmp_path, f"profile{r0}", alpha, r0, cut)


def test_cells_of_a_failed_orbit_take_per_cell_path(tmp_path, monkeypatch):
    # the open-ended orbit solve of the row raises StepUnderflowError: its
    # cells are integrated on their own, and the manifest names no orbit
    alpha, r0s = 0.3, [3.5, 6.0, 9.0]
    _, manifest = run_sweep(tmp_path, "orbit", [alpha], r0s)
    assert [cell["orbit"] for cell in manifest["cells"]] == [0, 0, 0]

    integrate_radial, failed = surfaces._integrate_radial, []

    def failing(st, rhs, y0, span, step, *args, **kwargs):
        if span == (-math.inf, math.inf):
            failed.append(span)
            raise StepUnderflowError("step-size underflow", last_state=(0.0, y0))
        return integrate_radial(st, rhs, y0, span, step, *args, **kwargs)

    monkeypatch.setattr(surfaces, "_integrate_radial", failing)
    out, manifest = run_sweep(tmp_path, "sweep", [alpha], r0s)
    assert failed and manifest["orbits"] == []
    for cell, r0 in zip(manifest["cells"], r0s):
        assert "orbit" not in cell and attempted(cell["solve_stats"]) > 0
        assert (out / cell["file"]).read_bytes() == \
            run_profile(tmp_path, f"profile{r0}", alpha, r0)


def test_window_cut_by_turned_back_stop_takes_per_cell_path(tmp_path, monkeypatch):
    # the orbit reaches r0 = 4.8 but turns back at the bump just beyond it,
    # before the window's end s0 + 0.2: the cell is integrated on its own
    st = bump_spacetime()
    alpha, r0, span = 0.3, 4.8, (-0.2, 0.2)
    cells, orbits = _sweep_row(st, alpha, [r0], span, STEP)
    (orbit,) = orbits
    assert orbit.sol.reasons["forward"] == "turned-back"
    # s0 on the forward half, where r rises to the bump and turns back above r0
    s0 = _brentq(lambda s: _dense_eval(orbit.sol.dense, [s])[1, 0] - r0,
                 0.0, orbit.sol.hi, 1e-15, 1e-15)
    # before the start of the last, turned-back step: the orbit assigned the
    # cell its s0, and its window runs past the stop
    assert 0.0 < s0 <= orbit.sol.dense[0][-1]
    assert _orbit_cell(st, alpha, orbit.sol, s0, span, STEP.sample_spacing) is None
    assert cells == [None]

    monkeypatch.setattr(cli, "_build_spacetime", lambda cp: st)
    out, manifest = run_sweep(tmp_path, "sweep", [alpha], [r0], span=span)
    (cell,) = manifest["cells"]
    assert "orbit" not in cell and attempted(cell["solve_stats"]) > 0
    assert (out / cell["file"]).read_bytes() == \
        run_profile(tmp_path, "profile", alpha, r0, span=span)
    ref = integrate_profile(st, PhotonSurfaceSpec(alpha, r0, span=span), STEP)
    np.testing.assert_array_equal(
        np.loadtxt(out / cell["file"], delimiter=",", skiprows=1)[:, 2], ref.r)
