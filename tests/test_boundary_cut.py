"""The boundary cut: a half-line heading into an interval end stops
integrating t after its last sample.

A half-line within ``surfaces._LOOKAHEAD_BAND`` of r_lo or r_hi, heading
there, locates its crossing of the stop radius by a look-ahead on
(r, dr/ds) and ends after the last sample before it. The band may change
only the work, never the samples, the end reasons or the sample counts;
band 0 turns the cut off.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from photonsurf import (
    ConservedCharges,
    PhotonSurfaceSpec,
    StepControl,
    build_family,
    integrate_null_geodesic,
    integrate_profile,
)
from photonsurf import cli, surfaces
from photonsurf.cli import main

from test_sweep import SCHW, run_sweep, sweep_grid

SPACETIMES = {
    "schwarzschild-n3": build_family("schwarzschild", n=3, m=1),
    "schwarzschild-n5": build_family("schwarzschild", n=5, m=1),
    "rn-q0.6": build_family("reissner-nordstrom", m=1, q=0.6),
    "rn-q0.999": build_family("reissner-nordstrom", m=1, q=0.999),
    "sads-L10": build_family("schwarzschild-ads", m=1, L=10),
}


def csv_bytes(tmp_path, curve):
    path = tmp_path / "profile.csv"
    cli._write_csv(path, *cli._profile_table(curve))
    return path.read_bytes()


def attempts(stats):
    return stats.accepted + stats.rejected


@settings(max_examples=40, deadline=None)
@given(name=st_.sampled_from(sorted(SPACETIMES)),
       x=st_.floats(1e-3, 1.0), excess=st_.floats(1e-3, 2.0),
       sign=st_.sampled_from((-1, 1)), log_spacing=st_.floats(-3.0, -1.0))
def test_band_changes_work_never_samples(tmp_path_factory, name, x, excess,
                                         sign, log_spacing):
    # r0 from just outside r_lo to 4 r_lo and alpha above the turning value
    # at r0, so every draw is admissible and about half of them run into r_lo
    st = SPACETIMES[name]
    r0 = st.r_lo * (1 + 3 * x)
    alpha = (1 + excess) * math.sqrt(st.f(r0)) / r0
    spec = PhotonSurfaceSpec(alpha, r0, sign=sign, span=(-4.0, 4.0))
    step = StepControl(sample_spacing=10.0 ** log_spacing)
    tmp_path = tmp_path_factory.mktemp("band")

    def solve(band):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surfaces, "_LOOKAHEAD_BAND", band)
            return integrate_profile(st, spec, step)

    off = solve(0.0)
    for band in (surfaces._LOOKAHEAD_BAND, 1e-3, 1e-1):
        on = solve(band)
        assert csv_bytes(tmp_path, on) == csv_bytes(tmp_path, off), band
        assert (on.work["stop"], len(on.s)) == (off.work["stop"], len(off.s)), band
        for half, stats in on.work["solve_stats"].items():
            assert attempts(stats) <= attempts(off.work["solve_stats"][half]), band


def test_horizon_bound_half_line_stops_after_its_last_sample(schw3):
    # the forward half falls into the horizon; its last sample lies at
    # r - 2 = 5.1e-3, and without the cut it takes 750 step attempts, 456 of
    # them below r - 2 = 1e-3
    spec = PhotonSurfaceSpec(0.3568087075647066, 6.856597721117346, sign=-1,
                             span=(-4.0, 4.0))
    curve = integrate_profile(schw3, spec, StepControl())
    assert curve.work["stop"]["forward"] == "boundary"
    assert 5e-3 < curve.r[-1] - 2 < 5.2e-3
    assert attempts(curve.work["solve_stats"]["forward"]) <= 350


def test_geodesic_band_changes_work_never_samples(schw3):
    # an infalling geodesic: same samples and end with and without the cut
    charges = ConservedCharges(energy=0.4, angular_momentum=1.0)

    def solve(band):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surfaces, "_LOOKAHEAD_BAND", band)
            return integrate_null_geodesic(schw3, charges, 6.0, sign=-1,
                                           span=(-5.0, 40.0))

    on, off = solve(surfaces._LOOKAHEAD_BAND), solve(0.0)
    assert on.work["stop"]["forward"] == off.work["stop"]["forward"] == "boundary"
    for a, b in ((on.s, off.s), (on.t, off.t), (on.r, off.r), (on.phi, off.phi)):
        assert a.tobytes() == b.tobytes()
    assert attempts(on.work["solve_stats"]["forward"]) < \
        0.5 * attempts(off.work["solve_stats"]["forward"])


def test_sweep_band_changes_orbit_work_never_outputs(tmp_path, monkeypatch):
    alphas, r0s = sweep_grid(1)
    out_on, on = run_sweep(tmp_path, "on", alphas, r0s)
    monkeypatch.setattr(surfaces, "_LOOKAHEAD_BAND", 0.0)
    out_off, off = run_sweep(tmp_path, "off", alphas, r0s)
    assert [o["work"]["stop"] for o in on["orbits"]] == \
        [o["work"]["stop"] for o in off["orbits"]]
    for a, b in zip(on["cells"], off["cells"]):
        # every key but the counters: a cell's work record with its stop alone
        assert {k: v["stop"] if k == "work" else v for k, v in a.items()} == \
            {k: v["stop"] if k == "work" else v for k, v in b.items()}
        if a["file"]:
            assert (out_on / a["file"]).read_bytes() == \
                (out_off / b["file"]).read_bytes()

    def orbit_work(manifest):
        return sum(h["accepted"] + h["rejected"] for o in manifest["orbits"]
                   for h in o["work"]["solve_stats"].values())

    assert orbit_work(on) <= 0.7 * orbit_work(off)


def test_sweep_cell_past_the_float_range_is_skipped(tmp_path):
    # r0 = 4.2e200 lies in the scan bracket of r_hi = 1e300, but lambda^2 r0^2
    # leaves the float range: that cell is skipped, r0 = 6 still gets a curve
    spacetime = SCHW + "r_hi = 1e300\n"
    out, manifest = run_sweep(tmp_path, "sweep", [0.3], [6.0, 4.2e200], spacetime)
    ok, skipped = manifest["cells"]
    assert ok["status"] == "ok" and (out / ok["file"]).exists()
    assert skipped["status"] == "skipped"
    assert skipped["reason"].startswith("float range exceeded")


def run_oracle(tmp_path, name):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(SCHW + "[profile]\nalpha = 0.3568087075647066\n"
                   "r0 = 6.856597721117346\nsign = -1\nspan_lo = -4\nspan_hi = 4\n")
    out = tmp_path / name
    assert main(["--config", str(cfg), "--out", str(out), "profile", "--oracle"]) == 0
    return json.loads((out / "profile_manifest.json").read_text())


def test_oracle_solve_stats_are_recorded_and_repeat(tmp_path):
    first, second = run_oracle(tmp_path, "a"), run_oracle(tmp_path, "b")
    work = first["oracle_work"]
    assert work == second["oracle_work"]
    assert set(work["solve_stats"]) == set(work["stop"]) == {"backward", "forward"}
    for half in work["solve_stats"].values():
        assert set(half) == {"accepted", "rejected", "rhs_evals"}
        assert half["accepted"] > 0
    # the geodesic stops once its t passes the profile's first and last
    # sample times, before it reaches the horizon
    assert work["stop"] == {"backward": "span", "forward": "span"}
    assert first["oracle_compared_samples"] == first["samples"]
    assert first["oracle_max_deviation"] <= 1e-6


def test_oracle_on_the_photon_sphere_covers_every_sample(tmp_path, schw3):
    # held on the sphere, the oracle is the exact circular orbit
    cfg = tmp_path / "c.ini"
    cfg.write_text(SCHW + f"[profile]\nalpha = {27 ** -0.5!r}\nr0 = 3\n"
                   "span_lo = -2\nspan_hi = 2\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "profile", "--oracle"]) == 0
    manifest = json.loads((out / "profile_manifest.json").read_text())
    assert manifest["oracle_compared_samples"] == manifest["samples"] == 401
    assert manifest["oracle_max_deviation"] == 0.0
    assert manifest["oracle_work"]["solve_stats"] == {}
