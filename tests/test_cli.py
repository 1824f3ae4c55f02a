import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st_

import photonsurf
from photonsurf import cli, ode
from photonsurf.cli import _profile_table, _write_csv, fmt, main
from photonsurf.errors import StepBudgetError


def write_config(path, text):
    path.write_text(text)
    return str(path)


SCHW = """
[spacetime]
family = schwarzschild
n = 3
m = 1
"""


def test_spheres_schwarzschild(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW)
    assert main(["--config", cfg, "spheres"]) == 0
    out = capsys.readouterr().out
    assert "3.0,0.19245008" in out
    assert "5.1961524" in out


RN_Q2_11 = f"""
[spacetime]
family = reissner-nordstrom
m = 1
q = {math.sqrt(1.1)!r}
"""


@pytest.mark.parametrize("config, expected", [
    (SCHW, [(3.0, False)]),
    (RN_Q2_11, [(1.27639, True), (1.72361, False)])], ids=["schwarzschild", "rn-q2-1.1"])
def test_spheres_report_stability(tmp_path, capsys, config, expected):
    # RN m = 1 has spheres at r_* = (3 -+ sqrt(9 - 8 q^2))/2; at q^2 = 1.1 the
    # inner one is a minimum of f/r^2 (stable), the outer one a maximum
    cfg = write_config(tmp_path / "c.ini", config)
    out = tmp_path / "out"
    assert main(["--config", cfg, "spheres"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r_star,alpha_star,b_star,stable"
    assert [(float(x.split(",")[0]), x.split(",")[-1]) for x in lines[1:]] == \
        [(pytest.approx(r, abs=1e-5), str(stable).lower()) for r, stable in expected]
    assert main(["--config", cfg, "--out", str(out), "--format", "json", "spheres"]) == 0
    rows = json.loads(capsys.readouterr().out)["spheres"]
    manifest = json.loads((out / "spheres_manifest.json").read_text())["spheres"]
    for got in (rows, manifest):
        assert [(row["r_star"], row["stable"]) for row in got] == \
            [(pytest.approx(r, abs=1e-5), stable) for r, stable in expected]


def test_spheres_minkowski(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", "[spacetime]\nfamily = minkowski\n")
    assert main(["--config", cfg, "spheres"]) == 0
    assert "no photon spheres" in capsys.readouterr().out


def test_spheres_beyond_the_float_range_exit_3_naming_the_family(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", "[spacetime]\nfamily = schwarzschild\nm = 5e153\n")
    assert main(["--config", cfg, "spheres"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the photon sphere scan of schwarzschild "
                   "{'m': 5e+153} leaves the float range\n")


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", "family = schwarzschild\n")
    assert main(["--config", cfg, "spheres"]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["--config", str(tmp_path / "nope.ini"), "spheres"]) == 2


def test_unknown_family_exits_2(tmp_path):
    cfg = write_config(tmp_path / "c.ini", "[spacetime]\nfamily = goedel\nm = 1\n")
    assert main(["--config", cfg, "spheres"]) == 2


def test_profile_minkowski_oracle(tmp_path):
    cfg = write_config(tmp_path / "c.ini", """
[spacetime]
family = minkowski

[profile]
alpha = 0.5
r0 = 2
sign = 0
span_lo = -4.7
span_hi = 4.7
""")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "profile"]) == 0
    rows = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    t, r = rows[:, 1], rows[:, 2]
    assert np.max(np.abs(r - np.sqrt(4.0 + t ** 2))) < 1e-7
    manifest = json.loads((out / "profile_manifest.json").read_text())
    assert manifest["samples"] == len(rows)
    assert manifest["outputs"] == ["profile.csv"]


def test_profile_photon_sphere_tag(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[profile]
alpha = 0.19245009
r0 = 3
""")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "profile"]) == 0
    manifest = json.loads((out / "profile_manifest.json").read_text())
    assert manifest["classification"] == "PhotonSphere"
    rows = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 2] - 3.0)) == 0.0


def test_profile_forbidden_radius_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[profile]
alpha = 0.5
r0 = 1.9
""")
    assert main(["--config", cfg, "profile"]) == 3


def test_profile_r0_at_singularity_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[profile]
alpha = 0.5
r0 = 0
""")
    assert main(["--config", cfg, "profile"]) == 3
    assert "outside radial interval" in capsys.readouterr().err


def test_profile_nonpositive_alpha_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[profile]
alpha = 0
r0 = 6
""")
    assert main(["--config", cfg, "profile"]) == 3
    assert "alpha must be positive" in capsys.readouterr().err


def test_fractional_sign_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[profile]
alpha = 0.15
r0 = 6
sign = 0.5
""")
    assert main(["--config", cfg, "profile"]) == 2
    assert "sign" in capsys.readouterr().err


def test_profile_forbidden_band_message(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[profile]
alpha = 0.15
r0 = 3
""")
    assert main(["--config", cfg, "profile"]) == 3
    err = capsys.readouterr().err
    assert "alpha^2 r0^2" in err


def test_profile_oracle_compares_every_sample(tmp_path):
    # r grows from 4 to about 20 over the span: a geodesic span of 2 r0
    # |span| stops short of the profile's end, r_max |span| does not
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[profile]
alpha = 0.4
r0 = 4
span_lo = -4
span_hi = 4
""")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "profile", "--oracle"]) == 0
    manifest = json.loads((out / "profile_manifest.json").read_text())
    assert manifest["oracle_compared_samples"] == manifest["samples"]
    assert manifest["oracle_max_deviation"] < 1e-6


def test_profile_oracle_flag(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[profile]
alpha = 0.15
r0 = 6
span_lo = -3
span_hi = 3
""")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "profile", "--oracle"]) == 0
    manifest = json.loads((out / "profile_manifest.json").read_text())
    assert manifest["oracle_max_deviation"] < 1e-6


@pytest.mark.parametrize("alpha, r0, t0", [
    (27 ** -0.5, 3.0, 0.0),  # critical data: the geodesic is a circular orbit
    (0.15, 6.0, 5.0),  # the profile starts at t0, the geodesic at t = 0
])
def test_profile_oracle_circular_orbit_and_t0(tmp_path, alpha, r0, t0):
    cfg = write_config(tmp_path / "c.ini", SCHW + f"""
[profile]
alpha = {alpha!r}
r0 = {r0!r}
t0 = {t0!r}
span_lo = -3
span_hi = 3
""")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "profile", "--oracle"]) == 0
    manifest = json.loads((out / "profile_manifest.json").read_text())
    assert manifest["oracle_max_deviation"] < 1e-9


def test_step_budget_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ode, "_STEP_BUDGET", 10)
    cfg = write_config(tmp_path / "c.ini", SCHW + "[profile]\nalpha = 0.15\nr0 = 6\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "p"), "profile"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "step budget of 10 attempted steps" in err


def _write_csv_reference(path, header, columns):
    # the per-value writer that _write_csv replaced, kept as its reference
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(fmt(v) for v in row) + "\n")


def test_write_csv_matches_per_value_fmt(tmp_path, schw3, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 5)
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                        -5e-324, 1e16, 1e-5, 0.1, 1 / 3, 2.0 ** 60])
    signed_zeros = np.array([-0.0, 0.0, 0.0, -0.0, -math.nan, math.nan, 1.0])
    rng = np.random.default_rng(3)
    tables = [("a,b,c", (special, special[::-1] * 3,
                         rng.standard_normal(special.size)
                         * 10.0 ** rng.integers(-300, 300, special.size)))]
    curve = photonsurf.integrate_profile(
        schw3, photonsurf.PhotonSurfaceSpec(alpha=0.15, r0=6.0, span=(-2.0, 2.0)))
    tables.append(_profile_table(curve))
    # -0.0 and 0.0 in both orders, NaN, values repeated within and across
    # tables; one table spans several blocks, one is empty
    tables += [("s,x,unit_residual", (special, special[::-1], special)),
               ("unit_residual,s,null_residual",
                (signed_zeros, signed_zeros[::-1], signed_zeros * 0.0)),
               ("s,unit_residual", (signed_zeros[::-1], signed_zeros)),
               _profile_table(curve),
               ("s,t,unit_residual", (np.zeros(0),) * 3)]
    # one column, where every comma becomes a newline; one row
    tables += [("s", (special,)), ("s", (np.arange(12) / 7,)),
               ("a,b,c", tuple(np.array([x]) for x in (0.1, 1e-5, 2.0))),
               ("a,b", (np.array([0.25]), np.array([-3.0])))]
    # band rows (NaN, +-inf, 1e-5, 1e16) first and last in a block, between
    # ordinary rows and just before a block boundary
    for rows in ([0, 5], [4, 9], [2, 7, 12], [0, 1, 3, 4, 9, 10]):
        band = np.linspace(0.5, 7.5, 15)
        band[rows] = np.resize([math.nan, math.inf, -math.inf, 1e-5, 1e16], len(rows))
        tables.append(("s,x,y", (np.linspace(-1, 1, 15), band, band[::-1] / 3)))
    # strided columns, as _dense_eval returns the states of a curve
    states = rng.standard_normal((13, 3)).T
    tables.append(("a,b,c", tuple(states)))
    for k, (header, columns) in enumerate(tables):
        _write_csv(tmp_path / f"new{k}.csv", header, columns)
        _write_csv_reference(tmp_path / f"ref{k}.csv", header, columns)
        assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"ref{k}.csv").read_bytes()
    assert (tmp_path / "ref6.csv").read_bytes() == b"s,t,unit_residual\n"
    assert (tmp_path / "ref7.csv").read_bytes().count(b"\n") == special.size + 1
    # blocks of 4 rows, the last one short
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 4)
    s = np.arange(-0.25, 3.0, 0.25)
    _write_csv(tmp_path / "new.csv", "s,r", (s, s * s))
    _write_csv_reference(tmp_path / "ref.csv", "s,r", (s, s * s))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_rows_match_repr():
    # orjson's digits and notation against repr on over 1e6 values, as one
    # column, as a table of 4 columns and as reversed and strided copies of
    # them; a release of orjson that writes other text fails here
    rng = np.random.default_rng(24)
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 120_000, dtype=np.int64,
                        endpoint=True).view(np.float64)
    edges = np.array([1e-10, 1e-4, 1e16] + [10.0 ** e for e in range(-12, 18)])
    edges = np.concatenate([edges, -edges]).view(np.int64)
    values = np.concatenate([
        bits[np.isfinite(bits)],
        rng.standard_normal(300_000) * 10.0 ** rng.uniform(-20, 20, 300_000),
        *(rng.integers(-10 ** 9, 10 ** 9, 100_000) / 10.0 ** k for k in range(6)),
        (edges[:, None] + np.arange(-3, 4)).ravel().view(np.float64),
        [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
         math.nan, math.inf, -math.inf, 1e-5, -1e16]])
    assert values.size > 1_000_000 and values.size % 4 == 0
    ref = np.array(list(map(repr, values.tolist())), dtype=object)
    index = np.arange(values.size)
    for view in (lambda a: a[:, None], lambda a: a.reshape(-1, 4),
                 lambda a: a.reshape(-1, 4)[::-1, ::-1], lambda a: a[1::7, None]):
        lines = "\n".join(map(",".join, ref[view(index)].tolist())) + "\n"
        assert cli._rows(view(values)) == lines.encode()


def test_write_csv_memory_stays_per_block(tmp_path):
    # a block's text and comma index at a time, never the whole file's
    rng = np.random.default_rng(5)
    columns = tuple(rng.standard_normal((6, 200_000)) * 10.0 ** rng.integers(-3, 4, (6, 1)))
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", "a,b,c,d,e,f", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "big.csv").stat().st_size
    assert size > 20_000_000 and peak < size / 5


def _sweep_like_payload(cells):
    """A manifest payload shaped like that of a sweep of ``cells`` cells."""
    items = [{"alpha": 0.05 + i * 1e-4, "r0": 2.2 + i / 3, "status": "ok",
              "file": f"sweep_a{i // 40}_r{i % 40}.csv", "reason": None,
              "classification": "Supercritical", "turning_radii": [2.9 + i / 7],
              "work": {"stop": {"backward": "boundary", "forward": "span"},
                       "solve_stats": {}},
              "samples": 1001, "orbit": i // 40, "s0": -1.25 + i / 9}
             for i in range(cells)]
    return {"operation": "sweep", "span": [-5.0, 5.0], "cells": items,
            "outputs": [it["file"] for it in items] + ["sweep.gp"],
            "orbits": [{"alpha": 0.1, "anchor": 3.0, "work": {
                "stop": {"forward": "span"}, "solve_stats": {
                    "forward": {"accepted": 100, "rejected": 0, "rhs_evals": 602}}}}]}


@pytest.mark.parametrize("cells", [0, 2, 1600])
def test_write_manifest_bytes_and_bounded_memory(tmp_path, schw3, cells):
    payload = _sweep_like_payload(cells)
    text = json.dumps(dict(payload, spacetime=cli._spacetime_summary(schw3),
                           version=photonsurf.__version__),
                      sort_keys=True, indent=2) + "\n"
    tracemalloc.start()
    try:
        path = cli._write_manifest(str(tmp_path), "m.json", schw3, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(path) as fh:
        assert fh.read() == text
    if cells == 1600:
        # written in blocks: the encoder never holds the whole text
        assert len(text) > 500_000 and peak < len(text) / 3


def test_python_m_photonsurf_runs_the_cli(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SCHW)
    src = os.path.dirname(os.path.dirname(photonsurf.__file__))
    done = subprocess.run([sys.executable, "-m", "photonsurf", "--config", cfg, "spheres"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "3.0,0.19245008" in done.stdout


def test_geodesic_csv(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[geodesic]
energy = 0.3
ell = 1
r0 = 4
span_lo = -5
span_hi = 5
""")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "geodesic"]) == 0
    header = (out / "geodesic.csv").read_text().splitlines()[0]
    assert header == "s,t,r,phi,null_residual"
    manifest = json.loads((out / "geodesic_manifest.json").read_text())
    assert manifest["lambda"] == pytest.approx(0.3)
    for half in ("forward", "backward"):
        stats = manifest["work"]["solve_stats"][half]
        assert stats["accepted"] > 0
        assert stats["rhs_evals"] == 2 + 6 * (stats["accepted"] + stats["rejected"])
    assert manifest["max_null_residual"] < 1e-9


def test_geodesic_line_names_the_backward_stop_of_a_span_ending_at_0(tmp_path, capsys):
    # only the backward half is solved; it runs into the horizon, and the
    # printed reason is the one its work record holds
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[geodesic]
energy = 0.4
ell = 1
r0 = 6
sign = 1
span_lo = -40
span_hi = 0
""")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "geodesic"]) == 0
    manifest = json.loads((out / "geodesic_manifest.json").read_text())
    assert manifest["work"]["stop"] == {"backward": "boundary"}
    assert capsys.readouterr().out.startswith("termination: boundary  samples: ")


SWEEP = SCHW + """
[sweep]
alphas = 0.17320508075389044, 0.19245008972987526, 0.21169509870086
r0s = 2.5, 3, 6
span_lo = -2
span_hi = 2
"""


def test_sweep_groups_and_skips(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SWEEP)
    out = tmp_path / "sw"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == 0
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    groups = set(manifest["classification_groups"])
    assert groups == {"Subcritical", "Critical", "Supercritical"}
    kinds = {c.get("classification") for c in manifest["cells"]}
    assert "PhotonSphere" in kinds
    skipped = [c for c in manifest["cells"] if c["status"] == "skipped"]
    assert skipped and all(c["reason"] for c in skipped)
    orbits = manifest["orbits"]
    assert orbits
    for orbit in orbits:
        assert sorted(orbit["work"]["solve_stats"]) == ["backward", "forward"]
        assert all(h["accepted"] > 0 for h in orbit["work"]["solve_stats"].values())
    for cell in manifest["cells"]:
        if cell["status"] == "ok":
            if cell["classification"] == "PhotonSphere":
                # the exact cylinder needs no solve
                assert cell["work"]["solve_stats"] == {}
            elif "orbit" in cell:  # a window of a shared orbit solve
                assert cell["work"]["solve_stats"] == {}
                assert 0 <= cell["orbit"] < len(orbits)
                assert orbits[cell["orbit"]]["alpha"] == cell["alpha"]
                assert isinstance(cell["s0"], float)
            else:
                halves = cell["work"]["solve_stats"]
                assert sorted(halves) == ["backward", "forward"]
                assert all(h["accepted"] > 0 for h in halves.values())
            path = out / cell["file"]
            rows = path.read_text().splitlines()
            assert rows[0] == "s,t,r,dt_ds,dr_ds,unit_residual"
            assert len(rows) - 1 == cell["samples"]
    assert (out / "sweep.gp").exists()


def test_sweep_empty_grid_exits_4(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SCHW + "[sweep]\nalphas =\nr0s = 3\n")
    assert main(["--config", cfg, "sweep"]) == 4


def test_sweep_minkowski_forbidden_cell_skipped(tmp_path):
    cfg = write_config(tmp_path / "c.ini", """
[spacetime]
family = minkowski

[sweep]
alphas = 0.5
r0s = 1, 2, 4
span_lo = -2
span_hi = 2
""")
    out = tmp_path / "sw"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == 0
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    by_r0 = {c["r0"]: c for c in manifest["cells"]}
    assert by_r0[1.0]["status"] == "skipped"
    assert by_r0[2.0]["status"] == "ok"
    assert by_r0[4.0]["status"] == "ok"


def test_sweep_nonpositive_alpha_cell_skipped(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[sweep]
alphas = -0.1, 0.25
r0s = 3, 6
span_lo = -1
span_hi = 1
""")
    out = tmp_path / "sw"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == 0
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    status = [(c["alpha"], c["status"]) for c in manifest["cells"]]
    assert status == [(-0.1, "skipped"), (-0.1, "skipped"),
                      (0.25, "ok"), (0.25, "ok")]
    assert "alpha must be positive" in manifest["cells"][0]["reason"]


def test_sweep_alpha_past_the_float_range_row_skipped(tmp_path):
    # alpha^2 overflows in turning_points: the row is skipped, not the sweep
    cfg = write_config(tmp_path / "c.ini", SCHW + """
[sweep]
alphas = 0.3, 1e200
r0s = 5
span_lo = -1
span_hi = 1
""")
    out = tmp_path / "sw"
    assert main(["--config", cfg, "--out", str(out), "sweep"]) == 0
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    status = [(c["alpha"], c["status"]) for c in manifest["cells"]]
    assert status == [(0.3, "ok"), (1e200, "skipped")]
    assert manifest["cells"][1]["reason"].startswith("float range exceeded: ")
    assert manifest["outputs"] == ["sweep_a0_r0.csv", "sweep.gp"]


def test_sweep_deterministic(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SWEEP)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1), "sweep"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "sweep"]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_cell_bytes_independent_of_grid(tmp_path):
    # the same (alpha, r0) cell, once in a 3x3 grid and once alone in a
    # reversed 2x2 grid, must give the same bytes
    big = write_config(tmp_path / "big.ini", SWEEP)
    small = write_config(tmp_path / "small.ini", SCHW + """
[sweep]
alphas = 0.21169509870086, 0.17320508075389044
r0s = 6, 3
span_lo = -2
span_hi = 2
""")
    assert main(["--config", big, "--out", str(tmp_path / "big"), "sweep"]) == 0
    assert main(["--config", small, "--out", str(tmp_path / "small"), "sweep"]) == 0
    pairs = [("sweep_a0_r2.csv", "sweep_a1_r0.csv"),   # alpha 0.173, r0 6
             ("sweep_a2_r2.csv", "sweep_a0_r0.csv"),   # alpha 0.212, r0 6
             ("sweep_a2_r1.csv", "sweep_a0_r1.csv")]   # alpha 0.212, r0 3
    for in_big, in_small in pairs:
        assert (tmp_path / "big" / in_big).read_bytes() == \
            (tmp_path / "small" / in_small).read_bytes()


# a grid of four rows, the first skipped, with a skipped cell and eight
# curves: a helper runs rows 1 and 3 (five curves), the sweep row 2 (three)
HELPER_SWEEP = SCHW + """
[sweep]
alphas = -1, 0.17320508075389044, 0.21169509870086, 0.3
r0s = 2.5, 6, 9
span_lo = -2
span_hi = 2
"""
HELPER_SWEEP_SAMPLES = 4 * 3 * 400  # cells x span / spacing


def tree(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.fixture
def helper_runs(monkeypatch):
    """Run ``main`` as if ``cpus`` CPUs were usable and a sweep of at least
    ``fewest`` samples forked a helper (every one by default); count the
    processes it forks and the CSVs it writes itself."""
    import multiprocessing

    parent, forks, own = os.getpid(), [], []
    real_fork, real_write = os.fork, cli._write_csv

    def fork():
        forks.append(1)
        return real_fork()

    def write_csv(path, *rest):
        if os.getpid() == parent:
            own.append(os.path.basename(path))
        real_write(path, *rest)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_write_csv", write_csv)

    def run(cpus, argv, fewest=0):
        forks.clear()
        own.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(cli, "_HELPER_SAMPLES", fewest)
        try:
            return main(argv)
        finally:
            assert multiprocessing.active_children() == []

    run.forks, run.own = forks, own
    return run


def test_sweep_bytes_do_not_depend_on_the_helper(tmp_path, capsys, helper_runs):
    cfg = write_config(tmp_path / "c.ini", HELPER_SWEEP)
    trees, stdouts, own = [], [], []
    for cpus, forks in ((1, 0), (4, 1)):
        out = tmp_path / f"cpus{cpus}"
        assert helper_runs(cpus, ["--config", cfg, "--out", str(out), "sweep"]) == 0
        assert len(helper_runs.forks) == forks
        trees.append(tree(out))
        stdouts.append(capsys.readouterr().out)
        own.append(list(helper_runs.own))
    assert trees[0] == trees[1] and stdouts[0] == stdouts[1]
    csvs = sorted(name for name in trees[0] if name.endswith(".csv"))
    assert len(csvs) == 8
    # one CPU: every CSV written here; four: the helper writes the odd rows'
    assert own[0] == csvs
    assert own[1] == ["sweep_a2_r0.csv", "sweep_a2_r1.csv", "sweep_a2_r2.csv"]


def test_a_lagging_helper_moves_no_work_to_the_sweep(tmp_path, helper_runs, monkeypatch):
    # which process runs a row depends on its index alone: a helper whose CSV
    # writes lag leaves the sweep the same CSVs, bytes and metric evaluations
    parent, real_build, real_write = os.getpid(), cli._build_spacetime, cli._write_csv
    calls, lag = [], []

    def build(cp):
        st = real_build(cp)

        def evaluate(r, inner=st.metric.evaluate):
            if os.getpid() == parent:
                calls.append(np.size(r))
            return inner(r)
        return dataclasses.replace(st, metric=dataclasses.replace(st.metric, evaluate=evaluate))

    def write_csv(path, *rest):
        if os.getpid() != parent:
            time.sleep(lag[0])
        real_write(path, *rest)

    monkeypatch.setattr(cli, "_build_spacetime", build)
    monkeypatch.setattr(cli, "_write_csv", write_csv)
    cfg = write_config(tmp_path / "c.ini", HELPER_SWEEP)
    runs = []
    for delay in (0.0, 0.05):
        lag[:], calls[:] = [delay], []
        out = tmp_path / f"lag{delay}"
        assert helper_runs(2, ["--config", cfg, "--out", str(out), "sweep"]) == 0
        assert len(helper_runs.forks) == 1
        runs.append((tree(out), list(helper_runs.own), len(calls), sum(calls)))
    assert runs[0] == runs[1]
    assert runs[0][1] == ["sweep_a2_r0.csv", "sweep_a2_r1.csv", "sweep_a2_r2.csv"]
    assert runs[0][2] > 0


@pytest.mark.parametrize("fewest, forks", [
    (HELPER_SWEEP_SAMPLES, 1), (HELPER_SWEEP_SAMPLES + 1, 0)])
def test_only_a_sweep_of_enough_samples_forks(tmp_path, capsys, helper_runs, fewest, forks):
    cfg = write_config(tmp_path / "c.ini", HELPER_SWEEP)
    assert helper_runs(1, ["--config", cfg, "--out", str(tmp_path / "one"), "sweep"]) == 0
    alone = capsys.readouterr().out
    out = tmp_path / "two"
    assert helper_runs(2, ["--config", cfg, "--out", str(out), "sweep"], fewest) == 0
    assert len(helper_runs.forks) == forks
    assert capsys.readouterr().out == alone
    assert tree(out) == tree(tmp_path / "one")


@pytest.mark.parametrize("cpus", [1, 4])
def test_helper_write_error_is_raised_by_the_sweep(tmp_path, helper_runs, cpus):
    # a directory where a CSV of row 1 goes: with a helper, which runs the odd
    # rows, the helper fails to write it, and the sweep raises what it would
    # raise alone
    cfg = write_config(tmp_path / "c.ini", HELPER_SWEEP)
    out = tmp_path / "sw"
    (out / "sweep_a1_r1.csv").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        helper_runs(cpus, ["--config", cfg, "--out", str(out), "sweep"])
    assert len(helper_runs.forks) == (cpus > 1)
    assert ("sweep_a1_r1.csv" in helper_runs.own) == (cpus == 1)
    assert not (out / "sweep_manifest.json").exists()
    assert not (out / "sweep.gp").exists()


def test_helper_row_error_reaches_main_as_in_a_serial_sweep(tmp_path, capsys, helper_runs,
                                                           monkeypatch):
    # solve errors in rows 1 (the helper's) and 2 (the sweep's): main reports
    # row 1's, with the type, message and exit code of a serial sweep
    real_classify, real_reason, seen = cli.classify, cli._reason, []

    def classify(st, alpha, r0):
        if alpha in (0.17320508075389044, 0.21169509870086):
            raise StepBudgetError(f"step budget spent at alpha {alpha}",
                                  last_state=(1.5, (r0, alpha)))
        return real_classify(st, alpha, r0)

    monkeypatch.setattr(cli, "classify", classify)
    monkeypatch.setattr(cli, "_reason", lambda e: seen.append(e) or real_reason(e))
    cfg = write_config(tmp_path / "c.ini", HELPER_SWEEP)
    runs = []
    for cpus, forks in ((1, 0), (4, 1)):
        seen.clear()
        out = tmp_path / f"cpus{cpus}"
        code = helper_runs(cpus, ["--config", cfg, "--out", str(out), "sweep"])
        assert len(helper_runs.forks) == forks
        assert not (out / "sweep_manifest.json").exists()
        runs.append((code, capsys.readouterr().err, type(seen[-1]), seen[-1].last_state))
    a1 = 0.17320508075389044
    assert runs[0] == runs[1] == (3, f"error: step budget spent at alpha {a1}\n",
                                  StepBudgetError, (1.5, (6.0, a1)))


def test_helper_that_dies_ends_the_sweep_with_an_error(tmp_path, helper_runs, monkeypatch):
    # a helper that exits mid-write: the sweep reads EOF on its pipe rather
    # than waiting for results that cannot come
    parent, real_write = os.getpid(), cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", lambda path, *rest: real_write(path, *rest)
                        if os.getpid() == parent else os._exit(1))
    cfg = write_config(tmp_path / "c.ini", HELPER_SWEEP)
    with pytest.raises(EOFError):
        helper_runs(2, ["--config", cfg, "--out", str(tmp_path / "sw"), "sweep"])
    assert len(helper_runs.forks) == 1
    assert not (tmp_path / "sw" / "sweep_manifest.json").exists()


@pytest.mark.parametrize("body, code", [
    ("alphas = 0.3\nr0s = 6\n", 0),                 # one cell
    ("alphas = 0.3\nr0s = 6, 9\n", 0),              # one row: nothing to split
    ("alphas = 0.1\nr0s = 2.5, 2.6\n", 4),          # no curve
    ("alphas =\nr0s = 2.5, 2.6\n", 4),              # empty grid
    ("alphas = 0.3, x\nr0s = 6\n", 2),              # config error
])
def test_one_cell_and_failed_sweeps_fork_nothing(tmp_path, helper_runs, body, code):
    cfg = write_config(tmp_path / "c.ini", SCHW + "[sweep]\nspan_lo = -1\nspan_hi = 1\n"
                       + body)
    assert helper_runs(4, ["--config", cfg, "--out", str(tmp_path / "sw"), "sweep"]) == code
    assert helper_runs.forks == []


def test_python_m_photonsurf_sweep_writes_the_in_process_bytes(tmp_path, capsys):
    # a span long enough that the sweep forks its helper where two CPUs are
    half = 2 * math.ceil(cli._HELPER_SAMPLES / HELPER_SWEEP_SAMPLES)
    cfg = write_config(tmp_path / "c.ini", HELPER_SWEEP.replace(
        "span_lo = -2\nspan_hi = 2", f"span_lo = -{half}\nspan_hi = {half}"))
    src = os.path.dirname(os.path.dirname(photonsurf.__file__))
    done = subprocess.run([sys.executable, "-m", "photonsurf", "--config", cfg, "--out",
                           str(tmp_path / "sub"), "sweep"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert main(["--config", cfg, "--out", str(tmp_path / "in"), "sweep"]) == 0
    assert done.stdout == capsys.readouterr().out
    assert tree(tmp_path / "sub") == tree(tmp_path / "in")


def test_verify_schwarzschild_n5(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini",
                       "[spacetime]\nfamily = schwarzschild\nn = 5\nm = 1\n")
    assert main(["--config", cfg, "verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_json_report(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW)
    out = tmp_path / "v"
    assert main(["--config", cfg, "--out", str(out), "--format", "json",
                 "verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    assert json.loads((out / "verify_report.json").read_text())["passed"]


def test_verify_non_vacuum_custom_profile_skips(tmp_path, capsys):
    rs = np.geomspace(3.0, 80.0, 500)
    table = tmp_path / "prof.csv"
    with open(table, "w") as fh:
        fh.write("r,f\n")
        for r in rs:
            fh.write(f"{float(r)!r},{float(1 - 2 / r + 0.1 * r ** 2)!r}\n")
    cfg = write_config(tmp_path / "c.ini",
                       f"[spacetime]\nfamily = custom\ntable = {table}\n")
    assert main(["--config", cfg, "verify"]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out
    assert "FAIL" not in out


def test_isotropic_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW + "[isotropic]\nr0 = 4\n")
    out = tmp_path / "iso"
    assert main(["--config", cfg, "--out", str(out), "isotropic"]) == 0
    manifest = json.loads((out / "isotropic_manifest.json").read_text())
    assert manifest["s_lo"] == pytest.approx(0.5, abs=1e-8)
    assert manifest["s_hi"] is None
    assert manifest["photon_spheres"][0]["s_star"] == pytest.approx(
        1 + math.sqrt(3) / 2, abs=1e-9)
    assert manifest["conformally_flat_intervals"] == []
    header = (out / "isotropic.csv").read_text().splitlines()[0]
    assert header == "s,r,psi,dpsi_ds,N,dN_ds,log_gap"


@pytest.mark.parametrize("spacetime, s_hi", [
    ("family = schwarzschild-ads\nm = 1\nL = 10", 22.957006764602625),
    ("family = schwarzschild-ads\nm = 0\nL = 10", None),
    ("family = reissner-nordstrom\nm = 1\nq = 1", None),  # extremal
    ("family = reissner-nordstrom\nm = 1\nq = 1.2", None),  # super-extremal
], ids=["sads", "sads-m0", "rn-extremal", "rn-super-extremal"])
def test_isotropic_csv_finite(tmp_path, spacetime, s_hi):
    cfg = write_config(tmp_path / "c.ini",
                       f"[spacetime]\n{spacetime}\n[isotropic]\nr0 = 5\n")
    out = tmp_path / "iso"
    assert main(["--config", cfg, "--out", str(out), "isotropic"]) == 0
    rows = np.loadtxt(out / "isotropic.csv", delimiter=",", skiprows=1)
    assert rows.shape == (256, 7)
    assert np.all(np.isfinite(rows))
    if s_hi is not None:
        manifest = json.loads((out / "isotropic_manifest.json").read_text())
        assert manifest["s_hi"] == pytest.approx(s_hi, rel=1e-10)


def test_isotropic_beyond_the_float_range_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", "[spacetime]\nfamily = schwarzschild\n"
                       "m = 1e300\n[isotropic]\nr0 = 3e300\n")
    with np.errstate(over="ignore"):
        assert main(["--config", cfg, "--out", str(tmp_path / "iso"), "isotropic"]) == 3
    assert "r0 = 3e+300 leaves the float range" in capsys.readouterr().err


def test_spheres_out_creates_directory(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SCHW)
    out = tmp_path / "new" / "dir"
    assert main(["--config", cfg, "--out", str(out), "spheres"]) == 0
    manifest = json.loads((out / "spheres_manifest.json").read_text())
    assert manifest["spheres"][0]["r_star"] == pytest.approx(3.0)


@pytest.mark.parametrize("energy, ell", [(-1, 1), (0, 1), (0.3, -1)])
def test_geodesic_bad_charges_exit_3(tmp_path, capsys, energy, ell):
    cfg = write_config(tmp_path / "c.ini", SCHW + f"""
[geodesic]
energy = {energy}
ell = {ell}
r0 = 4
""")
    assert main(["--config", cfg, "--out", str(tmp_path / "g"), "geodesic"]) == 3
    assert "invalid spec" in capsys.readouterr().err


@pytest.mark.parametrize("section, body", [
    ("profile", "alpha = 0.15\nr0 = 6\n"),
    ("geodesic", "energy = 0.3\nell = 1\nr0 = 4\n"),
    ("sweep", "alphas = 0.15\nr0s = 6\n"),
])
def test_zero_length_span_exits_3(tmp_path, capsys, section, body):
    cfg = write_config(tmp_path / "c.ini", SCHW + f"""
[{section}]
{body}span_lo = 0
span_hi = 0
""")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), section]) == 3
    assert "positive length" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_tol_exits_2(tmp_path, tol):
    cfg = write_config(tmp_path / "c.ini", SCHW)
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "--tol", tol, "verify"])
    assert exc.value.code == 2


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", SCHW + "[profile]\nalpha = nan\nr0 = 6\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "p"), "profile"]) == 2
    assert "not finite" in capsys.readouterr().err


def test_workers_option_removed(tmp_path):
    cfg = write_config(tmp_path / "c.ini", SWEEP)
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "--workers", "2", "sweep"])
    assert exc.value.code == 2


def run_python(code, cwd=None):
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(photonsurf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          check=True, capture_output=True, text=True).stdout


SCIPY_LOADED = ("sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.'))")


@pytest.fixture(scope="module")
def fresh_import():
    """Modules a fresh interpreter has loaded: scipy's after ``import
    photonsurf`` and after ``import photonsurf.cli``, then multiprocessing's
    and orjson's."""
    return run_python(
        f"import sys\nimport photonsurf\nprint({SCIPY_LOADED})\n"
        f"import photonsurf.cli\nprint({SCIPY_LOADED})\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
        "print(sorted(m for m in sys.modules if m.startswith('orjson')))\n"
    ).splitlines()


def test_cli_import_does_not_load_scipy_integrate(fresh_import):
    # scipy costs most of the import time every CLI call pays; no module of
    # it may load, neither with the package nor with the CLI
    assert fresh_import[:2] == ["[]", "[]"]


def test_cli_import_does_not_load_multiprocessing(fresh_import):
    # only a sweep that hands CSVs to helper processes imports it
    assert fresh_import[2] == "[]"


def test_cli_import_does_not_load_orjson(fresh_import):
    # only commands that write a CSV import it; spheres and verify write none
    assert fresh_import[3] == "[]"


def test_cli_commands_load_no_scipy_but_tables_do(tmp_path):
    # every subcommand on built-in families runs without scipy; a table
    # profile still works, and loads scipy.interpolate only then
    table = tmp_path / "prof.csv"
    table.write_text("r,f\n" + "".join(
        f"{r!r},{1 - 2 / r!r}\n" for r in np.geomspace(2.5, 50.0, 200).tolist()))
    configs = {
        "schw": SCHW + """
[profile]
alpha = 0.15
r0 = 6
span_lo = -2
span_hi = 2
[geodesic]
energy = 0.3
ell = 1
r0 = 4
span_lo = -5
span_hi = 5
[sweep]
alphas = 0.15, 0.19245008972987526, 0.25
r0s = 3, 6
span_lo = -1
span_hi = 1
[isotropic]
r0 = 4
""",
        "rn": "[spacetime]\nfamily = reissner-nordstrom\nm = 1\nq = 0.6\n",
        "sads": "[spacetime]\nfamily = schwarzschild-ads\nm = 1\nL = 10\n",
        "table": f"""[spacetime]
family = custom
table = {table}
[profile]
alpha = 0.15
r0 = 6
span_lo = -1
span_hi = 1
""",
    }
    for name, text in configs.items():
        write_config(tmp_path / f"{name}.ini", text)
    runs = [("schw", "spheres"), ("schw", "profile", "--oracle"),
            ("schw", "geodesic"), ("schw", "sweep"), ("schw", "verify"),
            ("schw", "isotropic")]
    runs += [(name, command) for name in ("rn", "sads")
             for command in ("spheres", "verify", "isotropic")]
    code = f"""import contextlib, io, sys
from photonsurf.cli import main

def run(name, *argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["--config", name + ".ini", "--out", name, *argv])

print([run(*r) for r in {runs!r}])
print({SCIPY_LOADED})
print(run("table", "profile"), "scipy.interpolate" in sys.modules)
"""
    codes, loaded, table_run = run_python(code, cwd=tmp_path).splitlines()
    assert codes == str([0] * len(runs))
    assert loaded == "[]"
    assert table_run == "0 True"
    manifest = json.loads((tmp_path / "table" / "profile_manifest.json").read_text())
    assert manifest["classification"] == "Subcritical"


@pytest.mark.parametrize("body, code", [
    ("family = schwarzschild-ads\nm = 1\nL = inf", 2),
    ("family = schwarzschild-ads\nm = 1\nL = nan", 2),
    ("family = schwarzschild\nm = nan", 2),
    ("family = minkowski\nr_lo = -1\nr_hi = 0", 2),
    ("family = reissner-nordstrom\nm = -5\nq = 1", 0),  # r_+ < 0: r_lo = 0
    ("family = schwarzschild-ads\nm = 1e-40\nL = 10", 0),  # r_H ~ 2e-40
    ("family = schwarzschild-ads\nm = 1e300\nL = 1e300", 2),  # L^2 overflows
    ("family = schwarzschild-ads\nm = 1\nL = 1e-300", 2),  # L^2 underflows
    # r_H ~ 4.5e75 bracketed across ~540 binary orders; f < 0 at r_lo = 2
    ("family = schwarzschild-ads\nn = 4\nm = 1e300\nL = 10\nr_lo = 2", 2),
    ("family = schwarzschild-ads\nm = 1e308\nL = 10", 2),  # 2m overflows
    # r_H ~ 2e-300: r_H^2 in f' underflows to 0
    ("family = schwarzschild-ads\nm = 1e-300\nL = 10", 2),
    ("family = schwarzschild\nm = 1e-300", 2),
    ("family = reissner-nordstrom\nm = 1e-300\nq = 0", 2),  # r_+^3 underflows
    # m^2 overflows
    ("family = reissner-nordstrom\nm = 2e154\nq = 1e154", 2),
    ("family = reissner-nordstrom\nm = 1e155\nq = 0", 2),
    ("family = reissner-nordstrom\nm = 1e200\nq = 0", 2),
])
def test_family_params_contract(tmp_path, capsys, body, code):
    cfg = write_config(tmp_path / "c.ini", f"[spacetime]\n{body}\n"
                       "[profile]\nalpha = 0.2\nr0 = 5\nspan_lo = -1\nspan_hi = 1\n")
    for command in ("spheres", "profile") if code else ("spheres",):
        assert main(["--config", cfg, "--format", "json", "--out",
                     str(tmp_path / command), command]) == code
        out, err = capsys.readouterr()
        if code:
            assert len(err.splitlines()) == 1 and "Traceback" not in err
    if code == 0:
        spacetime = json.loads(
            (tmp_path / "spheres" / "spheres_manifest.json").read_text())["spacetime"]
        if spacetime["family"] == "reissner-nordstrom":
            assert spacetime["r_lo"] == 0.0
        else:  # the horizon 1 - 2m/r_H + r_H^2/L^2 = 0
            assert spacetime["r_lo"] == pytest.approx(2e-40, rel=1e-12)


def test_profile_past_the_float_range_ends_with_reason(tmp_path, capsys):
    # r grows like exp(alpha s), so r^2 in f overflows near s = 1180, long
    # before span_hi: the curve ends at its last accepted step
    cfg = write_config(tmp_path / "c.ini", SCHW + "[profile]\nalpha = 0.3\n"
                       "r0 = 6\nspan_lo = -1\nspan_hi = 3000\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--format", "json", "--out", str(out),
                 "profile"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((out / "profile_manifest.json").read_text())
    assert manifest["work"]["stop"]["forward"] == "float-range"
    assert manifest["work"]["stop"]["backward"] == "span"
    assert manifest["work"]["solve_stats"]["forward"]["accepted"] > 0


def _config_value():
    """A [spacetime] value: absent (None), empty, 0, non-finite, or of
    magnitude 1e-300 to 1e300 with either sign."""
    magnitude = st_.builds(lambda sign, e: repr(sign * 10.0 ** e),
                           st_.sampled_from((1, -1)), st_.floats(-300.0, 300.0))
    return st_.one_of(st_.none(), st_.sampled_from(("", "0", "nan", "inf", "-inf")),
                      magnitude)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st_.sampled_from(("minkowski", "schwarzschild",
                                "reissner-nordstrom", "schwarzschild-ads")),
       n=st_.integers(3, 6),
       values=st_.fixed_dictionaries(
           {key: _config_value() for key in ("m", "q", "L", "r_lo", "r_hi")}))
def test_spheres_exit_codes_fuzz(tmp_path, family, n, values):
    # any [spacetime] section ends in an exit code of the contract, never
    # in an exception
    lines = ["[spacetime]", f"family = {family}", f"n = {n}"]
    lines += [f"{key} = {value}" for key, value in values.items()
              if value is not None]
    cfg = write_config(tmp_path / "fuzz.ini", "\n".join(lines) + "\n")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["--config", cfg, "spheres"]) in (0, 2, 3, 4, 5)


@settings(derandomize=True, max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st_.sampled_from(("minkowski", "schwarzschild",
                                "reissner-nordstrom", "schwarzschild-ads")),
       n=st_.integers(3, 6),
       values=st_.fixed_dictionaries(
           {key: _config_value() for key in ("m", "q", "L", "r_lo", "r_hi")}),
       command=st_.sampled_from(("verify", "isotropic")))
def test_verify_and_isotropic_exit_codes_fuzz(tmp_path, family, n, values, command):
    # verify and isotropic on any [spacetime] section end in an exit code of
    # the contract with no traceback, as spheres does; 600 examples reach
    # spacetimes whose verify test surface has a single sample
    lines = ["[spacetime]", f"family = {family}", f"n = {n}"]
    lines += [f"{key} = {value}" for key, value in values.items()
              if value is not None]
    cfg = write_config(tmp_path / "fuzz.ini", "\n".join(lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                     command]) in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()


# a custom spacetime whose table, written by the test, is the second item
CUSTOM = "[spacetime]\nfamily = custom\ntable = {table}\n"
TABLE = "r,f\n2,0.5\n3,0.6\n4,0.7\n5,0.8\n"


@pytest.mark.parametrize("text, argv, code", [
    ("[profile]\nalpha = 0.2\nr0 = 6\n", ["spheres"], 2),
    ("[spacetime]\nfamily =\n", ["spheres"], 2),
    ("[spacetime]\nfamily = schwarzschild\nm = abc\n", ["spheres"], 2),
    ("[spacetime]\nfamily = schwarzschild\nn = 3.5\nm = 1\n", ["spheres"], 2),
    ("[spacetime]\nfamily = custom\n", ["spheres"], 2),
    (SCHW + "[profile]\nr0 = 6\n", ["profile"], 2),
    (SCHW + "[profile]\nalpha = abc\nr0 = 6\n", ["profile"], 2),
    (SCHW + "[sweep]\nalphas = 0.1, x\nr0s = 6\n", ["sweep"], 2),
    (SCHW, ["profile"], 2),
    (SCHW, ["geodesic"], 2),
    (SCHW, ["sweep"], 2),
    (SCHW + "[sweep]\nalphas = 0.2\nr0s = 6\nspacing = -1\n", ["sweep"], 2),
    (SCHW + "[profile]\nalpha = 0.2\nr0 = 6\nspacing = 0\n", ["profile"], 2),
    # three samples: too few for the residuals' differences
    (SCHW + "[profile]\nalpha = 0.2\nr0 = 6\nspan_lo = -1\nspan_hi = 1\n"
     "spacing = 1\n", ["profile"], 3),
    (SCHW + "[sweep]\nalphas = -0.1\nr0s = 6\n", ["sweep"], 4),
    (SCHW, ["--tol", "1e-30", "verify"], 5),
    (SCHW + "[sweep]\nalphas = 0.2, nan\nr0s = 6, inf\n", ["sweep"], 2),
    (SCHW + "[isotropic]\nsamples = -1\n", ["isotropic"], 2),
    (SCHW + "[isotropic]\nsamples = 0\n", ["isotropic"], 2),
    (SCHW + "[isotropic]\nsamples = 2.5\n", ["isotropic"], 2),
    (SCHW + "[isotropic]\nsamples = 1e7\n", ["isotropic"], 2),
    # r^(n-2) leaves the float range in the scans
    ("[spacetime]\nfamily = schwarzschild\nn = 400\nm = 1\n", ["verify"], 3),
    ("[spacetime]\nfamily = schwarzschild\nn = 100000\nm = 1\n", ["spheres"], 3),
    # test surfaces too short to difference
    ("[spacetime]\nfamily = reissner-nordstrom\nm = 1\nq = 1e5\n", ["verify"], 3),
    ("[spacetime]\nfamily = minkowski\nn = 4\nr_hi = 5.5e-81\n", ["verify"], 3),
    ((CUSTOM, ""), ["spheres"], 2),
    ((CUSTOM, TABLE + "6,abc\n"), ["spheres"], 2),
    ((CUSTOM, TABLE + "6,nan\n"), ["spheres"], 2),
    ((CUSTOM, TABLE + "6,inf\n"), ["spheres"], 2),
    ((CUSTOM, TABLE + "6\n"), ["spheres"], 2),
], ids=["no-spacetime", "empty-family", "m-not-a-number", "n-not-an-integer",
        "custom-without-table", "profile-without-alpha", "alpha-not-a-number",
        "alphas-not-numbers", "no-profile-section", "no-geodesic-section",
        "no-sweep-section", "negative-spacing", "zero-spacing", "too-few-samples",
        "every-cell-skipped", "verify-fails", "non-finite-list-values",
        "negative-samples", "zero-samples", "fractional-samples", "samples-above-cap",
        "verify-large-n", "spheres-large-n", "verify-one-sample-rn",
        "verify-one-sample-minkowski", "table-empty", "table-not-a-number",
        "table-nan", "table-inf", "table-one-field"])
def test_exit_code_contract(tmp_path, capsys, text, argv, code):
    if isinstance(text, tuple):
        template, rows = text
        (tmp_path / "table.csv").write_text(rows)
        text = template.format(table=tmp_path / "table.csv")
    cfg = write_config(tmp_path / "c.ini", text)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), *argv]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code in (2, 4):
        assert len(err.splitlines()) == 1, err
    if code == 4:
        assert err == "sweep produced no curves\n"


def _number(lo, hi, signs=(1, 1, 1, -1), unit=1.0):
    """A config number of magnitude unit 10^lo to unit 10^hi, its sign drawn
    from ``signs``."""
    return st_.builds(lambda sign, e: repr(sign * unit * 10.0 ** e),
                      st_.sampled_from(signs), st_.floats(lo, hi))


def _numbers(lo, hi, unit=1.0):
    return st_.lists(_number(lo, hi, unit=unit), min_size=1, max_size=3).map(", ".join)


# radii around 3, the simplest example, lie outside the horizons of the
# fuzzed spacetimes (r_lo < 2); out to the ends of the float range
_radius = _number(-300.0, 300.0, unit=3.0)


# spans of at most 10^0.5 and sample spacings of at least 10^-2 keep every
# example to a few thousand samples
_SPAN = {"span_lo": _number(-3.0, 0.5, (-1,)), "span_hi": _number(-3.0, 0.5, (1,)),
         "spacing": _number(-2.0, 0.0)}
_SECTIONS = {
    "profile": {"alpha": _number(-6.0, 6.0), "r0": _radius,
                "t0": _number(-6.0, 6.0), "sign": st_.sampled_from(("-1", "0", "1")),
                **_SPAN},
    "geodesic": {"energy": _number(-6.0, 6.0), "ell": _number(-6.0, 6.0),
                 "r0": _radius, "sign": st_.sampled_from(("-1", "0", "1")),
                 **_SPAN},
    "sweep": {"alphas": _numbers(-6.0, 6.0), "r0s": _numbers(-300.0, 300.0, unit=3.0),
              **_SPAN},
}
# absent, empty, zero, negative, non-finite, not a number, not a sign
_ODD = st_.sampled_from((None, "", "0", "-1", "nan", "inf", "x", "0.5"))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spacetime=st_.sampled_from((
           "family = minkowski", "family = schwarzschild\nm = 1",
           "family = schwarzschild\nn = 5\nm = 1",
           "family = reissner-nordstrom\nm = 1\nq = 0.6",
           "family = schwarzschild-ads\nm = 1\nL = 10")),
       section=st_.sampled_from(sorted(_SECTIONS)), data=st_.data())
def test_section_exit_codes_fuzz(tmp_path, spacetime, section, data):
    # any [profile], [geodesic] or [sweep] section, with numbers of
    # magnitude 1e-6 to 1e6, radii of 3e-300 to 3e300 and at most one odd
    # value, ends in an exit code of the contract, never in an exception;
    # after exit 0 every work record of its manifest has the one shape
    values = data.draw(st_.fixed_dictionaries(_SECTIONS[section]))
    odd_key = data.draw(st_.sampled_from((None, None, *sorted(values))))
    if odd_key is not None:
        values[odd_key] = data.draw(_ODD)
    lines = ["[spacetime]", spacetime, f"[{section}]"]
    lines += [f"{key} = {value}" for key, value in values.items()
              if value is not None]
    cfg = write_config(tmp_path / "fuzz.ini", "\n".join(lines) + "\n")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), section])
    assert code in (0, 2, 3, 4, 5)
    if code == 0:
        manifest = json.loads((tmp_path / "out" / f"{section}_manifest.json").read_text())
        for work in _work_records(manifest):
            assert set(work) == {"stop", "solve_stats"}
            assert set(work["solve_stats"]) <= set(work["stop"]) <= {"backward", "forward"}
            assert set(work["stop"].values()) <= STOP_REASONS


# the stop reasons of the README's table
STOP_REASONS = {"span", "boundary", "asymptotic-to-photon-sphere", "photon-sphere-snap",
                "float-range", "turned-back"}


def _work_records(node):
    """The values of every "work" key in a manifest."""
    if isinstance(node, list):
        for value in node:
            yield from _work_records(value)
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from [value] if key == "work" else _work_records(value)


_SECTION_DATA = {"profile": "alpha = 0.2\nr0 = 6\n",
                 "geodesic": "energy = 0.2\nell = 1\nr0 = 6\n",
                 "sweep": "alphas = 0.2\nr0s = 6\n"}


@pytest.mark.parametrize("spacing, span", [
    (1e-300, (-2, 2)), (1e-30, (-2, 2)), (1e-9, (-2, 2)), (0.01, (-1e300, 1e300))])
@pytest.mark.parametrize("section", sorted(_SECTION_DATA))
def test_sample_count_above_the_cap_is_a_config_error(tmp_path, capsys, section,
                                                      spacing, span):
    # span / spacing above 1e6 samples exits 2 with one line, before any
    # solve or sample grid
    text = (f"[spacetime]\nfamily = minkowski\n[{section}]\n{_SECTION_DATA[section]}"
            f"span_lo = {span[0]!r}\nspan_hi = {span[1]!r}\nspacing = {spacing!r}\n")
    cfg = write_config(tmp_path / "c.ini", text)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), section]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: [{section}] span / spacing = ")
    assert len(err.splitlines()) == 1 and "Traceback" not in out + err


def test_isotropic_manifest_records_the_map_solve(tmp_path):
    rn = "[spacetime]\nfamily = reissner-nordstrom\nm = 1\nq = 0.6\n"
    cfg = write_config(tmp_path / "c.ini", rn + "[isotropic]\nr0 = 4\n")
    out = tmp_path / "iso"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", cfg, "--out", str(out), "isotropic"]) == 0
    manifest = json.loads((out / "isotropic_manifest.json").read_text())
    direct = photonsurf.to_isotropic(
        photonsurf.build_family("reissner-nordstrom", m=1, q=0.6), r0=4.0)
    assert manifest["work"] == {"stop": direct.work["stop"], "solve_stats": {
        half: dataclasses.asdict(stats) for half, stats in direct.work["solve_stats"].items()}}
    assert manifest["work"]["solve_stats"]["forward"]["accepted"] > 0


# the solves whose output each check's residual reads
CHECK_SOLVES = {"surface-scalar-curvature": ["profile"],
                "isotropic-photon-sphere": ["isotropic_map"],
                "isotropic-photon-surface": ["isotropic_map", "profile"]}


@pytest.mark.parametrize("spacetime", [
    SCHW,
    "[spacetime]\nfamily = reissner-nordstrom\nm = 1\nq = 0.6\n",
    SCHW + "r_hi = 50\n",  # finite interval: the isotropic checks are skipped
])
def test_verify_report_records_the_solves_each_check_reads(tmp_path, monkeypatch,
                                                           spacetime):
    from photonsurf import geometry

    solves = {}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            solves[name] = (fn, args, kwargs, result)
            return result
        return wrapped

    monkeypatch.setattr(geometry, "integrate_profile",
                        recording("profile", geometry.integrate_profile))
    monkeypatch.setattr(geometry, "to_isotropic",
                        recording("isotropic_map", geometry.to_isotropic))
    cfg = write_config(tmp_path / "c.ini", spacetime)
    out = tmp_path / "v"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", cfg, "--out", str(out), "verify"]) == 0
    report = json.loads((out / "verify_report.json").read_text())

    # each recorded solve, run again directly, does the same work
    direct = {}
    for name, (fn, args, kwargs, result) in solves.items():
        assert fn(*args, **kwargs).work == result.work
        direct[name] = {"stop": result.work["stop"], "solve_stats": {
            half: dataclasses.asdict(stats)
            for half, stats in result.work["solve_stats"].items()}}
    for check in report["checks"]:
        names = [] if check["skipped"] else CHECK_SOLVES.get(check["name"], [])
        assert check["work"] == {name: direct[name] for name in names}, check["name"]
    assert any(check["work"] for check in report["checks"])


def test_oracle_accepts_the_radius_its_profile_accepts(tmp_path, capsys):
    # alpha^2 r0^2 - f = -8e-13 at r0 = 4 with sign 0: the profile took it
    # and the --oracle geodesic, on a tolerance scaled by E^2, did not
    alpha = math.sqrt((0.5 - 8e-13) / 16)
    cfg = write_config(tmp_path / "c.ini", SCHW + f"""
[profile]
alpha = {alpha!r}
r0 = 4
sign = 0
span_lo = -4
span_hi = 4
""")
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "profile"]) == 0
    assert main(["--config", cfg, "--out", str(out), "profile", "--oracle"]) == 0
    manifest = json.loads((out / "profile_manifest.json").read_text())
    assert manifest["oracle_max_deviation"] <= 1e-10


def test_public_api_is_the_modules_all_and_the_errors():
    # the package exports exactly what its modules list, and every error
    from photonsurf import errors, geodesics, geometry, spacetime, surfaces
    listed = set()
    for module in (spacetime, surfaces, geodesics, geometry):
        assert all(hasattr(module, name) for name in module.__all__)
        listed.update(module.__all__)
    listed.update(name for name, obj in vars(errors).items() if isinstance(obj, type))
    exported = {name for name, obj in vars(photonsurf).items()
                if not name.startswith("_") and not isinstance(obj, type(photonsurf))}
    assert exported == listed
