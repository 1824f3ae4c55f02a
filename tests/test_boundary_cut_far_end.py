"""The boundary cut at the outer end r_hi, and the half-line whose
look-ahead fails.

As at r_lo, the band may change only the work, never the samples, the end
reasons or the sample counts. A look-ahead that raises leaves the half-line
uncut: it runs on exactly as with band 0.
"""

import pytest

from photonsurf import (
    PhotonSurfaceSpec,
    StepControl,
    custom_spacetime,
    integrate_profile,
)
from photonsurf import surfaces
from photonsurf.errors import StepUnderflowError

from test_boundary_cut import attempts, csv_bytes

# Schwarzschild-de Sitter, f = 1 - 2/r - r^2/100: r_hi lies just inside the
# cosmological horizon at 8.788851
SDS = custom_spacetime(lambda r: 1 - 2 / r - r ** 2 / 100, 3, 2.09149, 8.78885,
                       fprime=lambda r: 2 / r ** 2 - r / 50)


def solve(st, spec, band):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surfaces, "_LOOKAHEAD_BAND", band)
        return integrate_profile(st, spec, StepControl())


@pytest.mark.parametrize("alpha, r0, sign", [
    (0.25, 7.0, 1), (0.3, 8.5, 1), (0.2, 6.0, 1), (0.22, 5.0, -1)])
def test_band_changes_work_never_samples_at_r_hi(tmp_path, alpha, r0, sign):
    spec = PhotonSurfaceSpec(alpha, r0, sign=sign, span=(-4.0, 30.0))
    on = solve(SDS, spec, surfaces._LOOKAHEAD_BAND)
    off = solve(SDS, spec, 0.0)
    assert csv_bytes(tmp_path, on) == csv_bytes(tmp_path, off)
    assert (on.termination, on.termination_start, len(on.s)) == \
        (off.termination, off.termination_start, len(off.s))
    for half, stats in on.solve_stats.items():
        assert attempts(stats) <= attempts(off.solve_stats[half]), half
    # the half heading out ends at r_hi, and the cut saved work there
    outward = "forward" if sign > 0 else "backward"
    assert (on.termination if sign > 0 else on.termination_start) == "boundary"
    assert SDS.r_hi - (on.r[-1] if sign > 0 else on.r[0]) < 0.05 * SDS.r_hi
    assert attempts(on.solve_stats[outward]) < attempts(off.solve_stats[outward])


def test_failed_look_ahead_leaves_the_half_line_uncut(tmp_path, schw3, monkeypatch):
    # the forward half falls into the horizon (as in test_boundary_cut); its
    # look-ahead on (r, dr/ds) raises, so the half runs on as with band 0
    spec = PhotonSurfaceSpec(0.3568087075647066, 6.856597721117346, sign=-1,
                             span=(-4.0, 4.0))
    off = solve(schw3, spec, 0.0)
    dopri5, failed = surfaces._dopri5, []

    def failing(rhs, y0, *args, **kwargs):
        if len(y0) == 2:
            failed.append(y0)
            raise StepUnderflowError("step-size underflow", last_state=(0.0, y0))
        return dopri5(rhs, y0, *args, **kwargs)

    monkeypatch.setattr(surfaces, "_dopri5", failing)
    curve = integrate_profile(schw3, spec, StepControl())
    assert len(failed) == 1
    assert csv_bytes(tmp_path, curve) == csv_bytes(tmp_path, off)
    assert (curve.termination, curve.termination_start) == \
        (off.termination, off.termination_start) == ("boundary", "span")
    assert curve.solve_stats == off.solve_stats
