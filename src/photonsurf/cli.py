"""Command line front end: single integrations, sweeps, verification, export.

Configuration is an INI file.  The [spacetime] section selects the metric
family (family, n, m, q, L, r_lo, r_hi, or table = CSV path for a custom
profile); the [profile], [geodesic], [sweep] and [isotropic] sections hold
the parameters of the matching subcommand.

Exit codes: 0 success, 2 config error, 3 invalid surface/geodesic spec or
a solve that cannot finish (step underflow, step budget spent), 4 empty
sweep, 5 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    InvalidFamilyParamsError,
    PhotonSurfError,
    UnknownFamilyError,
)
from .geodesics import (
    ConservedCharges,
    _radii_at_times,
    critical_impact_parameter,
    integrate_null_geodesic,
)
from .geometry import isotropic_sphere_residual, verification_suite
from .spacetime import _iso_grid, build_family, conformal_flatness_scan, \
    spacetime_from_table, to_isotropic
from .surfaces import (
    PhotonSurfaceSpec,
    StepControl,
    _check_sign,
    _check_span,
    _sweep_row,
    classify,
    integrate_profile,
    ode_residuals,
    turning_points,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVALID_SPEC = 3
EXIT_EMPTY_SWEEP = 4
EXIT_VERIFY_FAILED = 5
# most output samples one curve may ask for: span length / spacing
MAX_SAMPLES = 1e6
# what plain-float arithmetic raises on radii near the ends of the float range
_FLOAT_RANGE_ERRORS = (OverflowError, ZeroDivisionError)
# fewest samples (cells x span / spacing) of a sweep that forks a helper to
# run every other row: below that, forking it mostly costs more than it
# saves (measured in BENCH_25.json, small_sweeps)
_HELPER_SAMPLES = 6000


def fmt(x) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(x))


def _reason(e):
    """One-line text of an error the CLI maps to exit 3 or a skipped cell."""
    return str(e) if isinstance(e, PhotonSurfError) else f"float range exceeded: {e}"


def _load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as e:
        raise SystemExitWith(EXIT_CONFIG, f"cannot read config {path}: {e}")
    except configparser.Error as e:
        raise SystemExitWith(EXIT_CONFIG, f"config parse failure: {e}")
    return cp


class SystemExitWith(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _section(cp, name, required=True):
    """Config section [name]: exit 2 when a required one is missing, an
    empty one when an optional one is."""
    if name not in cp:
        if required:
            raise SystemExitWith(EXIT_CONFIG, f"config is missing a [{name}] section")
        cp.add_section(name)
    return cp[name]


def _number(sec, key, raw, finite=True):
    """``raw``, the value of ``key`` in section ``sec`` or one item of its
    list, as a float; exit 2 when it is not a number, or with ``finite``
    when it is nan or infinite."""
    try:
        value = float(raw)
    except ValueError:
        raise SystemExitWith(EXIT_CONFIG, f"[{sec.name}] {key} = {raw!r} is not a number")
    if finite and not math.isfinite(value):
        raise SystemExitWith(EXIT_CONFIG, f"[{sec.name}] {key} = {raw!r} is not finite")
    return value


def _build_spacetime(cp: configparser.ConfigParser):
    sec = _section(cp, "spacetime")
    family = sec.get("family", "").strip()
    if not family:
        raise SystemExitWith(EXIT_CONFIG, "[spacetime] family is required")
    try:
        n = int(sec.get("n", "3"))
    except ValueError:
        raise SystemExitWith(EXIT_CONFIG, f"[spacetime] n = {sec.get('n')!r} is not an integer")
    # family parameters are checked by build_family, which admits r_hi = inf
    params = {key: _number(sec, key, sec[key], finite=False)
              for key in ("m", "q", "L", "r_lo", "r_hi") if sec.get(key, "").strip()}
    try:
        if family.lower() == "custom":
            table = sec.get("table", "").strip()
            if not table:
                raise SystemExitWith(EXIT_CONFIG, "custom family requires table = CSV path")
            return spacetime_from_table(table, n=n, r_lo=params.get("r_lo"),
                                        r_hi=params.get("r_hi"))
        return build_family(family, n=n, **params)
    except (UnknownFamilyError, InvalidFamilyParamsError, DomainError, OSError) as e:
        raise SystemExitWith(EXIT_CONFIG, str(e))


def _sec_float(sec, key, default=None):
    """``key`` of a section as a finite float, ``default`` when it is absent
    or empty; exit 2 when it is then required (no default)."""
    raw = sec.get(key, "").strip()
    if raw:
        return _number(sec, key, raw)
    if default is None:
        raise SystemExitWith(EXIT_CONFIG, f"[{sec.name}] {key} is required")
    return default


def _sec_floats(sec, key):
    """The finite floats of a list of numbers separated by commas or blanks."""
    return [_number(sec, key, tok) for tok in sec.get(key, "").replace(",", " ").split()]


def _sec_span(sec):
    span = (_sec_float(sec, "span_lo", -10.0), _sec_float(sec, "span_hi", 10.0))
    _check_span(span)  # before any solve; main maps its ValueError to exit 3
    return span


def _sec_sign(sec):
    sign = _sec_float(sec, "sign", 1.0)
    try:
        _check_sign(sign)
    except ValueError as e:
        raise SystemExitWith(EXIT_CONFIG, f"[{sec.name}] {e}")
    return int(sign)


# the JSON text of every manifest and report: SolveStats become objects
_JSON = {"sort_keys": True, "indent": 2, "default": asdict}


def _spacetime_summary(st):
    return {
        "family": st.family,
        "n": st.n,
        "params": {k: v for k, v in st.params.items()},
        "r_lo": st.r_lo,
        "r_hi": None if math.isinf(st.r_hi) else st.r_hi,
        "flags": list(st.flags),
    }


def _write_manifest(out_dir, name, st, payload):
    """Write ``payload`` with the summary of ``st`` and the version as
    ``_JSON`` text and a newline; ``json.dump`` writes it chunk by chunk."""
    payload = dict(payload, spacetime=_spacetime_summary(st), version=__version__)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, **_JSON)
        fh.write("\n")
    return path


_CSV_BLOCK_ROWS = 4096


def _rows(table):
    """CSV lines, each ending in a newline, of the non-empty (n, k) float64
    array ``table``, as bytes: one orjson dump of the flattened block, every
    k-th comma made a newline. Values whose orjson notation is not repr's
    (non-finite, 1e-10 <= |x| < 1e-4, |x| >= 1e16) take repr's own text."""
    import orjson  # here, not at the top: commands that write no CSV skip it
    flat, k = table.ravel(), table.shape[1]
    text = bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY))
    codes = np.frombuffer(text, np.uint8)
    # value i lies between seps[i] and seps[i + 1]: a bracket, comma or newline
    seps = np.concatenate(([0], np.flatnonzero(codes == ord(",")), [len(text) - 1]))
    codes[seps[k::k]] = ord("\n")
    size = np.abs(flat)
    band = np.flatnonzero(~(size < 1e16) | ((size >= 1e-10) & (size < 1e-4)))
    pieces, at = [], 1  # the opening bracket is cut
    for lo, hi, x in zip(seps[band].tolist(), seps[band + 1].tolist(), flat[band].tolist()):
        pieces += (text[at:lo + 1], repr(x).encode())
        at = hi
    return b"".join(pieces + [text[at:]])


def _write_csv(path, header, columns):
    """CSV with the comma-separated ``header`` and one row per entry of the
    equal-length float arrays ``columns``, each value as ``fmt`` writes it
    (``_rows``). Rows are written in blocks of _CSV_BLOCK_ROWS."""
    n = min(map(len, columns))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for i in range(0, n, _CSV_BLOCK_ROWS):
            fh.write(_rows(np.stack([column[i:min(n, i + _CSV_BLOCK_ROWS)]
                                     for column in columns], axis=1, dtype=np.float64)))


def _profile_table(curve):
    """Header and columns of a profile CSV."""
    return "s,t,r,dt_ds,dr_ds,unit_residual", (
        curve.s, curve.t, curve.r, curve.tdot, curve.rdot, curve.unit_residual)


def _helper(conn, row, rows):
    """Body of the helper process a sweep forks: run ``row`` on each index
    of ``rows`` in order, stopping at the first that raises, and send the
    list of results on ``conn``, the error last if one was raised."""
    results = []
    try:
        for ia in rows:
            results.append(row(ia))
    except Exception as e:  # raised again by the sweep, in row order
        results.append(e)
    conn.send(results)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spheres(args, cp):
    st = _build_spacetime(cp)
    rows = [{"r_star": sp.r_star, "alpha_star": sp.alpha_star,
             "b_star": critical_impact_parameter(st, sp),
             "residual": sp.residual, "stable": sp.stable} for sp in st.spheres]
    if args.format == "json":
        print(json.dumps({"spacetime": _spacetime_summary(st), "spheres": rows}, **_JSON))
    else:
        if not rows:
            print("no photon spheres")
        else:
            print("r_star,alpha_star,b_star,stable")
            for row in rows:
                print(",".join(fmt(row[k]) for k in ("r_star", "alpha_star", "b_star"))
                      + f",{str(row['stable']).lower()}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_manifest(args.out, "spheres_manifest.json", st,
                        {"operation": "spheres", "spheres": rows, "outputs": []})
    return EXIT_OK


def _profile_spec(cp):
    sec = _section(cp, "profile")
    alpha, r0 = _sec_float(sec, "alpha"), _sec_float(sec, "r0")
    t0, sign = _sec_float(sec, "t0", 0.0), _sec_sign(sec)
    return PhotonSurfaceSpec(alpha=alpha, r0=r0, t0=t0, sign=sign, span=_sec_span(sec))


def _step_control(cp, section, span):
    try:
        step = StepControl(sample_spacing=_sec_float(cp[section], "spacing", 1e-2))
    except ValueError as e:
        raise SystemExitWith(EXIT_CONFIG, f"[{section}] {e}")
    samples = (span[1] - span[0]) / step.sample_spacing
    if not samples <= MAX_SAMPLES:
        raise SystemExitWith(
            EXIT_CONFIG, f"error: [{section}] span / spacing = {samples:.3g} "
                         f"samples is above the cap of {MAX_SAMPLES:.0e}")
    return step


def cmd_profile(args, cp):
    st = _build_spacetime(cp)
    spec = _profile_spec(cp)
    step = _step_control(cp, "profile", spec.span)
    curve = integrate_profile(st, spec, step)
    cls = classify(st, spec.alpha, spec.r0)
    turning = turning_points(st, spec.alpha)
    res = ode_residuals(st, curve)

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "profile.csv"), *_profile_table(curve))
    payload = {
        "operation": "profile",
        "spec": {"alpha": spec.alpha, "r0": spec.r0, "t0": spec.t0,
                 "sign": spec.sign, "span": list(spec.span)},
        "classification": cls.kind.value,
        "turning_radii": turning,
        "samples": len(curve.s),
        "work": curve.work,
        "residuals": {"tddot": res.tddot_residual, "rddot": res.rddot_residual,
                      "unit": res.unit_residual},
        "outputs": ["profile.csv"],
    }
    if args.oracle:
        # max |r_geo(t) - r(t)| at the profile's sample times; the geodesic
        # starts at t = 0, the profile at t0
        covered, r_geo, sol = _radii_at_times(
            st, ConservedCharges(energy=spec.alpha, angular_momentum=1.0),
            spec.r0, spec.sign, curve.t - spec.t0, step)
        payload["oracle_max_deviation"] = float(abs(r_geo - curve.r[covered]).max())
        payload["oracle_compared_samples"] = int(covered.sum())
        payload["oracle_work"] = sol.work
    _write_manifest(out, "profile_manifest.json", st, payload)
    print(f"classification: {cls.kind.value}  samples: {len(curve.s)}  "
          f"worst residual: {fmt(res.worst)}")
    if args.oracle:
        print(f"oracle max deviation: {payload['oracle_max_deviation']}")
    return EXIT_OK


def cmd_geodesic(args, cp):
    st = _build_spacetime(cp)
    sec = _section(cp, "geodesic")
    charges = ConservedCharges(energy=_sec_float(sec, "energy"),
                               angular_momentum=_sec_float(sec, "ell"))
    r0 = _sec_float(sec, "r0")
    sign = _sec_sign(sec)
    span = _sec_span(sec)
    step = _step_control(cp, "geodesic", span)
    traj = integrate_null_geodesic(st, charges, r0, sign=sign, span=span, step=step)

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "geodesic.csv"), "s,t,r,phi,null_residual",
               (traj.s, traj.t, traj.r, traj.phi, traj.null_residual))
    payload = {
        "operation": "geodesic",
        "charges": {"energy": charges.energy, "ell": charges.angular_momentum},
        "lambda": (charges.energy / charges.angular_momentum
                   if charges.angular_momentum > 0 else None),
        "principal": charges.principal,
        "samples": len(traj.s),
        "work": traj.work,
        "max_null_residual": float(traj.null_residual.max()),
        "outputs": ["geodesic.csv"],
    }
    _write_manifest(out, "geodesic_manifest.json", st, payload)
    stop = traj.work["stop"]
    print(f"termination: {stop.get('forward', stop.get('backward'))}  "
          f"samples: {len(traj.s)}  max null residual: {fmt(traj.null_residual.max())}")
    return EXIT_OK


def cmd_sweep(args, cp):
    st = _build_spacetime(cp)
    sec = _section(cp, "sweep")
    alphas = _sec_floats(sec, "alphas")
    r0s = _sec_floats(sec, "r0s")
    if not alphas or not r0s:
        print("empty sweep grid", file=sys.stderr)
        return EXIT_EMPTY_SWEEP
    span = _sec_span(sec)
    step = _step_control(cp, "sweep", span)

    out = args.out or "."
    os.makedirs(out, exist_ok=True)

    def row(ia):
        """Manifest items and orbit records of row ``ia``, orbit indices
        counted within the row; writes the row's CSVs."""
        a = alphas[ia]
        try:
            turning, reason = turning_points(st, a), None
        except DomainError as e:  # alpha^2 r^2 beyond the float range
            reason = f"float range exceeded: {e}"
        except ValueError as e:  # alpha not positive
            reason = f"invalid spec: {e}"
        if reason is not None:
            return [{"alpha": a, "r0": r0, "file": None, "status": "skipped",
                     "reason": reason} for r0 in r0s], []
        cells, orbits = _sweep_row(st, a, r0s, span, step)
        items = []
        for ir, r0 in enumerate(r0s):
            item = {"alpha": a, "r0": r0, "file": None, "status": "skipped"}
            items.append(item)
            if cells[ir] is not None:
                curve, k, s0 = cells[ir]
                item.update(orbit=k, s0=s0)
            else:
                spec = PhotonSurfaceSpec(alpha=a, r0=r0, span=span)
                try:
                    curve = integrate_profile(st, spec, step)
                except (PhotonSurfError, *_FLOAT_RANGE_ERRORS) as e:
                    item["reason"] = _reason(e)
                    continue
            cls = classify(st, a, r0)
            name = f"sweep_a{ia}_r{ir}.csv"
            _write_csv(os.path.join(out, name), *_profile_table(curve))
            item.update(file=name, status="ok", reason=None,
                        classification=cls.kind.value,
                        turning_radii=turning, samples=len(curve.s), work=curve.work)
        # each orbit's anchor and the work record of its solve
        return items, [{"alpha": o.alpha, "anchor_r": o.anchor, "anchor_kind": o.kind,
                        "work": o.sol.work} for o in orbits]

    # with two CPUs, a large grid of two rows or more is split by row: a
    # helper forked before the first row runs the odd rows, the sweep the
    # even ones. The split depends on the row index alone, so the bytes and
    # the sweep's own work repeat from run to run.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    helper = cpus > 1 and len(alphas) > 1 and (
        len(alphas) * len(r0s) * (span[1] - span[0]) / step.sample_spacing >= _HELPER_SAMPLES)
    proc = None
    try:
        if helper:
            import multiprocessing
            # not "spawn": a fresh interpreter's numpy import alone takes
            # longer than a sweep; the row code runs no BLAS code
            ctx = multiprocessing.get_context("fork")
            conn, theirs = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_helper, args=(theirs, row, range(1, len(alphas), 2)),
                               daemon=True)
            proc.start()
            theirs.close()  # only the helper holds it: its death reads as EOF
        own = {}
        for ia in range(0, len(alphas), 2 if helper else 1):
            try:
                own[ia] = row(ia)
            except Exception as e:  # raised below in row order, as a serial sweep would
                own[ia] = e
                break
        # the helper's CSVs are complete before sweep.gp and the manifest
        helped = iter(conn.recv() if helper else ())
        items, orbits = [], []  # one solve per (alpha, component), shared by its cells
        for ia in range(len(alphas)):
            result = own[ia] if ia in own else next(helped)
            if isinstance(result, Exception):
                raise result
            for item in result[0]:
                if "orbit" in item:
                    item["orbit"] += len(orbits)
            items += result[0]
            orbits += result[1]
    finally:
        if proc is not None:
            proc.terminate()
            proc.join()
    outputs = [item["file"] for item in items if item["status"] == "ok"]
    if not outputs:
        print("sweep produced no curves", file=sys.stderr)
        return EXIT_EMPTY_SWEEP

    # grouping is by umbilicity factor: the cylinder is the critical
    # group's distinguished member, not a group of its own
    def group_of(kind):
        return "Critical" if kind in ("PhotonSphere", "Critical") else kind

    groups = sorted({group_of(it["classification"]) for it in items
                     if it["status"] == "ok"})
    gp_lines = ["set datafile separator ','",
                "set xlabel 't'", "set ylabel 'r'", "set key outside"]
    plot_parts = []
    for it in items:
        if it["status"] != "ok":
            continue
        title = f"{it['classification']} a={fmt(it['alpha'])} r0={fmt(it['r0'])}"
        plot_parts.append(
            f"'{it['file']}' using 2:3 with lines title '{title}'")
    gp_lines.append("plot \\\n  " + ", \\\n  ".join(plot_parts))
    gp_path = os.path.join(out, "sweep.gp")
    with open(gp_path, "w") as fh:
        fh.write("\n".join(gp_lines) + "\n")

    _write_manifest(out, "sweep_manifest.json", st, {
        "operation": "sweep",
        "span": list(span),
        "classification_groups": groups,
        "orbits": orbits,
        "cells": items,
        "outputs": outputs + ["sweep.gp"],
    })
    print(f"sweep: {len(outputs)}/{len(items)} cells produced curves; "
          f"groups: {', '.join(groups)}")
    return EXIT_OK


def cmd_verify(args, cp):
    st = _build_spacetime(cp)
    checks = verification_suite(st, tol_scale=args.tol)
    report = {"operation": "verify", "spacetime": _spacetime_summary(st),
              "checks": checks,
              "passed": all(c["passed"] for c in checks)}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_manifest(args.out, "verify_report.json", st, report)
    if args.format == "json":
        print(json.dumps(report, **_JSON))
    else:
        for c in checks:
            if c["skipped"]:
                status = "SKIP"
            else:
                status = "PASS" if c["passed"] else "FAIL"
            resid = "-" if c["residual"] is None else fmt(c["residual"])
            line = f"{status:4s} {c['name']:28s} residual {resid} tol {fmt(c['tol'])}"
            if c["message"]:
                line += f"  ({c['message']})"
            print(line)
    if not report["passed"]:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_isotropic(args, cp):
    st = _build_spacetime(cp)
    sec = _section(cp, "isotropic", required=False)
    lo, hi = st.default_bracket()
    r0 = _sec_float(sec, "r0", math.sqrt(lo * hi))
    samples = _sec_float(sec, "samples", 256.0)
    if not (samples.is_integer() and 1 <= samples <= MAX_SAMPLES):
        raise SystemExitWith(EXIT_CONFIG, f"[isotropic] samples = {samples!r} is not "
                                          f"an integer from 1 to {MAX_SAMPLES:.0e}")
    iso = to_isotropic(st, r0=r0)

    ss = _iso_grid(iso, int(samples))
    p, dp, nn, dnn = iso.evaluate(ss)

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "isotropic.csv"),
               "s,r,psi,dpsi_ds,N,dN_ds,log_gap",
               (ss, ss * p, p, dp, nn, dnn, dnn / nn - dp / p))

    r_stars = np.array([sp.r_star for sp in st.spheres])
    s_stars = iso.s_of_r(r_stars)
    residuals = isotropic_sphere_residual(iso, s_stars)
    sphere_rows = [{"r_star": r, "s_star": s, "residual": res} for r, s, res
                   in zip(r_stars.tolist(), s_stars.tolist(), residuals.tolist())]
    flat = conformal_flatness_scan(iso)
    _write_manifest(out, "isotropic_manifest.json", st, {
        "operation": "isotropic",
        "r0": r0,
        "s_lo": iso.s_lo,
        "s_hi": None if math.isinf(iso.s_hi) else iso.s_hi,
        "photon_spheres": sphere_rows,
        "conformally_flat_intervals": [list(iv) for iv in flat],
        "work": iso.work,
        "outputs": ["isotropic.csv"],
    })
    print(f"isotropic interval: ({fmt(iso.s_lo)}, "
          f"{'inf' if math.isinf(iso.s_hi) else fmt(iso.s_hi)})  "
          f"spheres: {len(sphere_rows)}  flat intervals: {len(flat)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _positive_float(raw):
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{raw!r} is not a finite positive number")
    return value


def _parser():
    ap = argparse.ArgumentParser(
        prog="photonsurf",
        description="Photon surfaces and null geodesics in static, "
                    "spherically symmetric spacetimes")
    ap.add_argument("--config", required=True, help="INI config file")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    ap.add_argument("--tol", type=_positive_float, default=1.0,
                    help="verification tolerance scale factor")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, handler, text in (
            ("spheres", cmd_spheres, "locate photon spheres"),
            ("profile", cmd_profile, "integrate one photon surface profile"),
            ("geodesic", cmd_geodesic, "integrate one null geodesic"),
            ("sweep", cmd_sweep, "integrate a grid of (alpha, r0) profiles"),
            ("verify", cmd_verify, "run the curvature/isotropic check suite"),
            ("isotropic", cmd_isotropic, "rewrite the metric in isotropic form")):
        sub.add_parser(name, help=text).set_defaults(handler=handler)
    sub.choices["profile"].add_argument(
        "--oracle", action="store_true", help="cross-check against a generating null geodesic")
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    try:
        cp = _load_config(args.config)
        with np.errstate(all="ignore"):  # the exit code reports float-range trouble
            return args.handler(args, cp)
    except SystemExitWith as e:
        print(str(e), file=sys.stderr)
        return e.code
    except DomainError as e:  # outside the radial interval or the float range
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except ValueError as e:  # refused by a spec, charge or radius check
        print(f"invalid spec: {e}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except (PhotonSurfError, *_FLOAT_RANGE_ERRORS) as e:
        print(f"error: {_reason(e)}", file=sys.stderr)
        return EXIT_INVALID_SPEC


if __name__ == "__main__":
    sys.exit(main())
