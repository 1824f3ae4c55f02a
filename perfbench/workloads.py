"""Seeded inputs and output checks for the three benchmark workloads.

A workload is a list of operations. Each operation is one
``photonsurf.cli.main(argv)`` call on an INI file generated here from the
seed; the program sees only those files. ``make_plan`` writes the files and
returns the plan, ``check_op`` checks one operation's output directory.

Tolerances are those of the acceptance criteria (tests/test_acceptance.py).
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("sweep-grid", "oracle-pairs", "verify-iso")

ALPHA_STAR = 27 ** -0.5          # Schwarzschild n=3 m=1 critical factor
UNIT_RESIDUAL_TOL = 1e-8         # criterion 4
ORACLE_TOL = 1e-6                # criterion 3
ISO_PSI_TOL = 1e-8               # criterion 8


def _f_schw3(r):
    return 1.0 - 2.0 / r


def _ini(sections):
    lines = []
    for name, items in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items)
        lines.append("")
    return "\n".join(lines)


SCHW3 = [("family", "schwarzschild"), ("n", 3), ("m", 1)]


def _stratified(rng, lo, hi, k):
    """k ascending draws, one uniform in each of k equal strata of [lo, hi].

    Each draw is still uniform on [lo, hi], but every seed covers the range
    evenly, so the amount of work differs little from seed to seed.
    """
    width = (hi - lo) / k
    return [lo + (i + rng.random()) * width for i in range(k)]


def _ops_sweep_grid(rng):
    """12 alphas (11 in [0.08, 0.40] plus ALPHA_STAR) x 8 r0s in [2.4, 12].

    The two lowest alpha strata lie below ALPHA_STAR and are admissible at
    the largest r0, the highest lies above it and is admissible everywhere,
    so three classification groups are the correct answer for every seed.
    """
    alphas = sorted(_stratified(rng, 0.08, 0.40, 11) + [ALPHA_STAR])
    r0s = _stratified(rng, 2.4, 12.0, 8)
    ini = _ini([("spacetime", SCHW3),
                ("sweep", [("alphas", ", ".join(repr(a) for a in alphas)),
                           ("r0s", ", ".join(repr(r) for r in r0s)),
                           ("span_lo", -5), ("span_hi", 5)])])
    return [{"kind": "sweep", "ini": ini, "argv": ["sweep"]}]


def _ops_oracle_pairs(rng):
    """20 profile --oracle runs drawn with the criterion-3 sampler."""
    ops = []
    while len(ops) < 20:
        r0 = rng.uniform(2.3, 9.0)
        lam = rng.uniform(0.05, 0.6)
        sign = 1 if rng.random() < 0.5 else -1
        if lam ** 2 * r0 ** 2 < 1.1 * _f_schw3(r0):
            continue  # forbidden or marginal radius
        if abs(lam - ALPHA_STAR) < 1e-3:
            continue  # unstable asymptotic regime
        ini = _ini([("spacetime", SCHW3),
                    ("profile", [("alpha", repr(lam)), ("r0", repr(r0)),
                                 ("sign", sign), ("span_lo", -4),
                                 ("span_hi", 4)])])
        ops.append({"kind": "oracle", "ini": ini,
                    "argv": ["profile", "--oracle"]})
    return ops


# (spacetime section, closed-form isotropic psi as (m, n) or None)
ISO_SPACETIMES = [
    (SCHW3, (1.0, 3)),
    ([("family", "schwarzschild"), ("n", 5), ("m", 1)], (1.0, 5)),
    ([("family", "reissner-nordstrom"), ("n", 3), ("m", 1), ("q", 0.6)], None),
    ([("family", "schwarzschild-ads"), ("n", 3), ("m", 1), ("L", 10)], None),
]


def _ops_verify_iso(rng):
    """verify then isotropic for four fixed spacetimes; the seed draws r0."""
    ops = []
    for spacetime, closed_form in ISO_SPACETIMES:
        r0 = rng.uniform(3.0, 8.0)
        ini = _ini([("spacetime", spacetime),
                    ("isotropic", [("r0", repr(r0))])])
        ops.append({"kind": "verify", "ini": ini, "argv": ["verify"]})
        ops.append({"kind": "isotropic", "ini": ini, "argv": ["isotropic"],
                    "closed_form": closed_form})
    return ops


_GENERATORS = {"sweep-grid": _ops_sweep_grid,
               "oracle-pairs": _ops_oracle_pairs,
               "verify-iso": _ops_verify_iso}


def make_plan(workload, seed, work_dir):
    """Write the workload's INI files under ``work_dir``; return the plan."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    os.makedirs(work_dir, exist_ok=True)
    for i, op in enumerate(ops):
        op["id"] = f"op{i:02d}"
        op["config"] = os.path.join(work_dir, f"{op['id']}.ini")
        with open(op["config"], "w") as fh:
            fh.write(op.pop("ini"))
    return {"workload": workload, "seed": seed, "ops": ops}


# ---------------------------------------------------------------------------
# Output checks. Each returns (items, problems): items counts the output
# items that passed their checks, problems lists every failed check. An
# operation with any problem is a failed operation. A sweep's curves are
# checked one by one, so one bad curve costs one item, not the whole grid.
# ---------------------------------------------------------------------------

def _load_csv(path):
    import numpy as np
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_sweep(op, out):
    with open(os.path.join(out, "sweep_manifest.json")) as fh:
        manifest = json.load(fh)
    groups = manifest["classification_groups"]
    if len(groups) != 3:
        return 0, [f"classification groups {groups}, expected 3"]
    items, problems = 0, []
    for cell in manifest["cells"]:
        if cell["status"] != "ok":
            continue
        worst = float(_load_csv(os.path.join(out, cell["file"]))[:, 5].max())
        if worst <= UNIT_RESIDUAL_TOL:
            items += 1
        else:
            problems.append(f"{cell['file']} (alpha {cell['alpha']!r}, r0 "
                            f"{cell['r0']!r}): unit_residual {worst!r}")
    return items, problems


def _check_oracle(op, out):
    with open(os.path.join(out, "profile_manifest.json")) as fh:
        dev = json.load(fh).get("oracle_max_deviation")
    if dev is None or not dev <= ORACLE_TOL:
        return 0, [f"oracle_max_deviation {dev!r}"]
    return 1, []


def _check_verify(op, out):
    with open(os.path.join(out, "verify_report.json")) as fh:
        report = json.load(fh)
    if not report["passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return 0, [f"verify checks failed: {failed}"]
    return 1, []


def _check_isotropic(op, out):
    rows = _load_csv(os.path.join(out, "isotropic.csv"))
    if op["closed_form"] is None:
        return 1, []
    m, n = op["closed_form"]
    p = n - 2
    s, psi = rows[:, 0], rows[:, 2]
    worst = float(abs(psi - (1 + m / (2 * s ** p)) ** (2 / p)).max())
    if not worst <= ISO_PSI_TOL:
        return 0, [f"psi deviates from closed form by {worst!r}"]
    return 1, []


_CHECKS = {"sweep": _check_sweep, "oracle": _check_oracle,
           "verify": _check_verify, "isotropic": _check_isotropic}


def check_op(op, exit_code, out):
    """(items, problems) of one finished operation."""
    if exit_code != 0:
        return 0, [f"exit code {exit_code}"]
    try:
        return _CHECKS[op["kind"]](op, out)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return 0, [f"unreadable output: {type(e).__name__}: {e}"]
