"""photonsurf benchmark: entry point.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Inputs are generated from the seed
under .bench_build/perfbench/; every operation runs in a fresh interpreter
with ``PYTHONPATH=src`` and ``PHOTONSURF_WORKERS`` unset. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, make_plan

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5        # timed fresh-interpreter imports before and after the rounds
DEADLINE = time.monotonic() + 170   # a run must end within 180 s
WORK = os.path.join(".bench_build", "perfbench")

# Counters that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = ("cli.bytes_written", "cli.files_written",
                 "spacetime.metric.calls", "spacetime.metric.points",
                 "scipy.solve_ivp.calls", "scipy.solve_ivp.nfev",
                 "scipy.solve_ivp.steps", "scipy.quad.calls", "scipy.brentq.calls")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env():
    env = dict(os.environ)
    env.pop("PHOTONSURF_WORKERS", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def run_worker(args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        fail(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def setup_probes():
    """Import times of photonsurf.cli in SETUP_PROBES fresh interpreters."""
    return [float(run_worker(["--import-only"]).strip()) for _ in range(SETUP_PROBES)]


def run_plan(plan_path, tag, seconds, spans=None):
    """Worker run: untraced rounds for ``seconds``, then, when ``spans`` is
    given, one traced round whose spans are written there."""
    result_path = os.path.join(os.path.dirname(plan_path), f"result-{tag}.json")
    args = ["--plan", plan_path, "--result", result_path, "--seconds", str(seconds)]
    if spans:
        args += ["--spans", spans]
    run_worker(args)
    with open(result_path) as fh:
        return json.load(fh)


def layer_metrics(trace, traced_round, untraced_rounds):
    """Per-layer metrics of one traced round."""
    def stat(name, key):
        return trace.get(name, {}).get(key, 0)

    m = {}
    m["cli.self_s"] = stat("cli.main", "self_s") + stat("cli.pool_task", "self_s")
    m["cli.pool_wait_s"] = stat("cli.pool_map", "self_s")
    m["cli.bytes_written"] = traced_round["bytes_written"]
    m["cli.files_written"] = traced_round["files_written"]
    for name in ("surfaces.integrate_profile", "surfaces.turning_points",
                 "surfaces.find_photon_spheres",
                 "geodesics.integrate_null_geodesic",
                 "geodesics.generated_surface_profile",
                 "spacetime.to_isotropic", "spacetime.iso_map",
                 "spacetime.metric", "scipy.solve_ivp"):
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.self_s"] = stat(name, "self_s")
    for name in ("surfaces.classify", "surfaces.ode_residuals",
                 "spacetime.conformal_flatness_scan", "spacetime.build_family",
                 "geometry.verification_suite", "geometry.isotropic_checks"):
        m[f"{name}.self_s"] = stat(name, "self_s")
    m["spacetime.metric.points"] = stat("spacetime.metric", "points")
    m["scipy.solve_ivp.nfev"] = stat("scipy.solve_ivp", "nfev")
    m["scipy.solve_ivp.steps"] = stat("scipy.solve_ivp", "steps")
    m["scipy.solve_ivp.nfev_per_step"] = (
        m["scipy.solve_ivp.nfev"] / m["scipy.solve_ivp.steps"]
        if m["scipy.solve_ivp.steps"] else 0.0)
    m["scipy.quad.calls"] = stat("scipy.quad", "calls")
    m["scipy.brentq.calls"] = stat("scipy.brentq", "calls")
    untraced = statistics.median(r["op_counted_seconds"] for r in untraced_rounds)
    m["trace.overhead_frac"] = traced_round["op_counted_seconds"] / untraced - 1.0
    return m


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join("src", "photonsurf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "photonsurf", "cli.py")):
        fail("run from the root of a photonsurf checkout (src/photonsurf is missing)")
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    plan = make_plan(args.workload, args.seed, work)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh, indent=1)

    problems = []
    probes = []
    if args.trace:
        # two traced runs of the same seed, each in its own interpreter: the
        # first also runs untraced rounds, the baseline of trace.overhead_frac
        spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}")
        a = run_plan(plan_path, "a", args.seconds, spans + "-a.jsonl")
        b = run_plan(plan_path, "b", 0, spans + "-b.jsonl")
        results = [a, b]
        metrics = layer_metrics(a["trace"], a["rounds"][-1], a["rounds"][:-1])
        again = layer_metrics(b["trace"], b["rounds"][-1], a["rounds"][:-1])
        for name in DETERMINISTIC:
            if metrics[name] != again[name]:
                problems.append(f"{name} differs between traced runs: "
                                f"{metrics[name]} != {again[name]}")
        units = declared["per_layer"]
    else:
        # one untimed import first, so byte-compiling a fresh checkout is not
        # counted; then half the import probes before the rounds and half
        # after, so that they sample the host over the whole run
        run_worker(["--import-only"])
        probes = setup_probes()
        a = run_plan(plan_path, "a", args.seconds)
        probes += setup_probes()
        results = [a]
        rounds = a["rounds"]
        metrics = {
            "setup_s": statistics.median(probes),
            "items_per_s": (sum(r["items"] for r in rounds)
                            / sum(r["op_counted_seconds"] for r in rounds)),
            "peak_rss_mb": a["maxrss_kb"] / 1024.0,
        }
        units = declared["end_to_end"]

    rounds = [r for res in results for r in res["rounds"]]
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    digests = sorted({r["digest"] for r in rounds})
    if len(digests) != 1:
        problems.append(f"outputs differ between rounds of one seed: {digests}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "source_sha256": source_digest(), "env": a["env"],
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "rounds": len(rounds),
        "failures": sorted({f"{op['id']} ({op['kind']}): {op['problems'][0]}"
                            for r in rounds for op in r["ops"] if op["problems"]}),
        "problems": problems, "setup_probes_s": probes, "metrics": metrics,
    }
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for line in record["failures"] + problems:
        print(f"# {line}")
    print("# " + json.dumps({k: record[k] for k in (
        "workload", "seed", "git_commit", "source_sha256", "env",
        "output_sha256", "rounds", "failed_frac")}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in units},
    }))


if __name__ == "__main__":
    main()
