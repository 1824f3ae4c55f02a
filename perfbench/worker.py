"""Runs one workload plan in a fresh interpreter; started by run.py.

The first thing it does is import ``photonsurf.cli`` and time it: that is
the set-up every CLI call pays. ``--import-only`` stops there and prints the
time. Otherwise it runs rounds of the plan, each operation one
``photonsurf.cli.main(argv)`` call, and writes a JSON result file:

* untraced rounds, repeated until ``--seconds`` have passed (at least one
  when ``--seconds`` > 0), give throughput and peak memory;
* with ``--spans FILE``, one more round runs with the tracer installed; it
  gives the per-layer counters, and its spans are written to FILE.
"""

import time

_t0 = time.perf_counter()
import photonsurf.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import quad, solve_ivp  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import check_op  # noqa: E402


# Seconds the reference kernel takes on a quiet 2-CPU host (Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1); only sets the scale of normalized times.
REF_NOMINAL_S = 0.0125
# Share of an operation's time spent timing the kernel after it, so that a
# long operation gets a steadier speed sample than one kernel run gives.
REF_SHARE = 0.05
# Seconds the kernel is timed for before the first operation of a run.
REF_FIRST_S = 0.3
# Operations shorter than this are counted in host-scaled seconds, longer
# ones in wall seconds. Host speed swings by up to 30 % between consecutive
# 0.35-second kernel samples, so samples at the two edges of a long operation
# do not describe the host during it. Over ten seeds, scaling cut the
# throughput spread of 0.2-1 s operations to about a quarter; on a 7-second
# sweep it widened the spread in two of three sets.
SCALE_MAX_S = 3.0


def reference_kernel():
    """A fixed mix of Python, numpy and scipy work; runs no photonsurf code."""
    acc = 0.0
    for i in range(60000):
        acc += math.sqrt(i) * 1.0001
    for k in range(60):
        quad(lambda x: 1.0 / math.sqrt(1.0 + x * x + k), 0.0, 10.0)
    for _ in range(3):
        solve_ivp(lambda t, y: -y, (0.0, 5.0), [1.0], rtol=1e-10)
    a = numpy.arange(20000.0)
    for _ in range(20):
        a = numpy.sqrt(a * a + 1.0)


def reference_seconds(budget):
    """Mean time of one reference kernel run, timed for about ``budget`` s.

    The kernel measures how fast the host is right now. It runs between
    operations; dividing an operation's wall time by the host's speed factor
    removes most of the drift a shared host adds to throughput.
    """
    runs = 0
    t0 = time.perf_counter()
    while True:
        reference_kernel()
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return elapsed / runs


def output_digest(round_dir):
    """sha256 over the sorted output file names and their bytes."""
    h = hashlib.sha256()
    files = []
    for dirpath, _, names in os.walk(round_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            files.append((os.path.relpath(path, round_dir).replace(os.sep, "/"), path))
    nbytes = 0
    for rel, path in sorted(files):
        with open(path, "rb") as fh:
            data = fh.read()
        nbytes += len(data)
        h.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest(), len(files), nbytes


def run_op(op, out, tracer):
    """One CLI call; returns (exit code or None, error text, seconds)."""
    argv = ["--config", op["config"], "--out", out, *op["argv"]]
    captured = io.StringIO()
    error = None
    if tracer is not None:
        tracer.op_id = op["id"]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = photonsurf.cli.main(argv)
    except (Exception, SystemExit) as e:  # one failed operation must not end the run
        code = None
        error = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if code:
        error = (captured.getvalue().strip().splitlines() or [""])[-1]
    return code, error, seconds


def run_round(plan, round_dir, ref_before, tracer=None):
    """Runs and checks every operation of the plan once.

    ``ref_before`` is the kernel time sampled just before the round; returns
    the round's record and the kernel time sampled after its last operation.
    """
    shutil.rmtree(round_dir, ignore_errors=True)
    ops = []
    for op in plan["ops"]:
        out = os.path.join(round_dir, op["id"])
        code, error, seconds = run_op(op, out, tracer)
        ref_after = reference_seconds(REF_SHARE * min(seconds, SCALE_MAX_S))
        counted = seconds
        if seconds < SCALE_MAX_S:
            counted *= REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
        ref_before = ref_after
        items, problems = check_op(op, code, out)
        if error:
            problems.insert(0, error)
        ops.append({"id": op["id"], "kind": op["kind"], "exit": code,
                    "seconds": seconds, "counted_seconds": counted,
                    "items": items, "problems": problems})
    digest, files, nbytes = output_digest(round_dir)
    return {"ops": ops,
            "op_seconds": sum(o["seconds"] for o in ops),
            "op_counted_seconds": sum(o["counted_seconds"] for o in ops),
            "items": sum(o["items"] for o in ops),
            "failed": sum(1 for o in ops if o["problems"]),
            "digest": digest, "files_written": files, "bytes_written": nbytes}, ref_before


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--plan")
    ap.add_argument("--result")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", help="run a traced round; write its spans here")
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(photonsurf.cli.__file__).startswith(src + os.sep):
        sys.exit(f"photonsurf imported from {photonsurf.cli.__file__}, not {src}")
    if args.import_only:
        print(repr(IMPORT_S))
        return

    with open(args.plan) as fh:
        plan = json.load(fh)
    round_dir = os.path.join(os.path.dirname(args.plan), "out")

    rounds = []
    ref = reference_seconds(REF_FIRST_S)
    start = time.perf_counter()
    while args.seconds > 0 and (not rounds or time.perf_counter() - start < args.seconds):
        record, ref = run_round(plan, round_dir, ref)
        rounds.append(record)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    trace = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
        try:
            record, ref = run_round(plan, round_dir, ref, tracer)
            rounds.append(record)
        finally:
            tracer.uninstall()
        trace = tracer.stats()
        keys = ("id", "name", "start", "end", "parent", "thread", "op")
        with open(args.spans, "w") as fh:
            for span in tracer.spans():
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    result = {
        "maxrss_kb": maxrss_kb,
        "rounds": rounds,
        "trace": trace,
        "env": {"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
