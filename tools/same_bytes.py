"""List the outputs that differ between PARENT/src and ./src on the benchmark
workloads: python3 tools/same_bytes.py PARENT [--seeds 1 2 4242].

For each workload and seed, the plan of perfbench/workloads.py runs through
``photonsurf.cli.main`` in one fresh interpreter per tree. Every output
file, stdout line or exit code that differs is printed; the exit status is
1 if any does.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, make_plan  # noqa: E402

# reads [[op id, argv], ...] on stdin; prints {op id: [exit code, stdout lines]}
RUN = """import contextlib, io, json, os, sys
import photonsurf.cli
if not photonsurf.cli.__file__.startswith(os.path.realpath(sys.argv[1])):
    sys.exit(f"photonsurf imported from {photonsurf.cli.__file__}")
results = {}
for op, argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            code = photonsurf.cli.main(argv)
        except (Exception, SystemExit) as e:
            code = f"raised {type(e).__name__}: {e}"
    results[op] = [code, out.getvalue().splitlines()]
print(json.dumps(results))
"""


def run(src, ops, out):
    """(results, {path under out: bytes}) of the operations on ``src``."""
    argv = [[op["id"], ["--config", op["config"], "--out", os.path.join(out, op["id"]),
                        *op["argv"]]] for op in ops]
    proc = subprocess.run([sys.executable, "-c", RUN, src], input=json.dumps(argv),
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    if proc.returncode:
        sys.exit(f"the operations on {src} did not finish:\n{proc.stderr}")
    files = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            with open(os.path.join(dirpath, name), "rb") as fh:
                files[os.path.relpath(fh.name, out)] = fh.read()
    return json.loads(proc.stdout), files


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the commit to compare with")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 4242])
    args = ap.parse_args()
    srcs = (os.path.join(os.path.realpath(args.parent), "src"), os.path.join(ROOT, "src"))
    diffs = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                plan = make_plan(workload, seed, os.path.join(tmp, "ini"))
                (a, fa), (b, fb) = (run(src, plan["ops"], os.path.join(tmp, str(i)))
                                    for i, src in enumerate(srcs))
            tag = f"{workload} seed {seed}"
            for op in sorted(a.keys() | b.keys()):
                (code_a, out_a), (code_b, out_b) = a.get(op, [None, []]), b.get(op, [None, []])
                if code_a != code_b:
                    diffs.append(f"{tag} {op}: exit code {code_a!r} != {code_b!r}")
                diffs += [f"{tag} {op}: stdout line {i + 1}: {x!r} != {y!r}"
                          for i, (x, y) in enumerate(zip_longest(out_a, out_b)) if x != y]
            diffs += [f"{tag}: {name} differs" for name in sorted(fa.keys() | fb.keys())
                      if fa.get(name) != fb.get(name)]
            print(f"{tag}: {len(a)} operations, {len(fa)} files compared", file=sys.stderr)
    print("\n".join(diffs) or "no difference")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
