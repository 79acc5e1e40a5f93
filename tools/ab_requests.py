"""Time one round of a benchmark workload's requests under two source trees.

    python tools/ab_requests.py PARENT_SRC CHANGE_SRC --workload NAME \
        [--seed N] [--rounds R]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  The
round is the one perfbench/workloads.py draws for the workload and seed.
Each request runs in a fresh interpreter with the environment and bytecode
cache perfbench/run.py gives its children: no PYTHON* or DAMCTL_* setting
of the caller, PYTHONPATH at the tree, DAMCTL_BACKEND=numpy and
PYTHONPYCACHEPREFIX at the checkout's .bench_build/pycache.  One untimed
pass under each tree fills the caches; then each of R rounds runs every
request once under each tree, back to back, the tree that goes first
alternating from request to request and from round to round, so that a
drift in the machine's speed falls on both sides alike.

Prints, for each request, both trees' median wall seconds over the rounds
and their ratio, then the sums of those medians and their ratio.  Exits 1
if a request fails or the two trees print different stdout.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare_outputs import CALL_MAIN, load_workloads


def environment(src):
    """perfbench/run.py's child environment for the tree at src."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("DAMCTL_", "PYTHON"))}
    env.update(PYTHONPATH=str(src), DAMCTL_BACKEND="numpy",
               PYTHONPYCACHEPREFIX=str(src.resolve().parent / ".bench_build"
                                       / "pycache"))
    return env


def timed(env, argv):
    """(wall seconds, exit code, stdout) of one request."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CALL_MAIN] + list(argv),
                          env=env, capture_output=True, text=True, timeout=600)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def main(argv=None):
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    requests = [req.argv for req in
                workloads.Generator(args.workload, args.seed).round()]
    envs = [environment(args.parent_src), environment(args.change_src)]

    failed = False
    for argv in requests:
        outs = [timed(env, argv)[1:] for env in envs]
        if outs[0][0] or outs[1][0] or outs[0] != outs[1]:
            print("FAILED OR DIFFERS  %s: exit codes %d, %d"
                  % (" ".join(argv), outs[0][0], outs[1][0]))
            failed = True
    walls = [[[], []] for _ in requests]
    for r in range(args.rounds):
        for i, argv in enumerate(requests):
            first = (i + r) % 2
            for side in (first, 1 - first):
                walls[i][side].append(timed(envs[side], argv)[0])

    print("%s seed %d, %d rounds: median wall s, parent -> change"
          % (args.workload, args.seed, args.rounds))
    sums = [0.0, 0.0]
    for argv, sides in zip(requests, walls):
        medians = [statistics.median(w) for w in sides]
        sums = [s + m for s, m in zip(sums, medians)]
        print("  %-10s %.4f -> %.4f  %.3f  %s"
              % (argv[0], medians[0], medians[1], medians[1] / medians[0],
                 " ".join(argv[1:])))
    print("sum        %.4f -> %.4f  %.3f" % (sums[0], sums[1], sums[1] / sums[0]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
