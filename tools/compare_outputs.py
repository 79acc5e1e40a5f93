"""Compare what two damctl source trees print for the benchmark's requests.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--seeds 1-3]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  For
each seed, every request of one round of each workload in
perfbench/workloads.py runs in a fresh interpreter under each tree, with
OPENBLAS_NUM_THREADS=1, and the exit codes, stderr and stdout are compared.
Where stdout differs, it is compared field by field: the leaves of a JSON
line by their key path, and the cells of a CSV line by their header's
column name.  Each numeric field that differs is printed with its largest
relative difference, |a - b| / max(|a|, |b|), and its largest difference
in units of the last digit printed, over the requests.

Then each argv of ROUTE_ARGV, exact requests outside the benchmark that
reach the slow tails, the largest level, a tiny r_0, phase-type laws and
simulate's exact block, runs once under each tree and is compared the same
way.  The slow tails are gamma(0.1), whose band of about 490 increments
settles after about 800 steps, in an analyze and in the 17 or so solves of
an optimize --mode exact, and gamma(0.01) at L = 4000, whose band is as
long as L and never settles: the requests that numpy's loop ran before the
list loop took every law.  The two CSV requests hold the cells CSV could
quote or leave empty: a sweep with an inf J_lower, and a verify whose
p1_exact is 0, with an empty rel_err_p1.  A lower-regime verify checks
the rows at rho1 = 1 - C/L and the note on stderr, which no workload
reaches, and two --format text requests, an analyze of a hyper law and
an optimize, check the flat view and the rounding of a record's lists.
The simulate of 2,000 cycles at L = 200 and rho1 just below 1 is the
regime of the simulator's check at the exact optimum
(tests/test_simulator.py), which the benchmark's simulate requests at
L = 5 never reach: cycles of hundreds of services, each step giving
every lane several slots drawn under both laws.  The
simulate of 8,193 cycles is one more than the lane pool holds: the pool
refills exactly one cycle, at its edge, and its drain starts from 8,192
live lanes.  Its 7 batches split the cycles unevenly, where every benchmark
simulate request splits 24,000 cycles evenly into 32.

Then each argv of PARSED_ARGV, which only argparse reads (help, a missing
or unknown command, a flag before the command, a refused, abbreviated or
other command's flag, --flag=value, a value starting with "-"), runs once under each tree, and its exit code, stdout
and stderr must be the same bytes.

Exits 1 if any exit code, any stderr or any non-numeric text differs, or
any PARSED_ARGV output differs at all, else 0.
"""

import argparse
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALL_MAIN = "import sys; from damctl.cli import main; sys.exit(main(sys.argv[1:]))"
MODEL = ["--lambda", "1", "--b1", "exp:1.25", "--b2", "exp:2"]
ROUTE_ARGV = [
    ["analyze", "--lambda", "1", "--b1", "exp:0.9995", "--b2", "exp:2",
     "--level", "1048576"],
    ["analyze", "--lambda", "1", "--b1", "erlang:8:8", "--b2", "exp:2",
     "--level", "16000"],
    ["optimize", "--mode", "exact", "--lambda", "1", "--b1",
     "hyper:0.3:0.5:0.7:2.6", "--b2", "exp:2", "--level", "4000"],
    ["analyze", "--lambda", "1", "--b1", "gamma:0.1:0.1", "--b2", "exp:2",
     "--level", "2621"],
    ["optimize", "--mode", "exact", "--lambda", "1", "--b1", "gamma:0.1:0.1",
     "--b2", "exp:2", "--level", "4000"],
    ["analyze", "--lambda", "1", "--b1", "gamma:0.01:0.01", "--b2", "exp:2",
     "--level", "4000"],
    ["analyze", "--lambda", "1", "--b1", "exp:1e-300", "--b2", "exp:2",
     "--level", "50"],
    ["simulate", "--lambda", "1", "--b1", "erlang:3:3.15", "--b2", "exp:2",
     "--level", "200"],
    ["simulate", "--lambda", "1", "--b1", "exp:1.005", "--b2", "exp:2",
     "--level", "200", "--cycles", "2000"],
    ["simulate"] + MODEL + ["--level", "5", "--cycles", "8193",
                            "--batches", "7"],
    ["sweep"] + MODEL + ["--c-grid", "0,0.001,1e308"],
    ["verify", "--lambda", "1", "--b1", "exp:0.5", "--b2", "exp:2",
     "--regime", "upper", "--c", "1500", "--levels", "2000"],
    ["verify", "--lambda", "1", "--b1", "exp:1", "--b2", "exp:2",
     "--regime", "lower", "--c", "2", "--levels", "100,1000,4000"],
    ["analyze", "--lambda", "1", "--b1", "hyper:0.3:0.5:0.7:2.6", "--b2",
     "exp:2", "--level", "50", "--format", "text"],
    ["optimize"] + MODEL + ["--level", "200", "--j1", "2", "--format",
                            "text"],
]
PARSED_ARGV = [
    ["--help"],
    ["sweep", "--help"],
    [],
    ["frobnicate"],
    ["simulate"] + MODEL + ["--level", "5", "--j1", "2"],
    ["analyze", "--lam", "1", "--b1", "exp:1.25", "--b2", "exp:2",
     "--level", "5"],
    ["analyze", "--lambda=1", "--b1", "exp:1.25", "--b2", "exp:2",
     "--level", "5"],
    ["verify"] + MODEL + ["--regime", "upper", "--c", "-1", "--levels", "50"],
    ["--lambda", "1", "analyze"],
    ["analyze", "--cycles", "5"] + MODEL + ["--level", "5"],
    ["optimize", "--help"],
    ["verify", "--help"],
]


def load_workloads():
    """perfbench/workloads.py, imported without writing bytecode there."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads


def parse_seeds(text):
    """Seeds from "1-3", "4" or "1,5-7"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(src, argv):
    """(exit code, stdout, stderr) of one request in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("DAMCTL_", "PYTHON"))}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CALL_MAIN] + list(argv),
                          env=env, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def number(value):
    """value as a float if it is a JSON number or a numeric CSV cell."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def last_unit(value):
    """One unit in the last digit of value as printed: a CSV cell's text,
    or the shortest repr of a JSON number; inf where it is not finite."""
    d = Decimal(value if isinstance(value, str) else repr(value))
    return 10.0 ** d.as_tuple().exponent if d.is_finite() else float("inf")


def difference(x, y):
    """(relative difference, difference in last printed units) of two
    numeric fields."""
    a, b = number(x), number(y)
    if a == b:
        return 0.0, 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale, abs(a - b) / max(last_unit(x), last_unit(y))


def json_leaves(obj, path=""):
    """(key path, leaf) pairs of a parsed JSON value, in order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from json_leaves(value, path + "." + key if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from json_leaves(value, "%s[%d]" % (path, i))
    else:
        yield path, obj


def fields(out):
    """(name, value) pairs of one stdout: JSON leaves, else CSV cells named
    by the last header line (a line with no numeric cell)."""
    header = []
    for i, line in enumerate(out.splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if isinstance(obj, (dict, list)):
            yield from json_leaves(obj)
            continue
        cells = line.split(",")
        if all(number(c) is None for c in cells):
            header = cells
            yield "line %d" % i, line
            continue
        for j, cell in enumerate(cells):
            yield header[j] if j < len(header) else "line %d col %d" % (i, j), cell


def compare_stdout(old, new):
    """(numeric differences {field: (rel diff, units)}, whether other text
    differs)."""
    a, b = list(fields(old)), list(fields(new))
    if [name for name, _ in a] != [name for name, _ in b]:
        return {}, True
    diffs, text = {}, False
    for (name, x), (_, y) in zip(a, b):
        if x == y:
            continue
        if number(x) is None or number(y) is None:
            text = True
        else:
            rel, units = difference(x, y)
            most = diffs.get(name, (0.0, 0.0))
            diffs[name] = (max(most[0], rel), max(most[1], units))
    return diffs, text


def compare_requests(name, requests, parent_src, change_src):
    """Run each (label, command, argv) of requests under both trees, print
    what differs and a summary of the numeric fields that moved; whether
    any exit code, stderr or non-numeric text differs."""
    failed = False
    same = 0
    worst = {}
    for label, command, argv in requests:
        old = run(parent_src, argv)
        new = run(change_src, argv)
        if old == new:
            same += 1
            continue
        label = "%s: %s" % (label, " ".join(argv))
        if old[0] != new[0] or old[2] != new[2]:
            print("EXIT/STDERR DIFFER  %s\n  parent %r %r\n  change %r %r"
                  % (label, old[0], old[2], new[0], new[2]))
            failed = True
        diffs, text = compare_stdout(old[1], new[1])
        if text:
            print("TEXT DIFFERS  %s" % label)
            failed = True
        for field, (rel, units) in diffs.items():
            key = (command, field)
            count, most_rel, most_units = worst.get(key, (0, 0.0, 0.0))
            worst[key] = (count + 1, max(most_rel, rel), max(most_units, units))
    print("%s: %d of %d requests print the same bytes"
          % (name, same, len(requests)))
    for (command, field), (count, rel, units) in sorted(worst.items()):
        print("  %-16s %-12s max rel diff %.2g, %.3g last-digit units"
              " (%d request%s)" % (command, field, rel, units, count,
                                   "" if count == 1 else "s"))
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--seeds", default="1-3", help='e.g. "1-3" or "1,4"')
    args = ap.parse_args(argv)
    workloads = load_workloads()

    failed = False
    for workload in workloads.WORKLOADS:
        requests = [("%s seed %d" % (workload, seed), req.command, req.argv)
                    for seed in parse_seeds(args.seeds)
                    for req in workloads.Generator(workload, seed).round()]
        failed |= compare_requests(workload, requests, args.parent_src,
                                   args.change_src)
    requests = [("route", argv[0], argv) for argv in ROUTE_ARGV]
    failed |= compare_requests("route", requests, args.parent_src,
                               args.change_src)
    same = 0
    for argv in PARSED_ARGV:
        old, new = run(args.parent_src, argv), run(args.change_src, argv)
        if old == new:
            same += 1
        else:
            print("DIFFER  %r\n  parent %r\n  change %r" % (argv, old, new))
            failed = True
    print("argparse: %d of %d argv print the same bytes"
          % (same, len(PARSED_ARGV)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
