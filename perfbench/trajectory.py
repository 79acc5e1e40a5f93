"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/trajectory.py [--record LABEL]

For every workload in BENCHMARK.json, runs run.py untraced with seeds 1 to
10 and traced with seed 1, one run at a time.  Prints per metric the
median, the quartiles and the spread (q3 - q1) / median, with the share of
its bound from BENCHMARK.json that the spread uses, and for each gated
metric the change of its median against the last point of trajectory.json.
--record appends the summary as a point to trajectory.json, the record later
changes are compared against.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
SEEDS = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd), proc.returncode,
                                                   proc.stderr.strip()[-500:]))
    result = json.loads(lines[-1])
    report = next(json.loads(l[len("report "):]) for l in lines
                  if l.startswith("report "))
    return result, report


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    last = history[-1]["workloads"] if history else {}
    point = {"label": args.record, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        summary = {"end_to_end": {}, "per_layer": {}}
        for trace, count in ((0, SEEDS), (1, 1)):
            key = "per_layer" if trace else "end_to_end"
            values = {}
            for seed in range(1, count + 1):
                t0 = time.monotonic()
                result, report = run_once(workload, seed, bench["run_seconds"], trace)
                point["env"] = report["env"]
                if not result["correct"]:
                    ok = False
                    print("%s seed %d trace %d: not correct (%d of %d failed)"
                          % (workload, seed, trace, result["failed"],
                             result["attempted"]))
                for name, m in report["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                shown = result["metrics"] if trace == 0 else {}
                print("%s seed %d trace %d: %.0f s %s" % (
                    workload, seed, trace, time.monotonic() - t0, " ".join(
                        "%s=%.4g" % (k, v["value"]) for k, v in shown.items())),
                    flush=True)
            summary[key] = {k: summarise(v) for k, v in values.items()}
        point["workloads"][workload] = summary
        print("== %s" % workload)
        for name, s in summary["end_to_end"].items():
            bound = bounds.get(name)
            share = "" if bound is None else "  %.2f of bound %.2f" % (
                s["spread"] / bound, bound)
            print("  %-24s median %-12.5g q1 %-12.5g q3 %-12.5g spread %.4f%s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], share))
        for name, bound in bounds.items():
            before = last.get(workload, {}).get("end_to_end", {}).get(name)
            if before is not None:
                change = summary["end_to_end"][name]["median"] / before["median"] - 1.0
                print("  %-24s median %+.4f against the last point (bound %.2f)%s"
                      % (name, change, bound, " WORSE" if change > bound else ""))
    if args.record:
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
