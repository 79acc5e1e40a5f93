"""damctl CLI benchmark: one client, closed loop, one request at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; damctl is imported from its src/.
Each request is one damctl invocation in a fresh interpreter, issued only
after the previous one has exited, so at most one damctl process runs.

--trace 0 measures set-up (fresh `import damctl.cli`, median of several),
then runs whole rounds of the workload's request list until another round
would pass --seconds (at least one), and reports the end-to-end metrics.
--trace 1 runs one untraced and one traced round (each request through
launcher.py, which times the calls into every damctl module) and reports
the per-layer metrics, import times and the tracing overhead.

The speed of a shared virtual CPU swings by tens of percent within seconds,
and CPU time swings with it.  So every child process is bracketed by a short
fixed pure-Python probe in this process, and the gated times are scaled by
PROBE_REF_S / (mean probe time): seconds at the speed where the probe takes
PROBE_REF_S.  The raw times are reported alongside.

Outputs are checked after the timed region.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
table of every metric with its sample count and a full JSON report.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import resource
import statistics
import subprocess
import time
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, Generator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
REQUEST_TIMEOUT = 60.0
RUN_DEADLINE = 150.0

PROBE_LOOPS = 200_000
PROBE_REPEATS = 5
PROBE_REF_S = 0.010

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s"}
COMMANDS = ("analyze", "verify", "optimize_exact", "optimize_asymptotic",
            "sweep", "simulate")

CALL_MAIN = "import sys; from damctl.cli import main; sys.exit(main(sys.argv[1:]))"


def speed_probe():
    """Median seconds of a fixed pure-Python loop."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Spawns every child process of a run and keeps the run's deadline."""

    def __init__(self):
        self.start = time.monotonic()
        # children see none of the caller's PYTHON*/DAMCTL_* settings; their
        # bytecode cache lives in the checkout, so imports are warm after the
        # first and nothing is written outside it
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("DAMCTL_", "PYTHON"))}
        self.env.update(PYTHONPATH=str(SRC), DAMCTL_BACKEND="numpy",
                        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
        self.span_dir = BUILD / "spans"

    def remaining(self):
        return RUN_DEADLINE - (time.monotonic() - self.start)

    def spawn(self, args):
        """Run [python, *args] between two speed probes.

        Returns a dict with wall and cpu seconds, the speed scale, the exit
        code (None if killed at its timeout), out and err; None once the
        run's deadline has passed.
        """
        timeout = min(REQUEST_TIMEOUT, self.remaining())
        if timeout <= 0:
            return None
        probe = speed_probe()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + list(args), cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = None
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        probe = (probe + speed_probe()) / 2.0
        return {"wall": wall,
                "cpu": (after.ru_utime - before.ru_utime)
                       + (after.ru_stime - before.ru_stime),
                "scale": PROBE_REF_S / probe, "code": code, "out": out, "err": err}

    def checked_spawn(self, args, what):
        res = self.spawn(args)
        if res is None or res["code"] != 0:
            raise RuntimeError("%s failed: %s" % (
                what, "deadline" if res is None else res["err"].strip()[-300:]))
        return res

    def request(self, req, trace_id=None):
        """One request; returns the spawn dict plus req, spans and error."""
        if trace_id is None:
            res = self.spawn(["-c", CALL_MAIN] + list(req.argv))
            spans = None
        else:
            self.span_dir.mkdir(parents=True, exist_ok=True)
            path = self.span_dir / ("%d-%s.json" % (os.getpid(), trace_id))
            res = self.spawn([str(HERE / "launcher.py"), str(path), trace_id]
                             + list(req.argv))
            spans = None
            if path.exists():
                spans = json.loads(path.read_text())
                path.unlink()
        if res is None:
            return None
        error = None
        if res["code"] is None:
            error = "timed out"
        elif res["code"] != 0:
            error = "exit code %d: %s" % (res["code"], res["err"].strip()[-300:])
        elif trace_id is not None and spans is None:
            error = "no spans written"
        res.update(req=req, spans=spans, error=error)
        return res

    def round(self, reqs, trace_tag=None):
        """Run a round in order; returns (results, complete)."""
        results = []
        for i, req in enumerate(reqs):
            trace_id = None if trace_tag is None else "%s.%d" % (trace_tag, i)
            res = self.request(req, trace_id)
            if res is None:
                return results, False
            results.append(res)
        return results, True

    def setup_times(self, n):
        """Spawn results of n fresh `import damctl.cli`."""
        return [self.checked_spawn(["-c", "import damctl.cli"], "import damctl.cli")
                for _ in range(n)]

    def import_times(self, n):
        """Median cumulative import seconds per damctl module (-X importtime)."""
        samples = {}
        for _ in range(n):
            res = self.checked_spawn(["-X", "importtime", "-c", "import damctl.cli"],
                                     "import damctl.cli under -X importtime")
            for mod, sec in layers.parse_importtime(res["err"]).items():
                samples.setdefault(mod, []).append(sec)
        return {m: statistics.median(samples.get(m, [0.0])) for m in layers.MODULES}

    def env_record(self):
        """The environment; it imports damctl.cli, so it is also the warm-up
        that fills the bytecode cache before anything is timed."""
        res = self.checked_spawn([str(HERE / "envinfo.py")], "environment probe")
        return json.loads(res["out"])


def _exact_cost():
    """damctl's own exact cost J(L) at a given rho1, for the optimize check."""
    sys.path.insert(0, str(SRC))
    from damctl import exact
    from damctl.distributions import parse_dist_spec

    def cost(meta, rho1):
        lam = meta["lam"]
        model = exact.DamModel(
            lam=lam, b1=parse_dist_spec(meta["b1"]).scale_to_mean(rho1 / lam),
            b2=parse_dist_spec(meta["b2"]), level=meta["level"])
        return exact.cost(model, exact.CostModel(j1=meta["j1"], j2=meta["j2"]))
    return cost


def check_results(results, runner):
    """Set result["error"] for every wrong output; returns the failure count."""
    cost = None
    for res in results:
        if res["error"] is None:
            if res["req"].command == "optimize_exact" and cost is None:
                cost = _exact_cost()
            res["error"] = checks.check(res["req"], res["out"], cost)
    # once per run: the same simulate request must print the same bytes
    sims = [r for r in results if r["req"].command == "simulate" and r["error"] is None]
    if sims:
        again = runner.spawn(["-c", CALL_MAIN] + list(sims[0]["req"].argv))
        if again is None or again["code"] != 0 or again["out"] != sims[0]["out"]:
            sims[0]["error"] = "repeated simulate request printed different output"
    failed = [r for r in results if r["error"] is not None]
    for r in failed:
        print("FAILED %s %s: %s" % (r["req"].command, " ".join(r["req"].argv),
                                    r["error"]), file=sys.stderr)
    return len(failed)


def _scaled(res, key="wall"):
    return res[key] * res["scale"]


def _round_totals(results):
    """(scaled wall, scaled cpu, raw wall, raw cpu) summed over a round."""
    return (sum(_scaled(r) for r in results), sum(_scaled(r, "cpu") for r in results),
            sum(r["wall"] for r in results), sum(r["cpu"] for r in results))


def end_to_end(results, rounds, setup):
    """Every end-to-end metric as name -> (value, unit, sample count)."""
    ok = [r for r in results if r["error"] is None]
    report = {"setup_s": (statistics.median(_scaled(r) for r in setup), "s", len(setup))}
    for cmd in COMMANDS:
        walls = [_scaled(r) for r in ok if r["req"].command == cmd]
        if walls:
            report[cmd + "_s"] = (statistics.median(walls), "s", len(walls))
    # a run cut by its deadline (then not correct) reports its partial round
    rounds = rounds or [_round_totals(results)]
    for i, name in enumerate(("wall_s", "cpu_s", "wall_raw_s", "cpu_raw_s")):
        report[name] = (statistics.median(t[i] for t in rounds), "s", len(rounds))
    report["setup_raw_s"] = (statistics.median(r["wall"] for r in setup), "s", len(setup))
    sims = [r for r in ok if r["req"].command == "simulate"]
    if sims:
        report["sim_cycles_per_s"] = (
            sum(json.loads(r["out"])["cycles"] for r in sims)
            / sum(_scaled(r) for r in sims), "1/s", len(sims))
    report["error_rate"] = ((len(results) - len(ok)) / len(results)
                            if results else 1.0, "ratio", len(results))
    report["machine_speed"] = (statistics.median(r["scale"] for r in results + setup),
                               "ratio", len(results) + len(setup))
    return report


def run_untraced(runner, gen, seconds):
    setup = runner.setup_times(SETUP_SAMPLES)
    results, rounds = [], []
    t0 = time.perf_counter()
    while True:
        res, complete = runner.round(gen.round())
        results += res
        if not complete:
            break
        rounds.append(_round_totals(res))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    return results, rounds, setup, complete


def run_traced(runner, gen):
    imports = runner.import_times(IMPORTTIME_SAMPLES)
    plain, ok1 = runner.round(gen.round())
    traced, ok2 = runner.round(gen.round(), trace_tag="r1")
    done = [r for r in traced if r["spans"] is not None]
    metrics = layers.round_metrics([layers.request_metrics(r["spans"]) for r in done],
                                   [r["wall"] for r in done])
    metrics.update(("%s.import_s" % m, imports[m]) for m in layers.MODULES)
    metrics["trace.overhead_s"] = _round_totals(traced)[0] - _round_totals(plain)[0]
    report = {name: (metrics[name], unit, len(traced))
              for name, unit in layers.LAYER_METRICS.items()}
    return plain + traced, report, ok1 and ok2


def result_line(report, trace, correct, attempted, failed):
    """The closing result: the end-to-end or the per-layer metrics."""
    names = layers.LAYER_METRICS if trace else END_TO_END
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": report[k][0], "unit": report[k][1]}
                        for k in names}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "damctl" / "cli.py").is_file():
        print("error: %s has no damctl sources; run from a damctl checkout"
              % (SRC,), file=sys.stderr)
        return 2

    runner = Runner()
    gen = Generator(args.workload, args.seed)
    try:
        env = runner.env_record()
        if args.trace:
            results, report, complete = run_traced(runner, gen)
            failed = check_results(results, runner)
        else:
            results, rounds, setup, complete = run_untraced(runner, gen, args.seconds)
            failed = check_results(results, runner)
            report = end_to_end(results, rounds, setup)
    except RuntimeError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    if env.get("backend") != "numpy":
        print("error: damctl ran the %r backend, not numpy" % (env.get("backend"),),
              file=sys.stderr)

    print("env %s" % json.dumps(env))
    print("%s seed=%d trace=%d requests=%d" % (args.workload, args.seed,
                                               args.trace, len(results)))
    for name, (value, unit, n) in report.items():
        print("  %-34s %16.6g %-6s n=%d" % (name, value, unit, n))
    print("report %s" % json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "metrics": {k: {"value": v, "unit": u, "n": n}
                                for k, (v, u, n) in report.items()}}))
    correct = failed == 0 and complete and env.get("backend") == "numpy"
    print(json.dumps(result_line(report, args.trace, correct, len(results), failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
