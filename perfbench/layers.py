"""Per-layer metrics from the spans of a traced round and from -X importtime.

Unless its name says otherwise, a metric is a total over the traced round.
A layer's self time is its spans' duration minus the time their direct
children cover (damctl runs single-threaded, so children never overlap).
"""

import statistics

MODULES = ("cli", "exact", "kernels", "distributions", "control",
           "asymptotics", "simulator")

# metric name -> unit; the order is the order of the report
LAYER_METRICS = {
    "kernels.recurrence_calls": "count",
    "kernels.recurrence_s": "s",
    "kernels.recurrence_madds": "count",
    "kernels.recurrence_madds_per_s": "1/s",
    "kernels.recurrence_rescales": "count",
    "kernels.sim_s": "s",
    "kernels.sim_cycles": "count",
    "kernels.sim_services": "count",
    "kernels.sim_services_per_s": "1/s",
    "kernels.sim_longest_cycle": "count",
    "exact.solve_calls": "count",
    "exact.self_s": "s",
    "exact.recurrences_per_request": "count",
    "exact.useful_solve_ratio": "ratio",
    "distributions.weights_calls": "count",
    "distributions.weights_s": "s",
    "distributions.weights_terms": "count",
    "control.optimize_s": "s",
    "control.cost_evals": "count",
    "control.eval_s": "s",
    "control.self_s": "s",
    "simulator.simulate_s": "s",
    "simulator.self_s": "s",
    "asymptotics.calls": "count",
    "asymptotics.s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.process_overhead_s": "s",
}
LAYER_METRICS.update(("%s.import_s" % m, "s") for m in MODULES)
LAYER_METRICS["trace.overhead_s"] = "s"


def _ratio(num, den):
    return num / den if den else 0.0


def request_metrics(spans):
    """Per-request tallies from one request's span list."""
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def layer(i):
        return names[i].split(".", 1)[0]

    def parent_layer(i):
        p = spans[i][3]
        return layer(p) if p >= 0 else None

    t = {"recurrence_calls": 0, "recurrence_s": 0.0, "recurrence_madds": 0,
         "recurrence_rescales": 0, "sim_s": 0.0, "sim_cycles": 0,
         "sim_services": 0, "sim_longest_cycle": 0, "solve_calls": 0,
         "exact_self_s": 0.0, "weights_calls": 0, "weights_s": 0.0,
         "weights_terms": 0, "optimize_s": 0.0, "optimize_exact_calls": 0,
         "control_cost_evals": 0, "control_eval_s": 0.0, "control_self_s": 0.0,
         "simulate_s": 0.0, "simulator_self_s": 0.0, "asym_calls": 0,
         "asym_s": 0.0, "main_s": 0.0, "cli_self_s": 0.0}
    models = set()
    for i, name in enumerate(names):
        attrs = spans[i][5]
        self_s = dur[i] - child[i]
        if name == "kernels.busy_period_recurrence":
            t["recurrence_calls"] += 1
            t["recurrence_s"] += dur[i]
            t["recurrence_madds"] += attrs["madds"]
            t["recurrence_rescales"] += attrs["rescales"]
        elif name == "kernels.simulate_cycles":
            t["sim_s"] += dur[i]
            t["sim_cycles"] += attrs["cycles"]
            t["sim_services"] += attrs["services"]
            t["sim_longest_cycle"] = max(t["sim_longest_cycle"], attrs["longest"])
        elif name == "distributions.mixed_poisson_weights":
            t["weights_calls"] += 1
            t["weights_s"] += dur[i]
            t["weights_terms"] += attrs["terms"]
        elif layer(i) == "exact":
            models.add(attrs["model"])
            t["exact_self_s"] += self_s
            if parent_layer(i) != "exact":
                t["solve_calls"] += 1
            if name == "exact.cost" and names[spans[i][3]] == "control.optimize_exact":
                t["control_cost_evals"] += 1
                t["control_eval_s"] += dur[i]
        elif layer(i) == "control":
            t["optimize_s"] += dur[i]
            t["control_self_s"] += self_s
            t["optimize_exact_calls"] += name == "control.optimize_exact"
        elif name == "simulator.simulate":
            t["simulate_s"] += dur[i]
            t["simulator_self_s"] += self_s
        elif layer(i) == "asymptotics":
            t["asym_calls"] += 1
            if parent_layer(i) != "asymptotics":
                t["asym_s"] += dur[i]
        elif name == "cli.main":
            t["main_s"] += dur[i]
            t["cli_self_s"] += self_s
    t["models"] = len(models)
    return t


def round_metrics(tallies, walls):
    """Per-layer metrics of a traced round from per-request tallies and the
    wall time of each request, as measured by the benchmark."""
    def total(key):
        return sum(t[key] for t in tallies)

    rec_per_req = [t["recurrence_calls"] for t in tallies if t["recurrence_calls"]]
    overheads = [w - t["main_s"] for t, w in zip(tallies, walls)]
    m = {
        "kernels.recurrence_calls": total("recurrence_calls"),
        "kernels.recurrence_s": total("recurrence_s"),
        "kernels.recurrence_madds": total("recurrence_madds"),
        "kernels.recurrence_madds_per_s": _ratio(total("recurrence_madds"),
                                                 total("recurrence_s")),
        "kernels.recurrence_rescales": total("recurrence_rescales"),
        "kernels.sim_s": total("sim_s"),
        "kernels.sim_cycles": total("sim_cycles"),
        "kernels.sim_services": total("sim_services"),
        "kernels.sim_services_per_s": _ratio(total("sim_services"), total("sim_s")),
        "kernels.sim_longest_cycle": max((t["sim_longest_cycle"] for t in tallies),
                                         default=0),
        "exact.solve_calls": total("solve_calls"),
        "exact.self_s": total("exact_self_s"),
        "exact.recurrences_per_request": (statistics.median(rec_per_req)
                                          if rec_per_req else 0),
        "exact.useful_solve_ratio": _ratio(total("models"),
                                           total("recurrence_calls")),
        "distributions.weights_calls": total("weights_calls"),
        "distributions.weights_s": total("weights_s"),
        "distributions.weights_terms": total("weights_terms"),
        "control.optimize_s": total("optimize_s"),
        "control.cost_evals": _ratio(total("control_cost_evals"),
                                     total("optimize_exact_calls")),
        "control.eval_s": _ratio(total("control_eval_s"),
                                 total("control_cost_evals")),
        "control.self_s": total("control_self_s"),
        "simulator.simulate_s": total("simulate_s"),
        "simulator.self_s": total("simulator_self_s"),
        "asymptotics.calls": total("asym_calls"),
        "asymptotics.s": total("asym_s"),
        "cli.main_s": total("main_s"),
        "cli.self_s": total("cli_self_s"),
        "cli.process_overhead_s": statistics.median(overheads) if overheads else 0.0,
    }
    return m


def parse_importtime(stderr_text):
    """Cumulative import seconds of each damctl module from -X importtime."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name.startswith("damctl."):
            try:
                out[name[len("damctl."):]] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return out
