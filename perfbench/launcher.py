"""Traced damctl invocation: python launcher.py <span-file> <request-id> <argv...>

Wraps the public entry points of each damctl module by replacing module (or
class) attributes, then runs `damctl.cli.main(argv)`.  damctl looks these
names up through the module at call time, so nested calls are traced too.
Each span is [name, start, end, parent index, request id, attributes]; spans
are kept in memory and written as JSON to <span-file> at exit.  stdout and the
exit code are damctl's own.
"""

import functools
import json
import sys
import time


class Tracer:
    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []
        self.stack = []

    def wrap(self, owner, attr, name, counters=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, self.request_id, {}]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counters is not None:
                span[5] = counters(args, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _model_key(args, result):
    return {"model": repr(args[0])}


def _weights(args, result):
    return {"terms": len(result)}


def _recurrence(args, result):
    L = int(args[1])
    ex = result[1]
    rescales = int((ex[1:] != ex[:-1]).sum()) if len(ex) > 1 else 0
    return {"L": L, "madds": L * (L - 1) // 2, "rescales": rescales}


def _cycles(args, result):
    services = result[3] + result[4]
    return {"cycles": len(services), "services": int(services.sum()),
            "longest": int(services.max()) if len(services) else 0}


def install(tracer):
    from damctl import asymptotics, cli, control, exact, kernels, simulator
    from damctl.distributions import ServiceDistribution

    tracer.wrap(ServiceDistribution, "mixed_poisson_weights",
                "distributions.mixed_poisson_weights", _weights)
    tracer.wrap(kernels, "busy_period_recurrence",
                "kernels.busy_period_recurrence", _recurrence)
    tracer.wrap(kernels, "simulate_cycles", "kernels.simulate_cycles", _cycles)
    for attr in ("busy_period_metrics", "stationary_probs", "cost"):
        tracer.wrap(exact, attr, "exact." + attr, _model_key)
    for attr in ("optimize_exact", "optimize_asymptotic"):
        tracer.wrap(control, attr, "control." + attr)
    for attr in asymptotics.__all__:
        if not isinstance(getattr(asymptotics, attr), type):
            tracer.wrap(asymptotics, attr, "asymptotics." + attr)
    tracer.wrap(simulator, "simulate", "simulator.simulate")
    tracer.wrap(cli, "main", "cli.main")
    return cli


def main():
    span_path, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    # this file's directory is sys.path[0]; damctl comes from PYTHONPATH
    sys.path.pop(0)
    tracer = Tracer(request_id)
    cli = install(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(span_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
