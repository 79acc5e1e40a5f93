"""Command-line front end.

Subcommands: analyze (exact metrics), optimize (control problem), verify
(asymptotics vs exact recurrence), simulate (regenerative DES), sweep
(limiting-cost curves).

Each option is described once, in OPTIONS; the flag --c-max and the config
key c_max name the same entry.  COMMANDS lists the options each command
reads, taken from the flag, else the JSON config file (--config), else the
default.  A flag the command does not read, an abbreviated flag and a config
key that names no option are refused.  JSON records go to standard output
(--format text for a flat view); verify/sweep emit CSV (stdout, or --out).

Exit codes: 0 success, 2 configuration error, 3 numeric error.

A request imports and builds only what it runs.  The exact commands
(analyze, verify, simulate, optimize --mode exact) import `exact` when they
run, after checking their options, and simulate imports `simulator`, and
with it numpy, only after its exact solve and its size check.  While numpy
is not loaded, `exact` solves every law by its band of K increments on
Python floats, in a loop that stops once the renewal sequence settles to a
geometric one, or at L.  A caller that loaded numpy (perfbench/launcher.py)
sees every solve on numpy's loop.  So optimize --mode asymptotic, sweep,
--help, a rejected option, a refused simulate and the exact commands on
every law, slow gamma tails too, never load numpy, and simulate prints the
exact numbers analyze prints; csv is imported by the two commands that
write it.

A well-formed request, `CMD (--flag VALUE)*` with each flag one the command
takes, given once, and no VALUE starting with "-", is read straight from
COMMANDS and OPTIONS, and its JSON record is written by _json; so it
imports neither argparse (with gettext and locale) nor json, 8-10 ms a
process.  Any other argv (--help, a refused or abbreviated flag,
--flag=value, a repeated flag, a value starting with "-", a --format other
than json or text) goes to argparse, which writes every usage, help and
error message; its parser holds every command's name and help but only the
named command's options.  json is imported only to read --config.

A request also skips the exit's garbage collections.  main registers
gc.freeze with atexit, once per process, so the collections run while the
interpreter finalizes skip every object alive at exit (about 21,500 after
an analyze that loaded numpy), which the OS frees anyway.  That takes the
time from main's return to the process's end from 23-28 ms to 6-8 ms
after a command that loaded numpy, and from 10 to 3 ms after one that did
not.  Output, exit codes and written files are unchanged (files are closed
before main returns; Python never promises __del__ at exit).  Importing
damctl or damctl.cli registers nothing, and an in-process caller collects
as before until its own exit.
"""

import atexit
import gc
import math
import os
import sys

from . import asymptotics, control
from .distributions import (as_integer, as_number, dist_from_dict,
                            dist_to_dict, parse_dist_spec)
from .errors import DamctlError
from .model import CostModel, DamModel, SimulationConfig

__all__ = ["main", "entry"]

# a start:stop:step C grid may hold at most this many points
MAX_C_GRID_POINTS = 10 ** 6
# simulate refuses a run whose expected services, cycles x (E nu1 + E nu2),
# exceed this
MAX_SIM_SERVICES = 10 ** 9
# main registers gc.freeze to run at exit, on its first call only
_freeze_at_exit = True


def _round12(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _text_lines(rec, prefix=""):
    """One `dotted.key = value` line per leaf of a nested record."""
    for key, val in rec.items():
        if isinstance(val, dict):
            yield from _text_lines(val, prefix + key + ".")
        else:
            yield "%s%s = %s" % (prefix, key, _fmt(val))


def _json(obj):
    """obj as json.dumps(obj) writes it, Infinity and NaN included.  What
    the records do not hold (a string that needs escaping, a key that is
    not a string, None, a bool, another type) is left to json.dumps."""
    kind = type(obj)
    if kind is float:
        if math.isfinite(obj):
            return repr(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if kind is int:
        return repr(obj)
    if kind is str and _plain(obj):
        return '"%s"' % obj
    if kind is dict and all(type(k) is str and _plain(k) for k in obj):
        return "{%s}" % ", ".join('"%s": %s' % (k, _json(v))
                                  for k, v in obj.items())
    if kind is list:
        return "[%s]" % ", ".join(map(_json, obj))
    import json

    return json.dumps(obj)


def _plain(text):
    """Whether json.dumps writes text unescaped, between quotes."""
    return (text.isascii() and text.isprintable() and '"' not in text
            and "\\" not in text)


def _emit_record(rec, fmt):
    rec = _round12(rec)
    if fmt == "json":
        print(_json(rec))
    else:
        for line in _text_lines(rec):
            print(line)


def _fmt(v):
    return "%.12g" % v if isinstance(v, float) else str(v)


def _emit_csv(header, rows, path):
    import csv

    if path:
        fh = open(path, "w", newline="")
    else:
        fh = sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(_round12(v)) for v in row])
    finally:
        if path:
            fh.close()


def _model_dict(model):
    return {"lambda": model.lam, "b1": dist_to_dict(model.b1),
            "b2": dist_to_dict(model.b2), "level": model.level}


# --- converters: a flag's string or a config file's JSON value in, the
# option's value out ---

def _dist(val):
    return parse_dist_spec(val) if isinstance(val, str) else dist_from_dict(val)


def _choice(name, choices):
    def convert(val):
        if val not in choices:
            raise ValueError("unknown %s %r (expected %s)"
                             % (name, val, "|".join(choices)))
        return val
    return convert


def _number_or_none(val):
    return None if val is None else as_number(val)


def _parse_levels(val):
    if isinstance(val, str):
        val = [p for p in val.split(",") if p.strip()]
    elif not isinstance(val, list):
        val = [val]
    levels = [as_integer(x) for x in val]
    if not levels:
        raise ValueError("empty level list")
    if min(levels) < 1:
        raise ValueError("levels must be integers >= 1, got %r" % (levels,))
    return levels


def _parse_grid(val):
    if isinstance(val, str):
        parts = val.split(":")
        if len(parts) == 3:
            start, stop, step = (float(p) for p in parts)
            if not all(math.isfinite(x) for x in (start, stop, step)):
                raise ValueError("C grid values must be finite")
            if step <= 0 or stop < start:
                raise ValueError("bad C grid %r" % (val,))
            span = (stop - start) / step
            if not span < MAX_C_GRID_POINTS:
                raise ValueError("C grid %r has more than %d points"
                                 % (val, MAX_C_GRID_POINTS))
            # the points up to stop, and the one that the rounding of span
            # puts a hair short of it (0:0.3:0.1 has span 2.9999999999999996)
            count = math.floor(span + 1e-9) + 1
            grid = [start + i * step for i in range(count)]
        else:
            grid = [float(p) for p in val.split(",") if p.strip()]
    elif isinstance(val, list):
        grid = [as_number(x) for x in val]
    else:
        raise ValueError("C grid must be a string or a list, got %r" % (val,))
    if not grid:
        raise ValueError("empty C grid")
    if not all(math.isfinite(c) for c in grid):
        raise ValueError("C grid values must be finite")
    if min(grid) < 0:
        raise ValueError("C grid values must be >= 0, got %r" % (min(grid),))
    return grid


# --- the options: config key -> (converter, default or REQUIRED, help);
# the flag is the key with "-" for "_" ---

REQUIRED = object()

OPTIONS = {
    "lambda": (as_number, REQUIRED, "arrival rate"),
    "b1": (_dist, REQUIRED, "normal-regime service law, e.g. exp:1.25"),
    "b2": (_dist, REQUIRED, "above-threshold service law, e.g. exp:2"),
    "level": (as_integer, REQUIRED, "threshold L"),
    "j1": (as_number, 1.0, "lower-passage cost per level unit"),
    "j2": (as_number, 1.0, "upper-passage cost per level unit"),
    "mode": (_choice("mode", ("asymptotic", "exact")), "asymptotic",
             "asymptotic or exact"),
    "c_max": (_number_or_none, None, "largest C searched in asymptotic mode"),
    "rho1_min": (as_number, 0.5, "lowest rho1 searched in exact mode"),
    "rho1_max": (as_number, 1.5, "highest rho1 searched in exact mode"),
    "regime": (_choice("regime", ("critical", "upper", "lower")), REQUIRED,
               "critical, upper or lower"),
    "c": (as_number, 1.0, "heavy-traffic parameter C"),
    "levels": (_parse_levels, "500,1000,2000", "comma-separated L grid"),
    "cycles": (as_integer, 100000, "regeneration cycles"),
    "seed": (as_integer, 0, "simulation seed (printed in output)"),
    "batches": (as_integer, 32, "batch count for confidence intervals"),
    "c_grid": (_parse_grid, REQUIRED, "start:stop:step or comma-separated C"),
}


def _read_options(args, names):
    """The named options, each from its flag (args maps each flag's dest to
    its string, or None), else the config file, else its default, and
    converted.  A required option given nowhere, or given as null, is
    missing."""
    cfg = {}
    if args["config"]:
        import json

        with open(args["config"]) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(OPTIONS))
        if unknown:
            raise ValueError("unknown option %r in the config file"
                             % (unknown[0],))
    opts = {}
    for name in names:
        convert, default, _ = OPTIONS[name]
        val = args[name]
        if val is None:
            val = cfg.get(name, default)
        if default is REQUIRED and (val is None or val is REQUIRED):
            raise ValueError("missing required option %r" % (name,))
        opts[name] = convert(val)
    return opts


# --- subcommands: each takes its converted options ---

def cmd_analyze(o):
    model = DamModel(lam=o["lambda"], b1=o["b1"], b2=o["b2"], level=o["level"])
    costs = CostModel(j1=o["j1"], j2=o["j2"])
    from . import exact

    sol = exact.solve(model, costs)
    bp = sol.busy
    rec = {
        "command": "analyze",
        "model": _model_dict(model),
        "costs": {"j1": costs.j1, "j2": costs.j2},
        "q_l": bp.e_nu1,
        "e_nu1": bp.e_nu1,
        "e_nu2": bp.e_nu2,
        "e_t1": bp.e_t1,
        "e_t2": bp.e_t2,
        "e_t": bp.e_t,
        "e_idle": bp.e_idle,
        "p1": sol.p1,
        "p2": sol.p2,
        "cost": sol.cost,
    }
    _emit_record(rec, o["format"])
    return 0


def cmd_optimize(o):
    lam, b1, level, mode = o["lambda"], o["b1"], o["level"], o["mode"]
    costs = CostModel(j1=o["j1"], j2=o["j2"])
    rho2 = lam * o["b2"].mean()
    if mode == "asymptotic":
        rho12t = asymptotics.rho12_tilde(lam, b1)
        sol = control.optimize_asymptotic(costs, rho2, rho12t, level, lam=lam,
                                          c_max=o["c_max"])
    else:
        sol = control.optimize_exact(
            lam, b1, o["b2"], level, costs,
            rho1_range=(o["rho1_min"], o["rho1_max"]))
    rec = {"command": "optimize", "mode": mode,
           "costs": {"j1": costs.j1, "j2": costs.j2},
           "rho2": rho2, "level": level}
    rec.update(sol.to_dict())
    _emit_record(rec, o["format"])
    return 0


def _rel_err(approx, exact):
    """|approx - exact| / exact, or "" (an empty CSV field) where the exact
    value is 0 and the relative error is undefined."""
    return abs(approx - exact) / exact if exact else ""


def _compared(exact, approx):
    """(exact, approx, relative error), with a non-finite approx and its
    error as empty CSV fields."""
    if not math.isfinite(approx):
        return exact, "", ""
    return exact, approx, _rel_err(approx, exact)


def _worst(errs):
    """The largest relative error that is defined; nan if none is."""
    return max((e for e in errs if e != ""), default=math.nan)


def cmd_verify(o):
    lam, shape, b2, regime, c = (o["lambda"], o["b1"], o["b2"], o["regime"],
                                 o["c"])
    if regime in ("upper", "lower") and not c > 0:
        raise ValueError("regime %s needs C > 0, got %r" % (regime, c))
    if not (math.isfinite(c) and c >= 0):
        raise ValueError("C must be finite and >= 0, got %r" % (c,))
    if regime == "lower":
        short = [level for level in o["levels"] if not c < level]
        if short:
            raise ValueError("regime lower needs C < L, so that rho1 = 1 - C/L "
                             "> 0; got C = %g at L = %d" % (c, short[0]))
    rho2 = lam * b2.mean()
    rho12t = asymptotics.rho12_tilde(lam, shape)

    rows = []
    for level in o["levels"]:
        if regime == "critical":
            delta, c_row = 0.0, 0.0
            b1 = shape.scale_to_mean(1.0 / lam)
            lp1, lp2 = asymptotics.critical_decay(rho12t, rho2)
            p1_asym, p2_asym = lp1 / level, lp2 / level
        elif regime == "upper":
            delta, c_row = c / level, c
            b1 = shape.scale_to_mean((1.0 + delta) / lam)
            p1_asym, p2_asym = asymptotics.heavy_upper(delta, c, rho12t, rho2)
        else:
            delta, c_row = c / level, c
            b1 = shape.scale_to_mean((1.0 - delta) / lam)
            p1_asym, p2_asym = asymptotics.heavy_lower(delta, c, rho12t, rho2)
        model = DamModel(lam=lam, b1=b1, b2=b2, level=level)
        from . import exact

        p1_exact, p2_exact = exact.stationary_probs(model)
        rows.append((level, delta, c_row)
                    + _compared(p1_exact, p1_asym)
                    + _compared(p2_exact, p2_asym))

    _emit_csv(("L", "delta", "C", "p1_exact", "p1_asym", "rel_err_p1",
               "p2_exact", "p2_asym", "rel_err_p2"), rows, o["out"])

    if regime == "lower":
        worst_p1 = _worst(r[5] for r in rows)
        worst_p2 = _worst(r[8] for r in rows)
        print("note: lower-regime columns use the literal heavy-traffic "
              "formulas with exponent rho12_tilde/(2C); they are not expected "
              "to converge to the exact values (max rel err: p1 %.3g, p2 %.3g)."
              " The exact recurrence columns are the ground truth."
              % (worst_p1, worst_p2), file=sys.stderr)
    return 0


def cmd_simulate(o):
    model = DamModel(lam=o["lambda"], b1=o["b1"], b2=o["b2"], level=o["level"])
    sim_cfg = SimulationConfig(model=model, n_cycles=o["cycles"],
                               seed=o["seed"], batch_count=o["batches"])
    from . import exact

    # the exact solution predicts the work before any cycle is drawn; numpy,
    # which the simulator loads, is not loaded yet, so its numbers are
    # analyze's
    sol = exact.solve(model)
    bp = sol.busy
    services = sim_cfg.n_cycles * (bp.e_nu1 + bp.e_nu2)
    if not services <= MAX_SIM_SERVICES:
        raise ValueError(
            "simulation would draw about %.3g services (%d cycles of %.3g "
            "expected services each), more than the limit of %.0e"
            % (services, sim_cfg.n_cycles, bp.e_nu1 + bp.e_nu2,
               MAX_SIM_SERVICES))
    from . import simulator

    report = simulator.simulate(sim_cfg)
    rec = {"command": "simulate", "model": _model_dict(model)}
    rec.update(report.to_dict())
    rec["exact"] = {"p1": sol.p1, "p2": sol.p2, "e_nu1": bp.e_nu1,
                    "e_nu2": bp.e_nu2, "e_t1": bp.e_t1, "e_t2": bp.e_t2}
    _emit_record(rec, o["format"])
    return 0


def cmd_sweep(o):
    lam = o["lambda"]
    costs = CostModel(j1=o["j1"], j2=o["j2"])
    rho2 = lam * o["b2"].mean()
    rho12t = asymptotics.rho12_tilde(lam, o["b1"])
    rows = [(c, asymptotics.j_upper(c, rho12t, rho2, costs),
             asymptotics.j_lower(c, rho12t, rho2, costs)) for c in o["c_grid"]]
    _emit_csv(("C", "J_upper", "J_lower"), rows, o["out"])
    return 0


# --- the commands: name -> (function, help, options read, output flag:
# "format" for a JSON record, "out" for CSV) ---

# the --format values, the first the default
FORMATS = ("json", "text")

COMMANDS = {
    "analyze": (cmd_analyze, "exact busy-period and stationary metrics",
                "lambda b1 b2 level j1 j2".split(), "format"),
    "optimize": (cmd_optimize, "solve the control problem",
                 "lambda b1 b2 level j1 j2 mode c_max rho1_min rho1_max".split(),
                 "format"),
    "verify": (cmd_verify, "compare asymptotic formulas to the exact recurrence",
               "lambda b1 b2 regime c levels".split(), "out"),
    "simulate": (cmd_simulate, "regenerative simulation with exact values alongside",
                 "lambda b1 b2 level cycles seed batches".split(), "format"),
    "sweep": (cmd_sweep, "J_upper/J_lower over a C grid",
              "lambda b1 b2 j1 j2 c_grid".split(), "out"),
}


def _flag(name):
    """The flag of an option or output name: c_max -> --c-max."""
    return "--" + name.replace("_", "-")


def _read_argv(argv):
    """The namespace argparse builds for a plain argv, `CMD (--flag VALUE)*`,
    as a dict without its parser: each flag one CMD takes, given once, and
    no VALUE starting with "-".  None for any other argv, which only
    argparse reads."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    cmd = argv[0]
    _, _, names, output = COMMANDS[cmd]
    flags = {_flag(name): name for name in ["config"] + names + [output]}
    args = dict.fromkeys(flags.values())
    args["cmd"] = cmd
    for flag, value in zip(argv[1::2], argv[2::2]):
        dest = flags.get(flag)
        if dest is None or args[dest] is not None or value.startswith("-"):
            return None
        args[dest] = value
    if "format" in args:
        if args["format"] is None:
            args["format"] = FORMATS[0]
        elif args["format"] not in FORMATS:
            return None
    return args


def build_parser(cmd):
    """The parser of every command, with the options of `cmd` alone: argparse
    hands the arguments after a command's name to that command's parser, so
    the others need only their name and help."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="damctl", allow_abbrev=False,
        description="Exact/asymptotic analysis and optimal release-rate "
                    "control of a threshold-modulated M/GI/1 dam")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, help_, names, output) in COMMANDS.items():
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.set_defaults(parser=p)
        if name != cmd:
            continue
        p.add_argument(_flag("config"),
                       help="JSON config file; flags override its values")
        for opt in names:
            p.add_argument(_flag(opt), dest=opt, help=OPTIONS[opt][2])
        if output == "format":
            p.add_argument(_flag(output), choices=FORMATS, default=FORMATS[0])
        else:
            p.add_argument(_flag(output), help="write CSV output to this path")
    return parser


def main(argv=None):
    # at exit, move every live object into the permanent generation, so the
    # collections of interpreter finalization skip them; the OS frees them
    # anyway.  Registered here, once per process, so library users and
    # `import damctl.cli` are untouched, and an in-process caller keeps
    # collecting until its own exit
    global _freeze_at_exit
    if _freeze_at_exit:
        atexit.register(gc.freeze)
        _freeze_at_exit = False
    # numpy's OpenBLAS otherwise starts a worker thread per CPU whose idle
    # spinning costs CPU time and saves no wall time on these problem sizes;
    # set here, before a command loads numpy, so library users keep theirs
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        # the command is the first argument that is not a flag, as argparse
        # reads it
        cmd = next((a for a in argv if not a.startswith("-")), None)
        try:
            # a flag the command does not take is refused with its own usage
            # line
            parsed, extra = build_parser(cmd).parse_known_args(argv)
            if extra:
                parsed.parser.error("unrecognized arguments: "
                                    + " ".join(extra))
        except SystemExit as exc:
            return exc.code if exc.code is not None else 2
        args = vars(parsed)
    func, _, names, output = COMMANDS[args["cmd"]]
    try:
        opts = _read_options(args, names)
        opts[output] = args[output]
        return func(opts)
    except (ValueError, OSError, KeyError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DamctlError, ArithmeticError) as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
