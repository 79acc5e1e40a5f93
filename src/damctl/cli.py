"""Command-line front end.

Subcommands: analyze (exact metrics), optimize (control problem), verify
(asymptotics vs exact recurrence), simulate (regenerative DES), sweep
(limiting-cost curves).  Options come from flags and/or a JSON config file
(flags win).  JSON records go to standard output; verify/sweep emit CSV
(stdout, or a file via --out).

Exit codes: 0 success, 2 configuration error, 3 numeric error.

numpy is loaded only by the commands that need it (analyze, verify,
simulate, optimize --mode exact): they import `exact` and `simulator` when
they run, after checking their options, so optimize --mode asymptotic,
sweep, --help and a rejected option never load it.
"""

import argparse
import csv
import json
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


def _round12(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_record(rec, fmt, out=None):
    out = out if out is not None else sys.stdout
    rec = _round12(rec)
    if fmt == "json":
        print(json.dumps(rec), file=out)
        return
    for key, val in rec.items():
        if isinstance(val, dict):
            for k2, v2 in val.items():
                print("%s.%s = %s" % (key, k2, _fmt(v2)), file=out)
        else:
            print("%s = %s" % (key, _fmt(val)), file=out)


def _fmt(v):
    return "%.12g" % v if isinstance(v, float) else str(v)


def _emit_csv(header, rows, path):
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


def _dist(val, field):
    if val is None:
        raise ValueError("missing required distribution %r" % (field,))
    if isinstance(val, str):
        return parse_dist_spec(val)
    return dist_from_dict(val)


def _load_config(args):
    """File values overlaid with any flags that were actually given."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    for key in ("lam", "b1", "b2", "level", "j1", "j2", "mode", "c", "c_max",
                "levels", "cycles", "seed", "batches", "regime", "c_grid",
                "rho1_min", "rho1_max"):
        val = getattr(args, key, None)
        if val is not None:
            cfg["lambda" if key == "lam" else key] = val
    return cfg


def _require(cfg, *keys):
    for key in keys:
        if key not in cfg or cfg[key] is None:
            raise ValueError("missing required option %r" % (key,))


def _model_from(cfg):
    _require(cfg, "lambda", "b1", "b2", "level")
    return DamModel(lam=as_number(cfg["lambda"]), b1=_dist(cfg["b1"], "b1"),
                    b2=_dist(cfg["b2"], "b2"), level=as_integer(cfg["level"]))


def _costs_from(cfg):
    return CostModel(j1=as_number(cfg.get("j1", 1.0)),
                     j2=as_number(cfg.get("j2", 1.0)))


def _model_dict(model):
    return {"lambda": model.lam, "b1": dist_to_dict(model.b1),
            "b2": dist_to_dict(model.b2), "level": model.level}


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
            grid = [start + i * step for i in range(round(span) + 1)]
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


# --- subcommands ---

def cmd_analyze(args):
    cfg = _load_config(args)
    model = _model_from(cfg)
    costs = _costs_from(cfg)
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
    _emit_record(rec, args.format)
    return 0


def cmd_optimize(args):
    cfg = _load_config(args)
    costs = _costs_from(cfg)
    _require(cfg, "lambda", "b1", "b2", "level")
    lam = as_number(cfg["lambda"])
    b1 = _dist(cfg["b1"], "b1")
    b2 = _dist(cfg["b2"], "b2")
    level = as_integer(cfg["level"])
    rho2 = lam * b2.mean()
    mode = cfg.get("mode", "asymptotic")
    if mode == "asymptotic":
        rho12t = asymptotics.rho12_tilde(lam, b1)
        sol = control.optimize_asymptotic(
            costs, rho2, rho12t, level, lam=lam,
            c_max=as_number(cfg["c_max"]) if cfg.get("c_max") is not None else None)
    elif mode == "exact":
        rng = (as_number(cfg.get("rho1_min", 0.5)),
               as_number(cfg.get("rho1_max", 1.5)))
        sol = control.optimize_exact(lam, b1, b2, level, costs, rho1_range=rng)
    else:
        raise ValueError("unknown mode %r (expected asymptotic|exact)" % (mode,))
    rec = {"command": "optimize", "mode": mode,
           "costs": {"j1": costs.j1, "j2": costs.j2},
           "rho2": rho2, "level": level}
    rec.update(sol.to_dict())
    _emit_record(rec, args.format)
    return 0


def cmd_verify(args):
    cfg = _load_config(args)
    _require(cfg, "lambda", "b1", "b2", "regime")
    lam = as_number(cfg["lambda"])
    shape = _dist(cfg["b1"], "b1")
    b2 = _dist(cfg["b2"], "b2")
    regime = cfg["regime"]
    c = as_number(cfg.get("c", 1.0))
    if regime in ("upper", "lower") and not c > 0:
        raise ValueError("regime %s needs C > 0, got %r" % (regime, c))
    levels = _parse_levels(cfg.get("levels", "500,1000,2000"))
    rho2 = lam * b2.mean()
    rho12t = asymptotics.rho12_tilde(lam, shape)

    rows = []
    for level in levels:
        if regime == "critical":
            delta, c_row = 0.0, 0.0
            b1 = shape.scale_to_mean(1.0 / lam)
            lp1, lp2 = asymptotics.critical_decay(rho12t, rho2)
            p1_asym, p2_asym = lp1 / level, lp2 / level
        elif regime == "upper":
            delta, c_row = c / level, c
            b1 = shape.scale_to_mean((1.0 + delta) / lam)
            p1_asym, p2_asym = asymptotics.heavy_upper(delta, c, rho12t, rho2)
        elif regime == "lower":
            delta, c_row = c / level, c
            b1 = shape.scale_to_mean((1.0 - delta) / lam)
            p1_asym, p2_asym, _ = asymptotics.heavy_lower(delta, c, rho12t, rho2)
        else:
            raise ValueError("unknown regime %r (expected critical|upper|lower)"
                             % (regime,))
        model = DamModel(lam=lam, b1=b1, b2=b2, level=level)
        from . import exact

        p1_exact, p2_exact = exact.stationary_probs(model)
        rows.append((level, delta, c_row,
                     p1_exact, p1_asym, abs(p1_asym - p1_exact) / p1_exact,
                     p2_exact, p2_asym, abs(p2_asym - p2_exact) / p2_exact))

    _emit_csv(("L", "delta", "C", "p1_exact", "p1_asym", "rel_err_p1",
               "p2_exact", "p2_asym", "rel_err_p2"), rows, args.out)

    if regime == "lower":
        worst_p1 = max(r[5] for r in rows)
        worst_p2 = max(r[8] for r in rows)
        print("note: lower-regime columns use the literal heavy-traffic "
              "formulas with exponent rho12_tilde/(2C); they are not expected "
              "to converge to the exact values (max rel err: p1 %.3g, p2 %.3g)."
              " The exact recurrence columns are the ground truth."
              % (worst_p1, worst_p2), file=sys.stderr)
    return 0


def cmd_simulate(args):
    cfg = _load_config(args)
    model = _model_from(cfg)
    sim_cfg = SimulationConfig(model=model,
                               n_cycles=as_integer(cfg.get("cycles", 100000)),
                               seed=as_integer(cfg.get("seed", 0)),
                               batch_count=as_integer(cfg.get("batches", 32)))
    from . import exact, simulator

    # the exact solution predicts the work before any cycle is drawn
    sol = exact.solve(model)
    bp = sol.busy
    services = sim_cfg.n_cycles * (bp.e_nu1 + bp.e_nu2)
    if not services <= MAX_SIM_SERVICES:
        raise ValueError(
            "simulation would draw about %.3g services (%d cycles of %.3g "
            "expected services each), more than the limit of %.0e"
            % (services, sim_cfg.n_cycles, bp.e_nu1 + bp.e_nu2,
               MAX_SIM_SERVICES))
    report = simulator.simulate(sim_cfg)
    rec = {"command": "simulate", "model": _model_dict(model)}
    rec.update(report.to_dict())
    rec["exact"] = {"p1": sol.p1, "p2": sol.p2, "e_nu1": bp.e_nu1,
                    "e_nu2": bp.e_nu2, "e_t1": bp.e_t1, "e_t2": bp.e_t2}
    _emit_record(rec, args.format)
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    _require(cfg, "lambda", "b1", "b2", "c_grid")
    lam = as_number(cfg["lambda"])
    shape = _dist(cfg["b1"], "b1")
    b2 = _dist(cfg["b2"], "b2")
    costs = _costs_from(cfg)
    rho2 = lam * b2.mean()
    rho12t = asymptotics.rho12_tilde(lam, shape)
    grid = _parse_grid(cfg["c_grid"])
    rows = [(c, asymptotics.j_upper(c, rho12t, rho2, costs),
             asymptotics.j_lower(c, rho12t, rho2, costs)) for c in grid]
    _emit_csv(("C", "J_upper", "J_lower"), rows, args.out)
    return 0


# --- argument parsing ---

def _add_model_flags(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--lambda", dest="lam", type=float, help="arrival rate")
    p.add_argument("--b1", help="normal-regime service law, e.g. exp:1.25")
    p.add_argument("--b2", help="above-threshold service law, e.g. exp:2")
    p.add_argument("--level", type=int, help="threshold L")
    p.add_argument("--j1", type=float, help="lower-passage cost per level unit")
    p.add_argument("--j2", type=float, help="upper-passage cost per level unit")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write CSV output to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="damctl",
        description="Exact/asymptotic analysis and optimal release-rate "
                    "control of a threshold-modulated M/GI/1 dam")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="exact busy-period and stationary metrics")
    _add_model_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize", help="solve the control problem")
    _add_model_flags(p)
    p.add_argument("--mode", choices=("asymptotic", "exact"))
    p.add_argument("--c-max", dest="c_max", type=float)
    p.add_argument("--rho1-min", dest="rho1_min", type=float)
    p.add_argument("--rho1-max", dest="rho1_max", type=float)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="compare asymptotic formulas to the exact recurrence")
    _add_model_flags(p)
    p.add_argument("--regime", choices=("critical", "upper", "lower"))
    p.add_argument("--c", type=float, help="heavy-traffic parameter C")
    p.add_argument("--levels", help="comma-separated L grid, e.g. 500,1000,2000")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="regenerative simulation with exact values alongside")
    _add_model_flags(p)
    p.add_argument("--cycles", type=int, help="regeneration cycles")
    p.add_argument("--seed", type=int, help="simulation seed (printed in output)")
    p.add_argument("--batches", type=int, help="batch count for confidence intervals")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="J_upper/J_lower over a C grid")
    _add_model_flags(p)
    p.add_argument("--c-grid", dest="c_grid",
                   help="start:stop:step or comma-separated C values")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    # numpy's OpenBLAS otherwise starts a worker thread per CPU whose idle
    # spinning costs CPU time and saves no wall time on these problem sizes;
    # set here, before a command loads numpy, so library users keep theirs
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DamctlError, ArithmeticError) as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
