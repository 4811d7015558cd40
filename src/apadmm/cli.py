"""Command line front end: run solvers, certify stepsizes, sweep benchmarks.

Subcommands
-----------
run
    Solve one sparse-PCA instance, write a per-iteration trace CSV plus a
    summary record, and exit with a code describing the termination:
    0 converged, 2 iteration cap, 3 staleness violation, 4 rejected
    stepsize. Config comes from defaults, then an optional preset, then
    an optional JSON file, then flags; each layer overrides the previous.
    A flag's argparse dest is the config key it sets, ``instance.``
    prefixed for the instance keys.
certify
    Print the descent margin for a penalty, or the minimal feasible
    penalty when none is given.
bench
    Run a campaign (named preset or JSON campaign file) and write the
    aggregate CSV.
check
    Replay the residual checks on a stored trace. Needs the state file
    written by ``run --full-trace``. The checks run at fixed tolerances
    (``diagnostics``), so the verdict depends on the stored run alone.

All CSV output is UTF-8 with LF line endings; floats are written with
``repr`` so identical runs produce byte-identical files.
"""

import argparse
import json
import os
import sys
import zipfile
from dataclasses import fields

import numpy as np

from .algorithms import ALGORITHMS, RunConfig, run
from .benchmark import (
    BENCH_PRESETS,
    CampaignCell,
    RUN_PRESETS,
    SparsePcaSpec,
    bench_preset,
    campaign_csv,
    generate,
    run_campaign,
    run_preset,
)
from .diagnostics import trace_residuals
from .problems import ConsensusProblem, IterationTrace, SolverState
from .stepsize import CURVATURE_CLASSES, certify, minimal_rho

__all__ = ["main", "build_parser", "trace_csv", "save_states", "load_run"]

TRACE_COLUMNS = ("iter", "L", "f", "feas_gap", "prox_grad_norm", "e",
                 "set_size")

# exit codes for the run subcommand
_TERMINATION_CODES = {
    "converged": 0,
    "max_iters": 2,
    "staleness_violation": 3,
    "infeasible_stepsize": 4,
}

_RUN_FIELDS = tuple(f.name for f in fields(RunConfig))
_INSTANCE_FIELDS = tuple(f.name for f in fields(SparsePcaSpec))
_CELL_FIELDS = tuple(f.name for f in fields(CampaignCell))


class CliError(Exception):
    """Configuration or input problem; reported on stderr with exit 1."""


# -- trace persistence -------------------------------------------------------

def trace_csv(trace):
    """Per-iteration trace as CSV text; one row per completed update.

    Raises ValueError on a trace that recorded no augmented Lagrangian,
    which the ``L`` column needs.
    """
    if trace.lagrangian is None:
        raise ValueError("trace recorded no augmented Lagrangian for the L "
                         "column; rerun with lagrangian=True")
    lines = [",".join(TRACE_COLUMNS)]
    for i in range(len(trace)):
        lines.append(",".join((
            str(int(trace.sim_time[i])),
            repr(float(trace.lagrangian[i])),
            repr(float(trace.objective[i])),
            repr(float(trace.feas_gap[i])),
            repr(float(trace.prox_grad_norm[i])),
            repr(float(trace.measure[i])),
            str(int(trace.collected[i])),
        )))
    return "\n".join(lines) + "\n"


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _states_path(csv_path):
    base = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return base + ".states.npz"


def save_states(path, problem, result, algorithm):
    """Store snapshots plus instance data so checks can rebuild the run."""
    states = result.trace.states
    arrays = {
        "x_hist": np.stack([s.x for s in states]),
        "x_local_hist": np.stack([s.x_local for s in states]),
        "y_hist": np.stack([s.y for s in states]),
        "stale_hist": np.stack([s.stale_index for s in states]).astype(np.int64),
        "rho": np.asarray(result.rho, dtype=float),
        "delay_bounds": np.asarray(result.delay_bounds, dtype=float),
        "l1_weight": np.float64(problem.l1_weight),
        "radius": np.float64(problem.radius),
        "algorithm": np.str_(algorithm),
    }
    for k, B in enumerate(problem.data):
        arrays["B_%d" % k] = B
    np.savez_compressed(path, **arrays)


def _parse_trace_csv(text):
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError("missing the expected header row")
    trace = IterationTrace()
    for ln in lines[1:]:
        try:
            it, lag, obj, gap, pg, e, size = ln.split(",")
            # iter is a clock count, written with int() and stored as a float
            trace.append(float(lag), float(obj), float(gap), float(pg),
                         float(e), float(int(it)), int(size))
        except ValueError as exc:
            raise ValueError("malformed row %r: %s" % (ln, exc))
    return trace


def load_run(csv_path):
    """Rebuild (problem, trace, rho, delay_bounds, algorithm) from run output."""
    if not os.path.exists(csv_path):
        raise CliError("no trace file at %r" % csv_path)
    npz_path = _states_path(csv_path)
    if not os.path.exists(npz_path):
        raise CliError(
            "no state file at %r; checks need the per-iteration snapshots "
            "written by run --full-trace" % npz_path)
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            trace = _parse_trace_csv(fh.read())
    except (ValueError, OSError) as exc:  # UnicodeDecodeError is a ValueError
        raise CliError("cannot read trace file %r: %s" % (csv_path, exc))
    try:
        with np.load(npz_path) as data:
            num = 0
            while "B_%d" % num in data:
                num += 1
            if num == 0:
                raise CliError("state file %r holds no component data matrices"
                               % npz_path)
            problem = ConsensusProblem(
                [data["B_%d" % k] for k in range(num)],
                l1_weight=float(data["l1_weight"]), radius=float(data["radius"]))
            # each member is decompressed on every read, so read it once;
            # the states are iterations 1, 2, ...; the gradient and
            # iteration histories of older files are not read
            hist = [data[name + "_hist"] for name in
                    ("x", "x_local", "y", "stale")]
            states = [SolverState(i, *row) for i, row in
                      enumerate(zip(*hist, strict=True), start=1)]
            rho = np.asarray(data["rho"], dtype=float)
            delay_bounds = np.asarray(data["delay_bounds"], dtype=float)
            algorithm = str(data["algorithm"][()])
    except (KeyError, ValueError, TypeError, EOFError, OSError,
            zipfile.BadZipFile) as exc:
        raise CliError("cannot load state file %r: %s" % (npz_path, exc))
    trace.states = states
    return problem, trace, rho, delay_bounds, algorithm


# -- config assembly ---------------------------------------------------------

def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("cannot read %r: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise CliError("cannot parse %r: %s" % (path, exc))


def _merge_config_file(cfg, inst, path):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError("config root must be a JSON object")
    for key, value in data.items():
        if key == "instance":
            if not isinstance(value, dict):
                raise CliError("config key 'instance' must be an object")
            for ikey, ival in value.items():
                if ikey not in _INSTANCE_FIELDS:
                    raise CliError("unknown config key 'instance.%s'" % ikey)
                inst[ikey] = ival
        elif key in _RUN_FIELDS:
            cfg[key] = value
        else:
            raise CliError("unknown config key '%s'" % key)


def _parse_scalar_or_list(text, flag):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise CliError("bad value for %s: %r" % (flag, text))
    return parts[0] if len(parts) == 1 else parts


def _apply_run_flags(cfg, inst, args):
    # each run flag's dest is the key it sets, an instance key prefixed
    # "instance."; a flag left at None keeps the value from the layers
    # below it, and only the two list flags are parsed from their text
    for dest, value in vars(args).items():
        if value is None:
            continue
        if dest == "rho" and value != "auto":
            value = _parse_scalar_or_list(value, "--rho")
        elif dest == "delay_bound":
            value = _parse_scalar_or_list(value, "--delay-bound")
        if dest in _RUN_FIELDS:
            cfg[dest] = value
        elif dest.startswith("instance."):
            inst[dest.removeprefix("instance.")] = value


# -- subcommands -------------------------------------------------------------

def cmd_run(args):
    inst = dict(RUN_PRESETS["desk"]["instance"])
    cfg = {f.name: getattr(RunConfig(), f.name) for f in fields(RunConfig)}
    if args.preset is not None:
        try:
            preset_inst, preset_cfg = run_preset(args.preset)
        except ValueError as exc:
            raise CliError(str(exc))
        inst.update(preset_inst)
        cfg.update(preset_cfg)
    if args.config is not None:
        _merge_config_file(cfg, inst, args.config)
    _apply_run_flags(cfg, inst, args)

    if args.dump_config:
        print(json.dumps(dict(cfg, instance=inst), sort_keys=True, indent=2))
        return 0

    config = RunConfig(**cfg)
    try:
        spec = SparsePcaSpec(**inst)
    except (TypeError, ValueError) as exc:
        raise CliError("bad instance: %s" % exc)
    problem = generate(spec)
    try:
        result = run(problem, config)
    except ValueError as exc:
        raise CliError(str(exc))

    out = args.out
    _write_text(out, trace_csv(result.trace))
    wrote_states = False
    if result.trace.states:
        save_states(_states_path(out), problem, result, config.algorithm)
        wrote_states = True

    summary = {
        "algorithm": config.algorithm,
        "termination": result.termination,
        "iterations": result.iterations,
        "updates": result.updates,
        "final_e": result.final_measure,
        "staleness_violations": len(result.violations),
        "trace": out,
        "states": _states_path(out) if wrote_states else None,
    }
    base = out[:-4] if out.endswith(".csv") else out
    _write_text(base + ".summary.json",
                json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return _TERMINATION_CODES[result.termination]


def cmd_certify(args):
    try:
        rho = (minimal_rho(args.L, args.T, args.curvature) if args.rho is None
               else args.rho)
        cert = certify(rho, args.L, args.T, args.curvature)
    except ValueError as exc:
        raise CliError(str(exc))
    record = {
        "L": cert.lipschitz,
        "T": cert.delay_bound,
        "class": cert.curvature,
        "margin": cert.margin,
        "rule": cert.rule,
    }
    if args.rho is None:
        record["min_rho"] = cert.rho
    else:
        record.update(rho=cert.rho, feasible=cert.feasible)
    print(json.dumps(record, sort_keys=True))
    return 0 if cert.feasible else 4


def cmd_bench(args):
    if args.campaign is not None:
        if args.paper:
            raise CliError("--paper applies only to a preset, not to a "
                           "campaign file")
        data = _load_json(args.campaign)
        if not (isinstance(data, dict) and isinstance(data.get("cells"), list)
                and data["cells"]):
            raise CliError("campaign file %r lists no cells" % args.campaign)
        cells = []
        for i, entry in enumerate(data["cells"]):
            if not isinstance(entry, dict):
                raise CliError("campaign cell %d must be an object, not %r"
                               % (i, entry))
            unknown = set(entry) - set(_CELL_FIELDS)
            if unknown:
                raise CliError("unknown campaign cell key '%s'"
                               % sorted(unknown)[0])
            try:
                cells.append(CampaignCell(**entry))
            except TypeError as exc:
                raise CliError("bad campaign cell: %s" % exc)
        seeds = data.get("seeds", 20)
    else:
        scale = "paper" if args.paper else "desk"
        try:
            cells, seeds = bench_preset(args.preset, scale)
        except ValueError as exc:
            raise CliError(str(exc))
    if args.seeds is not None:
        seeds = args.seeds

    progress = None
    if args.progress:
        def progress(cell, seed, out):
            sys.stderr.write("%s N=%d K=%d T=%g seed=%d: %s %d\n" % (
                cell.algorithm, cell.dim, cell.num_components,
                cell.delay_label, seed, out.termination, out.iterations))
            sys.stderr.flush()

    try:
        rows = run_campaign(cells, seeds, max_iters=args.max_iters,
                            epsilon=args.epsilon, progress=progress)
    except ValueError as exc:
        raise CliError(str(exc))
    text = campaign_csv(rows)
    _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_check(args):
    problem, trace, rho, delay_bounds, algorithm = load_run(args.trace)
    if algorithm == "sync_admm":
        raise CliError(
            "trace was produced by exact subproblem minimization; the "
            "residual checks apply to proximal-update runs only")
    try:
        report = trace_residuals(problem, trace, rho, delay_bounds)
    except ValueError as exc:  # snapshots that do not fit the trace or data
        raise CliError("cannot check %r: %s" % (args.trace, exc))
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


# -- parser ------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="apadmm",
        description="Asynchronous proximal consensus solvers on simulated "
                    "star networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="solve one instance and write its trace")
    p.add_argument("--config", metavar="FILE",
                   help="JSON config; flags override file values")
    p.add_argument("--preset", choices=sorted(RUN_PRESETS),
                   help="named instance + run configuration")
    p.add_argument("--algo", dest="algorithm", choices=ALGORITHMS)
    p.add_argument("--rho", help="'auto', a number, or comma list per worker")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delay-bound", help="number or comma list per worker")
    p.add_argument("--enforce", dest="enforcement", action="store_const",
                   const="enforce", help="abort when staleness exceeds the bound")
    p.add_argument("--observe", dest="enforcement", action="store_const",
                   const="observe", help="record staleness violations only")
    p.add_argument("--init", choices=("zero", "random_ball"),
                   help="start point (default random_ball; x = 0 is "
                        "stationary for the generated instances)")
    p.add_argument("--force", action="store_true", default=None,
                   help="run even with an uncertified stepsize")
    p.add_argument("--full-trace", action="store_true", default=None,
                   help="also store per-iteration state snapshots for check")
    p.add_argument("--N", type=int, dest="instance.dim",
                   metavar="N", help="instance dimension")
    p.add_argument("--K", type=int, dest="instance.num_components",
                   metavar="K", help="number of components")
    p.add_argument("--M", type=int, dest="instance.rows",
                   metavar="M", help="rows per component")
    p.add_argument("--p", type=float, dest="instance.nonzero_prob",
                   metavar="P", help="nonzero probability")
    p.add_argument("--lam", type=float, dest="instance.l1_weight",
                   metavar="LAM", help="l1 weight")
    p.add_argument("--instance-seed", type=int, dest="instance.seed",
                   metavar="INSTANCE_SEED")
    p.add_argument("--out", default="trace.csv", metavar="FILE")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective config as JSON and exit")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("certify",
                       help="stepsize feasibility and minimal penalties")
    p.add_argument("--L", type=float, required=True,
                   help="gradient Lipschitz constant")
    p.add_argument("--T", type=float, required=True, help="staleness bound")
    p.add_argument("--class", dest="curvature", required=True,
                   choices=tuple(CURVATURE_CLASSES))
    p.add_argument("--rho", type=float,
                   help="penalty to certify; omit to solve for the minimum")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bench", help="run a benchmark campaign")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=BENCH_PRESETS)
    group.add_argument("--campaign", metavar="FILE",
                       help="JSON file with 'cells' and optional 'seeds'")
    p.add_argument("--paper", action="store_true",
                   help="full-size sweep; slow")
    p.add_argument("--seeds", type=int, help="override the seed count")
    p.add_argument("--max-iters", type=int, default=RunConfig.max_iters)
    p.add_argument("--epsilon", type=float, default=RunConfig.epsilon)
    p.add_argument("--out", default="campaign.csv", metavar="FILE")
    p.add_argument("--progress", action="store_true",
                   help="per-run progress on stderr")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check", help="replay residual checks on a trace")
    p.add_argument("trace", help="trace CSV written by run")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
