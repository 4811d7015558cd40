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

Every check, here or in the library, raises ValueError; ``main`` alone
reports it, or an OSError, as ``error: <message>`` with exit 1. ``run``
and ``bench`` check that ``--out`` can be written before any work. All
CSV output is UTF-8 with LF line endings and written by one writer
(``benchmark``), floats with ``repr`` so identical runs produce
byte-identical files; the run summary and the certify record write a
non-finite number as null.
"""

import argparse
import json
import os
import sys
import zipfile
from dataclasses import MISSING, fields

import numpy as np

from ._rules import choice, json_object
from .algorithms import ALGORITHMS, INITS, RunConfig, run
from .benchmark import (BENCH_PRESETS, RUN_PRESETS, CampaignCell,
                        SparsePcaSpec, _csv, bench_preset, campaign_csv,
                        generate, run_campaign)
from .diagnostics import trace_residuals
from .problems import ConsensusProblem, IterationTrace, StateHistory, _nonzeros
from .stepsize import CURVATURE_CLASSES, certify, minimal_rho

__all__ = ["main", "build_parser", "trace_csv", "save_states", "load_run"]

TRACE_COLUMNS = ("iter", "L", "f", "feas_gap", "prox_grad_norm", "e",
                 "set_size")

# the per-state snapshots of a state file, in SolverState's field order
_HISTORIES = ("x_hist", "x_local_hist", "y_hist", "stale_hist")

# exit codes for the run subcommand
_TERMINATION_CODES = {"converged": 0, "max_iters": 2,
                      "staleness_violation": 3, "infeasible_stepsize": 4}

_RUN_FIELDS = tuple(f.name for f in fields(RunConfig))
_INSTANCE_FIELDS = tuple(f.name for f in fields(SparsePcaSpec))
_CELL_FIELDS = tuple(f.name for f in fields(CampaignCell))
# a campaign cell must give each field that has no default
_CELL_REQUIRED = tuple(f.name for f in fields(CampaignCell) if f.default is MISSING)


# -- trace persistence -------------------------------------------------------

def trace_csv(trace):
    """Per-iteration trace as CSV text; one row per completed update.

    Raises ValueError on a trace that recorded no augmented Lagrangian,
    which the ``L`` column needs.
    """
    if trace.lagrangian is None:
        raise ValueError("trace recorded no augmented Lagrangian for the L "
                         "column; rerun with lagrangian=True")
    return _csv(TRACE_COLUMNS, zip(
        map(int, trace.sim_time), trace.lagrangian, trace.objective,
        trace.feas_gap, trace.prox_grad_norm, trace.measure, trace.collected))


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _writable(path):
    # checked before the work, so that a bad --out costs no run
    if not path:
        raise ValueError("cannot write %r: empty path" % path)
    if os.path.isdir(path):
        raise ValueError("cannot write %r: is a directory" % path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError("cannot write %r: no such directory" % path)


def _base(csv_path):
    # a run's trace, states and summary files share one base name
    return csv_path[:-4] if csv_path.endswith(".csv") else csv_path


def _json(record, **layout):
    # RFC 8259 has no NaN or infinity, so a non-finite number is null
    return json.dumps({k: None if isinstance(v, float) and not np.isfinite(v)
                       else v for k, v in record.items()},
                      sort_keys=True, **layout)


def save_states(path, problem, result, algorithm):
    """Store snapshots plus instance data so checks can rebuild the run.

    The data is stored as its nonzeros (``problems._nonzeros``), about 12
    bytes each, not as K dense matrices, 90% zeros in a generated
    instance. The members are stored uncompressed: inflating them cost a
    check more than its replay. The snapshots are the arrays of the run's
    ``StateHistory`` as they are.
    """
    states = StateHistory.of(result.trace.states)
    arrays = {
        **dict(zip(_HISTORIES, (states.x, states.x_local, states.y,
                                states.stale_index.astype(np.int64, copy=False)))),
        "rho": np.asarray(result.rho, dtype=float),
        "delay_bounds": np.asarray(result.delay_bounds, dtype=float),
        "l1_weight": np.float64(problem.l1_weight),
        "radius": np.float64(problem.radius),
        "algorithm": np.str_(algorithm),
    }
    np.savez(path, **arrays, **_nonzeros(problem))


def _check_histories(hist, problem):
    # one snapshot per stored state, each of the data's K components and
    # dimension N, so the replay reads only what the solver could write
    K, N = problem.num_components, problem.dim
    count = len(hist[0]) if hist[0].ndim else 0
    for name, values, tail in zip(_HISTORIES, hist, ((N,), (K, N), (K, N), (K,))):
        if values.shape[1:] == tail and len(values) < count:
            raise ValueError("%s is shorter than x_hist: %d snapshots, not %d"
                             % (name, len(values), count))
        if values.shape != (count, *tail):
            raise ValueError("%s has shape %s, expected %s"
                             % (name, values.shape, (count, *tail)))
    if not np.issubdtype(hist[-1].dtype, np.integer):
        raise ValueError("stale_hist holds %s, not integer, stale indices"
                         % hist[-1].dtype)


# each CSV column's index, trace column and converter, in the order a
# row's values were checked when the trace was parsed row by row; iter is
# a clock count, written with int() and stored as a float
_TRACE_PARSE = ((1, "lagrangian", float), (2, "objective", float),
                (3, "feas_gap", float), (4, "prox_grad_norm", float),
                (5, "measure", float), (0, "sim_time", int), (6, "collected", int))


def _parse_trace_csv(text):
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError("missing the expected header row")
    rows, width = lines[1:], len(TRACE_COLUMNS)
    # one column at a time, each over the rows before the first bad one
    # found so far, so the row named is the first bad row and its message
    # the one a row-by-row parse gave: a row of the wrong width fails its
    # unpacking, and an extend that meets a bad value stops at its row (a
    # value out of its column's range, such as a set_size of 2**63, too)
    end = next((i for i, ln in enumerate(rows) if ln.count(",") != width - 1),
               len(rows))
    fields = ",".join(rows[:end]).split(",")
    trace, error = IterationTrace(), None
    for c, name, convert in _TRACE_PARSE:
        column = getattr(trace, name)
        try:
            column.extend(map(convert, fields[c:end * width:width]))
        except (ValueError, OverflowError) as exc:
            end, error = len(column), exc
    if end < len(rows):
        try:
            _, _, _, _, _, _, _ = rows[end].split(",")
        except ValueError as exc:
            error = exc
        raise ValueError("malformed row %r: %s" % (rows[end], error))
    return trace


def load_run(csv_path):
    """Rebuild (problem, trace, rho, delay_bounds, algorithm) from run output.

    The problem's D is the stored nonzeros, whose dense blocks are built
    one at a time, to be checked and bounded; ``trace.states`` is the
    ``StateHistory`` of the stored histories, once they are checked.
    Raises ValueError, naming the file, when either file is missing or
    cannot be read.
    """
    if not os.path.exists(csv_path):
        raise ValueError("no trace file at %r" % csv_path)
    npz_path = _base(csv_path) + ".states.npz"
    if not os.path.exists(npz_path):
        raise ValueError(
            "no state file at %r; checks need the per-iteration snapshots "
            "written by run --full-trace" % npz_path)
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            trace = _parse_trace_csv(fh.read())
    except (ValueError, OSError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError("cannot read trace file %r: %s" % (csv_path, exc))
    try:
        with np.load(npz_path) as data:
            problem = ConsensusProblem(data, l1_weight=float(data["l1_weight"]),
                                       radius=float(data["radius"]))
            # each subscript reads the member from the file again, so read
            # it once; the states are iterations 1, 2, ...; the gradient
            # and iteration histories of older files are not read
            hist = [data[name] for name in _HISTORIES]
            _check_histories(hist, problem)
            rho = np.asarray(data["rho"], dtype=float)
            delay_bounds = np.asarray(data["delay_bounds"], dtype=float)
            algorithm = choice(str(data["algorithm"][()]), "algorithm", ALGORITHMS)
    except (KeyError, ValueError, TypeError, EOFError, OSError, MemoryError,
            zipfile.BadZipFile) as exc:  # MemoryError: a data_dim too big
        raise ValueError("cannot load state file %r: %s" % (npz_path, exc))
    trace.states = StateHistory(*hist)
    return problem, trace, rho, delay_bounds, algorithm


# -- config assembly ---------------------------------------------------------

def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError("cannot parse %r: %s" % (path, exc))
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError("cannot read %r: %s" % (path, exc))


def _merge_config_file(cfg, inst, path):
    data = json_object(_load_json(path), "config",
                       optional=_RUN_FIELDS + ("instance",))
    inst.update(json_object(data.pop("instance", {}), "instance",
                            optional=_INSTANCE_FIELDS))
    cfg.update(data)


def _parse_scalar_or_list(text, flag):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError("bad value for %s: %r" % (flag, text))
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
        inst.update(RUN_PRESETS[args.preset]["instance"])
        cfg.update(RUN_PRESETS[args.preset]["config"])
    if args.config is not None:
        _merge_config_file(cfg, inst, args.config)
    _apply_run_flags(cfg, inst, args)
    # checked before the dump and before any data is drawn; per-worker list
    # lengths need the instance's K and are checked by run()
    try:
        spec = SparsePcaSpec(**inst)
    except ValueError as exc:
        raise ValueError("bad instance: %s" % exc)
    config = RunConfig(**cfg)
    config.validate()
    if args.dump_config:
        print(json.dumps(dict(cfg, instance=inst), sort_keys=True, indent=2))
        return 0

    out, base = args.out, _base(args.out)
    _writable(out)
    problem = generate(spec)
    result = run(problem, config)

    _write_text(out, trace_csv(result.trace))
    states = base + ".states.npz" if result.trace.states else None
    if states:
        save_states(states, problem, result, config.algorithm)
    summary = {
        "algorithm": config.algorithm,
        "termination": result.termination,
        "iterations": result.iterations,
        "updates": result.updates,
        "final_e": result.final_measure,
        "staleness_violations": len(result.violations),
        "trace": out,
        "states": states,
    }
    _write_text(base + ".summary.json", _json(summary, indent=2) + "\n")
    print(_json(summary))
    return _TERMINATION_CODES[result.termination]


def cmd_certify(args):
    rho = (minimal_rho(args.L, args.T, args.curvature) if args.rho is None
           else args.rho)
    cert = certify(rho, args.L, args.T, args.curvature)
    record = {"L": cert.lipschitz, "T": cert.delay_bound,
              "class": cert.curvature, "margin": cert.margin, "rule": cert.rule}
    if args.rho is None:
        record["min_rho"] = cert.rho
    else:
        record.update(rho=cert.rho, feasible=cert.feasible)
    print(_json(record))
    return 0 if cert.feasible else 4


def cmd_bench(args):
    if args.campaign is not None:
        if args.paper:
            raise ValueError("--paper applies only to a preset, not to a "
                             "campaign file")
        data = json_object(_load_json(args.campaign), "campaign", ("cells",),
                           ("seeds",))
        if not (isinstance(data["cells"], list) and data["cells"]):
            raise ValueError("campaign file %r lists no cells" % args.campaign)
        cells = [CampaignCell(**json_object(entry, "campaign cell %d" % i,
                                            _CELL_REQUIRED, _CELL_FIELDS))
                 for i, entry in enumerate(data["cells"])]
        seeds = data.get("seeds", 20)
    else:
        cells, seeds = bench_preset(args.preset,
                                    "paper" if args.paper else "desk")
    if args.seeds is not None:
        seeds = args.seeds

    progress = None
    if args.progress:
        def progress(cell, seed, out):
            sys.stderr.write("%s N=%d K=%d T=%g seed=%d: %s %d\n" % (
                cell.algorithm, cell.dim, cell.num_components,
                cell.delay_label, seed, out.termination, out.iterations))
            sys.stderr.flush()

    _writable(args.out)
    rows = run_campaign(cells, seeds, max_iters=args.max_iters,
                        epsilon=args.epsilon, progress=progress)
    text = campaign_csv(rows)
    _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_check(args):
    problem, trace, rho, delay_bounds, algorithm = load_run(args.trace)
    if algorithm == "sync_admm":
        raise ValueError(
            "trace was produced by exact subproblem minimization; the "
            "residual checks apply to proximal-update runs only")
    try:
        report = trace_residuals(problem, trace, rho, delay_bounds)
    except ValueError as exc:  # snapshots that do not fit the trace or data
        raise ValueError("cannot check %r: %s" % (args.trace, exc))
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
    p.add_argument("--init", choices=INITS,
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
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
