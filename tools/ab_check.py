"""Time ``load_run`` plus ``trace_residuals`` of two source trees against each other, in process.

    python3 tools/ab_check.py PARENT_DIR CHANGE_DIR [--runs n] [--reps r]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (or one
twice, for an A/A run). Each tree's ``src/apadmm`` is imported under a
package name of its own with ``tools/ab_campaign.py``'s ``load``, after
the BLAS is pinned to one thread, so both see the same machine at the
same moment.

Each tree stores, as the benchmark's ``replay_check`` and ``paper_solve``
workloads do (an ``async_padmm`` run on the desk preset network, capped
at its row count, its trace CSV and ``save_states``), n runs (default 4)
of each of three shapes: desk (N=50, K=5, M=20) at 120 and at 240 rows,
and paper (N=500, K=10, M=100) at 12 rows, instance and run seeds 0 to
n-1. Every run is then loaded and checked once by each tree, untimed,
and compared: the report's lines and each outcome's status, worst-slack
bits and failing rows, the bits of every trace column, and every loaded
array (bounds, operator with its dtypes and read-only flags, rho, delay
bounds and each state's iteration and arrays).

Then r reps (default 20) time, per tree and shape, the mean over the n
runs of ``load_run`` and of ``trace_residuals`` on its own files. The
trees alternate shape by shape, so each pair is timed back to back: the
parent goes first in odd reps and second in even ones, after one
untimed warm-up rep. Prints, per shape and part (load, replay and their
sum), the median and quartiles of the reps' figures in ms and in how
many reps the change was the faster. Exits 1 if any compared line,
column or array differs between the trees.
"""

import argparse
import gc
import importlib
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_campaign import SIDES, load, quartiles  # noqa: E402

# (label, instance shape, rows): the stored runs of replay_check and
# paper_solve's replay probe
SHAPES = (("desk 120 rows", dict(dim=50, num_components=5, rows=20), 120),
          ("desk 240 rows", dict(dim=50, num_components=5, rows=20), 240),
          ("paper 12 rows", dict(dim=500, num_components=10, rows=100), 12))
COLUMNS = ("lagrangian", "objective", "feas_gap", "prox_grad_norm", "measure",
           "sim_time", "collected")
PARTS = ("load", "replay", "total")


def store(ap, directory, shape, rows, seed):
    """One stored run, as ``apadmm run --full-trace`` writes it; its CSV path."""
    cli = importlib.import_module(ap.__name__ + ".cli")
    problem = ap.generate(ap.SparsePcaSpec(seed=seed, nonzero_prob=0.1, **shape))
    config = ap.RunConfig(
        algorithm="async_padmm", seed=seed, max_iters=rows, epsilon=1e-12,
        full_trace=True, delay_bound=3, init="random_ball",
        compute_delay={"kind": "uniform", "lo": 0.0, "hi": 2.0})
    result = ap.run(problem, config)
    path = os.path.join(directory, "run-%d-%d.csv" % (rows, seed))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(cli.trace_csv(result.trace))
    cli.save_states(path[:-4] + ".states.npz", problem, result, config.algorithm)
    return path


def check(ap, path):
    """``load_run`` then ``trace_residuals``: the loaded run and its report."""
    loaded = importlib.import_module(ap.__name__ + ".cli").load_run(path)
    return loaded, ap.trace_residuals(*loaded[:4])


def fingerprint(loaded, report):
    """Everything a check reads and says, as comparable bits: a trace
    column as its doubles, so a list and an ``array.array`` of the same
    values agree and a -0.0 differs from a 0.0."""
    import numpy as np  # here, after main has pinned the BLAS
    problem, trace, rho, delay_bounds, algorithm = loaded
    arrays = [problem.lipschitz, rho, delay_bounds]
    arrays += [a for part in problem.operator for a in part[2:] if a is not None]
    for state in trace.states:
        arrays += [state.x, state.x_local, state.y, state.stale_index]
    return (report.lines(),
            [(o.name, o.status, None if o.worst_slack is None
              else float(o.worst_slack).hex(), o.failing) for o in report.outcomes],
            [np.asarray(getattr(trace, name), dtype=float).tobytes()
             for name in COLUMNS],
            [(a.dtype.str, a.shape, a.tobytes(), a.flags.writeable) for a in arrays],
            [tuple(part[:2]) for part in problem.operator],
            [state.iteration for state in trace.states],
            (problem.l1_weight, problem.radius, algorithm))


def timed(ap, paths):
    """Mean ms of ``load_run`` and of ``trace_residuals`` over ``paths``."""
    load_run = importlib.import_module(ap.__name__ + ".cli").load_run
    loads, replays = [], []
    gc.collect()
    for path in paths:
        start = time.perf_counter()
        loaded = load_run(path)
        middle = time.perf_counter()
        ap.trace_residuals(*loaded[:4])
        end = time.perf_counter()
        loads.append((middle - start) * 1e3)
        replays.append((end - middle) * 1e3)
    load, replay = statistics.fmean(loads), statistics.fmean(replays)
    return {"load": load, "replay": replay, "total": load + replay}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="In-process A/B of load_run plus trace_residuals of two trees.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--runs", type=int, default=4)
    parser.add_argument("--reps", type=int, default=20)
    args = parser.parse_args(argv)
    if args.runs < 1 or args.reps < 1:
        parser.error("--runs and --reps must be at least 1")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    trees = {side: load(tree, "apadmm_" + side)
             for side, tree in zip(SIDES, (args.parent, args.change))}
    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for side in SIDES:
            os.mkdir(os.path.join(tmp, side))
            paths[side] = [[store(trees[side], os.path.join(tmp, side), shape,
                                  rows, seed) for seed in range(args.runs)]
                           for _, shape, rows in SHAPES]
        for (label, _, _), parent, change in zip(SHAPES, paths["parent"],
                                                 paths["change"]):
            for seed, (a, b) in enumerate(zip(parent, change)):
                if (fingerprint(*check(trees["parent"], a))
                        != fingerprint(*check(trees["change"], b))):
                    differing.append("%s seed %d" % (label, seed))
        results = {side: [[] for _ in SHAPES] for side in SIDES}
        for rep in range(args.reps + 1):
            order = SIDES if rep % 2 else SIDES[::-1]
            for i in range(len(SHAPES)):
                for side in order:
                    figures = timed(trees[side], paths[side][i])
                    if rep:            # rep 0 is the warm-up
                        results[side][i].append(figures)
    print("load_run + trace_residuals, %d stored runs per shape, %d reps, one "
          "BLAS thread: ms per run, median [quartiles], reps the change won"
          % (args.runs, args.reps))
    for i, (label, _, _) in enumerate(SHAPES):
        for part in PARTS:
            values = {side: [figures[part] for figures in results[side][i]]
                      for side in SIDES}
            won = sum(c < p for p, c in zip(values["parent"], values["change"]))
            shown = []
            for side in SIDES:
                q1, median, q3 = quartiles(values[side])
                shown.append("%.3f [%.3f-%.3f]" % (median, q1, q3))
            print("%-13s %-6s parent %-22s change %-22s %d/%d"
                  % (label, part, shown[0], shown[1], won, args.reps))
    if differing:
        print("loaded runs or reports differ between the trees: %s"
              % ", ".join(differing))
        return 1
    print("every report line, trace column and loaded array identical between "
          "the trees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
