"""Time the desk campaign of two source trees against each other, in process.

    python3 tools/ab_campaign.py PARENT_DIR CHANGE_DIR [--seeds n] [--reps r]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (or one
twice, for an A/A run). Each tree's ``src/apadmm`` is imported under a
package name of its own, ``apadmm_parent`` and ``apadmm_change``, so both
live side by side and see the same machine at the same moment. The BLAS
is pinned to one thread before the trees, and so numpy, are imported,
whatever the caller exported, as ``perfbench/run.py`` and
``tools/run_digest.py`` do.

One rep runs, in each tree, the 21 cells of the benchmark's
``desk_campaign`` workload (the desk ``table2`` and ``table4`` presets:
N=50, K=5, M=20) through that tree's ``run_campaign``, at seeds 0 to
n-1 (default 2). The trees alternate: the parent goes first in odd reps
and second in even ones, after one untimed warm-up rep each. As in
``desk_campaign``, a run's time is the wall time between two
``progress`` calls (its instance's generation and the run), and its
cost per update that time over its updates; a rep's figure per
algorithm is the median over that algorithm's runs, and its wall time
the whole campaign's.

Prints, per algorithm, the median and quartiles over the reps (default
10) of the µs per update, the same for the wall time, and in how many
reps the change was the faster. Exits 1 if any rep's ``campaign_csv``
differs between the trees: the tool times only changes that keep every
campaign row.
"""

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
import time

ALGORITHMS = ("async_padmm", "sync_padmm", "sync_admm")
SIDES = ("parent", "change")


def load(tree, name):
    """``tree``'s ``src/apadmm`` imported as the package ``name``."""
    package = os.path.join(os.path.abspath(tree), "src", "apadmm")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def campaign(ap, seeds):
    """One timed desk campaign: its CSV, wall seconds and µs per update."""
    preset = importlib.import_module(ap.__name__ + ".benchmark").bench_preset
    cells = preset("table2")[0] + preset("table4")[0]
    per_update = {a: [] for a in ALGORITHMS}
    gc.collect()
    start = mark = time.perf_counter()

    def progress(cell, seed, out):
        nonlocal mark
        now = time.perf_counter()
        if out.updates:
            per_update[cell.algorithm].append((now - mark) / out.updates * 1e6)
        mark = now

    rows = ap.run_campaign(cells, range(seeds), progress=progress)
    wall = time.perf_counter() - start
    return (ap.campaign_csv(rows), wall,
            {a: statistics.median(v) for a, v in per_update.items() if v})


def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="In-process A/B of the desk campaign of two trees.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, default=2)
    parser.add_argument("--reps", type=int, default=10)
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.reps < 1:
        parser.error("--seeds and --reps must be at least 1")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    trees = {side: load(tree, "apadmm_" + side)
             for side, tree in zip(SIDES, (args.parent, args.change))}
    for side in SIDES:
        campaign(trees[side], args.seeds)
    results = {side: [] for side in SIDES}
    differing = []
    for rep in range(1, args.reps + 1):
        order = SIDES if rep % 2 else SIDES[::-1]
        for side in order:
            results[side].append(campaign(trees[side], args.seeds))
        if results["parent"][-1][0] != results["change"][-1][0]:
            differing.append(rep)
    print("desk campaign, 21 cells x %d seeds, %d reps, one BLAS thread: "
          "median [quartiles], reps the change won" % (args.seeds, args.reps))
    metrics = [("update_us." + a, lambda r, a=a: r[2][a]) for a in ALGORITHMS]
    metrics.append(("wall_s", lambda r: r[1]))
    for name, read in metrics:
        values = {side: [read(r) for r in results[side]] for side in SIDES}
        won = sum(c < p for p, c in zip(values["parent"], values["change"]))
        shown = []
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            shown.append("%.4g [%.4g-%.4g]" % (median, q1, q3))
        print("%-24s parent %-26s change %-26s %d/%d"
              % (name, shown[0], shown[1], won, args.reps))
    if differing:
        print("campaign CSV differs between the trees in reps %s" % differing)
        return 1
    print("campaign CSV identical between the trees in every rep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
