"""Run alternating parent/change benchmark pairs and write a BENCH_<n>.json record.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR FIRST_SEED OUT_JSON

PARENT_DIR and CHANGE_DIR are two checkouts of the repository, each run
with its own ``perfbench/run.py`` and ``src/``. For each workload of
``BENCHMARK.json`` (read from CHANGE_DIR), ``PAIRS`` = 10 pairs are run, one
process at a time: pair j (from 1) of the i-th workload (from 1) runs
``perfbench/run.py --workload W --seed FIRST_SEED + 100 i + j --seconds
30 --trace 0`` in both checkouts, the parent first in odd pairs and the
change first in even ones, so a drift of machine speed falls on both
sides alike. Then the tier-1 suite runs three times in each checkout,
alternating, timed by wall clock.

OUT_JSON receives, per workload, side and end-to-end metric, the
median, the quartiles (``statistics.quantiles``, inclusive method) and
the per-pair values, with the number of pairs the change won, the
failed-operation counts and each run's ``load_run`` report lines; the
machine fields of the ``environment`` block the harness wrote for the
change's last run; per side, the tier-1 wall times, their median and
the suite's summary line; and, per side, the ``src/`` line count, the
total that ``wc -l src/apadmm/*.py`` prints. The per-layer (``--trace
1``) metrics are not recorded: several of them read 0 until the tracer
is repaired (ROADMAP item 3).
"""

import glob
import json
import os
import statistics
import subprocess
import sys
import time

PAIRS = 10
SECONDS = 30
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def bench(checkout, workload, seed):
    """The last output line of one untraced benchmark run, parsed, with its
    ``load_run`` report lines under ``"load_run"``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return dict(json.loads(lines[-1]),
                load_run=[ln for ln in lines if ln.startswith("load_run ")])


def tier1(checkout):
    """Wall seconds and summary line of one tier-1 run in ``checkout``."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    out = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True,
                         text=True)
    return time.perf_counter() - start, out.stdout.strip().splitlines()[-1]


def src_lines(checkout):
    """Newlines in the package modules of ``checkout``, as ``wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "apadmm", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv):
    if len(argv) != 4:
        sys.exit(__doc__)
    parent, change, first_seed, out_path = argv[0], argv[1], int(argv[2]), argv[3]
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = {}
    for i, entry in enumerate(declared["workloads"], start=1):
        name = entry["name"]
        runs = {"parent": [], "change": []}
        seeds = [first_seed + 100 * i + j for j in range(1, PAIRS + 1)]
        for j, seed in enumerate(seeds, start=1):
            order = ("parent", "change") if j % 2 else ("change", "parent")
            for side in order:
                runs[side].append(bench(parent if side == "parent" else change,
                                        name, seed))
            sys.stderr.write("%s seed %d done\n" % (name, seed))
        record = {"seeds": seeds, "failed": {s: [r["failed"] for r in runs[s]]
                                             for s in runs},
                  "load_run": {s: [r["load_run"] for r in runs[s]] for s in runs},
                  "metrics": {}}
        for metric, direction in better.items():
            sides = {s: [r["metrics"][metric]["value"] for r in runs[s]
                         if metric in r["metrics"]] for s in runs}
            if not sides["parent"]:
                continue
            wins = sum((c < p) if direction == "lower" else (c > p)
                       for p, c in zip(sides["parent"], sides["change"]))
            record["metrics"][metric] = {
                "unit": runs["change"][0]["metrics"][metric]["unit"],
                "better": direction,
                "parent": summary(sides["parent"]),
                "change": summary(sides["change"]),
                "change_wins": "%d/%d" % (wins, len(seeds)),
            }
        workloads[name] = record
    out_file = os.path.join(change, "perfbench", "out",
                            "%s-seed%d-trace0.json" % (name, seeds[-1]))
    with open(out_file, encoding="utf-8") as fh:
        environment = json.load(fh)["environment"]
    for per_run in ("git_sha", "workload", "seed", "seconds", "trace"):
        environment.pop(per_run, None)
    times = {"parent": [], "change": []}
    lines = {}
    for _ in range(3):
        for side, checkout in (("parent", parent), ("change", change)):
            seconds, lines[side] = tier1(checkout)
            times[side].append(seconds)
    result = {
        "command": "perfbench/run.py --seconds %d --trace 0" % SECONDS,
        "pairs": "alternating parent/change runs, one process at a time",
        "workloads": workloads,
        "environment": environment,
        "tier1_wall_s": {side: {"median": statistics.median(times[side]),
                                "runs": times[side], "summary": lines[side]}
                         for side in times},
        "src_lines": {"parent": src_lines(parent), "change": src_lines(change)},
        "per_layer": "not recorded: several per-layer metrics read 0 until "
                     "the tracer is repaired (ROADMAP item 3)",
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
