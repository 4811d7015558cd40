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
alternating, timed by wall clock. Last, ``COLD`` = 10 fresh interpreters
per side, alternating in the same way, time the cold start: the wall
milliseconds and the peak RSS (``ru_maxrss``) of ``import apadmm,
apadmm.cli``, and the wall seconds of ``python -m apadmm --help``.

OUT_JSON receives, per workload, side and end-to-end metric, the
median, the quartiles (``statistics.quantiles``, inclusive method) and
the per-pair values, with the number of pairs the change won, the
failed-operation counts and each run's ``load_run`` report lines; the
machine fields of the ``environment`` block the harness wrote for the
change's last run; per side, the tier-1 wall times, their median and
the suite's summary line; per side, the cold start's three figures
(``cold_start``: median, quartiles and values, and the number of runs
the change won); and, per side, the ``src/`` line count, the total
that ``wc -l src/apadmm/*.py`` prints (``src_lines``), and that count
split into code, docstring, comment and blank lines (``src_line_kinds``,
by ``line_kinds``), so a cut made by deleting docstrings shows as one.
The per-layer (``--trace
1``) metrics are not recorded: several of them read 0 until the tracer
is repaired (ROADMAP item 3).
"""

import glob
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tokenize

PAIRS = 10
SECONDS = 30
COLD = 10
# the import's wall ms and the process's peak RSS in MB, as peak_rss_mb reads it
IMPORT_PROBE = """
import resource, time
start = time.perf_counter()
import apadmm, apadmm.cli
print(1e3 * (time.perf_counter() - start),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""
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


def cold_start(checkout):
    """``import_ms``, ``import_rss_mb`` and ``help_s`` of fresh interpreters
    in ``checkout``: one importing the package, one running ``--help``."""
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=checkout,
                         env=env, capture_output=True, text=True, check=True)
    import_ms, rss_mb = map(float, out.stdout.split())
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "apadmm", "--help"], cwd=checkout,
                   env=env, capture_output=True, check=True)
    return {"import_ms": import_ms, "import_rss_mb": rss_mb,
            "help_s": time.perf_counter() - start}


def modules(checkout):
    """The source text of each package module of ``checkout``."""
    for path in sorted(glob.glob(os.path.join(checkout, "src", "apadmm", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield fh.read()


def src_lines(checkout):
    """Newlines in the package modules of ``checkout``, as ``wc -l`` counts them."""
    return sum(source.count("\n") for source in modules(checkout))


# what a line holds, in order of precedence: a line with any code token is
# code, else a line of a docstring, else a comment; a line of none is blank
KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER)


def line_kinds(source):
    """``KINDS`` counts of the ``source.count("\\n")`` lines of ``source``.

    A docstring is a string token that is a statement of its own: the
    first token of its logical line, and the last but comments. Each line
    a token spans takes the token's kind, so the lines of a multi-line
    string that is part of an expression are code.
    """
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    docstrings = {token.start for before, token, after in zip(
        [None] + significant, significant, significant[1:])
        if token.type == tokenize.STRING and after.type == tokenize.NEWLINE
        and (before is None or before.type in LAYOUT)}
    lines = source.count("\n")
    kind = [KINDS.index("blank")] * (lines + 1)  # by line number, from 1
    for token in tokens:
        if token.type in LAYOUT:
            continue
        which = KINDS.index("comment" if token.type == tokenize.COMMENT else
                            "docstring" if token.start in docstrings else "code")
        for line in range(token.start[0], min(token.end[0], lines) + 1):
            kind[line] = min(kind[line], which)
    counts = dict.fromkeys(KINDS, 0)
    for which in kind[1:]:
        counts[KINDS[which]] += 1
    return counts


def src_line_kinds(checkout):
    """``line_kinds`` summed over the package modules of ``checkout``."""
    counts = dict.fromkeys(KINDS, 0)
    for source in modules(checkout):
        for name, count in line_kinds(source).items():
            counts[name] += count
    return counts


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
    cold = {"parent": [], "change": []}
    for j in range(1, COLD + 1):
        for side in ("parent", "change") if j % 2 else ("change", "parent"):
            cold[side].append(cold_start(parent if side == "parent" else change))
    cold = {side: {name: summary([run[name] for run in runs])
                   for name in runs[0]} for side, runs in cold.items()}
    cold["change_wins"] = {name: "%d/%d" % (sum(
        c < p for p, c in zip(cold["parent"][name]["values"],
                              cold["change"][name]["values"])), COLD)
        for name in cold["parent"]}
    result = {
        "command": "perfbench/run.py --seconds %d --trace 0" % SECONDS,
        "cold_start": cold,
        "pairs": "alternating parent/change runs, one process at a time",
        "workloads": workloads,
        "environment": environment,
        "tier1_wall_s": {side: {"median": statistics.median(times[side]),
                                "runs": times[side], "summary": lines[side]}
                         for side in times},
        "src_lines": {"parent": src_lines(parent), "change": src_lines(change)},
        "src_line_kinds": {"parent": src_line_kinds(parent),
                           "change": src_line_kinds(change)},
        "per_layer": "not recorded: several per-layer metrics read 0 until "
                     "the tracer is repaired (ROADMAP item 3)",
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
