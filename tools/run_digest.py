"""Print one digest line per run of a fixed grid, to compare two versions.

Runs three algorithms x three delay bounds x two start points on the
desk instance, plus a lossy, a dead-uplink, an empirical-delay
reordering (empirical compute and downlink delays, and a lossy uplink
that allows reordering) and a delayed-link run, one
``sync_admm`` run on a square instance (N = M = 20, as in the desk
table3 sweep), and one run per algorithm on each of: components of
unequal row counts (the rows of the problem's sparse operator then
belong to components of different sizes), the desk instance with l1
weight 0.05 (the shrinking prox), and the paper shape N = 500, K = 10,
M = 100, capped at 60 clock ticks; then two runs on the paper shape
with K = 7: an ``async_padmm`` run that converges and a ``sync_admm``
run capped at 60 clock ticks; and a ``sync_admm`` run at N = 500 on
components of unequal row counts (100, 60, 100, 140 and 60), capped at
20 clock ticks, whose exact updates invert one paper-size block of each
row count; all with ``full_trace``. Each
line holds the run's label, termination, iterations, updates and a
SHA-256 over rho, every trace column and every snapshot: its iteration,
``x``, ``x_local``, ``y`` and ``stale_index`` (the dual ``y`` is also
the record of the gradients the master collected). Lines of
``async_padmm`` and ``sync_padmm`` runs add a second SHA-256 over the
residual replay of the run (``trace_residuals`` at its penalties and
delay bounds): each outcome's name, status, worst-slack bits and failing
rows. Three more lines follow the grid: a SHA-256 of ``campaign_csv``
for the desk ``table2`` and ``table4`` presets at 3 seeds, and one for
the desk run preset with ``full_trace``, as ``apadmm run --preset desk
--full-trace`` stores it (``cli.trace_csv`` and ``save_states``),
reloaded with ``load_run`` and replayed: it covers the trace text, every
stored array by name and the replay's report lines. Equal outputs mean
two versions produced the same bits, and the same verdicts, on every
run of the grid and on both campaigns and the stored run:

    python3 tools/run_digest.py [SRC_DIR] > digest.txt

SRC_DIR is the directory holding the ``apadmm`` package (default: this
repository's ``src``). Uses the public API only. ``runs()`` yields each
run of the grid, for ``tools/digest_deltas.py`` to reuse. The script sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to
1 before numpy is imported, whatever the caller exported: a threaded BLAS
splits the paper-scale products differently at two threads than at one,
so those lines would hash differently with no change to the code.
"""

import hashlib
import os
import sys
import tempfile

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else SRC)

from apadmm import (RunConfig, SparsePcaSpec, campaign_csv,  # noqa: E402
                    generate, run, run_campaign, trace_residuals)
from apadmm.benchmark import RUN_PRESETS, bench_preset  # noqa: E402
from apadmm.cli import load_run, save_states, trace_csv  # noqa: E402

COLUMNS = ("lagrangian", "objective", "feas_gap", "prox_grad_norm", "measure",
           "sim_time", "collected")
SNAPSHOT = ("x", "x_local", "y", "stale_index")
DEAD = {"uplink": [{"loss": 1.0}, 0.0, 0.0, 0.0, 0.0],
        "compute_delay": 0.0, "enforcement": "enforce"}


def grid():
    for algorithm in ("async_padmm", "sync_padmm", "sync_admm"):
        for T in (0, 3, [0, 0, 0, 0, 5]):
            for init in ("zero", "random_ball"):
                yield ("%s T=%s init=%s" % (algorithm, T, init),
                       dict(algorithm=algorithm, delay_bound=T, init=init))
    yield "async_padmm lossy", dict(delay_bound=3, downlink={
        "delay": {"kind": "uniform", "hi": 1.0}, "loss": 0.2}, uplink={"loss": 0.1})
    yield "async_padmm dead uplink", dict(delay_bound=2, **DEAD)
    yield "async_padmm empirical reordering", dict(
        delay_bound=3, compute_delay={"kind": "empirical", "values": [0.5, 2.0, 1.0]},
        downlink={"delay": {"kind": "empirical", "values": [0.0, 1.5, 0.25]}},
        uplink={"delay": {"kind": "uniform", "hi": 2.0}, "loss": 0.1,
                "allow_reordering": True})
    yield "sync_padmm delayed links", dict(
        algorithm="sync_padmm", delay_bound=3,
        downlink={"delay": {"kind": "uniform", "hi": 1.5}}, uplink=0.5)
    yield "sync_admm square N=M=20", dict(
        algorithm="sync_admm", delay_bound=5, instance=dict(dim=20, l1_weight=0.0))
    for algorithm in ("async_padmm", "sync_padmm", "sync_admm"):
        yield "%s ragged rows" % algorithm, dict(
            algorithm=algorithm, delay_bound=3,
            instance=dict(rows=[20, 35, 10, 20, 50]))
    for algorithm in ("async_padmm", "sync_padmm", "sync_admm"):
        yield "%s l1=0.05" % algorithm, dict(
            algorithm=algorithm, delay_bound=3, instance=dict(l1_weight=0.05))
    for algorithm in ("async_padmm", "sync_padmm", "sync_admm"):
        yield "%s paper N=500 K=10 M=100" % algorithm, dict(
            algorithm=algorithm, delay_bound=3, max_iters=60,
            instance=dict(dim=500, num_components=10, rows=100))
    yield "async_padmm paper N=500 K=7 M=100", dict(
        delay_bound=3, instance=dict(dim=500, num_components=7, rows=100))
    yield "sync_admm paper N=500 K=7 M=100", dict(
        algorithm="sync_admm", delay_bound=3, max_iters=60,
        instance=dict(dim=500, num_components=7, rows=100))
    yield "sync_admm paper ragged rows N=500", dict(
        algorithm="sync_admm", delay_bound=3, max_iters=20,
        instance=dict(dim=500, num_components=5, rows=[100, 60, 100, 140, 60]))


def digest(result):
    h = hashlib.sha256(np.asarray(result.rho, dtype=float).tobytes())
    for name in COLUMNS:
        h.update(np.asarray(getattr(result.trace, name), dtype=float).tobytes())
    for state in result.trace.states:
        h.update(np.int64(state.iteration).tobytes())
        for name in SNAPSHOT:
            h.update(np.ascontiguousarray(getattr(state, name)).tobytes())
    return h.hexdigest()


def replay_digest(problem, result):
    h = hashlib.sha256()
    report = trace_residuals(problem, result.trace, result.rho,
                             result.delay_bounds)
    for outcome in report.outcomes:
        h.update(("%s %s %d\n" % (outcome.name, outcome.status,
                                  len(outcome.failing))).encode())
        if outcome.worst_slack is not None:
            h.update(np.float64(outcome.worst_slack).tobytes())
        h.update(np.asarray(outcome.failing, dtype=np.int64).tobytes())
    return h.hexdigest()


def runs():
    """Yield ``(label, problem, config, result)`` for each run of the grid."""
    for label, cfg in grid():
        instance = dict(dict(dim=50, num_components=5, rows=20, seed=1),
                        **cfg.pop("instance", {}))
        problem = generate(SparsePcaSpec(**instance))
        cfg = dict(dict(seed=7, max_iters=1500, enforcement="observe",
                        full_trace=True), **cfg)
        config = RunConfig(**cfg)
        yield label, problem, config, run(problem, config)


def campaign_digest(name):
    cells, _ = bench_preset(name)
    return hashlib.sha256(campaign_csv(run_campaign(cells, 3)).encode()).hexdigest()


def stored_run_digest():
    """The desk run preset stored, reloaded and replayed as run and check do."""
    preset = RUN_PRESETS["desk"]
    problem = generate(SparsePcaSpec(**preset["instance"]))
    config = RunConfig(full_trace=True, **preset["config"])
    result = run(problem, config)
    text = trace_csv(result.trace)
    h = hashlib.sha256(text.encode())
    with tempfile.TemporaryDirectory() as tmp:
        path, states = (os.path.join(tmp, name)
                        for name in ("trace.csv", "trace.states.npz"))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        save_states(states, problem, result, config.algorithm)
        with np.load(states) as data:
            for name in sorted(data.files):
                h.update(name.encode())
                h.update(np.ascontiguousarray(data[name]).tobytes())
        report = trace_residuals(*load_run(path)[:4])
    h.update("\n".join(report.lines()).encode())
    return result, h.hexdigest()


def main():
    for label, problem, config, result in runs():
        line = "%-46s %-19s %4d %4d %s" % (label, result.termination,
                                           result.iterations, result.updates,
                                           digest(result))
        if config.algorithm != "sync_admm":
            line += " " + replay_digest(problem, result)
        print(line)
    for name in ("table2", "table4"):
        print("%-70s %s" % ("bench --preset %s --seeds 3" % name,
                            campaign_digest(name)))
    result, stored = stored_run_digest()
    print("%-46s %-19s %4d %4d %s" % ("run --preset desk --full-trace, check",
                                      result.termination, result.iterations,
                                      result.updates, stored))


if __name__ == "__main__":
    main()
