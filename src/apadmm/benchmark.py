"""Sparse-PCA instance generation and benchmark campaigns.

Instances follow a spiked Gaussian-mixture model: entry (i, j) of the
k-th data matrix is, independently, 0 with probability ``1 - p_k`` and
``Normal(a, c)`` otherwise, where the mean ``a`` and variance ``c`` are
themselves Uniform(0, 1) draws per entry. The consensus problem minimizes

    -0.5 * sum_k ||B_k x||^2 + l1_weight * ||x||_1   over  ||x||_2 <= 1,

so every component is a concave quadratic whose gradient Lipschitz
constant is the top eigenvalue of its Gram matrix.

Campaigns sweep a table of cells (algorithm x problem size x delay), one
fresh instance and run per seed, and report mean iterations to the
stopping threshold. Runs that hit the iteration cap are counted as
censored and excluded from the mean, never silently averaged.
"""

import numbers
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ._rules import choice, integer, nonnegative, probability
from .algorithms import ALGORITHMS, RunConfig, _delays, _per_worker, run
from .problems import ConsensusProblem
from .stepsize import minimal_rho

__all__ = [
    "SparsePcaSpec",
    "generate",
    "CampaignCell",
    "run_campaign",
    "campaign_csv",
    "bench_preset",
    "BENCH_PRESETS",
    "RUN_PRESETS",
]

CAMPAIGN_COLUMNS = ("algorithm", "N", "K", "T", "lambda", "seed_count",
                    "mean_iters", "std_iters", "censored_count")


@dataclass
class SparsePcaSpec:
    """Instance description; ``rows`` and ``nonzero_prob`` may be per-component lists."""

    dim: int
    num_components: int
    rows: object = 20
    nonzero_prob: object = 0.1
    l1_weight: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, least, most in (("dim", 1, None),
                                  # a per-component list must fit an index
                                  ("num_components", 1, sys.maxsize),
                                  ("seed", 0, None)):
            integer(getattr(self, name), name, least, most)
        nonnegative(self.l1_weight, "l1_weight")
        K = self.num_components
        for m in _per_worker(self.rows, K, "rows"):
            integer(m, "rows", 1)
        for p in _per_worker(self.nonzero_prob, K, "nonzero_prob"):
            probability(p, "nonzero_prob")


def _component(rng, shape, p):
    # one component's data, its draws in the pinned order: means,
    # variances, mask, normals
    means = rng.random(shape)
    variances = rng.random(shape)
    mask = rng.random(shape) < float(p)
    noise = rng.standard_normal(shape)
    return np.where(mask, means + np.sqrt(variances) * noise, 0.0)


def generate(spec):
    """Build the consensus problem for an instance spec, deterministically per seed.

    Draw order per component is pinned (means, variances, mask, normals)
    so the same seed always produces bit-identical data. Component k is
    drawn only when the problem asks for it, after component k - 1, so
    one dense matrix exists at a time.
    """
    rng = np.random.default_rng(spec.seed)
    rows = _per_worker(spec.rows, spec.num_components, "rows")
    probs = _per_worker(spec.nonzero_prob, spec.num_components, "nonzero_prob")
    return ConsensusProblem(
        (_component(rng, (m, spec.dim), p) for m, p in zip(rows, probs)),
        l1_weight=spec.l1_weight, radius=1.0)


@dataclass
class CampaignCell:
    """One table cell: an algorithm on one instance family."""

    algorithm: str
    dim: int
    num_components: int
    delay_bound: object
    l1_weight: float = 0.0
    rows: int = 20
    nonzero_prob: float = 0.1

    @property
    def delay_label(self):
        return float(np.max(self.delay_bound))


def _cell_runs(cell, seeds, max_iters, epsilon):
    """The checked ``(seed, spec, config)`` of one cell at each seed."""
    specs = [SparsePcaSpec(
        dim=cell.dim, num_components=cell.num_components, rows=cell.rows,
        nonzero_prob=cell.nonzero_prob, l1_weight=cell.l1_weight, seed=seed)
        for seed in seeds]
    bounds = _delays(cell.delay_bound, cell.num_components, "delay_bound")
    # a worker's gradient is on average (T/2 compute) + (half a window of
    # pickup lag) old when used, so campaigns certify penalties at
    # (T+1)/2 per worker; the worst case over-damps and does not
    # reproduce the published counts
    ages = (bounds + 1.0) / 2.0
    if cell.algorithm == "async_padmm":
        # the margin cubic is free of L; synchronous runs certify at 0
        for age in sorted(set(ages.tolist())):
            minimal_rho(1.0, age, "concave")
    plan = []
    for spec in specs:
        config = RunConfig(
            algorithm=cell.algorithm, delay_bound=bounds, cert_delay=ages,
            seed=spec.seed, max_iters=max_iters, epsilon=epsilon,
            init="random_ball", enforcement="observe")
        config.validate()
        plan.append((spec.seed, spec, config))
    return plan


def run_campaign(cells, seeds=20, max_iters=RunConfig.max_iters,
                 epsilon=RunConfig.epsilon, progress=None):
    """Run every cell over the given seeds and aggregate iterations-to-threshold.

    ``seeds`` is a count of at least 1 (seeds 0..n-1) or a nonempty
    iterable, not a string, of integers of at least 0, and ``max_iters``
    and ``epsilon`` are as in ``RunConfig``; a bad one raises ValueError,
    naming the bad value, before any run. Async runs observe rather than
    enforce the staleness bound, matching the delay model the sweep itself
    injects, and certify penalties at the model's mean gradient age; each
    seed regenerates both the instance and the delays. No column reads
    the augmented Lagrangian, so no run records it. Returns one dict per
    cell in campaign-CSV column order. Every run of every cell is planned
    before the first run, so a bad cell, or one whose delays admit no
    certified penalty, raises ValueError naming its index before any
    cell has run; a run that still raises names its cell and seed.
    """
    if isinstance(seeds, numbers.Integral):
        integer(seeds, "seed count", 1)
        seeds = range(seeds)
    # a string iterates over its characters, but lists no seeds
    listed = (list(seeds) if isinstance(seeds, Iterable)
              and not isinstance(seeds, str) else [])
    if not listed:
        raise ValueError("seeds must be a count of at least 1 or a nonempty "
                         "list of seeds, not %r" % (seeds,))
    for seed in listed:
        integer(seed, "seed", 0)
    # by RunConfig's own rules, once: a cell never makes them bad
    RunConfig(max_iters=max_iters, epsilon=epsilon).validate()
    plans = []
    for i, cell in enumerate(cells):
        try:
            plans.append(_cell_runs(cell, listed, max_iters, epsilon))
        except ValueError as exc:
            raise ValueError("campaign cell %d: %s" % (i, exc))
    results = []
    for i, (cell, plan) in enumerate(zip(cells, plans)):
        iters, censored = [], 0
        for seed, spec, config in plan:
            try:
                out = run(generate(spec), config, lagrangian=False)
            except ValueError as exc:
                raise ValueError("campaign cell %d, seed %d: %s" % (i, seed, exc))
            if out.converged:
                iters.append(out.iterations)
            else:
                censored += 1
            if progress is not None:
                progress(cell, seed, out)
        mean = float(np.mean(iters)) if iters else float("nan")
        std = float(np.std(iters)) if iters else float("nan")
        results.append(dict(zip(CAMPAIGN_COLUMNS, (
            cell.algorithm, cell.dim, cell.num_components, cell.delay_label,
            cell.l1_weight, len(listed), mean, std, censored))))
    return results


def _csv(header, rows):
    # the one CSV policy: a float (numpy's float64 too) as repr(float(v)),
    # so identical runs give identical bytes, anything else as str(v)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def campaign_csv(rows):
    """Campaign results as CSV text (UTF-8 content, LF newlines)."""
    return _csv(CAMPAIGN_COLUMNS, ([row[c] for c in CAMPAIGN_COLUMNS]
                                   for row in rows))


# -- presets -----------------------------------------------------------------

# desk scale: quick sanity sweeps; paper scale: the full table configurations
_BENCH_SCALES = {
    "table1": {
        "desk": dict(dim=50, rows=20, sweep="num_components",
                     values=[5, 10, 15], delay_bound=5, l1_weight=0.0),
        "paper": dict(dim=500, rows=100, sweep="num_components",
                      values=[10, 20, 30, 40, 50], delay_bound=5,
                      l1_weight=0.0),
    },
    "table2": {
        "desk": dict(dim=50, rows=20, num_components=5, sweep="delay_bound",
                     values=[0, 2, 5, [0, 0, 0, 0, 5]], l1_weight=0.0),
        "paper": dict(dim=500, rows=100, num_components=10,
                      sweep="delay_bound",
                      values=[0, 3, 6, 9,
                              [0] * 9 + [5], [0] * 9 + [10]],
                      l1_weight=0.0),
    },
    "table3": {
        "desk": dict(num_components=5, rows=20, sweep="dim",
                     values=[20, 50, 80], delay_bound=5, l1_weight=0.0),
        "paper": dict(num_components=10, rows=100, sweep="dim",
                      values=[200, 400, 600, 800, 1000], delay_bound=5,
                      l1_weight=0.0),
    },
    "table4": {
        "desk": dict(dim=50, num_components=5, rows=20, sweep="l1_weight",
                     values=[1.0, 2.0, 4.0], delay_bound=5),
        "paper": dict(dim=500, num_components=10, rows=100,
                      sweep="l1_weight",
                      values=[20.0, 40.0, 60.0, 80.0, 100.0],
                      delay_bound=5),
    },
}

BENCH_PRESETS = tuple(sorted(_BENCH_SCALES))


def bench_preset(name, scale="desk"):
    """Cells and default seed count for a named sweep at desk or paper scale."""
    choice(name, "bench preset", BENCH_PRESETS)
    choice(scale, "scale", ("desk", "paper"))
    params = dict(_BENCH_SCALES[name][scale])
    sweep = params.pop("sweep")
    values = params.pop("values")
    cells = []
    for value in values:
        for alg in ALGORITHMS:
            kwargs = dict(params)
            kwargs[sweep] = value
            cells.append(CampaignCell(algorithm=alg, **kwargs))
    return cells, (20 if scale == "desk" else 50)


# run presets: single-instance configurations for the run subcommand
RUN_PRESETS = {
    "desk": {
        "instance": dict(dim=50, num_components=5, rows=20,
                         nonzero_prob=0.1, l1_weight=0.0, seed=1),
        "config": dict(delay_bound=3, init="random_ball",
                       compute_delay={"kind": "uniform", "lo": 0.0, "hi": 2.0}),
    },
    "table2_sync": {
        "instance": dict(dim=500, num_components=10, rows=100,
                         nonzero_prob=0.1, l1_weight=0.0, seed=1),
        "config": dict(delay_bound=0, init="random_ball"),
    },
}

