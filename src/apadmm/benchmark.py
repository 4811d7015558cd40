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

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .algorithms import (ALGORITHMS, RunConfig, _check_integer, _delays,
                         _per_worker, run)
from .problems import ConsensusProblem
from .simnet import _is_number

__all__ = [
    "SparsePcaSpec",
    "generate",
    "CampaignCell",
    "run_campaign",
    "campaign_csv",
    "bench_preset",
    "run_preset",
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
        for name, least in (("dim", 1), ("num_components", 1), ("seed", 0)):
            _check_integer(name, getattr(self, name), least)
        if not (_is_number(self.l1_weight)
                and 0 <= self.l1_weight < math.inf):     # NaN fails too
            raise ValueError("l1_weight must be nonnegative and finite, not %r"
                             % (self.l1_weight,))
        K = self.num_components
        for m in _per_worker(self.rows, K, "rows"):
            _check_integer("rows", m, 1)
        for p in _per_worker(self.nonzero_prob, K, "nonzero_prob"):
            if not (_is_number(p) and 0.0 <= p <= 1.0):
                raise ValueError("nonzero_prob must be a number in [0, 1], not %r"
                                 % (p,))


def generate(spec):
    """Build the consensus problem for an instance spec, deterministically per seed.

    Draw order per component is pinned (means, variances, mask, normals)
    so the same seed always produces bit-identical data.
    """
    rng = np.random.default_rng(spec.seed)
    rows = _per_worker(spec.rows, spec.num_components, "rows")
    probs = _per_worker(spec.nonzero_prob, spec.num_components, "nonzero_prob")
    data = []
    for m, p in zip(rows, probs):
        shape = (m, spec.dim)
        means = rng.random(shape)
        variances = rng.random(shape)
        mask = rng.random(shape) < float(p)
        noise = rng.standard_normal(shape)
        data.append(np.where(mask, means + np.sqrt(variances) * noise, 0.0))
    return ConsensusProblem(data, l1_weight=spec.l1_weight, radius=1.0)


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


def _mean_gradient_age(delay_bound):
    # a worker's gradient is on average (T/2 compute) + (half a window of
    # pickup lag) old when used, so campaigns certify penalties at
    # (T+1)/2 per worker; the worst case over-damps and does not
    # reproduce the published counts
    bounds = np.atleast_1d(np.asarray(delay_bound, dtype=float))
    ages = (bounds + 1.0) / 2.0
    return ages.tolist() if ages.size > 1 else float(ages[0])


def _cell_run(cell, seed, max_iters, epsilon):
    """The checked instance spec and run config of one cell at one seed."""
    spec = SparsePcaSpec(
        dim=cell.dim, num_components=cell.num_components,
        rows=cell.rows, nonzero_prob=cell.nonzero_prob,
        l1_weight=cell.l1_weight, seed=seed)
    _delays(cell.delay_bound, cell.num_components, "delay_bound")
    config = RunConfig(
        algorithm=cell.algorithm, delay_bound=cell.delay_bound,
        cert_delay=_mean_gradient_age(cell.delay_bound),
        seed=seed, max_iters=max_iters, epsilon=epsilon,
        init="random_ball", enforcement="observe")
    config.validate()
    return spec, config


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
    cell in campaign-CSV column order. Every cell's instance and config
    are checked before the first run, so a bad cell raises ValueError,
    naming its index, before any cell has run.
    """
    if isinstance(seeds, numbers.Integral):
        _check_integer("seed count", seeds, 1)
        seeds = range(seeds)
    # a string iterates over its characters, but lists no seeds
    listed = (list(seeds) if isinstance(seeds, Iterable)
              and not isinstance(seeds, str) else [])
    if not listed:
        raise ValueError("seeds must be a count of at least 1 or a nonempty "
                         "list of seeds, not %r" % (seeds,))
    for seed in listed:
        _check_integer("seed", seed, 0)
    seeds = listed
    # by RunConfig's own rules, once: a cell never makes them bad
    RunConfig(max_iters=max_iters, epsilon=epsilon).validate()
    for i, cell in enumerate(cells):
        try:
            _cell_run(cell, 0, max_iters, epsilon)
        except (TypeError, ValueError) as exc:
            raise ValueError("campaign cell %d: %s" % (i, exc))
    results = []
    for cell in cells:
        iters, censored = [], 0
        for seed in seeds:
            spec, config = _cell_run(cell, seed, max_iters, epsilon)
            out = run(generate(spec), config, lagrangian=False)
            if out.converged:
                iters.append(out.iterations)
            else:
                censored += 1
            if progress is not None:
                progress(cell, seed, out)
        mean = float(np.mean(iters)) if iters else float("nan")
        std = float(np.std(iters)) if iters else float("nan")
        results.append({
            "algorithm": cell.algorithm,
            "N": cell.dim,
            "K": cell.num_components,
            "T": cell.delay_label,
            "lambda": cell.l1_weight,
            "seed_count": len(seeds),
            "mean_iters": mean,
            "std_iters": std,
            "censored_count": censored,
        })
    return results


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def campaign_csv(rows):
    """Campaign results as CSV text (UTF-8 content, LF newlines)."""
    lines = [",".join(CAMPAIGN_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CAMPAIGN_COLUMNS))
    return "\n".join(lines) + "\n"


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
    if name not in _BENCH_SCALES:
        raise ValueError("unknown bench preset %r; have %s"
                         % (name, list(BENCH_PRESETS)))
    if scale not in ("desk", "paper"):
        raise ValueError("scale must be 'desk' or 'paper'")
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


def run_preset(name):
    if name not in RUN_PRESETS:
        raise ValueError("unknown run preset %r; have %s"
                         % (name, sorted(RUN_PRESETS)))
    preset = RUN_PRESETS[name]
    return dict(preset["instance"]), dict(preset["config"])
