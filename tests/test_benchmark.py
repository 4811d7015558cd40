"""Benchmark tests: instance generator draw order, campaigns, presets."""

import math
import re
import sys

import numpy as np
import pytest

from apadmm import (CampaignCell, RunConfig, SparsePcaSpec, campaign_csv, generate,
                    run_campaign)
from apadmm import problems
from apadmm.algorithms import ALGORITHMS
from apadmm.benchmark import RUN_PRESETS, bench_preset
from reference import dense, one_block_bound, traced_peak


def reference_data(spec):
    """Reimplementation of the documented draw order, one rng for all blocks."""
    rng = np.random.default_rng(spec.seed)
    rows = spec.rows if isinstance(spec.rows, (list, tuple)) else [spec.rows] * spec.num_components
    probs = (spec.nonzero_prob if isinstance(spec.nonzero_prob, (list, tuple))
             else [spec.nonzero_prob] * spec.num_components)
    blocks = []
    for k in range(spec.num_components):
        shape = (rows[k], spec.dim)
        means = rng.random(shape)
        variances = rng.random(shape)
        mask = rng.random(shape) < probs[k]
        noise = rng.standard_normal(shape)
        blocks.append(np.where(mask, means + np.sqrt(variances) * noise, 0.0))
    return blocks


def test_generate_matches_documented_draw_order():
    spec = SparsePcaSpec(dim=30, num_components=4, rows=12, nonzero_prob=0.15,
                         l1_weight=0.7, seed=21)
    problem = generate(spec)
    for B, ref in zip(dense(problem), reference_data(spec), strict=True):
        np.testing.assert_array_equal(B, ref)
    assert problem.l1_weight == 0.7
    assert problem.radius == 1.0


def test_generate_is_deterministic_and_seed_sensitive():
    spec = SparsePcaSpec(dim=20, num_components=3, rows=8, seed=5)
    a, b = generate(spec), generate(spec)
    for Ba, Bb in zip(dense(a), dense(b), strict=True):
        np.testing.assert_array_equal(Ba, Bb)
    np.testing.assert_array_equal(a.lipschitz, b.lipschitz)
    other = generate(SparsePcaSpec(dim=20, num_components=3, rows=8, seed=6))
    assert not np.array_equal(dense(a)[0], dense(other)[0])


def test_generate_nonzero_fraction_tracks_probability():
    spec = SparsePcaSpec(dim=100, num_components=1, rows=100, nonzero_prob=0.1,
                         seed=2)
    B = dense(generate(spec))[0]
    frac = float(np.count_nonzero(B)) / B.size
    # binomial with n = 1e4: three sigmas is about 0.009
    assert abs(frac - 0.1) < 0.01


def test_generate_per_component_rows_and_probs():
    spec = SparsePcaSpec(dim=10, num_components=2, rows=[3, 7],
                         nonzero_prob=[0.0, 1.0], seed=1)
    problem = generate(spec)
    blocks = dense(problem)
    assert blocks[0].shape == (3, 10)
    assert blocks[1].shape == (7, 10)
    assert np.count_nonzero(blocks[0]) == 0
    assert np.count_nonzero(blocks[1]) == 70
    assert problem.lipschitz[0] == np.finfo(float).eps


def test_generate_holds_one_dense_component_at_a_time():
    """Drawing N = 500, M = 100, K = 20 peaks at a few times the operator
    it keeps and a few blocks, not at the 8 MB of all K dense matrices."""
    spec = SparsePcaSpec(dim=500, num_components=20, rows=100, seed=2)
    problem, peak = traced_peak(lambda: generate(spec))
    D, segments = problem.operator
    kept = sum(a.nbytes for a in (*D[2:], *segments[2:4], problem.lipschitz))
    assert peak <= one_block_bound(problem, kept) < 20 * 100 * 500 * 8


def test_spec_validation():
    with pytest.raises(ValueError):
        SparsePcaSpec(dim=0, num_components=1)
    with pytest.raises(ValueError):
        SparsePcaSpec(dim=5, num_components=1, nonzero_prob=1.5)
    with pytest.raises(ValueError):
        SparsePcaSpec(dim=5, num_components=1, l1_weight=-1.0)
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError,
                           match="l1_weight must be a finite nonnegative number, not " + bad):
            SparsePcaSpec(dim=5, num_components=1, l1_weight=float(bad))
    # per-component list lengths are checked before the data is drawn
    with pytest.raises(ValueError, match="rows needs 1 or 2 entries, got 3"):
        SparsePcaSpec(dim=5, num_components=2, rows=[3, 3, 3])
    with pytest.raises(ValueError, match="nonzero_prob needs 1 or 3 entries, got 2"):
        SparsePcaSpec(dim=5, num_components=3, nonzero_prob=[0.1, 0.2])
    for bad in (dict(dim=5.0), dict(num_components=2.5), dict(dim=True),
                dict(seed=-1), dict(seed="a"), dict(seed=1.0),
                dict(rows=[2.5, 3.9]), dict(rows=2.5), dict(rows=[3, True]),
                dict(rows=0)):
        with pytest.raises(ValueError, match="must be an integer of at least"):
            SparsePcaSpec(**dict(dict(dim=5, num_components=2), **bad))
    # a string or a bool is no number, alone or in a list
    for bad in ("0.5", True, [True, "1"]):
        with pytest.raises(ValueError, match=r"nonzero_prob must be a number in "
                                             r"\[0, 1\], not (True|'0.5')$"):
            SparsePcaSpec(dim=5, num_components=2, nonzero_prob=bad)
    for bad in ("0.5", True):
        with pytest.raises(ValueError, match="l1_weight must be a finite nonnegative "
                                             "number, not %r$" % bad):
            SparsePcaSpec(dim=5, num_components=2, l1_weight=bad)
    # numpy integers are integers
    spec = SparsePcaSpec(dim=np.int64(5), num_components=np.int32(2), rows=[3, 4],
                         seed=np.uint8(7))
    assert [B.shape for B in dense(generate(spec))] == [(3, 5), (4, 5)]
    spec = SparsePcaSpec(dim=5, num_components=2, rows=np.array([3, 4], dtype=np.int16))
    assert [B.shape for B in dense(generate(spec))] == [(3, 5), (4, 5)]
    # a 0-d array is one value
    spec = SparsePcaSpec(dim=5, num_components=2, rows=np.array(3),
                         nonzero_prob=np.array(0.5))
    assert [B.shape for B in dense(generate(spec))] == [(3, 5), (3, 5)]


def test_spec_rejects_a_component_count_past_an_index_by_name():
    # a per-component list of that many entries cannot be built
    for count in (10 ** 30, sys.maxsize + 1):
        with pytest.raises(ValueError) as raised:
            SparsePcaSpec(dim=5, num_components=count)
        assert str(raised.value) == (
            "num_components must be an integer of at most %d, not %d"
            % (sys.maxsize, count))


def test_mean_gradient_age_rule():
    # uniform(0, T) compute draws give mean gradient age near (T+1)/2, and
    # a campaign certifies each worker's penalty there
    for delay_bound, ages in ((5, [3.0, 3.0]), (0, [0.5, 0.5]),
                              ([0, 5], [0.5, 3.0])):
        cell = CampaignCell(algorithm="async_padmm", dim=8, num_components=2,
                            delay_bound=delay_bound, rows=4, nonzero_prob=0.3)
        seen = []
        run_campaign([cell], seeds=1, max_iters=20,
                     progress=lambda cell, seed, out: seen.append(
                         [c.delay_bound for c in out.certificates]))
        assert seen == [ages]


def test_run_campaign_row_shape_and_order():
    cells = [
        CampaignCell(algorithm="async_padmm", dim=10, num_components=2,
                     delay_bound=2, rows=5, nonzero_prob=0.3),
        CampaignCell(algorithm="sync_padmm", dim=10, num_components=2,
                     delay_bound=2, rows=5, nonzero_prob=0.3),
    ]
    rows = run_campaign(cells, seeds=3, max_iters=4000)
    assert [r["algorithm"] for r in rows] == ["async_padmm", "sync_padmm"]
    for row in rows:
        assert list(row) == ["algorithm", "N", "K", "T", "lambda",
                             "seed_count", "mean_iters", "std_iters",
                             "censored_count"]
        assert row["N"] == 10 and row["K"] == 2 and row["T"] == 2.0
        assert row["seed_count"] == 3
        assert row["censored_count"] == 0
        assert math.isfinite(row["mean_iters"])


def test_run_campaign_censors_capped_runs():
    cells = [CampaignCell(algorithm="sync_admm", dim=10, num_components=2,
                          delay_bound=0, rows=5, nonzero_prob=0.3)]
    rows = run_campaign(cells, seeds=2, max_iters=3)
    assert rows[0]["censored_count"] == 2
    assert math.isnan(rows[0]["mean_iters"])
    assert math.isnan(rows[0]["std_iters"])


def test_run_campaign_is_deterministic():
    cells = [CampaignCell(algorithm="async_padmm", dim=10, num_components=2,
                          delay_bound=1, rows=5, nonzero_prob=0.3)]
    a = run_campaign(cells, seeds=2, max_iters=3000)
    b = run_campaign(cells, seeds=2, max_iters=3000)
    assert a == b


def test_run_campaign_progress_callback():
    cells = [CampaignCell(algorithm="async_padmm", dim=8, num_components=2,
                          delay_bound=1, rows=4, nonzero_prob=0.3)]
    seen = []
    run_campaign(cells, seeds=2, max_iters=2000,
                 progress=lambda cell, seed, out: seen.append((seed, out.termination)))
    assert [s for s, _ in seen] == [0, 1]


def test_run_campaign_checks_every_cell_before_the_first_run():
    good = CampaignCell(algorithm="async_padmm", dim=8, num_components=2,
                        delay_bound=1, rows=4, nonzero_prob=0.3)
    bad = CampaignCell(algorithm="sync_padmm", dim=8, num_components=2,
                       delay_bound=1, rows=[4, 4, 4], nonzero_prob=0.3)
    seen = []
    with pytest.raises(ValueError, match="campaign cell 1: rows needs 1 or 2 entries, got 3"):
        run_campaign([good, bad], seeds=2, max_iters=2000,
                     progress=lambda cell, seed, out: seen.append(seed))
    assert seen == []


def test_run_campaign_fails_an_uncertifiable_cell_before_the_first_run():
    # the margin cubic overflows at this age whatever the data, so the plan
    # rejects the cell before cell 0 runs
    good = CampaignCell(algorithm="sync_padmm", dim=8, num_components=2,
                        delay_bound=0, rows=4)
    bad = CampaignCell(algorithm="async_padmm", dim=8, num_components=2,
                       delay_bound=1e200, rows=4)
    seen = []
    with pytest.raises(ValueError, match=re.escape(
            "campaign cell 1: margin out of floating-point range at "
            "delay_bound=5e+199")):
        run_campaign([good, bad], seeds=2,
                     progress=lambda cell, seed, out: seen.append(seed))
    assert seen == []
    # a synchronous run certifies at 0, whatever its delay bound, so it runs
    bad.algorithm = "sync_padmm"
    (row,) = run_campaign([bad], seeds=1, max_iters=5)
    assert row["censored_count"] == 1


def test_run_campaign_names_the_cell_and_seed_of_a_run_that_raises():
    # age 1e153 is certified at L = 1 but out of range at L > 180, which
    # this dense instance exceeds, so the run itself raises
    cell = CampaignCell(algorithm="async_padmm", dim=50, num_components=2,
                        delay_bound=2e153, rows=20, nonzero_prob=1.0)
    with pytest.raises(ValueError, match=re.escape(
            "campaign cell 0, seed 3: margin out of floating-point range at "
            "lipschitz=")):
        run_campaign([cell], seeds=[3])


@pytest.mark.parametrize("seeds,needle", [
    ([0, -1], "seed must be an integer of at least 0, not -1"),
    ([0, True], "seed must be an integer of at least 0, not True"),
    ([0, 1.5], "seed must be an integer of at least 0, not 1.5"),
    (0, "seed count must be an integer of at least 1, not 0"),
    (True, "seed count must be an integer of at least 1, not True"),
    ([], "seeds must be a count of at least 1 or a nonempty list of seeds, not []"),
    (2.0, "seeds must be a count of at least 1 or a nonempty list of seeds, not 2.0"),
    # a string is iterable, but its characters are no seeds
    ("7", "seeds must be a count of at least 1 or a nonempty list of seeds, not '7'"),
], ids=["negative", "bool", "fractional", "zero_count", "bool_count", "empty",
        "float_count", "string"])
def test_run_campaign_checks_the_seeds_before_the_first_run(seeds, needle):
    cell = CampaignCell(algorithm="async_padmm", dim=8, num_components=2,
                        delay_bound=1, rows=4, nonzero_prob=0.3)
    seen = []
    with pytest.raises(ValueError, match=re.escape(needle)):
        run_campaign([cell], seeds=seeds, max_iters=2000,
                     progress=lambda cell, seed, out: seen.append(seed))
    assert seen == []


@pytest.mark.parametrize("max_iters,epsilon,needle", [
    (0, 1e-3, "max_iters must be an integer of at least 1, not 0"),
    (2.5, 1e-3, "max_iters must be an integer of at least 1, not 2.5"),
    (2000, -1.0, "epsilon must be a finite positive number, not -1.0"),
    (2000, math.nan, "epsilon must be a finite positive number, not nan"),
], ids=["zero_max_iters", "fractional_max_iters", "negative_epsilon", "nan_epsilon"])
def test_run_campaign_checks_its_run_arguments_before_the_first_run(
        max_iters, epsilon, needle):
    # the cell is fine, so the error names no cell
    cell = CampaignCell(algorithm="async_padmm", dim=8, num_components=2,
                        delay_bound=1, rows=4, nonzero_prob=0.3)
    seen = []
    with pytest.raises(ValueError, match="^" + re.escape(needle) + "$"):
        run_campaign([cell], seeds=2, max_iters=max_iters, epsilon=epsilon,
                     progress=lambda cell, seed, out: seen.append(seed))
    assert seen == []


def test_run_campaign_takes_no_values_pass(monkeypatch):
    """Campaign rows read only terminations and clocks, so no run computes
    the row's augmented Lagrangian, the one values-only pass."""
    calls = []
    block_pass = problems._block_pass

    def counted(operator, X, gradients=True):
        calls.append(gradients)
        return block_pass(operator, X, gradients)

    monkeypatch.setattr(problems, "_block_pass", counted)
    cells = [CampaignCell(algorithm=a, dim=8, num_components=2, delay_bound=1,
                          rows=4, nonzero_prob=0.3) for a in ALGORITHMS]
    runs = []
    run_campaign(cells, seeds=2, max_iters=200,
                 progress=lambda cell, seed, out: runs.append(out))
    assert len(runs) == 6 and all(out.trace.lagrangian is None for out in runs)
    assert len(calls) == sum(out.updates + 1 for out in runs)
    assert all(calls)


def test_run_campaign_accepts_numpy_integer_seeds():
    cell = CampaignCell(algorithm="sync_padmm", dim=8, num_components=2,
                        delay_bound=0, rows=4, nonzero_prob=0.3)
    by_list = run_campaign([cell], seeds=[0, 1], max_iters=2000)
    assert run_campaign([cell], seeds=np.int64(2), max_iters=2000) == by_list
    assert run_campaign([cell], seeds=np.arange(2), max_iters=2000) == by_list


def test_campaign_csv_format():
    cells = [CampaignCell(algorithm="async_padmm", dim=8, num_components=2,
                          delay_bound=[0, 3], rows=4, nonzero_prob=0.3)]
    rows = run_campaign(cells, seeds=2, max_iters=2000)
    text = campaign_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "algorithm,N,K,T,lambda,seed_count,mean_iters,std_iters,censored_count"
    fields = lines[1].split(",")
    assert fields[0] == "async_padmm"
    # T column reports the worst per-worker bound
    assert float(fields[3]) == 3.0
    assert float(fields[6]) == pytest.approx(rows[0]["mean_iters"])


def test_campaign_csv_writes_numpy_numbers_as_python_ones():
    # a float64 is a float, written as repr(float(v)), never as np.float64(...)
    row = {"algorithm": "sync_padmm", "N": np.int64(8), "K": 2,
           "T": np.float64(3.0), "lambda": np.float64(1.5), "seed_count": 2,
           "mean_iters": np.float64(12.5), "std_iters": float("nan"),
           "censored_count": 0}
    assert campaign_csv([row]).split("\n")[1:] == [
        "sync_padmm,8,2,3.0,1.5,2,12.5,nan,0", ""]


def test_bench_presets_cover_all_algorithms():
    for name, expect_cells in (("table1", 9), ("table2", 12), ("table3", 9),
                               ("table4", 9)):
        cells, seeds = bench_preset(name, "desk")
        assert len(cells) == expect_cells
        assert seeds == 20
        algos = {c.algorithm for c in cells}
        assert algos == {"async_padmm", "sync_padmm", "sync_admm"}
    cells, seeds = bench_preset("table1", "paper")
    assert seeds == 50
    assert all(c.dim == 500 for c in cells)
    with pytest.raises(ValueError):
        bench_preset("table9", "desk")
    with pytest.raises(ValueError):
        bench_preset("table1", "poster")


def test_table2_desk_includes_single_slow_worker_cell():
    cells, _ = bench_preset("table2", "desk")
    bounds = {tuple(np.atleast_1d(c.delay_bound).tolist())
              for c in cells if c.algorithm == "async_padmm"}
    assert any(len(b) > 1 and max(b) > 0 and min(b) == 0 for b in bounds)


def test_run_presets_resolve():
    inst, cfg = RUN_PRESETS["desk"]["instance"], RUN_PRESETS["desk"]["config"]
    assert inst["dim"] == 50 and inst["num_components"] == 5
    assert cfg["delay_bound"] == 3 and cfg["init"] == "random_ball"
    preset = RUN_PRESETS["table2_sync"]
    assert preset["instance"]["dim"] == 500
    assert preset["config"]["delay_bound"] == 0
    # each preset builds a valid instance and config
    for preset in RUN_PRESETS.values():
        SparsePcaSpec(**preset["instance"])
        RunConfig(**preset["config"]).validate()


def test_campaign_cell_delay_label():
    assert CampaignCell("async_padmm", 10, 2, delay_bound=[0, 4]).delay_label == 4.0
    assert CampaignCell("async_padmm", 10, 2, delay_bound=3).delay_label == 3.0
