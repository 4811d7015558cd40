"""Acceptance suite: one test per release criterion, one PASS line each.

Criteria 1-4 share two 200-iteration certified desk runs (N=50, K=5).
Criterion 8 runs the full three-algorithm ordering campaign and is the
slow part of the suite; everything here stays within a couple of
minutes total.
"""

import json
import time

import numpy as np
import pytest

from apadmm import (
    RunConfig,
    CampaignCell,
    certify,
    descent_margin,
    minimal_rho,
    prox_l1_ball,
    run,
    run_campaign,
    trace_residuals,
)
from apadmm.benchmark import SparsePcaSpec, generate
from apadmm.cli import main as cli_main

from reference import component_gradient, dense
from test_prox import ball_candidates, candidate_table, grid_prox, subgradient_prox

DESK = dict(dim=50, num_components=5, rows=20, nonzero_prob=0.1,
            l1_weight=0.0, seed=1)


@pytest.fixture(scope="module")
def desk_runs():
    """200-iteration certified async and sync-PADMM runs plus wall time."""
    problem = generate(SparsePcaSpec(**DESK))
    start = time.perf_counter()
    async_res = run(problem, RunConfig(
        algorithm="async_padmm", delay_bound=3, seed=7, max_iters=200,
        epsilon=1e-12, init="random_ball", enforcement="enforce",
        full_trace=True,
        compute_delay={"kind": "uniform", "hi": 2.0}))
    sync_res = run(problem, RunConfig(
        algorithm="sync_padmm", delay_bound=0, seed=7, max_iters=200,
        epsilon=1e-12, init="random_ball", full_trace=True))
    elapsed = time.perf_counter() - start
    assert async_res.termination == "max_iters" and len(async_res.trace) == 200
    assert sync_res.termination == "max_iters" and len(sync_res.trace) == 200
    reports = {
        "async": trace_residuals(problem, async_res.trace, async_res.rho,
                                 [3] * 5),
        "sync": trace_residuals(problem, sync_res.trace, sync_res.rho,
                                [0] * 5),
    }
    return problem, {"async": async_res, "sync": sync_res}, reports, elapsed


@pytest.fixture(scope="module")
def ordering_campaign():
    """Three-algorithm systematic sweep at T=5 over 20 seeds."""
    cells = [
        CampaignCell(algorithm=alg, dim=50, num_components=5, delay_bound=5,
                     rows=20, nonzero_prob=0.1, l1_weight=0.0)
        for alg in ("async_padmm", "sync_padmm", "sync_admm")
    ]
    start = time.perf_counter()
    rows = run_campaign(cells, seeds=20, max_iters=20000, epsilon=1e-3)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_01_dual_identity(desk_runs):
    problem, results, reports, elapsed = desk_runs
    blocks = dense(problem)
    for name, result in results.items():
        states = result.trace.states
        # states[0] is the initial state; states[r] follows iteration r,
        # so master iterate j lives at states[j - 1]
        for r in range(1, len(result.trace) + 1):
            st = states[r]
            for k in range(5):
                j = int(st.stale_index[k])
                grad = component_gradient(blocks[k], states[max(j - 1, 0)].x)
                bound = 1e-9 * (1.0 + float(np.linalg.norm(st.y[k])))
                assert float(np.linalg.norm(grad + st.y[k])) <= bound, (
                    "dual identity broke in the %s run" % name)
        outcome = {o.name: o for o in reports[name].outcomes}["dual_identity"]
        assert outcome.status == "pass", outcome.line()
    assert elapsed < 10.0, "desk runs took %.1f s" % elapsed
    print("\nACCEPTANCE 1 (dual identity, 200-iteration desk runs): PASS")


def test_criterion_02_monotone_and_telescoped_descent(desk_runs):
    _, results, reports, _ = desk_runs
    for name, result in results.items():
        L = result.trace.lagrangian
        for a, b in zip(L, L[1:]):
            assert b <= a + 1e-9 * (1.0 + abs(a)), name
        by_name = {o.name: o for o in reports[name].outcomes}
        assert by_name["descent"].status == "pass", by_name["descent"].line()
        assert by_name["telescoped_descent"].status == "pass", (
            by_name["telescoped_descent"].line())
    print("\nACCEPTANCE 2 (monotone + telescoped descent): PASS")


def test_criterion_03_lagrangian_lower_bound(desk_runs):
    problem, results, reports, _ = desk_runs
    total_L = float(problem.lipschitz.sum())
    for name, result in results.items():
        f_best = min(result.trace.objective)
        floor = f_best - 4.0 * total_L / 2.0 - 1e-6
        assert all(val >= floor for val in result.trace.lagrangian), name
        outcome = {o.name: o for o in reports[name].outcomes}["lower_bound"]
        assert outcome.status == "pass", outcome.line()
    print("\nACCEPTANCE 3 (augmented Lagrangian lower bound): PASS")


def test_criterion_04_dual_difference_bound(desk_runs):
    problem, results, reports, _ = desk_runs
    L = problem.lipschitz
    for name, result in results.items():
        T = 3 if name == "async" else 0
        states = result.trace.states
        xs = [st.x for st in states]
        for r in range(1, len(states)):
            window = 0.0
            for i in range(T + 1):
                # steps reaching before the start are zero: nothing moved
                step = xs[max(r - i, 0)] - xs[max(r - i - 1, 0)]
                window += float(step @ step)
            for k in range(5):
                dy = states[r].y[k] - states[r - 1].y[k]
                assert float(dy @ dy) <= L[k] ** 2 * (T + 1) * window + 1e-9, name
        outcome = {o.name: o for o in reports[name].outcomes}["dual_difference"]
        assert outcome.status == "pass", outcome.line()
    print("\nACCEPTANCE 4 (dual-difference bound): PASS")


def test_criterion_05_zero_delay_equivalence():
    problem = generate(SparsePcaSpec(**DESK))
    base = dict(delay_bound=0, seed=3, max_iters=100, epsilon=1e-12,
                init="random_ball", full_trace=True)
    a = run(problem, RunConfig(algorithm="async_padmm", **base))
    s = run(problem, RunConfig(algorithm="sync_padmm", **base))
    assert len(a.trace) == len(s.trace) == 100
    for field in ("lagrangian", "objective", "feas_gap", "prox_grad_norm",
                  "measure", "sim_time", "collected"):
        assert getattr(a.trace, field) == getattr(s.trace, field), field
    for sa, ss in zip(a.trace.states, s.trace.states):
        assert np.array_equal(sa.x, ss.x)
        assert np.array_equal(sa.x_local, ss.x_local)
        assert np.array_equal(sa.y, ss.y)
    print("\nACCEPTANCE 5 (zero-delay async == sync, bit-identical): PASS")


def test_criterion_06_prox_oracle_equivalence():
    rng = np.random.default_rng(11)
    cand2 = candidate_table(ball_candidates(2, 1.0, -np.ones(2), np.ones(2), 1e-3))
    worst2 = 0.0
    for _ in range(50):
        v = rng.standard_normal(2) * 1.2
        tau = float(rng.uniform(0.0, 0.8))
        ref = grid_prox(v, tau, 1.0, candidates=cand2)
        worst2 = max(worst2, float(np.linalg.norm(prox_l1_ball(v, tau, 1.0) - ref)))
    assert worst2 < 2e-3
    rng = np.random.default_rng(12)
    worst3 = 0.0
    for _ in range(50):
        v = rng.standard_normal(3) * 1.2
        tau = float(rng.uniform(0.0, 0.8))
        ref = grid_prox(v, tau, 1.0, coarse=0.02)
        worst3 = max(worst3, float(np.linalg.norm(prox_l1_ball(v, tau, 1.0) - ref)))
    assert worst3 < 2e-3
    rng = np.random.default_rng(7)
    inputs = [(rng.standard_normal(10), float(rng.uniform(0.05, 0.6)))
              for _ in range(20)]
    # the 20 oracle runs as one (20, 10) stack, each row bit for bit its own run
    refs = subgradient_prox(np.array([v for v, _ in inputs]),
                            [tau for _, tau in inputs], 1.0, steps=10 ** 4)
    worst10 = 0.0
    for (v, tau), ref in zip(inputs, refs):
        worst10 = max(worst10, float(np.linalg.norm(prox_l1_ball(v, tau, 1.0) - ref)))
    assert worst10 < 1e-4
    print("\nACCEPTANCE 6 (prox oracles: grid %.1e/%.1e, subgradient %.1e): PASS"
          % (worst2, worst3, worst10))


def test_criterion_07_stepsize_certificates():
    assert descent_margin(8.0, 1.0, 0, "general") == 7.640625
    assert abs(descent_margin(10.0, 1.0, 2, "general") - 3.57) <= 1e-12
    assert not certify(7.0, 1.0, 0, "general").feasible
    assert 7.0 < minimal_rho(1.0, 0, "general") < 8.0
    print("\nACCEPTANCE 7 (stepsize certificate anchors): PASS")


def test_criterion_08_convergence_and_ordering(ordering_campaign):
    rows, elapsed = ordering_campaign
    means = {r["algorithm"]: r["mean_iters"] for r in rows}
    for r in rows:
        assert r["censored_count"] == 0, r
        assert np.isfinite(r["mean_iters"])
    # the seed-averaged counts must clear the budget and keep the
    # published ordering
    assert means["async_padmm"] < 5000.0
    assert means["sync_padmm"] < 5000.0
    assert means["sync_admm"] < 5000.0
    assert means["async_padmm"] < means["sync_padmm"] < means["sync_admm"]
    assert elapsed < 120.0, "campaign took %.1f s" % elapsed
    print("\nACCEPTANCE 8 (ordering async %.0f < padmm %.0f < admm %.0f, "
          "%.0f s): PASS" % (means["async_padmm"], means["sync_padmm"],
                             means["sync_admm"], elapsed))


def test_criterion_09_staleness_enforcement():
    problem = generate(SparsePcaSpec(**DESK))
    T = 3
    result = run(problem, RunConfig(
        algorithm="async_padmm", delay_bound=T, seed=5, max_iters=100,
        enforcement="enforce", init="random_ball",
        uplink=[{"loss": 1.0}] + [0.0] * 4,
        compute_delay={"kind": "constant", "value": 0.0}))
    assert result.termination == "staleness_violation"
    # the starved worker's gradient stays at copy 1, so staleness first
    # exceeds T when iterate T+2 is formed
    assert result.violations == [(T + 2, 0, T + 1)]
    print("\nACCEPTANCE 9 (staleness abort at first violation): PASS")


def test_criterion_10_trace_determinism(tmp_path, capsys):
    configs = [
        ["run", "--N", "20", "--K", "3", "--M", "8", "--p", "0.2",
         "--instance-seed", "3", "--algo", "async_padmm", "--seed", "11",
         "--delay-bound", "2", "--observe", "--init", "random_ball",
         "--max-iters", "80", "--epsilon", "1e-9"],
        ["run", "--N", "20", "--K", "3", "--M", "8", "--p", "0.2",
         "--instance-seed", "3", "--algo", "sync_admm", "--seed", "5",
         "--init", "random_ball", "--max-iters", "300"],
        ["run", "--preset", "desk", "--seed", "2", "--max-iters", "50",
         "--epsilon", "1e-9"],
    ]
    for idx, argv in enumerate(configs):
        blobs = []
        for attempt in ("a", "b"):
            out = str(tmp_path / ("c%d_%s.csv" % (idx, attempt)))
            rc = cli_main(argv + ["--out", out])
            assert rc in (0, 2)
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1], "config %d not byte-deterministic" % idx
        capsys.readouterr()
    print("\nACCEPTANCE 10 (byte-identical traces, 3 configurations): PASS")
