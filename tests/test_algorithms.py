"""Solver tests: hand-checked iterations, run() drivers, termination paths."""

import math
import re
import warnings

import numpy as np
import pytest

from apadmm import RunConfig, minimal_rho, run
from apadmm.algorithms import (
    ALGORITHMS,
    RunResult,
    exact_admm_iteration,
    master_step,
    padmm_apply,
)
from apadmm.benchmark import SparsePcaSpec, generate
from apadmm.problems import ConsensusProblem, feasibility_gap, initial_state
from reference import component_gradient


def scalar_problem(l1_weight=0.0, radius=10.0):
    return ConsensusProblem([np.array([[1.0]])], l1_weight=l1_weight, radius=radius)


def desk_problem(seed=3):
    return generate(SparsePcaSpec(dim=12, num_components=3, rows=6,
                                  nonzero_prob=0.2, seed=seed))


# -- iteration operators -----------------------------------------------------

def test_master_step_is_weighted_prox():
    problem = scalar_problem()
    state = initial_state(problem)
    state.x_local = np.array([[0.0]])
    state.y = np.array([[1.0]])
    # v = (rho*0 + 1)/rho = 0.1; no shrinkage, radius far away
    assert master_step(problem, state, [10.0])[0] == pytest.approx(0.1, abs=1e-16)


def test_master_step_applies_scaled_l1_weight():
    problem = scalar_problem(l1_weight=2.0)
    state = initial_state(problem)
    state.x_local = np.array([[1.0]])
    state.y = np.array([[0.0]])
    # v = 1, weight = 2/4 = 0.5: soft threshold leaves 0.5
    assert master_step(problem, state, [4.0])[0] == pytest.approx(0.5, abs=1e-15)


def test_padmm_apply_scalar_hand_iteration():
    """One proximal update from x=0, dual 1, rho 10, with gradient 2 arriving."""
    problem = scalar_problem()
    state = initial_state(problem)
    state.y = np.array([[1.0]])
    x_new = master_step(problem, state, [10.0])
    assert x_new[0] == pytest.approx(0.1, abs=1e-16)
    new = padmm_apply(state, [10.0], x_new, np.array([[2.0]]), np.array([2]))
    # local step is -(grad + y)/rho = -0.3; dual lands on -grad exactly
    assert new.x_local[0, 0] - new.x[0] == -0.3
    assert new.y[0, 0] == -2.0
    assert new.iteration == state.iteration + 1
    assert new.stale_index[0] == 2


def test_padmm_apply_empty_set_keeps_the_dual_fixed():
    # the dual is the gradient record, so a component that received
    # nothing keeps its dual and its local copy lands on x_new, bit for bit
    problem = desk_problem()
    res = run(problem, RunConfig(delay_bound=2, seed=1, max_iters=40,
                                 epsilon=1e-14, full_trace=True,
                                 compute_delay={"kind": "uniform", "hi": 1.5}))
    assert res.updates == 40
    rho = res.rho
    for state in res.trace.states[1:]:
        x_new = master_step(problem, state, rho)
        # nothing arrived: every component passes its record and index
        new = padmm_apply(state, rho, x_new, -state.y, state.stale_index.copy())
        np.testing.assert_array_equal(new.y, state.y)
        np.testing.assert_array_equal(new.x_local, np.tile(x_new, (3, 1)))
        np.testing.assert_array_equal(new.stale_index, state.stale_index)


def test_padmm_apply_refreshes_collected_components():
    problem = desk_problem()
    state = initial_state(problem)
    g_new = np.full(12, 0.5)
    grads, stale = -state.y, state.stale_index.copy()
    grads[1], stale[1] = g_new, 7
    new = padmm_apply(state, [9.0] * 3, master_step(problem, state, [9.0] * 3),
                      grads, stale)
    np.testing.assert_array_equal(new.y[1], -g_new)
    assert new.stale_index[1] == 7
    np.testing.assert_array_equal(new.y[0], state.y[0])
    assert new.stale_index[0] == state.stale_index[0]


def test_padmm_apply_matches_the_per_component_update():
    # the array form must give the same bits as the loop it replaced
    problem = desk_problem()
    rng = np.random.default_rng(6)
    state = initial_state(problem)
    state.x_local = rng.standard_normal((3, 12))
    state.y = rng.standard_normal((3, 12))
    rho = [8.0, 10.0, 12.0]
    x_new = master_step(problem, state, rho)
    grads, stale = -state.y, state.stale_index.copy()
    grads[2], stale[2] = 1.0, 5
    new = padmm_apply(state, rho, x_new, grads, stale)
    grad = -state.y
    grad[2] = 1.0
    for k in range(3):
        x_local = x_new - (grad[k] + state.y[k]) / rho[k]
        np.testing.assert_array_equal(new.x_local[k], x_local)
        np.testing.assert_array_equal(new.y[k], -grad[k])


def test_exact_admm_scalar_hand_iteration():
    # master lands on x'=1; the exact subproblem gives (rho x' - y)/(rho - Q)
    problem = ConsensusProblem([np.array([[1.0]])], radius=1.0)
    state = initial_state(problem)
    state.x_local = np.array([[1.0]])
    state.y = np.array([[0.0]])
    new = exact_admm_iteration(problem, state, [8.0],
                               master_step(problem, state, [8.0]))
    assert new.x[0] == pytest.approx(1.0, abs=1e-15)
    assert new.x_local[0, 0] == pytest.approx(8.0 / 7.0, rel=1e-14)
    # dual ascent on the new gap
    assert new.y[0, 0] == pytest.approx(8.0 * (8.0 / 7.0 - 1.0), rel=1e-12)


def test_exact_admm_zero_data_fixed_point():
    problem = generate(SparsePcaSpec(dim=4, num_components=2,
                                     nonzero_prob=0.0, seed=0))
    state = initial_state(problem)
    x = np.full(4, 0.1)
    state.x = x.copy()
    state.x_local = np.tile(x, (2, 1))
    new = exact_admm_iteration(problem, state, [2.0, 2.0],
                               master_step(problem, state, [2.0, 2.0]))
    np.testing.assert_allclose(new.x, x, rtol=1e-15)
    np.testing.assert_allclose(new.x_local, state.x_local, atol=1e-15)
    np.testing.assert_allclose(new.y, np.zeros((2, 4)), atol=1e-15)


def test_commits_accept_a_list_as_the_master_vector():
    problem = generate(SparsePcaSpec(dim=2, num_components=2, rows=3,
                                     nonzero_prob=1.0, seed=1))
    state = initial_state(problem)
    state.y = np.array([[0.2, -0.1], [0.3, 0.4]])
    rho = 2.0 * problem.lipschitz + 1.0
    for commit in (lambda x: padmm_apply(state, rho, x, -state.y,
                                         state.stale_index.copy()),
                   lambda x: exact_admm_iteration(problem, state, rho, x)):
        from_list = commit([0.5, 0.1])
        from_array = commit(np.array([0.5, 0.1]))
        assert isinstance(from_list.x, np.ndarray) and from_list.x.dtype == float
        for name in ("x", "x_local", "y", "stale_index"):
            np.testing.assert_array_equal(getattr(from_list, name),
                                          getattr(from_array, name))


def test_run_rejects_penalties_out_of_floating_point_range():
    # data of about 1e100 puts the Lipschitz bound at about 1e200, where
    # the margin cubic has no certified root in floating point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = ConsensusProblem([1e100 * np.eye(2)] * 2)
        bound = float(problem.lipschitz[0])
        assert bound == pytest.approx(1e200, rel=1e-14)
        with pytest.raises(ValueError, match=re.escape("lipschitz=%r " % bound)):
            run(problem, RunConfig(delay_bound=3))


def test_run_reports_a_penalty_with_an_overflowing_margin_infeasible():
    problem = generate(SparsePcaSpec(dim=6, num_components=2, rows=3,
                                     nonzero_prob=0.3, seed=1))
    result = run(problem, RunConfig(rho=1e-160, delay_bound=1,
                                    enforcement="observe"))
    assert result.termination == "infeasible_stepsize"
    assert [c.margin for c in result.certificates] == [-np.inf, -np.inf]


# -- run(): equivalences and determinism -------------------------------------

def one_step(algorithm, problem, state, rho):
    """The reference update: a master step, then an exact or a proximal commit.

    At zero delay every async window collects fresh gradients at the new
    x, so the asynchronous solver's one-step operator is the synchronous one.
    """
    x_new = master_step(problem, state, rho)
    if algorithm == "sync_admm":
        return exact_admm_iteration(problem, state, rho, x_new)
    fresh = np.stack([component_gradient(B, x_new) for B in problem.data])
    stale = np.full(problem.num_components, state.iteration + 1)
    return padmm_apply(state, rho, x_new, fresh, stale)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_snapshots_follow_the_one_step_operator(algorithm):
    problem = desk_problem()
    res = run(problem, RunConfig(algorithm=algorithm, delay_bound=0, seed=4,
                                 max_iters=30, epsilon=1e-14,
                                 init="random_ball", full_trace=True))
    states = res.trace.states
    assert res.updates == 30 and len(states) == 31
    for prev, cur in zip(states, states[1:]):
        want = one_step(algorithm, problem, prev, res.rho)
        assert cur.iteration == want.iteration
        for name in ("x", "x_local", "y", "stale_index"):
            np.testing.assert_array_equal(getattr(cur, name),
                                          getattr(want, name))


def test_run_zero_delay_async_is_bit_identical_to_sync():
    problem = generate(SparsePcaSpec(dim=20, num_components=4, rows=10,
                                     nonzero_prob=0.2, seed=9))
    base = dict(delay_bound=0, seed=7, max_iters=100, epsilon=1e-12,
                init="random_ball", full_trace=True)
    a = run(problem, RunConfig(algorithm="async_padmm", **base))
    s = run(problem, RunConfig(algorithm="sync_padmm", **base))
    assert len(a.trace) == len(s.trace) == 100
    assert a.trace.lagrangian == s.trace.lagrangian
    assert a.trace.measure == s.trace.measure
    assert a.trace.feas_gap == s.trace.feas_gap
    for sa, ss in zip(a.trace.states, s.trace.states):
        np.testing.assert_array_equal(sa.x, ss.x)
        np.testing.assert_array_equal(sa.y, ss.y)


def test_run_is_deterministic_under_delays_and_loss():
    problem = desk_problem()
    cfg = dict(algorithm="async_padmm", delay_bound=3, seed=11, max_iters=60,
               epsilon=1e-12, enforcement="observe", init="random_ball",
               downlink={"delay": {"kind": "uniform", "hi": 1.0}, "loss": 0.2})
    a = run(problem, RunConfig(**cfg))
    b = run(problem, RunConfig(**cfg))
    assert a.trace.lagrangian == b.trace.lagrangian
    assert a.trace.collected == b.trace.collected
    assert a.violations == b.violations
    np.testing.assert_array_equal(a.state.x, b.state.x)


def test_run_seed_changes_the_trajectory():
    problem = desk_problem()
    base = dict(algorithm="async_padmm", delay_bound=2, max_iters=40,
                epsilon=1e-12, enforcement="observe", init="random_ball")
    a = run(problem, RunConfig(seed=1, **base))
    b = run(problem, RunConfig(seed=2, **base))
    assert a.trace.lagrangian != b.trace.lagrangian


# -- run(): the optional Lagrangian ------------------------------------------

LAGRANGIAN_CASES = {
    "async_padmm": dict(algorithm="async_padmm", delay_bound=2,
                        enforcement="observe"),
    "sync_padmm": dict(algorithm="sync_padmm", delay_bound=2),
    "sync_admm": dict(algorithm="sync_admm", delay_bound=2),
    "async_padmm_lossy_delayed": dict(
        algorithm="async_padmm", delay_bound=3, enforcement="observe",
        downlink={"delay": {"kind": "uniform", "hi": 1.0}, "loss": 0.2},
        uplink={"delay": 0.5, "loss": 0.1}),
    "async_padmm_aborted": dict(
        algorithm="async_padmm", delay_bound=2, uplink=[{"loss": 1.0}, 0.0, 0.0],
        compute_delay={"kind": "constant", "value": 0.0}),
}


# the cases end converged (async_padmm, sync_padmm), at the clock cap and
# by a staleness abort
@pytest.mark.parametrize("case", sorted(LAGRANGIAN_CASES))
def test_a_run_without_the_lagrangian_is_otherwise_bit_identical(case):
    problem = desk_problem()
    config = dict(LAGRANGIAN_CASES[case], seed=5, max_iters=150, epsilon=1e-2,
                  full_trace=True)
    a = run(problem, RunConfig(**config))
    b = run(problem, RunConfig(**config), lagrangian=False)
    assert len(a.trace.lagrangian) == len(a.trace) == a.updates > 0
    assert b.trace.lagrangian is None and len(b.trace) == b.updates
    for name in ("termination", "iterations", "updates", "final_measure",
                 "violations"):
        assert getattr(a, name) == getattr(b, name)
    for name in ("objective", "feas_gap", "prox_grad_norm", "measure",
                 "sim_time", "collected"):
        assert getattr(a.trace, name) == getattr(b.trace, name)
    for sa, sb in zip([*a.trace.states, a.state], [*b.trace.states, b.state],
                      strict=True):
        assert sa.iteration == sb.iteration
        for name in ("x", "x_local", "y", "stale_index"):
            np.testing.assert_array_equal(getattr(sa, name), getattr(sb, name))


def test_the_lagrangian_switch_is_a_bool():
    with pytest.raises(ValueError, match="lagrangian must be true or false, not 0$"):
        run(desk_problem(), RunConfig(), lagrangian=0)


# -- run(): termination paths ------------------------------------------------

def test_default_config_run_solves_a_desk_instance():
    # x = 0 is stationary for every concave quadratic instance, so a run
    # from zero stops after one update; the default starts elsewhere
    problem = generate(SparsePcaSpec(dim=50, num_components=5, rows=20, seed=1))
    config = RunConfig()
    assert config.init == "random_ball"
    res = run(problem, config)
    assert res.converged
    assert res.updates > 1
    from_zero = run(problem, RunConfig(init="zero"))
    assert from_zero.converged and from_zero.updates == 1


def test_run_converges_on_easy_instance():
    problem = desk_problem()
    res = run(problem, RunConfig(algorithm="sync_padmm", max_iters=2000,
                                 init="random_ball", seed=5))
    assert res.converged
    assert res.final_measure < 1e-3
    assert res.iterations == len(res.trace)
    # vanishing residuals at convergence
    _, gap_rel = feasibility_gap(res.state)
    assert gap_rel < 1e-3


def test_run_convergence_step_difference_vanishes():
    problem = desk_problem()
    res = run(problem, RunConfig(algorithm="async_padmm", delay_bound=2,
                                 compute_delay={"kind": "uniform", "hi": 1.5},
                                 max_iters=4000, init="random_ball", seed=6,
                                 full_trace=True))
    assert res.converged
    last, prev = res.trace.states[-1], res.trace.states[-2]
    assert float(np.linalg.norm(last.x - prev.x)) < res.trace.measure[-1] + 1e-3


def test_run_max_iters_termination():
    problem = desk_problem()
    res = run(problem, RunConfig(algorithm="async_padmm", delay_bound=1,
                                 max_iters=5, epsilon=1e-14,
                                 init="random_ball"))
    assert res.termination == "max_iters"
    assert res.iterations == 5


def test_run_infeasible_stepsize_refuses():
    problem = desk_problem()
    res = run(problem, RunConfig(algorithm="async_padmm", rho=0.1, max_iters=10))
    assert res.termination == "infeasible_stepsize"
    assert res.iterations == 0 and res.updates == 0
    assert len(res.trace) == 0
    assert not any(c.feasible for c in res.certificates)


def test_run_force_overrides_soft_infeasibility():
    problem = desk_problem()
    res = run(problem, RunConfig(algorithm="async_padmm", rho=0.5, force=True,
                                 max_iters=5, enforcement="observe"))
    assert res.termination != "infeasible_stepsize"


def test_run_sync_admm_hard_reject_ignores_force():
    # an exact subproblem with rho <= L is not strongly convex; force
    # cannot make it solvable
    problem = desk_problem()
    L = float(problem.lipschitz.max())
    res = run(problem, RunConfig(algorithm="sync_admm", rho=0.5 * L,
                                 force=True, max_iters=10))
    assert res.termination == "infeasible_stepsize"


@pytest.mark.parametrize("rows,dim,components", [(6, 12, 3), (20, 20, 5),
                                                 (100, 500, 10)],
                         ids=["wide", "square", "paper"])
def test_sync_admm_stored_gradients_are_the_gradients_at_the_local_copies(
        rows, dim, components):
    # the subproblem's first-order condition makes the new dual the
    # negated gradient at the new local copy
    problem = generate(SparsePcaSpec(dim=dim, num_components=components,
                                     rows=rows, seed=2))
    res = run(problem, RunConfig(algorithm="sync_admm", max_iters=20,
                                 epsilon=1e-14, full_trace=True))
    assert res.updates == 20
    for state in res.trace.states:
        for B, u, g in zip(problem.data, state.x_local, -state.y):
            exact = component_gradient(B, u)
            assert np.linalg.norm(g - exact) <= 1e-10 * (1.0 + np.linalg.norm(exact))


def test_run_staleness_abort_indexing():
    """A dead uplink forces staleness T+1, caught at formed iterate T+2."""
    problem = desk_problem()
    T = 2
    res = run(problem, RunConfig(
        algorithm="async_padmm", delay_bound=T, seed=5, max_iters=50,
        enforcement="enforce", init="random_ball",
        uplink=[{"loss": 1.0}, 0.0, 0.0],
        compute_delay={"kind": "constant", "value": 0.0}))
    assert res.termination == "staleness_violation"
    assert res.violation == (T + 2, 0, T + 1)
    assert res.violations == [res.violation]


def test_run_observe_mode_records_instead_of_aborting():
    problem = desk_problem()
    res = run(problem, RunConfig(
        algorithm="async_padmm", delay_bound=1, seed=5, max_iters=30,
        epsilon=1e-14, enforcement="observe", init="random_ball",
        uplink=[{"loss": 1.0}, 0.0, 0.0],
        compute_delay={"kind": "constant", "value": 0.0}))
    assert res.termination == "max_iters"
    assert len(res.violations) > 0
    assert res.violation is None


def test_run_sync_rejects_lossy_links():
    problem = desk_problem()
    with pytest.raises(ValueError):
        run(problem, RunConfig(algorithm="sync_padmm",
                               uplink={"loss": 0.5}, max_iters=5))


def test_run_zero_component_problem_converges_fast():
    # pure l1 over the ball: the master prox solves it outright
    problem = generate(SparsePcaSpec(dim=6, num_components=2,
                                     nonzero_prob=0.0, l1_weight=0.5, seed=0))
    res = run(problem, RunConfig(algorithm="async_padmm", max_iters=50,
                                 init="random_ball", seed=3))
    assert res.converged
    assert res.iterations <= 3
    np.testing.assert_allclose(res.state.x, np.zeros(6), atol=1e-12)


# -- run(): stepsize resolution and accounting -------------------------------

def test_run_auto_rho_uses_cert_delay():
    problem = desk_problem()
    L = problem.lipschitz
    res = run(problem, RunConfig(algorithm="async_padmm", delay_bound=4,
                                 cert_delay=1.5, seed=1, max_iters=3,
                                 epsilon=1e-14, enforcement="observe"))
    ref = np.array([1.01 * minimal_rho(l, 1.5, "concave") for l in L])
    np.testing.assert_allclose(res.rho, ref, rtol=1e-12)
    # the certificates record the certification delay; the result keeps
    # the staleness bound that enforcement acts on
    assert all(c.delay_bound == 1.5 for c in res.certificates)
    np.testing.assert_array_equal(res.delay_bounds, [4.0] * 3)
    # blocking exchanges see fresh gradients only: their bound is 0
    sync = run(problem, RunConfig(algorithm="sync_padmm", delay_bound=4,
                                  max_iters=3, epsilon=1e-14))
    np.testing.assert_array_equal(sync.delay_bounds, np.zeros(3))


def test_run_rho_list_and_scalar_broadcast():
    problem = desk_problem()
    res = run(problem, RunConfig(algorithm="sync_padmm", rho=[30.0, 31.0, 32.0],
                                 max_iters=2, epsilon=1e-14))
    np.testing.assert_array_equal(res.rho, [30.0, 31.0, 32.0])
    res2 = run(problem, RunConfig(algorithm="sync_padmm", rho=40.0,
                                  max_iters=2, epsilon=1e-14))
    np.testing.assert_array_equal(res2.rho, [40.0] * 3)


def test_run_sync_clock_exceeds_updates_under_delay():
    problem = desk_problem()
    res = run(problem, RunConfig(algorithm="sync_padmm", delay_bound=3,
                                 max_iters=60, epsilon=1e-14, seed=2,
                                 init="random_ball"))
    assert res.termination == "max_iters"
    # blocking on the slowest worker burns clock without extra updates;
    # the in-flight update may overshoot the cap by its own cost
    assert res.updates < res.iterations
    assert res.iterations >= 60
    assert len(res.trace) == res.updates
    sim_times = res.trace.sim_time
    assert all(b > a for a, b in zip(sim_times, sim_times[1:]))
    assert int(sim_times[-1]) == res.iterations


def test_run_async_clock_is_one_per_iteration():
    problem = desk_problem()
    res = run(problem, RunConfig(algorithm="async_padmm", delay_bound=2,
                                 max_iters=7, epsilon=1e-14, seed=2,
                                 enforcement="observe", init="random_ball"))
    assert res.iterations == res.updates == 7
    assert res.trace.sim_time == [float(t) for t in range(1, 8)]


def test_config_validation_errors():
    problem = desk_problem()
    with pytest.raises(ValueError):
        run(problem, RunConfig(algorithm="sgd"))
    with pytest.raises(ValueError):
        run(problem, RunConfig(epsilon=0.0))
    with pytest.raises(ValueError):
        run(problem, RunConfig(enforcement="warn"))
    # per-worker lists of the wrong length for K=3
    for name in ("delay_bound", "cert_delay", "compute_delay", "uplink",
                 "downlink"):
        with pytest.raises(ValueError, match="%s needs 1 or 3 entries, got 2" % name):
            run(problem, RunConfig(**{name: [1.0, 2.0]}))
    # a malformed list raises before the stepsize verdict
    with pytest.raises(ValueError, match="uplink needs 1 or 3 entries"):
        run(problem, RunConfig(rho=0.01, uplink=[0.0, 0.0]))
    with pytest.raises(ValueError):
        run(problem, RunConfig(cert_delay=-1.0))
    with pytest.raises(ValueError):
        run(problem, RunConfig(init="warm"))
    # a fractional seed used to run as its integer part, and an infinite
    # cap never stopped an unconverged run
    for key, value, least in (("seed", 1.5, 0), ("seed", -1, 0), ("seed", True, 0),
                              ("max_iters", 2.5, 1), ("max_iters", math.inf, 1)):
        match = "%s must be an integer of at least %d, not %r" % (key, least, value)
        with pytest.raises(ValueError, match=re.escape(match) + "$"):
            run(problem, RunConfig(**{key: value}))


@pytest.mark.parametrize("key,value", [
    ("delay_bound", 2), ("rho", 80.0),
    ("compute_delay", {"kind": "uniform", "hi": 1.5})])
def test_a_one_entry_list_runs_exactly_as_its_scalar(key, value):
    problem = desk_problem()
    base = dict(delay_bound=2, seed=5, max_iters=40, epsilon=1e-12,
                enforcement="observe", full_trace=True)
    a = run(problem, RunConfig(**dict(base, **{key: value})))
    b = run(problem, RunConfig(**dict(base, **{key: [value]})))
    assert len(a.trace) == len(b.trace) == 40
    for name in ("lagrangian", "objective", "feas_gap", "prox_grad_norm",
                 "measure", "sim_time", "collected"):
        assert getattr(a.trace, name) == getattr(b.trace, name)
    for sa, sb in zip(a.trace.states, b.trace.states, strict=True):
        for name in ("x", "x_local", "y", "stale_index"):
            np.testing.assert_array_equal(getattr(sa, name), getattr(sb, name))
    np.testing.assert_array_equal(a.rho, b.rho)
    assert a.violations == b.violations


@pytest.mark.parametrize("name,spec,match", [
    ("compute_delay", {"kind": "uniform"}, r"compute_delay spec .* missing key 'hi'"),
    ("compute_delay", {"kind": "empirical"},
     r"compute_delay spec .* missing key 'values'"),
    ("compute_delay", {"hi": 1.0}, r"compute_delay spec .* key 'kind'"),
    ("compute_delay", "fast", r"compute_delay spec 'fast'"),
    ("uplink", {"delay": 1, "los": 0.5}, r"uplink spec .* unknown key 'los'"),
    ("downlink", {"delay": {"kind": "uniform", "hi": 1.0, "high": 2.0}},
     r"downlink\.delay spec .* unknown key 'high'"),
    ("compute_delay", {"kind": "uniform", "hi": "x"},
     r"compute_delay\.hi must be a number, not 'x'"),
    ("compute_delay", {"kind": "uniform", "hi": None},
     r"compute_delay\.hi must be a number, not None"),
    ("compute_delay", {"kind": "empirical", "values": 5},
     r"compute_delay\.values must be a list of numbers, not 5"),
    ("compute_delay", {"kind": ["uniform"], "hi": 1.0},
     r"compute_delay spec .* key 'kind'"),
    ("uplink", {"loss": "high"}, r"uplink\.loss must be a number, not 'high'"),
    ("downlink", {"allow_reordering": "no"},
     r"downlink\.allow_reordering must be true or false"),
    ("compute_delay", {"kind": "uniform", "hi": -1},
     r"compute_delay\.hi must be a finite nonnegative number, not -1$"),
    ("compute_delay", {"kind": "uniform", "lo": -1, "hi": 1},
     r"compute_delay\.lo must be a finite nonnegative number, not -1$"),
    ("compute_delay", {"kind": "uniform", "lo": 2, "hi": 1},
     r"compute_delay\.hi must be at least lo, not lo=2, hi=1$"),
    ("compute_delay", {"kind": "empirical", "values": []},
     r"compute_delay\.values must be a nonempty list, not \[\]$"),
    ("uplink", {"delay": {"kind": "empirical", "values": [1, -2]}},
     r"uplink\.delay\.values\[1\] must be a finite nonnegative number, not -2$"),
    ("downlink", -0.5,
     r"downlink\.value must be a finite nonnegative number, not -0\.5$"),
    # NaN and infinity are no delays: a dead link is loss 1
    ("compute_delay", math.nan,
     r"compute_delay\.value must be a finite nonnegative number, not nan$"),
    ("compute_delay", math.inf,
     r"compute_delay\.value must be a finite nonnegative number, not inf$"),
    ("compute_delay", {"kind": "constant", "value": math.nan},
     r"compute_delay\.value must be a finite nonnegative number, not nan$"),
    ("downlink", {"delay": {"kind": "uniform", "hi": math.inf}},
     r"downlink\.delay\.hi must be a finite nonnegative number, not inf$"),
    ("downlink", {"delay": {"kind": "uniform", "lo": math.nan, "hi": 1}},
     r"downlink\.delay\.lo must be a finite nonnegative number, not nan$"),
    ("uplink", {"delay": {"kind": "empirical", "values": [1, math.inf]}},
     r"uplink\.delay\.values\[1\] must be a finite nonnegative number, not inf$"),
    ("uplink", {"delay": math.nan},
     r"uplink\.delay\.value must be a finite nonnegative number, not nan$"),
    ("delay_bound", math.inf,
     r"delay_bound must be a finite nonnegative number, not inf$"),
    ("cert_delay", [1, math.nan, 1],
     r"cert_delay must be a finite nonnegative number, not nan$"),
], ids=["uniform_missing_hi", "empirical_missing_values", "missing_kind",
        "string_spec", "unknown_link_key", "unknown_nested_delay_key",
        "hi_a_string", "hi_none", "values_not_a_list", "kind_a_list",
        "loss_a_string", "reordering_not_a_bool", "hi_negative", "lo_negative",
        "hi_below_lo", "values_empty", "link_value_negative",
        "link_delay_negative", "delay_nan", "delay_inf", "constant_nan",
        "link_hi_inf", "link_lo_nan", "link_value_inf", "link_delay_nan",
        "delay_bound_inf", "cert_delay_nan"])
def test_malformed_delay_and_link_specs_name_the_field(name, spec, match):
    with pytest.raises(ValueError, match=match):
        run(desk_problem(), RunConfig(**{name: spec}))


def test_run_result_converged_property():
    res = RunResult(termination="converged", iterations=3, updates=3,
                    state=None, trace=None, rho=np.ones(1),
                    delay_bounds=np.zeros(1), certificates=[],
                    final_measure=0.0)
    assert res.converged
    res.termination = "max_iters"
    assert not res.converged
