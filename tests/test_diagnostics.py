"""Diagnostics tests: optimality measures, surrogate algebra, residual suite."""

import numpy as np
import pytest

from apadmm import (
    RunConfig,
    optimality_measure,
    prox_l1_ball,
    run,
    trace_residuals,
)
from apadmm import algorithms, diagnostics, problems
from apadmm.algorithms import ALGORITHMS, _initial
from apadmm.benchmark import SparsePcaSpec, generate
from apadmm.cli import trace_csv
from apadmm.problems import (
    ConsensusProblem,
    consensus_terms,
    feasibility_gap,
    initial_state,
)
from apadmm.stepsize import descent_margin
from reference import component_gradient, component_value


def penalized_surrogates(problem, state, rho, k, stale_grad, at=None):
    """The three penalized subobjectives of component k at a point.

    Returns ``(exact, fresh, stale)`` where all three share the linear
    dual term and quadratic penalty around the state's master vector;
    ``exact`` uses the true component value at the point, ``fresh``
    linearizes the component at the master vector, and ``stale``
    linearizes with ``stale_grad[k]``, the gradient the master last
    collected (possibly stale), but keeps the fresh constant term. The
    solver's local update is the exact argmin of the stale form.
    """
    rho = np.asarray(rho, dtype=float)
    B = problem.data[k]
    z = np.asarray(state.x_local[k] if at is None else at, dtype=float)
    diff = z - state.x
    shared = float(state.y[k] @ diff) + 0.5 * rho[k] * float(diff @ diff)
    base, grad = component_value(B, state.x), component_gradient(B, state.x)
    exact = component_value(B, z) + shared
    fresh = base + float(grad @ diff) + shared
    stale = base + float(stale_grad[k] @ diff) + shared
    return exact, fresh, stale


def certified_run(algorithm="async_padmm", seed=4, iters=60):
    problem = generate(SparsePcaSpec(dim=10, num_components=3, rows=6,
                                     nonzero_prob=0.2, seed=2))
    cfg = RunConfig(algorithm=algorithm, delay_bound=2, seed=seed,
                    max_iters=iters, epsilon=1e-14, init="random_ball",
                    full_trace=True, enforcement="enforce",
                    compute_delay={"kind": "uniform", "hi": 1.5})
    if algorithm == "sync_padmm":
        cfg.delay_bound = 0
        cfg.compute_delay = None
    result = run(problem, cfg)
    return problem, result


# -- proximal gradient and measure -------------------------------------------

def test_proximal_gradient_zero_data_everywhere_stationary():
    problem = generate(SparsePcaSpec(dim=5, num_components=2,
                                     nonzero_prob=0.0, seed=0))
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(5)
        x = x / max(np.linalg.norm(x), 1.0)
        # reprojection of a boundary point wobbles by an ulp
        np.testing.assert_allclose(consensus_terms(problem, x).prox_residual,
                                   np.zeros(5), atol=1e-15)


def test_proximal_gradient_boundary_maximizer_is_stationary():
    # g(x) = -x^2/2 on the unit ball: x=1 maps to 1 - proj(2) = 0
    problem = ConsensusProblem([np.array([[1.0]])], radius=1.0)
    assert consensus_terms(problem, np.array([1.0])).prox_residual[0] == 0.0


def test_proximal_gradient_interior_point_is_not_stationary():
    problem = ConsensusProblem([np.array([[1.0]])], radius=1.0)
    out = consensus_terms(problem, np.array([0.4])).prox_residual
    assert abs(out[0]) > 0.0


def test_optimality_measure_zero_at_consensus_stationary_point():
    problem = ConsensusProblem([np.array([[1.0]])], radius=1.0)
    state = initial_state(problem)
    state.x = np.array([1.0])
    state.x_local = np.array([[1.0]])
    assert optimality_measure(problem, state) == 0.0


def test_optimality_measure_permutation_invariant():
    spec = SparsePcaSpec(dim=6, num_components=3, rows=4, nonzero_prob=0.3,
                         seed=5)
    problem = generate(spec)
    rng = np.random.default_rng(3)
    state = initial_state(problem)
    state.x = rng.standard_normal(6) * 0.2
    state.x_local = rng.standard_normal((3, 6)) * 0.2
    perm = [2, 0, 1]
    swapped = ConsensusProblem([problem.data[i] for i in perm],
                               l1_weight=problem.l1_weight,
                               radius=problem.radius)
    state_p = initial_state(swapped)
    state_p.x = state.x.copy()
    state_p.x_local = state.x_local[perm]
    assert optimality_measure(problem, state) == pytest.approx(
        optimality_measure(swapped, state_p), rel=1e-14)


# -- trace rows --------------------------------------------------------------

def row_problem(shape):
    """Wide (M < N), square and tall instances, and a ragged one of two
    wide components and one tall."""
    rows = {"wide": 6, "square": 12, "tall": 18, "ragged": [6, 6, 18]}[shape]
    return generate(SparsePcaSpec(dim=12, num_components=3, rows=rows,
                                  nonzero_prob=0.3, l1_weight=0.05, seed=2))


def reference_row(problem, state, rho):
    """A trace row from the definitions, one component term at a time."""
    x, l1 = state.x, problem.l1_weight
    lagrangian = l1 * float(np.abs(x).sum())
    for k, B in enumerate(problem.data):
        diff = state.x_local[k] - x
        lagrangian += component_value(B, state.x_local[k])
        lagrangian += float(state.y[k] @ diff) + 0.5 * rho[k] * float(diff @ diff)
    objective = (sum(component_value(B, x) for B in problem.data)
                 + l1 * float(np.abs(x).sum()))
    step = x - sum(component_gradient(B, x) for B in problem.data)
    pg_norm = float(np.linalg.norm(x - prox_l1_ball(step, l1, problem.radius)))
    gap = feasibility_gap(state)[1]
    return lagrangian, objective, gap, pg_norm, gap + pg_norm


@pytest.mark.parametrize("shape", ["wide", "square", "tall", "ragged"])
def test_trace_rows_match_the_reference_definitions(shape):
    problem = row_problem(shape)
    result = run(problem, RunConfig(
        algorithm="async_padmm", delay_bound=2, seed=3, max_iters=25,
        epsilon=1e-14, init="random_ball", full_trace=True, enforcement="observe",
        compute_delay={"kind": "uniform", "hi": 1.5}))
    trace = result.trace
    assert len(trace) == 25
    for r in range(len(trace)):
        got = (trace.lagrangian[r], trace.objective[r], trace.feas_gap[r],
               trace.prox_grad_norm[r], trace.measure[r])
        want = reference_row(problem, trace.states[r + 1], result.rho)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("epsilon", [1e-3, 1e-14])
def test_final_measure_is_the_optimality_measure_of_the_final_state(
        algorithm, epsilon):
    problem = row_problem("wide")
    result = run(problem, RunConfig(algorithm=algorithm, seed=1,
                                    max_iters=400, epsilon=epsilon,
                                    init="random_ball"))
    assert result.converged == (epsilon == 1e-3)
    assert result.final_measure == optimality_measure(problem, result.state)


def count_passes(monkeypatch):
    """Log ``(X, gradients)`` for every ``problems._block_pass``, the one
    evaluator: its point or points X, and whether it takes gradients there."""
    log = []
    block_pass = problems._block_pass

    def counted(operator, X, gradients=True):
        log.append((np.array(X), gradients))
        return block_pass(operator, X, gradients)

    monkeypatch.setattr(problems, "_block_pass", counted)
    return log


def check_pass_order(problem, result, passes, lagrangian=True):
    """The passes of a run, in order: the start point's, then, for each
    row t, a gradient pass at x_t and, when the run records the
    Lagrangian, a values pass at row t's local copies. An aborted run
    ends with a gradient pass at the master vector of the aborted update
    and no values pass. So each master vector, and each committed state's
    local copies when the Lagrangian is recorded, is evaluated exactly
    once."""
    states, rows = result.trace.states, len(result.trace)
    aborted = result.termination == "staleness_violation"
    want = [(states[0].x, True)]
    for state in states[1:]:
        want += [(state.x, True)] + [(state.x_local, False)] * lagrangian
    if aborted:
        want.append((algorithms.master_step(problem, states[-1], result.rho), True))
    assert len(passes) == len(want) == 1 + (1 + lagrangian) * rows + aborted
    for (X, gradients), (want_X, want_gradients) in zip(passes, want):
        np.testing.assert_array_equal(X, want_X)
        assert gradients == want_gradients


@pytest.mark.parametrize("shape", ["wide", "square", "tall", "ragged"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_each_update_evaluates_each_component_once_at_the_master_vector(
        algorithm, shape, monkeypatch):
    """The workers, the exchange and the trace row reuse the master's pass:
    after the start state, each update adds that pass and one values pass
    at its local copies. Every problem, the ragged one too, evaluates its
    components from its one operator. Here the last row is the one that
    reaches the clock cap."""
    problem = row_problem(shape)
    passes = count_passes(monkeypatch)
    result = run(problem, RunConfig(
        algorithm=algorithm, delay_bound=2, seed=3, max_iters=8,
        epsilon=1e-14, init="random_ball", full_trace=True,
        enforcement="observe", compute_delay={"kind": "uniform", "hi": 1.5}))
    assert result.termination == "max_iters" and len(result.trace) >= 4
    check_pass_order(problem, result, passes)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_converged_last_row_takes_one_values_pass(algorithm, monkeypatch):
    """A row whose measure converges is the last: no master step follows it,
    and its local copies take their one values pass."""
    problem = row_problem("ragged")
    passes = count_passes(monkeypatch)
    result = run(problem, RunConfig(
        algorithm=algorithm, seed=1, max_iters=400, epsilon=1e-3,
        init="random_ball", full_trace=True))
    assert result.converged and 2 <= len(result.trace) and result.iterations < 400
    check_pass_order(problem, result, passes)
    assert result.final_measure == optimality_measure(problem, result.state)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_run_without_the_lagrangian_takes_no_values_pass(algorithm, monkeypatch):
    """Without the row's Lagrangian, each update takes its master vector's
    pass and nothing else."""
    problem = row_problem("ragged")
    passes = count_passes(monkeypatch)
    result = run(problem, RunConfig(
        algorithm=algorithm, delay_bound=2, seed=3, max_iters=8,
        epsilon=1e-14, init="random_ball", full_trace=True,
        enforcement="observe", compute_delay={"kind": "uniform", "hi": 1.5}),
        lagrangian=False)
    assert result.termination == "max_iters" and len(result.trace) >= 4
    check_pass_order(problem, result, passes, lagrangian=False)


def test_a_staleness_abort_leaves_no_row_to_close(monkeypatch):
    """A dead uplink aborts at update T + 2; its master vector takes its
    pass, and no values pass follows."""
    problem = row_problem("ragged")
    passes = count_passes(monkeypatch)
    result = run(problem, RunConfig(
        algorithm="async_padmm", delay_bound=2, seed=5, max_iters=50,
        enforcement="enforce", init="random_ball", full_trace=True,
        uplink=[{"loss": 1.0}, 0.0, 0.0],
        compute_delay={"kind": "constant", "value": 0.0}))
    assert result.termination == "staleness_violation"
    assert len(result.trace) == 2
    check_pass_order(problem, result, passes)


def test_random_start_evaluates_each_component_once(monkeypatch):
    """The start state comes from one block pass at the start point, which
    evaluates the ragged problem block by block."""
    problem = row_problem("ragged")
    passes = count_passes(monkeypatch)
    state = _initial(problem, RunConfig(init="random_ball", seed=4))
    assert len(passes) == 1
    X, gradients = passes[0]
    np.testing.assert_array_equal(X, state.x)
    assert gradients
    np.testing.assert_array_equal(
        -state.y,
        np.stack([component_gradient(B, state.x) for B in problem.data]))


# -- penalized surrogates ----------------------------------------------------

def surrogate_state(problem, seed=0):
    """A state with random iterates, and a random stale gradient per component."""
    rng = np.random.default_rng(seed)
    state = initial_state(problem)
    state.x = rng.standard_normal(problem.dim) * 0.3
    state.x_local = rng.standard_normal((problem.num_components, problem.dim)) * 0.3
    state.y = rng.standard_normal((problem.num_components, problem.dim))
    stale_grad = rng.standard_normal((problem.num_components, problem.dim))
    return state, stale_grad


def test_surrogates_coincide_at_zero_displacement():
    problem = generate(SparsePcaSpec(dim=7, num_components=2, rows=5, seed=6))
    state, stale_grad = surrogate_state(problem, seed=1)
    for k in range(2):
        exact, fresh, stale = penalized_surrogates(problem, state, [9.0, 9.0],
                                                   k, stale_grad, at=state.x)
        gk = component_value(problem.data[k], state.x)
        assert exact == pytest.approx(gk, rel=1e-12)
        assert fresh == pytest.approx(gk, rel=1e-12)
        assert stale == pytest.approx(gk, rel=1e-12)


def test_exact_below_fresh_plus_curvature_term():
    # the descent-lemma inequality: value <= linearization + L/2 ||d||^2
    problem = generate(SparsePcaSpec(dim=7, num_components=3, rows=5, seed=7))
    L = problem.lipschitz
    rng = np.random.default_rng(2)
    state, stale_grad = surrogate_state(problem, seed=2)
    rho = [12.0, 12.0, 12.0]
    for _ in range(30):
        k = int(rng.integers(0, 3))
        z = rng.standard_normal(7) * 0.5
        exact, fresh, _ = penalized_surrogates(problem, state, rho, k, stale_grad,
                                               at=z)
        d2 = float(np.linalg.norm(z - state.x) ** 2)
        assert exact <= fresh + 0.5 * L[k] * d2 + 1e-9


def test_concave_components_sit_below_their_linearization():
    problem = generate(SparsePcaSpec(dim=7, num_components=2, rows=5, seed=8))
    rng = np.random.default_rng(3)
    state, stale_grad = surrogate_state(problem, seed=3)
    for _ in range(20):
        z = rng.standard_normal(7) * 0.5
        exact, fresh, _ = penalized_surrogates(problem, state, [9.0, 9.0], 0,
                                               stale_grad, at=z)
        assert exact <= fresh + 1e-12


def test_stale_surrogate_argmin_is_the_local_update():
    """The solver's local step minimizes the stale linearized surrogate."""
    problem = generate(SparsePcaSpec(dim=6, num_components=2, rows=4, seed=9))
    state, stale_grad = surrogate_state(problem, seed=4)
    rho = [11.0, 13.0]
    k = 1
    closed_form = state.x - (stale_grad[k] + state.y[k]) / rho[k]
    stale_at = lambda z: penalized_surrogates(problem, state, rho, k,
                                              stale_grad, at=z)[2]
    best = stale_at(closed_form)
    rng = np.random.default_rng(5)
    for _ in range(40):
        z = closed_form + rng.standard_normal(6) * 0.1
        assert stale_at(z) >= best - 1e-10
    # gradient of the stale form vanishes at the closed form
    eps = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = eps
        fd = (stale_at(closed_form + e) - stale_at(closed_form - e)) / (2 * eps)
        assert abs(fd) < 1e-6


# -- residual suite ----------------------------------------------------------

def test_trace_residuals_requires_state_snapshots():
    problem, result = certified_run(iters=10)
    result.trace.states = None
    with pytest.raises(ValueError, match="state snapshots"):
        trace_residuals(problem, result.trace, result.rho, [2, 2, 2])


def test_readers_of_the_lagrangian_refuse_a_trace_without_it():
    """The trace CSV's L column and the descent checks read the Lagrangian;
    a run that skipped it fails them loudly rather than by a wrong column."""
    problem = row_problem("wide")
    result = run(problem, RunConfig(max_iters=10, full_trace=True), lagrangian=False)
    assert len(result.trace) == 10 and result.trace.lagrangian is None
    with pytest.raises(ValueError, match="no augmented Lagrangian"):
        trace_residuals(problem, result.trace, result.rho, result.delay_bounds)
    with pytest.raises(ValueError, match="no augmented Lagrangian for the L column"):
        trace_csv(result.trace)


def test_trace_residuals_pass_on_certified_async_run():
    problem, result = certified_run()
    report = trace_residuals(problem, result.trace, result.rho, [2, 2, 2])
    assert report.passed
    by_name = {o.name: o for o in report.outcomes}
    for name in ("dual_identity", "descent", "telescoped_descent",
                 "dual_difference", "lower_bound"):
        assert by_name[name].status == "pass", by_name[name].line()


def test_trace_residuals_pass_on_sync_run():
    problem, result = certified_run(algorithm="sync_padmm")
    report = trace_residuals(problem, result.trace, result.rho, [0, 0, 0])
    assert report.passed
    # T=0 reduces the dual-difference window to one term
    lines = report.lines()
    assert any(line.startswith("PASS dual_difference") for line in lines)


def test_sync_dual_difference_reduces_to_t0_form():
    problem, result = certified_run(algorithm="sync_padmm")
    L = problem.lipschitz
    states = result.trace.states
    for t in range(1, len(states)):
        dx = float(np.linalg.norm(states[t].x - states[t - 1].x))
        for k in range(3):
            dy = float(np.linalg.norm(states[t].y[k] - states[t - 1].y[k]))
            assert dy <= L[k] * dx + 1e-9


def test_trace_residuals_detect_tampered_duals():
    problem, result = certified_run()
    result.trace.states[20].y[0] += 0.5
    report = trace_residuals(problem, result.trace, result.rho, [2, 2, 2])
    assert not report.passed
    by_name = {o.name: o for o in report.outcomes}
    assert by_name["dual_identity"].status == "fail"
    assert by_name["dual_identity"].failing
    assert by_name["dual_identity"].worst_slack < 0.0


@pytest.mark.parametrize("where, entry, checks", [
    ("snapshot", "y", {"dual_identity": [20], "dual_difference": [20, 21]}),
    ("snapshot", "x_local", {"telescoped_descent": ["last"]}),
    ("trace", "lagrangian", {"descent": [21, 22], "lower_bound": [21]}),
    ("trace", "objective", {"lower_bound": "all"}),
], ids=["y", "x_local", "lagrangian", "objective"])
def test_a_nan_fails_every_check_it_enters(where, entry, checks):
    # min() drops a NaN and "nan < 0" is false, so a NaN must be caught
    # by the verdict rule itself, not by the comparison
    problem, result = certified_run()
    rows = len(result.trace)
    if where == "snapshot":
        getattr(result.trace.states[20], entry)[0, 0] = np.nan
    else:
        getattr(result.trace, entry)[20] = np.nan   # trace row 21
    report = trace_residuals(problem, result.trace, result.rho, [2, 2, 2])
    assert not report.passed
    failed = {o.name: o for o in report.outcomes if o.status == "fail"}
    assert sorted(failed) == sorted(checks)
    for name, expected in checks.items():
        outcome = failed[name]
        assert np.isnan(outcome.worst_slack)
        assert "worst_slack=nan" in outcome.line()
        if expected == "all":
            expected = list(range(rows + 1))
        elif expected == ["last"]:
            expected = [rows]
        assert outcome.failing == expected


def loop_residuals(problem, trace, rho, delay_bounds):
    """The five residual checks as plain per-row, per-component loops.

    The reference for ``trace_residuals`` at its default tolerances:
    returns ``(worst margin, failing rows)`` per check in report order,
    or None for a skipped check. Valid for traces without NaN.
    """
    states, rows, K = trace.states, len(trace), problem.num_components
    L = problem.lipschitz
    T = np.asarray(delay_bounds, dtype=float)
    out = []

    def verdict(margins, first=1):
        return (min(margins) if margins else None,
                [first + i for i, m in enumerate(margins) if m < 0])

    margins = []
    for r in range(1, rows + 1):
        points = np.array([states[max(int(i) - 1, 0)].x
                           for i in states[r].stale_index])
        margins.append(min(
            1e-9 * (1.0 + np.linalg.norm(y)) - np.linalg.norm(component_gradient(B, p) + y)
            for B, p, y in zip(problem.data, points, states[r].y)))
    out.append(verdict(margins))
    lag = [problems.augmented_lagrangian(problem, states[0], rho)]
    lag += list(trace.lagrangian)
    out.append(verdict([lag[r - 1] + 1e-9 * (1.0 + abs(lag[r - 1])) - lag[r]
                        for r in range(1, len(lag))]))
    alphas = np.array([descent_margin(rho[k], L[k], T[k], "general")
                       for k in range(K)])
    claim = 0.0
    for r in range(1, rows + 1):
        dxk = states[r].x_local - states[r - 1].x_local
        dx = states[r].x - states[r - 1].x
        claim += float(((rho - 7.0 * L) / 2.0) @ (dxk * dxk).sum(axis=1))
        claim += float(alphas.sum() * (dx @ dx))
    drop = lag[0] - lag[-1]
    out.append(verdict([drop + 1e-6 * (1.0 + max(abs(drop), abs(claim))) - claim],
                       first=rows))
    margins = []
    for r in range(1, rows + 1):
        worst = np.inf
        for k in range(K):
            window = 0.0
            for i in range(int(T[k]) + 1):
                j = max(r - i, 0)
                step = states[j].x - states[max(j - 1, 0)].x
                window += float(step @ step)
            dy = states[r].y[k] - states[r - 1].y[k]
            bound = L[k] ** 2 * (int(T[k]) + 1) * window + 1e-9
            worst = min(worst, bound - float(dy @ dy))
        margins.append(worst)
    out.append(verdict(margins) if rows >= int(T.max()) + 2 else (None, []))
    floor = min(trace.objective) - (2.0 * problem.radius) ** 2 * L.sum() / 2.0
    out.append(verdict([val + 1e-6 - floor for val in lag], first=0))
    return out


@pytest.mark.parametrize("variant", ["certified", "tampered", "low_rho",
                                     "sync", "short"])
def test_trace_residuals_match_the_loop_reference_bit_for_bit(variant):
    problem, result = certified_run(
        algorithm="sync_padmm" if variant == "sync" else "async_padmm",
        iters=3 if variant == "short" else 60)
    rho = result.rho
    bounds = [4, 4, 4] if variant == "short" else result.delay_bounds
    if variant == "tampered":
        result.trace.states[20].y[0] += 0.5
        result.trace.lagrangian[10] += 1e-3
    elif variant == "low_rho":
        rho = 0.2 * rho
    report = trace_residuals(problem, result.trace, rho, bounds)
    reference = loop_residuals(problem, result.trace, rho, bounds)
    for outcome, (worst, failing) in zip(report.outcomes, reference):
        if worst is None:
            assert outcome.status == "skipped"
            continue
        assert outcome.status == ("fail" if failing else "pass")
        assert float(outcome.worst_slack).hex() == float(worst).hex(), outcome.name
        assert outcome.failing == failing
    assert len(report.outcomes) == len(reference) == 5
    assert report.passed == (variant != "tampered")


def test_trace_residuals_skip_short_history_checks():
    problem, result = certified_run(iters=3)
    report = trace_residuals(problem, result.trace, result.rho, [4, 4, 4])
    by_name = {o.name: o for o in report.outcomes}
    assert by_name["dual_difference"].status == "skipped"
    assert "SKIP" in by_name["dual_difference"].line()


def test_report_lines_format():
    problem, result = certified_run(iters=15)
    report = trace_residuals(problem, result.trace, result.rho, [2, 2, 2])
    for line in report.lines():
        assert line.split()[0] in ("PASS", "FAIL", "SKIP")
        if line.startswith("PASS"):
            assert "worst_slack=" in line
