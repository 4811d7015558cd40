"""Problem container tests: hand-evaluated values, gradients, eigenvalues."""

import itertools
import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from apadmm import RunConfig, problems, run
from apadmm.benchmark import SparsePcaSpec, generate
from apadmm.problems import (
    ConsensusProblem,
    ConsensusTerms,
    IterationTrace,
    SolverState,
    augmented_lagrangian,
    consensus_terms,
    initial_state,
    leading_eigenvalue,
    penalized_argmin,
    stationarity,
)
from apadmm.prox import _norm, prox_l1_ball
import reference
from reference import (component_gradient, component_value, dense,
                       one_block_bound, penalty_inverses, traced_peak)


def finite_difference_gradient(fn, x, step=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = step
        grad[i] = (fn(x + bump) - fn(x - bump)) / (2.0 * step)
    return grad


def scalar_problem(l1_weight=0.0, radius=10.0):
    """K=1 instance with g(x) = -x^2/2 (concave quadratic from B = [[1]])."""
    return ConsensusProblem([np.array([[1.0]])], l1_weight=l1_weight, radius=radius)


def make_state(problem, x, x_local, y, stale=None, iteration=1):
    state = initial_state(problem)
    state.x = np.asarray(x, dtype=float)
    state.x_local = np.asarray(x_local, dtype=float)
    state.y = np.asarray(y, dtype=float)
    if stale is not None:
        state.stale_index = np.asarray(stale, dtype=int)
    state.iteration = iteration
    return state


# -- objective ---------------------------------------------------------------

def test_objective_zero_data_is_zero():
    spec = SparsePcaSpec(dim=8, num_components=3, nonzero_prob=0.0, seed=0)
    problem = generate(spec)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(8)
        assert consensus_terms(problem, x).objective == 0.0


def test_objective_scalar_hand_value():
    # g(x) = -x^2/2, lambda = 1: at x = 2 the terms cancel, -2 + 2 = 0
    problem = scalar_problem(l1_weight=1.0)
    assert consensus_terms(problem, np.array([2.0])).objective == pytest.approx(
        0.0, abs=1e-15)


def test_objective_matches_dense_cross_check():
    spec = SparsePcaSpec(dim=12, num_components=4, rows=6, seed=7)
    problem = generate(spec)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal(12)
        ref = sum(-0.5 * float(np.linalg.norm(B @ x) ** 2) for B in dense(problem))
        terms = consensus_terms(problem, x)
        assert terms.objective == pytest.approx(ref, rel=1e-12)
        np.testing.assert_allclose(
            terms.gradients, np.stack([component_gradient(B, x) for B in dense(problem)]),
            rtol=1e-12)


def test_objective_dimension_mismatch():
    problem = scalar_problem()
    with pytest.raises(ValueError):
        consensus_terms(problem, np.zeros(3))


def desk_instance():
    return generate(SparsePcaSpec(dim=50, num_components=5, rows=20, seed=1))


def test_consensus_terms_rejects_a_non_finite_or_misshapen_point():
    problem = desk_instance()
    x = np.zeros(50)
    x[3] = np.nan
    with pytest.raises(ValueError, match="non-finite entries"):
        consensus_terms(problem, x)
    with pytest.raises(ValueError,
                       match=re.escape("vector of shape (7,) for 50 columns")):
        consensus_terms(problem, np.zeros(7))


def test_optimality_measure_rejects_a_non_finite_master_vector():
    problem = desk_instance()
    state = initial_state(problem)
    state.x = np.full(50, np.nan)
    with pytest.raises(ValueError, match="non-finite entries"):
        problems.optimality_measure(problem, state)


# -- augmented Lagrangian ----------------------------------------------------

def test_augmented_lagrangian_consensus_equals_objective():
    spec = SparsePcaSpec(dim=6, num_components=2, rows=4, l1_weight=0.3, seed=3)
    problem = generate(spec)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6) * 0.3
    state = make_state(problem, x, np.tile(x, (2, 1)), np.zeros((2, 6)))
    assert augmented_lagrangian(problem, state, [2.0, 3.0]) == pytest.approx(
        consensus_terms(problem, x).objective, rel=1e-12)


def test_augmented_lagrangian_scalar_hand_value():
    # g(z) = -z^2/2, x = 0, x_1 = 1, y_1 = 2, rho = 4: -0.5 + 2 + 2 = 3.5
    problem = scalar_problem()
    state = make_state(problem, [0.0], [[1.0]], [[2.0]])
    assert augmented_lagrangian(problem, state, [4.0]) == pytest.approx(3.5, abs=1e-15)


# -- feasibility gap ---------------------------------------------------------

def feas_gap(problem, state):
    """The relative consensus gap of ``stationarity``'s trace row."""
    return stationarity(state, consensus_terms(problem, state.x))[1]


def test_feasibility_gap_consensus_is_zero():
    problem = scalar_problem()
    state = make_state(problem, [0.7], [[0.7]], [[0.0]])
    assert feas_gap(problem, state) == 0.0


def test_feasibility_gap_hand_value():
    spec = SparsePcaSpec(dim=2, num_components=2, rows=2, seed=0)
    problem = generate(spec)
    state = make_state(problem, [1.0, 0.0],
                       [[1.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)))
    assert feas_gap(problem, state) == 1.0


def test_feasibility_gap_zero_master_fallback():
    # relative gap is defined as the absolute one when ||x|| = 0
    spec = SparsePcaSpec(dim=2, num_components=1, rows=2, seed=0)
    problem = generate(spec)
    state = make_state(problem, [0.0, 0.0], [[0.6, 0.8]], np.zeros((1, 2)))
    assert feas_gap(problem, state) == pytest.approx(1.0, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 60), st.integers(0, 2 ** 32 - 1),
       st.integers(-150, 150))
def test_feasibility_gap_and_norms_are_numpy_norms_bit_for_bit(K, N, seed, exp):
    rng = np.random.default_rng(seed)
    scale = 2.0 ** exp
    x = rng.standard_normal(N) * scale
    x_local = x + rng.standard_normal((K, N)) * scale * rng.random()
    state = SolverState(1, x, x_local, np.zeros((K, N)), np.ones(K, dtype=int))
    residual = rng.standard_normal(N) * scale
    terms = ConsensusTerms(1.5, 0.0, residual, None)
    objective, gap, pg_norm, measure = stationarity(state, terms)
    gaps = np.linalg.norm(x_local - x[None, :], axis=1)
    assert objective == 1.5
    assert gap.hex() == (float(gaps.max()) / float(np.linalg.norm(x))).hex()
    assert pg_norm.hex() == float(np.linalg.norm(residual)).hex()
    assert measure == gap + pg_norm
    # contiguous, strided and reversed vectors
    for v in (x, x_local[-1], x_local[:, 0], x[::-2], x_local):
        assert _norm(v).hex() == float(np.linalg.norm(v)).hex()


# -- leading eigenvalue ------------------------------------------------------

def test_leading_eigenvalue_matches_characteristic_polynomial():
    """2x2 grams admit a closed-form largest root to check against."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        B = rng.standard_normal((int(rng.integers(1, 6)), 2))
        gram = B.T @ B
        a, b, c = gram[0, 0], gram[0, 1], gram[1, 1]
        ref = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b * b)
        assert leading_eigenvalue(B) == pytest.approx(ref, rel=1e-10)


def test_leading_eigenvalue_diagonal_and_zero():
    B = np.diag([1.0, 3.0, 2.0])
    assert leading_eigenvalue(B) == pytest.approx(9.0, rel=1e-12)
    assert leading_eigenvalue(np.zeros((3, 3))) == 0.0


def near_degenerate_data(seed, rows=20, dim=60, gap=1e-6):
    """Data whose two largest Gram eigenvalues are 1 and 1 - gap.

    An iterative estimate of the top eigenvalue converges at rate
    1 - gap here, so it would stop short of it; ``lipschitz`` must not.
    """
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    V, _ = np.linalg.qr(rng.standard_normal((dim, rows)))
    spectrum = np.concatenate([[1.0, 1.0 - gap], np.linspace(0.5, 0.1, rows - 2)])
    return U @ np.diag(np.sqrt(spectrum)) @ V.T


def assert_bounds_both_gram_orientations(B):
    bound = leading_eigenvalue(B)
    assert bound >= np.linalg.eigvalsh(B.T @ B).max()
    assert bound >= np.linalg.eigvalsh(B @ B.T).max()


# entries bounded away from underflow, where rounding errors stop being relative
ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 12)),
              elements=ENTRIES))
def test_leading_eigenvalue_bounds_wide_square_and_tall_data(B):
    assert_bounds_both_gram_orientations(B)


@pytest.mark.parametrize("gap", [1e-6, 1e-9, 0.0])
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_leading_eigenvalue_bounds_near_degenerate_spectra(gap, seed):
    assert_bounds_both_gram_orientations(near_degenerate_data(seed, gap=gap))


@settings(deadline=None, max_examples=60)
@given(st.one_of(
    arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 12)),
           elements=ENTRIES),
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(np.zeros),
    st.builds(near_degenerate_data, st.integers(0, 2 ** 32 - 1),
              st.sampled_from([2, 7, 20]), st.just(20),
              st.sampled_from([1e-6, 1e-9, 0.0])).flatmap(
                  lambda B: st.sampled_from([B, B.T]))))
def test_leading_eigenvalue_is_the_eigvalsh_bound_bit_for_bit(B):
    """The direct ``dsyevr`` call gives the bits of ``scipy.linalg.eigvalsh``
    with ``subset_by_index``, on wide, square, tall, all-zero and
    near-degenerate data."""
    assert leading_eigenvalue(B).hex() == reference.leading_eigenvalue(B).hex()


def test_leading_eigenvalue_rejects_an_overflowing_gram():
    # finite entries whose Gram overflows: eigvalsh's finiteness check
    B = np.full((2, 3), 1e160)
    for bound in (leading_eigenvalue, reference.leading_eigenvalue):
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="array must not contain infs or NaNs"):
            bound(B)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,), (2, 2, 2)])
def test_leading_eigenvalue_rejects_an_empty_or_not_2d_matrix(shape):
    with pytest.raises(ValueError, match=re.escape(
            "must be 2-D and nonempty, not of shape %s" % (shape,))):
        leading_eigenvalue(np.ones(shape))


# -- one component, g(z) = -0.5 ||B z||^2 -------------------------------------

def test_one_component_hand_values():
    problem = ConsensusProblem([np.array([[1.0, 0.0], [0.0, 2.0]])])
    terms = consensus_terms(problem, np.array([1.0, 1.0]))
    assert terms.objective == pytest.approx(-2.5, rel=1e-15)
    np.testing.assert_allclose(terms.gradients, [[-1.0, -4.0]], rtol=1e-15)
    assert problem.lipschitz.shape == (1,)
    assert problem.lipschitz[0] == pytest.approx(4.0, rel=1e-10)


def test_one_component_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    problem = ConsensusProblem([rng.standard_normal((5, 4))])

    def value(z):
        return consensus_terms(problem, z).objective

    for _ in range(3):
        x = rng.standard_normal(4) * 0.5
        np.testing.assert_allclose(
            consensus_terms(problem, x).gradients[0],
            finite_difference_gradient(value, x), rtol=1e-5, atol=1e-7)


def test_one_component_zero_data():
    problem = ConsensusProblem([np.zeros((3, 2))])
    # floored so stepsize rules stay finite
    assert problem.lipschitz[0] == np.finfo(float).eps
    terms = consensus_terms(problem, np.array([0.3, -0.4]))
    assert terms.objective == 0.0
    np.testing.assert_array_equal(terms.gradients, np.zeros((1, 2)))


# wide (M < N), square and tall data
SHAPES = [(3, 7), (5, 5), (8, 4)]


def test_penalized_argmin_solves_the_linear_system():
    for rows, dim in [(6, 3)] + SHAPES:
        rng = np.random.default_rng(rows * 10 + dim)
        B = rng.standard_normal((rows, dim))
        problem = ConsensusProblem([B])
        rho = 1.5 * problem.lipschitz + 1.0
        for _ in range(2):  # the second solve reuses the cached inverse
            x_master = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            ref = np.linalg.solve(rho[0] * np.eye(dim) - B.T @ B,
                                  rho[0] * x_master - y)
            out = penalized_argmin(problem, rho, x_master, y[None])
            np.testing.assert_allclose(out[0], ref, rtol=1e-10)


def check_penalized_argmins(problem, seed):
    """Every row against a dense N x N solve and the first-order condition."""
    rng = np.random.default_rng(seed)
    K, N = problem.num_components, problem.dim
    rho = 1.5 * problem.lipschitz + 1.0
    x_master = rng.standard_normal(N)
    y = rng.standard_normal((K, N))
    out = penalized_argmin(problem, rho, x_master, y)
    assert out.shape == (K, N)
    for k, B in enumerate(dense(problem)):
        ref = np.linalg.solve(rho[k] * np.eye(N) - B.T @ B, rho[k] * x_master - y[k])
        np.testing.assert_allclose(out[k], ref, rtol=1e-10)
        first_order = (component_gradient(B, out[k]) + y[k]
                       + rho[k] * (out[k] - x_master))
        scale = rho[k] * np.abs(out[k]).max() + np.abs(y[k]).max()
        np.testing.assert_allclose(first_order, 0.0, atol=1e-12 * scale)
    # one read-only (K_b, M_b, M_b) stack of inverses per run of equal
    # row counts, nothing else
    assert list(problem.penalty_inverses) == [tuple(rho.tolist())]
    inverses = problem.penalty_inverses[tuple(rho.tolist())]
    runs = [(len(list(run)), M) for M, run in
            itertools.groupby(len(B) for B in dense(problem))]
    assert [s.shape for s in inverses] == [(count, M, M) for count, M in runs]
    assert not any(s.flags.writeable for s in inverses)
    return rho


def test_penalized_argmin_on_ragged_rows():
    problem = generate(SparsePcaSpec(dim=30, num_components=5, rows=[6, 6, 9, 4, 4],
                                     nonzero_prob=0.3, seed=4))
    rho = check_penalized_argmins(problem, 5)
    assert [s.shape for s in problem.penalty_inverses[tuple(rho.tolist())]] == [
        (2, 6, 6), (1, 9, 9), (2, 4, 4)]


def test_penalized_argmin_on_the_paper_shape():
    problem = generate(SparsePcaSpec(dim=500, num_components=7, rows=100, seed=6))
    rho = check_penalized_argmins(problem, 7)
    # a rejected penalty names its component and caches nothing
    cached = list(problem.penalty_inverses)
    rho[5] = problem.lipschitz[5]
    with pytest.raises(ValueError, match="component 5 .*not strongly convex"):
        penalized_argmin(problem, rho, np.ones(500), np.zeros((7, 500)))
    assert list(problem.penalty_inverses) == cached


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=6), st.integers(1, 40),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@example([100, 60, 100, 140, 60], 500, 0.1, 1)
def test_the_inverses_are_the_stacked_builds_bit_for_bit(rows, dim, prob, seed):
    """Each block expanded from the operator alone, its Gram ``B @ B.T``
    and its inverse written into its run's stack give the bits of the
    build from every dense matrix stacked per run and one batched Gram."""
    problem = generate(SparsePcaSpec(dim=dim, num_components=len(rows),
                                     rows=rows, nonzero_prob=prob, seed=seed))
    rho = problem.lipschitz * 1.25 + 0.5
    got = problems._penalty_inverses(problem, rho)
    want = penalty_inverses(problem, rho)
    assert [(a.shape, a.tobytes()) for a in got] == [
        (b.shape, b.tobytes()) for b in want]
    assert not any(a.flags.writeable for a in got)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_problem_from_its_stored_nonzeros_is_the_problem_bit_for_bit(draw):
    """Random row counts and patterns, with an all-zero component, empty
    rows and -0.0 entries: the problem built from the mapping of its
    ``_nonzeros`` takes D from those arrays and builds each dense block
    only for its checks and bound, and every operator array (dtype,
    bytes, read-only flag), every bound and every dense block equal the
    original's."""
    K = draw.draw(st.integers(1, 5))
    rows = draw.draw(st.lists(st.integers(1, 6), min_size=K, max_size=K))
    N = draw.draw(st.integers(1, 9))
    rng = np.random.default_rng(draw.draw(st.integers(0, 2 ** 32 - 1)))
    density = rng.random()
    data = [np.where(rng.random((M, N)) < density, rng.standard_normal((M, N)), 0.0)
            for M in rows]
    data[draw.draw(st.integers(0, K - 1))][:] = 0.0
    data[draw.draw(st.integers(0, K - 1))][::2] = -0.0
    problem = ConsensusProblem(data)
    members = {name: np.array(a) for name, a in problems._nonzeros(problem).items()}
    scanned = []
    scan = problems._scan
    try:
        problems._scan = lambda B: scanned.append(B) or scan(B)
        loaded = ConsensusProblem(members)
    finally:
        problems._scan = scan
    assert scanned == []
    assert loaded.lipschitz.tobytes() == problem.lipschitz.tobytes()
    assert [B.tobytes() for B in dense(loaded)] == [B.tobytes() for B in dense(problem)]
    for got, want in zip(loaded.operator, problem.operator, strict=True):
        assert got[:2] == want[:2]
        for a, b in zip(got[2:], want[2:], strict=True):
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                assert not a.flags.writeable


def test_the_inverses_hold_one_dense_block_at_a_time():
    """Building the inverses at N = 500, M = 100, K = 20 peaks at a few
    times the operator, a few blocks and the K M^2 inverses it keeps: no
    stack of the K dense matrices, 8 MB here, or of their Gram matrices."""
    problem = generate(SparsePcaSpec(dim=500, num_components=20, rows=100,
                                     seed=2))
    rho = problem.lipschitz * 1.01
    inverses, peak = traced_peak(
        lambda: problems._penalty_inverses(problem, rho))
    kept = sum(a.nbytes for a in inverses)
    assert kept == 20 * 100 * 100 * 8
    assert peak <= one_block_bound(problem, kept) < 20 * 100 * 500 * 8


@pytest.mark.parametrize("rows,dim", SHAPES)
def test_one_component_matches_explicit_definitions(rows, dim):
    rng = np.random.default_rng(rows * 10 + dim)
    B = rng.standard_normal((rows, dim))
    problem = ConsensusProblem([B])
    for _ in range(3):
        z = rng.standard_normal(dim)
        terms = consensus_terms(problem, z)
        value, grad = terms.objective, terms.gradients[0]
        assert value == pytest.approx(-0.5 * float(np.sum((B @ z) ** 2)),
                                      rel=1e-12)
        np.testing.assert_allclose(grad, -(B.T @ B) @ z, rtol=1e-12,
                                   atol=1e-12 * np.abs(B.T @ B @ z).max())


def test_penalized_argmin_scalar_hand_value():
    # (rho - Q) x_k = rho x' - y with Q=1, rho=8, x'=1, y=0 gives 8/7
    out = penalized_argmin(scalar_problem(), [8.0], np.array([1.0]), np.array([[0.0]]))
    assert out[0, 0] == pytest.approx(8.0 / 7.0, rel=1e-14)


def test_penalized_argmin_rejects_small_rho():
    with pytest.raises(ValueError, match="component 0 .*not strongly convex"):
        penalized_argmin(scalar_problem(), [0.9], np.array([1.0]), np.array([[0.0]]))



@pytest.mark.parametrize("seed", [0, 3, 7])
def test_penalized_argmin_rejects_rho_below_the_true_curvature(seed):
    B = near_degenerate_data(seed)
    problem = ConsensusProblem([B])
    curvature = np.linalg.eigvalsh(B @ B.T).max()
    assert problem.lipschitz[0] >= curvature
    rho = [curvature * (1.0 - 1e-12)]
    for _ in range(2):  # a rejected penalty caches nothing
        with pytest.raises(ValueError, match="not strongly convex"):
            penalized_argmin(problem, rho, np.ones(B.shape[1]),
                             np.zeros((1, B.shape[1])))
        assert problem.penalty_inverses == {}


def test_run_sync_admm_rho_below_the_true_curvature_is_infeasible():
    # the bound is at or above the true curvature, so a penalty just below
    # that curvature is rejected before any update, even when forced
    problem = ConsensusProblem([near_degenerate_data(1)])
    B = dense(problem)[0]
    curvature = np.linalg.eigvalsh(B @ B.T).max()
    assert problem.lipschitz[0] >= curvature
    res = run(problem, RunConfig(algorithm="sync_admm", rho=curvature * (1.0 - 1e-12),
                                 force=True, max_iters=3))
    assert res.termination == "infeasible_stepsize"
    assert res.updates == 0


# -- generated instances pass the spot checks --------------------------------

def test_benchmark_instance_gradient_and_lipschitz_probes():
    spec = SparsePcaSpec(dim=10, num_components=3, rows=8, seed=5)
    problem = generate(spec)
    rng = np.random.default_rng(0)
    for k, B in enumerate(dense(problem)):
        # the gradient Lipschitz constant of -||Bz||^2/2 is exactly lambda_max
        assert problem.lipschitz[k] == pytest.approx(
            np.linalg.eigvalsh(B @ B.T).max(), rel=1e-10)
        for _ in range(3):
            x = rng.standard_normal(10) * 0.5
            np.testing.assert_allclose(
                consensus_terms(problem, x).gradients[k],
                finite_difference_gradient(lambda z: component_value(B, z), x),
                rtol=1e-5, atol=1e-7)


def test_consensus_problem_validation():
    comp = np.array([[1.0]])
    with pytest.raises(ValueError):
        ConsensusProblem([], l1_weight=0.0)
    with pytest.raises(ValueError):
        ConsensusProblem([comp], l1_weight=-0.5)
    with pytest.raises(ValueError):
        ConsensusProblem([comp], radius=0.0)
    # NaN passes a plain "< 0" test; each field is checked so that it fails
    for kwargs, message in (
            (dict(l1_weight=float("nan")), "l1_weight must be a finite nonnegative number, not nan"),
            (dict(l1_weight=float("inf")), "l1_weight must be a finite nonnegative number, not inf"),
            (dict(radius=float("nan")), "radius must be a finite positive number, not nan"),
            (dict(radius=float("inf")), "radius must be a finite positive number, not inf")):
        with pytest.raises(ValueError, match=message):
            ConsensusProblem([comp], **kwargs)
    # each matrix is checked by index, as it is drawn
    for bad, message in (
            (np.ones(3), "data matrix 1 must be 2-D, not of shape (3,)"),
            (np.ones((2, 1, 1)), "data matrix 1 must be 2-D, not of shape (2, 1, 1)"),
            (np.ones((0, 1)), "data matrix 1 is empty, of shape (0, 1)"),
            (np.ones((2, 0)), "data matrix 1 is empty, of shape (2, 0)"),
            (np.array([[np.nan]]), "data matrix 1 contains non-finite entries"),
            (np.array([[1.0], [-np.inf]]), "data matrix 1 contains non-finite entries")):
        with pytest.raises(ValueError, match=re.escape(message)):
            ConsensusProblem([comp, bad, comp])
    with pytest.raises(ValueError, match=re.escape("disagree on dimension: [1, 2]")):
        ConsensusProblem([comp, np.ones((1, 2))])
    problem = ConsensusProblem([comp, np.array([[2.0]])])
    np.testing.assert_allclose(problem.lipschitz, [1.0, 4.0])


def drawn(matrices, log):
    """The matrices one at a time, each logged as it is drawn."""
    for B in matrices:
        log.append(len(log))
        yield B


def test_a_problem_consumes_its_data_once_one_matrix_at_a_time():
    """A generator gives the bits of a list: every operator array and
    bound; a bad matrix raises by index before the next is drawn."""
    data = dense(stacked_problem("tall"))
    log = []
    lazy = ConsensusProblem(drawn(data, log), l1_weight=0.05)
    eager = ConsensusProblem(data, l1_weight=0.05)
    assert log == [0, 1, 2, 3]
    assert lazy.lipschitz.tobytes() == eager.lipschitz.tobytes()
    for got, want in zip(lazy.operator, eager.operator, strict=True):
        assert got[:2] == want[:2]
        for a, b in zip(got[2:], want[2:], strict=True):
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    log = []
    spoiled = data[:2] + [np.full((3, 12), np.inf)] + data[3:]
    with pytest.raises(ValueError, match="data matrix 2 contains non-finite entries"):
        ConsensusProblem(drawn(spoiled, log))
    assert log == [0, 1, 2]
    with pytest.raises(ValueError, match="need at least one component"):
        ConsensusProblem(drawn([], []))


def test_dense_checks_every_member_before_it_builds_a_block():
    """``_stored`` checks every member when called, and ``_blocks`` of its
    result builds each read-only block only when asked for it."""
    problem = stacked_problem("wide")
    members = dict(problems._nonzeros(problem))
    blocks = problems._blocks(*problems._stored(members))
    assert iter(blocks) is blocks
    first = next(blocks)
    assert first.shape == (6, 12) and not first.flags.writeable
    assert first.tobytes() == dense(problem)[0].tobytes()
    members["data_cols"] = members["data_cols"].copy()
    members["data_cols"][-1] = 12
    with pytest.raises(ValueError, match="data_cols holds a column outside 0 to 11"):
        problems._stored(members)


# -- state and trace ---------------------------------------------------------

def test_initial_state_shapes_and_invariants():
    spec = SparsePcaSpec(dim=7, num_components=4, rows=5, seed=8)
    problem = generate(spec)
    state = initial_state(problem)
    assert state.iteration == 1
    np.testing.assert_array_equal(state.x, np.zeros(7))
    np.testing.assert_array_equal(state.x_local, np.zeros((4, 7)))
    np.testing.assert_array_equal(state.y, np.zeros((4, 7)))
    np.testing.assert_array_equal(state.stale_index, np.ones(4, dtype=int))
    # zero start: gradients vanish, and the duals, their negation, are +0.0
    assert not np.signbit(state.y).any()


def test_initial_state_from_a_start_point():
    problem = generate(SparsePcaSpec(dim=7, num_components=4, rows=5, seed=8))
    x0 = np.random.default_rng(2).standard_normal(7) * 0.3
    state = initial_state(problem, x0)
    grads = np.stack([component_gradient(B, x0) for B in dense(problem)])
    np.testing.assert_array_equal(state.x, x0)
    np.testing.assert_array_equal(state.x_local, np.tile(x0, (4, 1)))
    # duals start at the negated gradients: the dual identity holds at once
    np.testing.assert_array_equal(state.y, -grads)
    np.testing.assert_array_equal(state.stale_index, np.ones(4, dtype=int))
    assert state.iteration == 1
    x0[0] = 9.0
    assert state.x[0] != 9.0


def test_a_run_keeps_its_states_as_one_stacked_history():
    """``trace.states`` is a ``StateHistory``: a sequence of states whose
    arrays are views of its four stacked arrays, so indexing, negative
    indexing, slicing, iteration, zip and deepcopy work as on the list of
    states it was stacked from; writing into a state's arrays writes into
    its history, and assigning one of them does not."""
    import copy
    problem = generate(SparsePcaSpec(dim=8, num_components=3, rows=4, seed=6))
    result = run(problem, RunConfig(max_iters=9, epsilon=1e-14, full_trace=True,
                                    delay_bound=1, enforcement="observe"))
    states = result.trace.states
    assert isinstance(states, problems.StateHistory) and len(states) == 10
    assert states.x.shape == (10, 8) and states.stale_index.shape == (10, 3)
    assert states.x_local.shape == states.y.shape == (10, 3, 8)
    for i, state in enumerate(states):
        assert isinstance(state, SolverState)
        assert type(state.iteration) is int and state.iteration == i + 1
        for name in ("x", "x_local", "y", "stale_index"):
            assert getattr(state, name).base is getattr(states, name)
            assert (getattr(state, name).tobytes()
                    == getattr(states, name)[i].tobytes())
    assert states[-1].iteration == 10 and states[-10].iteration == 1
    assert states[-1].x.tobytes() == result.state.x.tobytes()
    for bad in (10, -11):
        with pytest.raises(IndexError):
            states[bad]
    tail = states[1:]
    assert isinstance(tail, list) and [s.iteration for s in tail] == list(range(2, 11))
    assert [s.iteration for s in states[::-3]] == [10, 7, 4, 1]
    assert [(a.iteration, b.iteration) for a, b in zip(states, states[1:])][:2] == [
        (1, 2), (2, 3)]
    # a state writes into its history through its arrays, not by assignment
    states[4].y[0, 0] += 1.0
    states[5].stale_index[:] = [1, 2, 3]
    assert states.stale_index[5].tolist() == [1, 2, 3]
    before = states.x[6].copy()
    states[6].x = np.full(8, 7.0)
    assert states.x[6].tobytes() == before.tobytes()
    twin = copy.deepcopy(result.trace)
    assert isinstance(twin.states, problems.StateHistory)
    for name in ("x", "x_local", "y", "stale_index"):
        a, b = getattr(twin.states, name), getattr(states, name)
        assert a is not b and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    before = states.y.copy()
    twin.states[4].y[0, 0] = np.nan
    twin.states[3].x[:] = 0.0
    assert np.isnan(twin.states.y[4, 0, 0]) and not twin.states.x[3].any()
    assert states.y.tobytes() == before.tobytes() and states.x[3].any()
    # a list of states stacks once, to the same arrays
    again = problems.StateHistory.of(list(states))
    assert problems.StateHistory.of(states) is states
    for name in ("x", "x_local", "y", "stale_index"):
        assert getattr(again, name).tobytes() == getattr(states, name).tobytes()


def test_a_refused_run_keeps_an_empty_list_of_states():
    problem = generate(SparsePcaSpec(dim=8, num_components=3, rows=4, seed=6))
    result = run(problem, RunConfig(rho=1e-9, max_iters=5, full_trace=True))
    assert result.termination == "infeasible_stepsize"
    assert result.trace.states == []


def test_iteration_trace_append_and_len():
    trace = IterationTrace()
    assert len(trace) == 0
    trace.append(1.0, 0.5, 0.1, 0.2, 0.3, 1.0, 3)
    trace.append(0.9, 0.4, 0.05, 0.1, 0.15, 2.0, 2)
    assert len(trace) == 2
    for column, expected in ((trace.lagrangian, array("d", [1.0, 0.9])),
                             (trace.collected, array("q", [3, 2]))):
        assert column.typecode == expected.typecode
        assert column.tobytes() == expected.tobytes()


def test_smooth_value_is_component_sum():
    # the objective is the component values plus the l1 term, and row k of
    # the gradients is component k's own gradient, bit for bit
    spec = SparsePcaSpec(dim=5, num_components=3, rows=4, l1_weight=0.2, seed=11)
    problem = generate(spec)
    x = np.random.default_rng(0).standard_normal(5)
    terms = consensus_terms(problem, x)
    ref = sum(component_value(B, x) for B in dense(problem))
    ref += 0.2 * float(np.abs(x).sum())
    assert terms.objective == pytest.approx(ref, rel=1e-14)
    assert terms.gradients.shape == (3, 5)
    for row, B in zip(terms.gradients, dense(problem)):
        np.testing.assert_array_equal(row, component_gradient(B, x))


# -- the stacked data of a problem -------------------------------------------

STACK_ROWS = {"wide": 6, "square": 12, "tall": 18}


def stacked_problem(shape):
    return generate(SparsePcaSpec(dim=12, num_components=4,
                                  rows=STACK_ROWS[shape], nonzero_prob=0.3,
                                  l1_weight=0.05, seed=4))


def loop_terms(problem, x):
    """Objective and gradients from the reference expressions, in order."""
    value = 0.0
    for B in dense(problem):
        value += component_value(B, x)
    grads = np.stack([component_gradient(B, x) for B in dense(problem)])
    return value + problem.l1_weight * float(np.abs(x).sum()), grads


def loop_residual(problem, x, grads):
    """Prox-gradient residual with the gradient summed row by row, in order."""
    grad = np.zeros(problem.dim)
    for g in grads:
        grad += g
    return x - prox_l1_ball(x - grad, problem.l1_weight, problem.radius)


def loop_lagrangian(problem, state, rho):
    total = problem.l1_weight * float(np.abs(state.x).sum())
    for k, B in enumerate(dense(problem)):
        diff = state.x_local[k] - state.x
        total += component_value(B, state.x_local[k])
        total += float(state.y[k] @ diff)
        total += 0.5 * rho[k] * float(diff @ diff)
    return total


@pytest.mark.parametrize("shape", sorted(STACK_ROWS))
def test_batched_evaluation_matches_the_reference_expressions(shape):
    problem = stacked_problem(shape)
    rng = np.random.default_rng(8)
    rho = rng.uniform(5.0, 20.0, 4)
    for _ in range(5):
        x = rng.standard_normal(12) * 0.3
        terms = consensus_terms(problem, x)
        objective, grads = loop_terms(problem, x)
        state = make_state(problem, x, rng.standard_normal((4, 12)) * 0.3,
                           rng.standard_normal((4, 12)))
        lagrangian = augmented_lagrangian(problem, state, rho)
        reference = loop_lagrangian(problem, state, rho)
        np.testing.assert_array_equal(terms.gradients, grads)
        assert terms.objective == objective
        assert (terms.prox_residual.tobytes()
                == loop_residual(problem, x, grads).tobytes())
        assert lagrangian == reference


def operator_arrays(problem):
    return [a for part in problem.operator for a in part[2:] if a is not None]


def assert_holds_its_own_copy(problem, given):
    """Every array of the operator is read-only and shares no memory with
    ``given``, and its blocks (``dense``) are ``given``."""
    assert all(not a.flags.writeable for a in operator_arrays(problem))
    assert not any(np.shares_memory(a, G) for a in operator_arrays(problem)
                   for G in given)
    data = dense(problem)
    assert len(data) == len(given)
    for B, G in zip(data, given):
        assert B.tobytes() == G.tobytes()


def test_problem_holds_its_own_read_only_operator():
    """The operator is D and ``segments``, nothing else: the nonzeros are
    held once, in D, whose arrays are read-only and none of the caller's."""
    spec = SparsePcaSpec(dim=12, num_components=4, rows=STACK_ROWS["tall"],
                         nonzero_prob=0.3, seed=4)
    data = dense(generate(spec))
    kept = [B.copy() for B in data]
    problem = ConsensusProblem(data)
    operator = problem.operator
    assert operator._fields == ("D", "segments")
    D, segments = operator
    nonzeros = sum(np.count_nonzero(B) for B in data)
    assert (D.rows, D.cols) == (72, 48)
    assert len(D.indptr) == 73 and D.indptr[-1] == nonzeros
    assert len(D.indices) == len(D.data) == nonzeros
    assert (problem.dim, problem.num_components) == (12, 4)
    # component k owns rows 18 k to 18 (k + 1), and columns 12 k to 12 (k + 1)
    assert segments[:2] == (4, 72) and segments.data is None
    assert segments.indptr.tolist() == [0, 18, 36, 54, 72]
    component = np.repeat(np.arange(4), 18)[np.repeat(np.arange(72), np.diff(D.indptr))]
    assert (D.indices // 12 == component).all()
    assert_holds_its_own_copy(problem, kept)
    # the caller's matrices are only read: still writeable, still equal
    for B, K in zip(data, kept):
        assert B.flags.writeable and B.tobytes() == K.tobytes()
    data[0][0, 0] += 1.0
    assert dense(problem)[0].tobytes() == kept[0].tobytes()


def test_products_reject_a_vector_of_the_wrong_length():
    """The kernels read their vector unchecked, so ``_matvec`` checks its
    length against the columns of D, or of D^T when transposed, and
    ``_block_pass`` checks a single point against N before its K-row
    stack."""
    D = stacked_problem("tall").operator.D
    assert (D.rows, D.cols) == (72, 48)
    assert problems._matvec(*D, np.ones(48)).shape == (72,)
    assert problems._matvec(*D, np.ones(72), transpose=True).shape == (48,)
    with pytest.raises(ValueError, match=re.escape("vector of shape (72,) for 48 columns")):
        problems._matvec(*D, np.ones(72))
    for wrong in (np.ones(48), np.ones(73), np.ones((72, 1))):
        with pytest.raises(ValueError, match="vector of shape .* for 72 columns"):
            problems._matvec(*D, wrong, transpose=True)
    with pytest.raises(ValueError, match=re.escape("vector of shape (7,) for 12 columns")):
        initial_state(stacked_problem("tall"), np.zeros(7))


def test_two_problems_built_from_one_list_share_no_memory():
    data = dense(stacked_problem("wide"))
    first = ConsensusProblem(data, l1_weight=0.05)
    second = ConsensusProblem(data, l1_weight=0.05)
    third = ConsensusProblem(dense(first)[::-1], l1_weight=0.05)
    built = (first, second, third)
    for a, b in itertools.combinations(built, 2):
        assert not any(np.shares_memory(p, q) for p in operator_arrays(a)
                       for q in operator_arrays(b))
    assert_holds_its_own_copy(third, data[::-1])
    x = np.random.default_rng(2).standard_normal(12) * 0.3
    for problem in built:
        objective, grads = loop_terms(problem, x)
        terms = consensus_terms(problem, x)
        assert terms.objective == objective
        np.testing.assert_array_equal(terms.gradients, grads)


def test_problem_data_and_bounds_are_read_only():
    problem = stacked_problem("wide")
    with pytest.raises(ValueError):
        problem.operator.D.data[0] = 1.0
    with pytest.raises(ValueError):
        problem.lipschitz[0] = 1.0


@pytest.mark.parametrize("rows", [[6, 6, 9, 4, 4], [20, 35, 10, 20, 50]],
                         ids=["runs", "digest"])
def test_ragged_problems_match_the_reference_expressions(rows):
    spec = SparsePcaSpec(dim=12, num_components=5, rows=rows,
                         nonzero_prob=0.3, l1_weight=0.05, seed=6)
    data = dense(generate(spec))
    problem = ConsensusProblem(data, l1_weight=0.05)
    assert_holds_its_own_copy(problem, data)
    assert all(B.flags.writeable for B in data)
    rng = np.random.default_rng(8)
    rho = rng.uniform(5.0, 20.0, 5)
    for _ in range(5):
        x = rng.standard_normal(12) * 0.3
        terms = consensus_terms(problem, x)
        objective, grads = loop_terms(problem, x)
        state = make_state(problem, x, rng.standard_normal((5, 12)) * 0.3,
                           rng.standard_normal((5, 12)))
        assert terms.objective == objective
        np.testing.assert_array_equal(terms.gradients, grads)
        assert (terms.prox_residual.tobytes()
                == loop_residual(problem, x, grads).tobytes())
        assert augmented_lagrangian(problem, state, rho) == loop_lagrangian(
            problem, state, rho)


def paper_problem(num_components):
    spec = SparsePcaSpec(dim=500, num_components=num_components, rows=100,
                         l1_weight=0.05, seed=3)
    data = dense(generate(spec))
    return ConsensusProblem(data, l1_weight=0.05), data


def test_the_passes_match_the_reference_expressions_at_paper_shape():
    """The pass at a consensus point of a paper-shape problem, and the
    values pass at the local copies, give the bits of the per-component
    reference expressions."""
    problem, _ = paper_problem(7)
    rng = np.random.default_rng(5)
    rho = rng.uniform(5.0, 20.0, 7)
    for _ in range(3):
        x = rng.standard_normal(500) * 0.05
        state = make_state(problem, x, rng.standard_normal((7, 500)) * 0.05,
                           rng.standard_normal((7, 500)))
        terms = consensus_terms(problem, x)
        objective, grads = loop_terms(problem, x)
        assert terms.objective == objective
        np.testing.assert_array_equal(terms.gradients, grads)
        assert (terms.prox_residual.tobytes()
                == loop_residual(problem, x, grads).tobytes())
        assert (augmented_lagrangian(problem, state, rho)
                == loop_lagrangian(problem, state, rho))
        # a trace row's shared differences and l1 term give the same bits
        diff = state.x_local - state.x
        assert (augmented_lagrangian(problem, state, rho, diff, terms.l1_term)
                == loop_lagrangian(problem, state, rho))
        assert stationarity(state, terms, diff) == stationarity(state, terms)


def test_a_missing_compiled_module_raises_import_error_naming_it():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module"):
        problems._compiled("linalg._no_such_module")


def test_the_csr_kernel_adds_each_row_in_order_onto_the_output():
    """The problems call scipy's private ``csr_matvec`` and ``csc_matvec``
    directly, taken from ``scipy.sparse._sparsetools`` as loaded on its
    own: the same function objects that module holds once scipy's
    packages are imported (``test_package`` checks each import order in
    fresh interpreters). This pins their arguments and their sums. ``csr_matvec``
    adds each row's products, in stored order, one at a time onto what the
    output held (a pairwise or a reordered sum gives 1.5 on the first
    row), and an empty row keeps it. ``csc_matvec``, given the arrays of a
    CSR matrix as those of its transpose, adds each stored row's product
    into its output in row order, one at a time onto what the output
    held, and an empty column keeps it: the order of a product of the
    stored transpose. Their multi-vector forms ``csr_matvecs`` and
    ``csc_matvecs`` take the vector count after the shape and the vectors
    as the rows of a (columns, count) array, and add each vector's
    products in the same order."""
    from scipy.sparse._sparsetools import (csc_matvec, csc_matvecs, csr_matvec,
                                           csr_matvecs)
    assert problems.csr_matvec is csr_matvec
    assert problems.csc_matvec is csc_matvec
    assert problems.csr_matvecs is csr_matvecs
    assert problems.csc_matvecs is csc_matvecs
    out = np.array([0.5, -0.0])
    csr_matvec(2, 3, np.array([0, 3, 3], dtype=np.int32),
               np.array([0, 1, 2], dtype=np.int32), np.array([1.0, 1e16, -1e16]),
               np.ones(3), out)
    assert out[0] == 2.0
    assert out[1] == 0.0 and math.copysign(1.0, out[1]) == -1.0
    # the 3 x 2 CSR matrix with 1, 1e16, -1e16 in column 0 and column 1
    # empty; its transpose times w = 1: (rows, cols, indptr, indices, data,
    # w, out) of the 2 x 3 transpose
    out = np.array([0.5, -0.0])
    csc_matvec(2, 3, np.array([0, 1, 2, 3], dtype=np.int32),
               np.array([0, 0, 0], dtype=np.int32), np.array([1.0, 1e16, -1e16]),
               np.ones(3), out)
    assert out[0] == 2.0
    assert out[1] == 0.0 and math.copysign(1.0, out[1]) == -1.0
    # the same products on two vectors, the ones and their negation: output
    # row i holds both products of row i, each in the order above
    vectors = np.array([[1.0, -1.0]] * 3)
    for kernel, indptr, indices in (
            (csr_matvecs, [0, 3, 3], [0, 1, 2]),
            (csc_matvecs, [0, 1, 2, 3], [0, 0, 0])):
        out = np.array([[0.5, -0.5], [-0.0, -0.0]])
        kernel(2, 3, 2, np.array(indptr, dtype=np.int32),
               np.array(indices, dtype=np.int32), np.array([1.0, 1e16, -1e16]),
               vectors, out)
        assert out[0].tolist() == [2.0, -2.0]
        assert (out[1] == 0.0).all() and (np.copysign(1.0, out[1]) == -1.0).all()


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([1, 15, 16, 17, 40]))
def test_the_pass_equals_the_per_component_reference_on_ragged_sparse_data(
        draw, R):
    """Random row counts and sparsity patterns, with one all-zero component
    and one whose even rows are empty: the values and gradients at one
    point, at one point per component and at the local copies are the
    reference's bits, and ``dense`` reads the matrices back. An ``(R, K,
    N)`` stack, the residual replay's form, gives the bits of R passes."""
    K = draw.draw(st.integers(2, 5))
    rows = draw.draw(st.lists(st.integers(1, 5), min_size=K, max_size=K))
    N = draw.draw(st.integers(1, 7))
    zero, holed = draw.draw(st.permutations(range(K)))[:2]
    rng = np.random.default_rng(draw.draw(st.integers(0, 2 ** 32 - 1)))
    density = rng.random()
    data = [np.where(rng.random((M, N)) < density, rng.standard_normal((M, N)), 0.0)
            for M in rows]
    data[zero][:] = 0.0
    data[holed][::2] = 0.0
    problem = ConsensusProblem(data)
    assert [B.tobytes() for B in dense(problem)] == [B.tobytes() for B in data]
    x, X, local = (rng.standard_normal(N), rng.standard_normal((K, N)),
                   rng.standard_normal((K, N)))

    def reference(points):
        return (np.array([component_value(B, z) for B, z in zip(data, points)]),
                np.stack([component_gradient(B, z) for B, z in zip(data, points)]))

    for points, want in ((x, reference([x] * K)), (X, reference(X))):
        values, grads = problems._block_pass(problem.operator, points)
        assert values.tobytes() == want[0].tobytes()
        assert grads.tobytes() == want[1].tobytes()
    values, grads = problems._block_pass(problem.operator, local, gradients=False)
    assert grads is None
    assert values.tobytes() == reference(local)[0].tobytes()
    stack = rng.standard_normal((R, K, N))
    values, grads = problems._block_pass(problem.operator, stack)
    assert values.shape == (R, K) and grads.shape == (R, K, N)
    assert grads.flags.c_contiguous
    passes = [problems._block_pass(problem.operator, points) for points in stack]
    assert values.tobytes() == np.stack([v for v, _ in passes]).tobytes()
    assert grads.tobytes() == np.stack([g for _, g in passes]).tobytes()
    values, grads = problems._block_pass(problem.operator, stack, gradients=False)
    assert grads is None
    assert values.tobytes() == np.stack([v for v, _ in passes]).tobytes()

