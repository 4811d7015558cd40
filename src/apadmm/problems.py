"""Consensus problem container, component costs, solver state, and iteration traces.

The problem solved throughout is

    minimize  sum_k g_k(x) + l1_weight * ||x||_1   subject to  ||x||_2 <= radius,

where each g_k is smooth with Lipschitz gradient. Solvers keep one master
vector ``x``, one local copy ``x_local[k]`` per component, one dual vector
``y[k]`` per component, and the master-iteration index at which each
component's last collected gradient was evaluated. The dual is the
record of that gradient: a proximal commit sets ``y[k]`` to its negation.

Each component is evaluated once per master iterate, in the one pass of
``consensus_terms``: it yields the objective and proximal-gradient
residual (the optimality measure, the trace row) and the gradients the
workers deliver, after their delays if any.

Every component is the sparse-PCA cost ``g_k(x) = -0.5 ||B_k x||^2`` of
an M_k x N data matrix B_k, with gradient ``-B_k^T B_k x``.
``ConsensusProblem`` owns that data: it validates each matrix, bounds
its curvature (``lipschitz``) and keeps the nonzeros once, in one
read-only block-diagonal CSR matrix D (``_operator``). Every evaluation
is a few products of D or D^T, with no loop over components;
``penalized_argmin`` adds one batched product per run of equal row
counts. Generated instances are 10% nonzero: a paper-scale pass reads
about 50,000 entries where dense matrices hold 500,000. The products
call scipy's private kernels directly (the public ``@`` adds a few
microseconds of checks a call, doubling a desk-scale pass):
``csr_matvec`` for D and ``csc_matvec`` for D^T, on D's arrays.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
# private scipy API, pinned by a test (see the module docstring)
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .prox import _norm, prox_l1_ball

__all__ = [
    "ConsensusProblem",
    "SolverState",
    "IterationTrace",
    "leading_eigenvalue",
    "penalized_argmin",
    "initial_state",
    "ConsensusTerms",
    "consensus_terms",
    "augmented_lagrangian",
    "feasibility_gap",
]

def leading_eigenvalue(B):
    """Upper bound on the top eigenvalue of ``B.T @ B`` (and of ``B @ B.T``).

    ``eigvalsh`` of the smaller Gram matrix G of the M x N matrix B, plus
    the pad ``2 (M + N) eps ||B||_F^2`` (eps = 2u, u the unit roundoff),
    which bounds the rounding error of both steps:

    * Gram: an entry is an inner product of length n = max(M, N), so
      ``|fl(G)_ij - G_ij| <= gamma_n |b_i| |b_j|``, ``gamma_n = n u / (1 - n u)``
      (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1). So
      ``||fl(G) - G||_2 <= gamma_n ||B||_F^2``, and by Weyl's theorem the top
      eigenvalue moves no more (Golub & Van Loan, *Matrix Computations*, 8.1).
    * Eigensolver: being backward stable, it returns the eigenvalues of
      ``fl(G) + F`` with ``||F||_2 <= p(k) u ||G||_2``, k = min(M, N), p
      modest (ibid. 8.3); with p(k) = k and ``||G||_2 <= ||B||_F^2`` that is
      ``k u ||B||_F^2`` to first order.

    Their sum, ``(M + N) u ||B||_F^2``, is a quarter of the pad; the slack
    covers rounding in the pad and the final sum. As ``||B||_F^2 = trace(G)
    <= min(M, N) lambda_max``, the pad is at most ``2 (M + N) min(M, N) eps``
    relative: 2.7e-11 for a 100 x 500 block. Returns 0.0 for B = 0.
    """
    B = np.asarray(B, dtype=float)
    M, N = B.shape
    gram = B @ B.T if M <= N else B.T @ B
    top = scipy.linalg.eigvalsh(gram, subset_by_index=[len(gram) - 1] * 2)[0]
    pad = 2.0 * (M + N) * np.finfo(float).eps * float(np.trace(gram))
    return float(top) + pad


# a read-only CSR matrix, its fields in ``csr_matvec``'s argument order
_Csr = namedtuple("_Csr", "rows cols indptr indices data")
# the component data as one read-only CSR matrix and its row segments
_Operator = namedtuple("_Operator", "D segments")


def _matvec(rows, cols, indptr, indices, data, x, transpose=False):
    # the CSR matrix (or with ``transpose`` its transpose, whose CSC arrays these
    # are) times x: csr_matvec adds each row's products in column order, csc_matvec
    # into each output in row order, one at a time onto 0.0; x is unchecked there
    kernel = csr_matvec
    if transpose:
        rows, cols, kernel = cols, rows, csc_matvec
    if x.shape != (cols,):
        raise ValueError("vector of shape %s for %d columns" % (x.shape, cols))
    out = np.zeros(rows)
    kernel(rows, cols, indptr, indices, data, x, out)
    return out


def _operator(data):
    """The ``_Operator`` of the M_k x N matrices ``data``, which it only reads.

    D, the one copy of the data, is block diagonal, ``(sum_k M_k) x (K N)``,
    with B_k in component k's rows and in columns k N to (k + 1) N, each
    row's nonzeros in column order, taken one matrix at a time with no
    dense copy. ``segments`` is the K x (sum_k M_k) pattern that sums each
    component's rows, with no values: component k owns rows
    ``indptr[k]:indptr[k + 1]``.
    """
    K, N = len(data), data[0].shape[1]
    S = sum(len(B) for B in data)
    index = np.int32 if S * N < 2 ** 31 else np.int64  # S N >= nonzeros, K N
    counts, cols, values = [[0]], [], []
    for k, B in enumerate(data):
        rows, c = np.divmod(np.flatnonzero(B), N)  # faster than np.nonzero(B)
        counts.append(np.bincount(rows, minlength=len(B)))
        cols.append(c + k * N)  # component k at column k N
        values.append(B[rows, c])
    D = _Csr(S, K * N, np.concatenate(counts).cumsum().astype(index),
             np.concatenate(cols).astype(index), np.concatenate(values))
    segments = _Csr(K, S, np.cumsum([0] + [len(B) for B in data]).astype(index),
                    np.arange(S, dtype=index), None)
    for a in (*D[2:], *segments[2:4]):
        a.flags.writeable = False
    return _Operator(D, segments)


def _row_dots(a, b):
    # ``[a[k] @ b[k] for k]``, each row pair as one dot product
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _block_pass(operator, X, gradients=True):
    """``(values, gradients)`` of every component at X, in order.

    X is one point, checked against N and taken as its K-row stack, or
    one row per component; the gradients are None when ``gradients`` is
    false. Products of the ``operator``'s D, with no loop over
    components: D at X gives ``W_k = B_k X_k``, D^T on W the gradients
    ``-B_k^T W_k``, and the ``segments`` matrix, with W as its values,
    times W the values ``-0.5 W_k . W_k``.
    """
    D, segments = operator
    if X.ndim != 2:
        N = D.cols // segments.rows
        if X.shape != (N,):
            raise ValueError("vector of shape %s for %d columns" % (X.shape, N))
        X = X[None].repeat(segments.rows, 0)
    W = _matvec(*D, X.ravel())
    grads = -_matvec(*D, W, transpose=True).reshape(X.shape) if gradients else None
    return -0.5 * _matvec(*segments[:4], W, W), grads


class ConsensusProblem:
    """Problem data: component matrices plus the shared l1 + ball regularizer.

    ``data`` is given as one M_k x N matrix per component: 2-D, nonempty,
    finite, one N for all; a bad matrix raises ValueError naming its
    index. The problem keeps the read-only ``operator`` (``_operator``)
    and neither keeps nor writes the matrices given; ``data`` reads them
    back as a tuple of read-only dense arrays, built on each access.
    ``lipschitz[k]``, read-only, is ``leading_eigenvalue`` of the matrix
    as given, a proven upper bound on the top eigenvalue of its Gram
    matrix, floored at machine epsilon when the matrix is 0.
    ``penalty_inverses`` maps a penalty vector (a tuple of floats) to what
    ``penalized_argmin`` caches for it (``_penalty_inverses``).
    """

    def __init__(self, data, l1_weight=0.0, radius=1.0):
        data = [np.asarray(B, dtype=float) for B in data]
        if not data:
            raise ValueError("need at least one component")
        for k, B in enumerate(data):
            if B.ndim != 2:
                raise ValueError("data matrix %d must be 2-D, not of shape %s"
                                 % (k, B.shape))
            if B.size == 0:
                raise ValueError("data matrix %d is empty, of shape %s" % (k, B.shape))
            if not np.isfinite(B).all():
                raise ValueError("data matrix %d contains non-finite entries" % k)
        # written so that NaN fails each check
        if not 0 <= l1_weight < math.inf:
            raise ValueError("l1_weight must be nonnegative and finite, not %r"
                             % (l1_weight,))
        if not 0 < radius < math.inf:
            raise ValueError("radius must be positive and finite, not %r"
                             % (radius,))
        dims = {B.shape[1] for B in data}
        if len(dims) != 1:
            raise ValueError("components disagree on dimension: %s" % sorted(dims))
        self.l1_weight, self.radius = l1_weight, radius
        bounds = [leading_eigenvalue(B) for B in data]
        eps = float(np.finfo(float).eps)
        self.lipschitz = np.array([L if L > 0.0 else eps for L in bounds])
        self.lipschitz.flags.writeable = False
        self.operator = _operator(data)
        self.penalty_inverses = {}

    @property
    def data(self):
        D, N = self.operator.D, self.dim
        dense = np.zeros((D.rows, N))
        dense[np.repeat(np.arange(D.rows), np.diff(D.indptr)), D.indices % N] = D.data
        dense.flags.writeable = False
        return tuple(np.split(dense, self.operator.segments.indptr[1:-1]))

    @property
    def dim(self):
        return self.operator.D.cols // self.num_components

    @property
    def num_components(self):
        return self.operator.segments.rows


def _penalty_inverses(problem, rho):
    """The cached read-only stacks of ``S_k = (rho_k I - B_k B_k^T)^{-1}``.

    One ``(K_b, M_b, M_b)`` stack per run of consecutive components with
    equal row counts, built on the first call for ``rho`` from a batched
    Gram ``B B^T`` and a Cholesky factor of each M_b x M_b matrix. A
    rejected penalty (see ``penalized_argmin``) caches nothing.
    """
    key = tuple(rho.tolist())
    inverses = problem.penalty_inverses.get(key)
    if inverses is not None:
        return inverses
    lipschitz = problem.lipschitz
    inverses = []
    k = 0
    for _, run in itertools.groupby(problem.data, key=len):
        block = np.stack(list(run))
        gram = block @ block.transpose(0, 2, 1)
        eye = np.eye(gram.shape[1])
        for i in range(len(block)):
            factor = None
            if rho[k] > lipschitz[k]:
                try:
                    factor = scipy.linalg.cho_factor(rho[k] * eye - gram[i])
                except np.linalg.LinAlgError:
                    pass
            if factor is None:
                raise ValueError(
                    "penalty %g of component %d does not exceed its curvature "
                    "(bound %g); the exact subproblem is not strongly convex"
                    % (rho[k], k, lipschitz[k]))
            gram[i] = scipy.linalg.cho_solve(factor, eye)
            k += 1
        gram.flags.writeable = False
        inverses.append(gram)
    inverses = problem.penalty_inverses[key] = tuple(inverses)
    return inverses


def penalized_argmin(problem, rho, x_master, y):
    """Exact minimizers of ``g_k(u) + <y_k, u - x_master> + rho_k/2 ||u - x_master||^2``.

    Returns all K minimizers as a ``(K, N)`` array; ``rho`` holds one
    penalty per component and ``y`` one dual per component. Component k
    solves ``(rho_k I_N - B_k^T B_k) u_k = b_k``, ``b_k = rho_k x_master -
    y_k``, in its M-dimensional data space: with ``S_k = (rho_k I_M - B_k
    B_k^T)^{-1}`` and ``(rho I_N - B^T B) B^T = B^T (rho I_M - B B^T)``,

        (rho I_N - B^T B)(I_N + B^T S B) = rho I_N - B^T B + B^T B = rho I_N,

    the push-through identity (Golub & Van Loan, *Matrix Computations*,
    2.1.4), so ``u_k = (b_k + B_k^T S_k B_k b_k) / rho_k`` for every shape
    of B_k: D at the stacked ``b_k``, one batched product per stack of
    cached S_k (``_penalty_inverses``), and D^T, on D's own arrays, on
    the result. Every ``rho_k`` must exceed the problem's ``lipschitz[k]``,
    which bounds the top eigenvalue of both Gram matrices from above: a
    penalty at or below it, or one the factorization still finds too
    small in floating point, raises ValueError naming the component.
    """
    rho = np.asarray(rho, dtype=float)
    b = rho[:, None] * x_master - y
    v = _matvec(*problem.operator.D, b.ravel())
    start = 0
    for inverse in _penalty_inverses(problem, rho):
        count, rows, _ = inverse.shape
        end = start + count * rows
        v[start:end] = (inverse @ v[start:end].reshape(count, rows, 1)).ravel()
        start = end
    out = _matvec(*problem.operator.D, v, transpose=True).reshape(b.shape)
    out += b
    out /= rho[:, None]
    return out


@dataclass
class SolverState:
    """Master-side state after a completed iteration.

    ``y[k]`` is minus the gradient of component k at the master vector of
    iteration ``stale_index[k]``: the dual is the one record of the
    collected gradients. Staleness at iteration t is ``t - stale_index[k]``.

    No update writes into a state it was given: each returns a new state
    with new arrays. Traces therefore keep the states themselves as
    snapshots.
    """

    iteration: int
    x: np.ndarray
    x_local: np.ndarray
    y: np.ndarray
    stale_index: np.ndarray


def initial_state(problem, x0=None):
    """Start state at ``x0``, or at zero when ``x0`` is None.

    The master vector and every local copy start at the start point, the
    duals at the negated gradients of the ``consensus_terms`` pass there,
    with stale index 1, so the dual identity holds before the first
    update; the iteration counter starts at 1.
    """
    start = np.zeros(problem.dim) if x0 is None else np.array(x0, dtype=float)
    grads = consensus_terms(problem, start).gradients
    return SolverState(
        iteration=1,
        x=start,
        x_local=np.tile(start, (len(grads), 1)),
        y=-grads,
        stale_index=np.ones(len(grads), dtype=int),
    )


class ConsensusTerms(NamedTuple):
    """What one evaluation pass at a consensus point yields.

    ``l1_term`` is the objective's ``l1_weight * ||x||_1``, which
    ``augmented_lagrangian`` reuses at the same x.
    """

    objective: float
    l1_term: float
    prox_residual: np.ndarray
    gradients: np.ndarray


def consensus_terms(problem, x):
    """Objective, proximal-gradient residual and gradients ``grad g_k(x)`` at x.

    Evaluates each component once, in one pass of the problem's
    ``operator``; every other component sum at a consensus point is a
    view of this one. The objective is ``sum_k g_k(x) + l1_weight * ||x||_1``
    (the ball constraint is not folded in; callers keep x feasible), and
    the residual ``x - prox(x - grad g(x))`` uses a unit step and the
    l1-plus-ball operator with the problem's own l1 weight.
    """
    x = np.asarray(x, dtype=float)
    values, grads = _block_pass(problem.operator, x)
    # a Python loop: 0.6 us at K = 5, where np.add.reduce takes 2.1 us
    value = 0.0
    for v in values.tolist():
        value += v
    # rows added in order onto 0.0, so a column of -0.0 sums to 0.0
    grad = np.add.reduce(grads, axis=0, initial=0.0)
    l1_term = problem.l1_weight * float(np.add.reduce(np.abs(x)))
    residual = x - prox_l1_ball(x - grad, problem.l1_weight, problem.radius)
    return ConsensusTerms(value + l1_term, l1_term, residual, grads)


def augmented_lagrangian(problem, state, rho, diff=None, l1_term=None):
    """Augmented Lagrangian at the given state.

    ``sum_k [g_k(x_local_k) + <y_k, x_local_k - x> + rho_k/2 ||x_local_k - x||^2]
    + l1_weight * ||x||_1``, with per-component penalties ``rho``. The
    component values come from one values pass at ``state.x_local``. A
    trace row also passes the ``diff`` ``x_local - x`` and the
    ``l1_term`` at x that its other terms formed; either is computed
    here, to the same bits, when None.
    """
    values = _block_pass(problem.operator, state.x_local, gradients=False)[0]
    diff = state.x_local - state.x if diff is None else diff
    if l1_term is None:
        l1_term = problem.l1_weight * float(np.add.reduce(np.abs(state.x)))
    rows = zip(values.tolist(), _row_dots(state.y, diff).tolist(),
               np.asarray(rho, dtype=float).tolist(), _row_dots(diff, diff).tolist())
    total = l1_term
    # in Python floats, which round as numpy's 0.5 * rho * dots would: at
    # N = 50, K = 5 one np.add.reduce of the terms makes the call 2-3 us slower
    for value, cross, r, square in rows:
        total += value
        total += cross
        total += 0.5 * r * square
    return total


def feasibility_gap(state, diff=None):
    """Consensus gaps ``(absolute, relative)``.

    Absolute: ``max_k ||x_local_k - x||``. Relative divides by ``||x||``,
    falling back to the absolute gap when ``||x|| == 0``. ``diff`` is
    ``state.x_local - state.x`` when a caller already formed it.
    """
    # np.linalg.norm(d, axis=1) is sqrt(add.reduce(d * d, axis=1)), and the
    # square root is monotone: the largest gap is the root of the largest square
    d = state.x_local - state.x if diff is None else diff
    absolute = math.sqrt(np.add.reduce(d * d, axis=1).max())
    norm_x = _norm(state.x)
    relative = absolute / norm_x if norm_x > 0 else absolute
    return absolute, relative


@dataclass
class IterationTrace:
    """Per-iteration records of a run; one row per completed update.

    ``sim_time`` is the cumulative simulated clock in master-iteration
    units. ``lagrangian`` is None when the run did not record the
    augmented Lagrangian (``run(..., lagrangian=False)``); the length
    counts ``measure`` rows either way. When state snapshots are kept,
    ``states[0]`` is the initial state and ``states[t]`` the state after
    iteration row t.
    """

    lagrangian: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    feas_gap: list = field(default_factory=list)
    prox_grad_norm: list = field(default_factory=list)
    measure: list = field(default_factory=list)
    sim_time: list = field(default_factory=list)
    collected: list = field(default_factory=list)
    states: list = None

    def __len__(self):
        return len(self.measure)

    def append(self, lagrangian, objective, feas_gap, prox_grad_norm, measure,
               sim_time, collected):
        if self.lagrangian is not None:
            self.lagrangian.append(float(lagrangian))
        self.objective.append(float(objective))
        self.feas_gap.append(float(feas_gap))
        self.prox_grad_norm.append(float(prox_grad_norm))
        self.measure.append(float(measure))
        self.sim_time.append(float(sim_time))
        self.collected.append(int(collected))
