"""Consensus problem container, component costs, solver state, and iteration traces.

The problem solved throughout is

    minimize  sum_k g_k(x) + l1_weight * ||x||_1   subject to  ||x||_2 <= radius,

where each g_k is smooth with Lipschitz gradient. Solvers keep one master
vector ``x``, one local copy ``x_local[k]`` per component, one dual vector
``y[k]`` per component, and the most recently collected gradient of each
component together with the master-iteration index it was evaluated at.

Each component is evaluated once per master iterate, in the one pass of
``consensus_terms``: it yields the objective and proximal-gradient
residual (the optimality measure, the trace row) and the gradients the
workers deliver, after their delays if any.

Every component is the sparse-PCA cost ``g_k(x) = -0.5 ||B_k x||^2`` of
an M_k x N data matrix B_k, with gradient ``-B_k^T B_k x``.
``ConsensusProblem`` owns that data: it validates each matrix, bounds
its curvature (``lipschitz``) and copies the matrices once into
read-only ``(K_b, M_b, N)`` blocks of consecutive components with the
same row count, each at most ``_BLOCK_BYTES`` (1 MiB) of data;
``data[k]`` is a read-only view of component k's slice, and the
matrices the caller passed are neither kept nor written. Every
evaluation (the pass at the master vector, the augmented Lagrangian at
the local copies, the replayed gradients of the dual identity) is a few
batched matrix products per block, in one loop over the blocks. So are
the exact penalized argmins of the synchronous baseline
(``penalized_argmin``): per block, batched products through a cached
``(K_b, M_b, M_b)`` stack of inverses, built once per penalty vector.
The cap keeps a block in a 2 MiB L2 cache while one pass reads it up to
three times: a solver update evaluates the next master vector and the
committed local copies in one pass. A desk problem (N = 50, K = 5, M = 20: 40 KB) is one block;
a paper-scale one (N = 500, M = 100: 400 KB per component) is blocks of
two components.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

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


# the most bytes of component data one block holds (see _stack_blocks)
_BLOCK_BYTES = 1 << 20


def _stack_blocks(data):
    """``(blocks, views)``: the matrices ``data`` copied into read-only blocks.

    Each maximal run of consecutive matrices with the same row count M_b
    is cut into ``(K_b, M_b, N)`` blocks of at most ``_BLOCK_BYTES`` (one
    matrix a block when a single matrix is larger), the last block of a
    run taking what is left. ``views[k]`` is the read-only slice of its
    block that holds ``data[k]``; the matrices given are only read.

    Why a byte cap: ``run``'s fused pass reads each block three times
    (values at the local copies, values and gradients at the master
    vector), and a block of 1 MiB stays in a 2 MiB L2 cache between the
    reads, where the 4 MB paper-scale stack did not. At paper scale (400
    KB a component) the cap makes blocks of two, the fastest or tied for
    it in each sweep of caps from one to ten components a block, and
    about a quarter faster than one block of ten (CHANGES.md). A desk
    problem stays one block.
    Each product is the same batched call on fewer components, so the
    cap moves no bits.
    """
    blocks, views = [], []
    for _, run in itertools.groupby(data, key=len):
        run = list(run)
        size = max(1, _BLOCK_BYTES // run[0].nbytes)
        for start in range(0, len(run), size):
            block = np.stack(run[start:start + size])
            block.flags.writeable = False
            blocks.append(block)
            views.extend(block)
    return tuple(blocks), tuple(views)


def _row_dots(a, b):
    # ``[a[k] @ b[k] for k]``, each row pair as one dot product
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _block_pass(blocks, X, gradients=True, local=None):
    """``(values, gradients, local_values)`` of every component, in order.

    X is one point for every component or one row per component; the
    gradients are at X, and None when ``gradients`` is false. ``local``,
    when given, is one row per component, and ``local_values`` are the
    values there (None otherwise). One loop over the blocks makes every
    product of a block before it moves on, each batched over the block:
    ``W_k = B_k local_k`` and ``W_k . W_k`` at the local copies, then
    ``W_k = B_k X_k``, ``W_k . W_k`` and ``W_k^T B_k``. Several blocks
    write their products into their slices of preallocated ``(K, 1, 1)``
    and ``(K, 1, N)`` arrays; a problem of one block keeps its products
    as they are, which saves a desk-scale update the copies. The values
    ``-0.5 W_k . W_k`` and the gradients ``-W_k^T B_k`` are then scaled
    and negated once.
    """
    products = None  # W.W at X, W^T B at X, W.W at the local copies
    start = 0
    for block in blocks:
        end = start + len(block)
        part = [None, None, None]
        if local is not None:
            W = (block @ local[start:end, :, None])[:, :, 0]
            part[2] = W[:, None, :] @ W[:, :, None]
        W = block @ X if X.ndim == 1 else (block @ X[start:end, :, None])[:, :, 0]
        row = W[:, None, :]
        part[0] = row @ W[:, :, None]
        if gradients:
            part[1] = row @ block
        if len(blocks) == 1:
            products = part
        else:
            if products is None:
                count = sum(map(len, blocks))
                products = [None if p is None else np.empty((count,) + p.shape[1:])
                            for p in part]
            for out, p in zip(products, part):
                if p is not None:
                    out[start:end] = p
        start = end
    dots, grads, local_dots = products
    return (-0.5 * dots[:, 0, 0], None if grads is None else -grads[:, 0, :],
            None if local_dots is None else -0.5 * local_dots[:, 0, 0])


@dataclass(eq=False)
class ConsensusProblem:
    """Problem data: component matrices plus the shared l1 + ball regularizer.

    ``data`` is given as one M_k x N matrix per component: 2-D, nonempty,
    finite, one N for all; a bad matrix raises ValueError naming its
    index. The problem keeps a copy: ``blocks`` (``_stack_blocks``), and
    ``data`` becomes the tuple of read-only views of each matrix's slice.
    ``lipschitz[k]``, read-only, is ``leading_eigenvalue`` of the matrix
    as given, a proven upper bound on the top eigenvalue of its Gram
    matrix, floored at machine epsilon when the matrix is 0.
    ``penalty_inverses`` maps a penalty vector (a tuple of floats) to what
    ``penalized_argmin`` caches for it: one read-only ``(K_b, M_b, M_b)``
    stack of inverses per block.
    """

    data: tuple
    l1_weight: float = 0.0
    radius: float = 1.0
    lipschitz: np.ndarray = field(init=False, repr=False, default=None)
    blocks: tuple = field(init=False, repr=False, default=())
    penalty_inverses: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        data = [np.asarray(B, dtype=float) for B in self.data]
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
        if not 0 <= self.l1_weight < math.inf:
            raise ValueError("l1_weight must be nonnegative and finite, not %r"
                             % (self.l1_weight,))
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite, not %r"
                             % (self.radius,))
        dims = {B.shape[1] for B in data}
        if len(dims) != 1:
            raise ValueError("components disagree on dimension: %s" % sorted(dims))
        bounds = [leading_eigenvalue(B) for B in data]
        eps = float(np.finfo(float).eps)
        self.lipschitz = np.array([L if L > 0.0 else eps for L in bounds])
        self.lipschitz.flags.writeable = False
        self.blocks, self.data = _stack_blocks(data)

    @property
    def dim(self):
        return self.data[0].shape[1]

    @property
    def num_components(self):
        return len(self.data)


def _penalty_inverses(problem, rho):
    """Per block, the cached read-only stack of ``S_k = (rho_k I - B_k B_k^T)^{-1}``.

    Built on the first call for ``rho`` from a batched Gram ``B B^T`` per
    block and a Cholesky factor of each M_b x M_b matrix. A rejected
    penalty (see ``penalized_argmin``) caches nothing.
    """
    key = tuple(rho.tolist())
    inverses = problem.penalty_inverses.get(key)
    if inverses is not None:
        return inverses
    lipschitz = problem.lipschitz
    inverses = []
    k = 0
    for block in problem.blocks:
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
    of B_k. The S_k are cached per penalty vector on the problem, K_b M_b^2
    floats per block; each solve is then three batched products per
    block, in one loop over the problem's ``blocks``. Every ``rho_k`` must
    exceed the problem's ``lipschitz[k]``, which bounds the top eigenvalue
    of both Gram matrices from above: a penalty at or below it, or one the
    factorization still finds too small in floating point, raises
    ValueError naming the component.
    """
    rho = np.asarray(rho, dtype=float)
    b = rho[:, None] * x_master - y
    out = np.empty_like(b)
    start = 0
    for block, inverse in zip(problem.blocks, _penalty_inverses(problem, rho)):
        end = start + len(block)
        v = inverse @ (block @ b[start:end, :, None])
        out[start:end] = (v.transpose(0, 2, 1) @ block)[:, 0, :]
        start = end
    out += b
    out /= rho[:, None]
    return out


@dataclass
class SolverState:
    """Master-side state after a completed iteration.

    ``stale_index[k]`` is the master-iteration index of the x copy whose
    gradient is currently stored for component k; staleness at iteration t
    is ``t - stale_index[k]``.

    No update writes into a state it was given: each returns a new state
    with new arrays. Traces therefore keep the states themselves as
    snapshots.
    """

    iteration: int
    x: np.ndarray
    x_local: np.ndarray
    y: np.ndarray
    grad_stored: np.ndarray
    stale_index: np.ndarray


def initial_state(problem, x0=None):
    """Start state at ``x0``, or at zero when ``x0`` is None.

    The master vector and every local copy start at the start point, the
    stored gradients come from the ``consensus_terms`` pass there, with
    stale index 1, and the iteration counter starts at 1. Duals start at
    zero from the zero start and at the negated stored gradients from
    ``x0``, so the dual identity holds before the first update.
    """
    start = np.zeros(problem.dim) if x0 is None else np.array(x0, dtype=float)
    grads = consensus_terms(problem, start).gradients
    return SolverState(
        iteration=1,
        x=start,
        x_local=np.tile(start, (len(grads), 1)),
        y=np.zeros_like(grads) if x0 is None else -grads,
        grad_stored=grads,
        stale_index=np.ones(len(grads), dtype=int),
    )


class ConsensusTerms(NamedTuple):
    """What one evaluation pass at a consensus point yields.

    ``local_values`` are the values ``g_k(local_k)`` at the local copies
    given to the same pass, or None when none were.
    """

    objective: float
    prox_residual: np.ndarray
    gradients: np.ndarray
    local_values: np.ndarray = None


def consensus_terms(problem, x, local=None):
    """Objective, proximal-gradient residual and gradients ``grad g_k(x)`` at x.

    Evaluates each component once, by batched products over the problem's
    ``blocks``; every other component sum at a consensus point is a view
    of this one. The objective is ``sum_k g_k(x) + l1_weight * ||x||_1``
    (the ball constraint is not folded in; callers keep x feasible), and
    the residual ``x - prox(x - grad g(x))`` uses a unit step and the
    l1-plus-ball operator with the problem's own l1 weight. ``local``, one
    row per component (a state's local copies), adds their values in the
    same pass, read while each block is in cache, for
    ``augmented_lagrangian``.
    """
    x = np.asarray(x, dtype=float)
    values, grads, local_values = _block_pass(problem.blocks, x, local=local)
    # added one at a time, in component order, as a loop over ``value`` would
    value = 0.0
    for v in values.tolist():
        value += v
    # rows added in order onto 0.0, so a column of -0.0 sums to 0.0
    grad = np.add.reduce(grads, axis=0, initial=0.0)
    obj = value + problem.l1_weight * float(np.add.reduce(np.abs(x)))
    residual = x - prox_l1_ball(x - grad, problem.l1_weight, problem.radius)
    return ConsensusTerms(obj, residual, grads, local_values)


def augmented_lagrangian(problem, state, rho, values=None):
    """Augmented Lagrangian at the given state.

    ``sum_k [g_k(x_local_k) + <y_k, x_local_k - x> + rho_k/2 ||x_local_k - x||^2]
    + l1_weight * ||x||_1``, with per-component penalties ``rho``. The
    component values are ``values`` when a pass already computed them at
    ``state.x_local`` (``consensus_terms``' ``local_values``), and come
    from one batched pass over the problem's ``blocks`` otherwise.
    """
    if values is None:
        values = _block_pass(problem.blocks, state.x_local, gradients=False)[0]
    diff = state.x_local - state.x
    rows = zip(values.tolist(), _row_dots(state.y, diff).tolist(),
               np.asarray(rho, dtype=float).tolist(), _row_dots(diff, diff).tolist())
    total = problem.l1_weight * float(np.add.reduce(np.abs(state.x)))
    # the penalty in Python floats, which round as numpy's 0.5 * rho * dots
    for value, cross, r, square in rows:
        total += value
        total += cross
        total += 0.5 * r * square
    return total


def feasibility_gap(state):
    """Consensus gaps ``(absolute, relative)``.

    Absolute: ``max_k ||x_local_k - x||``. Relative divides by ``||x||``,
    falling back to the absolute gap when ``||x|| == 0``.
    """
    # np.linalg.norm(d, axis=1) is sqrt(add.reduce(d * d, axis=1)), and
    # the square root is monotone: the largest gap is the root of the
    # largest square
    d = state.x_local - state.x
    absolute = math.sqrt(np.add.reduce(d * d, axis=1).max())
    norm_x = _norm(state.x)
    relative = absolute / norm_x if norm_x > 0 else absolute
    return absolute, relative


@dataclass
class IterationTrace:
    """Per-iteration records of a run; one row per completed update.

    ``sim_time`` is the cumulative simulated clock in master-iteration
    units. When state snapshots are kept, ``x_hist[0]`` is the initial
    state and ``x_hist[t]`` the state after iteration row t.
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
        return len(self.lagrangian)

    def append(self, lagrangian, objective, feas_gap, prox_grad_norm, measure,
               sim_time, collected):
        self.lagrangian.append(float(lagrangian))
        self.objective.append(float(objective))
        self.feas_gap.append(float(feas_gap))
        self.prox_grad_norm.append(float(prox_grad_norm))
        self.measure.append(float(measure))
        self.sim_time.append(float(sim_time))
        self.collected.append(int(collected))
