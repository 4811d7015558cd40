"""Consensus problem container, component costs, solver state, and iteration traces.

The problem solved throughout is

    minimize  sum_k g_k(x) + l1_weight * ||x||_1   subject to  ||x||_2 <= radius,

where each g_k is smooth with Lipschitz gradient. Solvers keep one master
vector ``x``, one local copy ``x_local[k]`` per component, one dual vector
``y[k]`` per component, and the master-iteration index at which each
component's last collected gradient was evaluated. The dual is the
record of that gradient: a proximal commit sets ``y[k]`` to its negation.

Each component is evaluated once per master iterate, in the one pass of
``consensus_terms``: it yields the objective, the proximal-gradient
residual and the gradients the workers deliver. With the consensus gap,
``stationarity`` makes that pass the trace row's optimality measure, on
which every run stops (``optimality_measure`` at any state).

Every component is the sparse-PCA cost ``g_k(x) = -0.5 ||B_k x||^2`` of
an M_k x N data matrix B_k, with gradient ``-B_k^T B_k x``.
``ConsensusProblem`` owns that data: it takes the matrices one at a
time, validates each, bounds its curvature (``lipschitz``) and keeps
the nonzeros once, in one read-only block-diagonal CSR matrix D
(``_operator``); no dense matrix outlives its turn. Every evaluation
is a few products of D or D^T, with no loop over components;
``penalized_argmin`` adds one batched product per run of equal row
counts. Generated instances are 10% nonzero: a paper-scale pass reads
about 50,000 entries where dense matrices hold 500,000.

The module calls scipy's private API, from two compiled modules that
``_compiled`` loads by file, so that importing apadmm runs neither
``scipy.sparse``'s nor ``scipy.linalg``'s package ``__init__`` (which
import ``numpy.testing``, ``numpy.f2py`` and more, about 0.2 s and 27 MB
a process): the kernels ``csr_matvec`` and ``csc_matvec`` (D and D^T)
and ``csr_matvecs`` and ``csc_matvecs`` (a stack of points) of
``scipy.sparse._sparsetools``, which skip the checks of the public
``@``, and three LAPACK routines of ``scipy.linalg._flapack``,
``dsyevr`` (with its workspace query ``dsyevr_lwork``), ``dpotrf`` and
``dpotrs``, called as ``scipy.linalg`` calls them
(``leading_eigenvalue``, ``_penalty_inverses``), so their bits.
"""

import itertools
import math
import os
import sys
from array import array
from collections import namedtuple
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import NamedTuple

import numpy as np

from ._rules import integer, nonnegative, positive
from .prox import _check_vector, _norm, _prox, prox_l1_ball

__all__ = [
    "ConsensusProblem",
    "SolverState",
    "StateHistory",
    "IterationTrace",
    "leading_eigenvalue",
    "penalized_argmin",
    "initial_state",
    "ConsensusTerms",
    "consensus_terms",
    "stationarity",
    "optimality_measure",
    "augmented_lagrangian",
]


def _compiled(name):
    """The compiled module ``scipy.<name>``, with no package ``__init__`` run.

    The module itself if scipy has imported it. Otherwise its extension
    file, found by name in scipy's directory (``find_spec("scipy")``
    runs nothing), is loaded and entered in ``sys.modules`` under its
    full name, where a later ``import scipy.linalg`` or ``scipy.sparse``
    finds it: one module object in either import order. A missing file
    raises ImportError naming the module.
    """
    name = "scipy." + name
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy = find_spec("scipy")
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        folder = os.path.join(scipy.submodule_search_locations[0],
                              *name.split(".")[1:-1])
        spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)
                          ).find_spec(name)
    if spec is None:
        raise ImportError("no compiled module %s" % name, name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _compiled("sparse._sparsetools")
csr_matvec, csr_matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs
csc_matvec, csc_matvecs = _sparsetools.csc_matvec, _sparsetools.csc_matvecs
_flapack = _compiled("linalg._flapack")


def _lapack(routine, *args, **kwargs):
    # the outputs of _flapack's routine but its last, ``info``, which
    # raises when nonzero as scipy.linalg has it: LinAlgError for a
    # failure, ValueError for an illegal argument
    *out, info = getattr(_flapack, routine)(*args, **kwargs)
    if info > 0:
        raise np.linalg.LinAlgError("%s failed: info %d" % (routine, info))
    if info < 0:
        raise ValueError("illegal value in argument %d of %s" % (-info, routine))
    return out


def leading_eigenvalue(B):
    """Upper bound on the top eigenvalue of ``B.T @ B`` (and of ``B @ B.T``).

    The top eigenvalue of the smaller Gram matrix G of the M x N matrix B,
    plus the pad ``2 (M + N) eps ||B||_F^2`` (eps = 2u, u the unit roundoff),
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

    The eigenvalue is LAPACK's ``dsyevr(G, compute_v=0, range="I", il=n,
    iu=n, lower=1, lwork, liwork)``, G n x n, with the workspace sizes of
    ``dsyevr_lwork(n, lower=1)``: the call ``scipy.linalg.eigvalsh(G,
    subset_by_index=[n - 1] * 2)`` makes, so its bits, and like it a G
    with an inf or NaN (data whose Gram overflows) raises ValueError. A B
    that is not 2-D, or is empty, raises ValueError naming its shape.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.size == 0:
        raise ValueError("matrix must be 2-D and nonempty, not of shape %s"
                         % (B.shape,))
    M, N = B.shape
    gram = np.asarray_chkfinite(B @ B.T if M <= N else B.T @ B)
    n = len(gram)
    lwork, liwork = _lapack("dsyevr_lwork", n=n, lower=1)
    w, _, _, _ = _lapack("dsyevr", gram, compute_v=0, range="I", il=n, iu=n,
                         lower=1, lwork=int(lwork), liwork=int(liwork))
    pad = 2.0 * (M + N) * np.finfo(float).eps * float(np.trace(gram))
    return float(w[0]) + pad


# a read-only CSR matrix, its fields in ``csr_matvec``'s argument order
_Csr = namedtuple("_Csr", "rows cols indptr indices data")
# the component data as one read-only CSR matrix and its row segments
_Operator = namedtuple("_Operator", "D segments")


def _matvec(rows, cols, indptr, indices, data, x, transpose=False):
    # the CSR matrix (or with ``transpose`` its transpose, whose CSC arrays these
    # are) times x, or times each row of an (R, cols) x, giving R rows:
    # csr_matvec adds each row's products in column order, csc_matvec into
    # each output in row order, one at a time onto 0.0, and their
    # multi-vector forms add each vector's in that order, on x's transpose;
    # x is unchecked there
    kernel, kernels = csr_matvec, csr_matvecs
    if transpose:
        rows, cols, kernel, kernels = cols, rows, csc_matvec, csc_matvecs
    if x.shape == (cols,):
        out = np.zeros(rows)
        kernel(rows, cols, indptr, indices, data, x, out)
        return out
    if x.ndim != 2 or x.shape[1] != cols:
        raise ValueError("vector of shape %s for %d columns" % (x.shape, cols))
    out = np.zeros((rows, len(x)))
    kernels(rows, cols, len(x), indptr, indices, data, np.ascontiguousarray(x.T),
            out)
    return out.T


def _scan(B):
    """Row counts, columns and values of the nonzeros of the matrix B.

    Each row's nonzeros in column order: the indices of
    ``np.flatnonzero(B)``, -0.0 and NaN alike, but the scan of a boolean
    mask is about 5x faster than of the floats themselves.
    """
    rows, cols = np.divmod(np.flatnonzero(B != 0), B.shape[1])
    return np.bincount(rows, minlength=len(B)), cols, B[rows, cols]


def _operator(N, rows, indptr, cols, values):
    """The ``_Operator`` of the nonzeros as ``_nonzeros`` stores them, after N.

    D, the one copy of the data, is block diagonal, ``(sum_k M_k) x (K
    N)``, with B_k in component k's rows and in columns k N to (k + 1) N,
    each row's nonzeros in column order: a stored column plus k N, and
    ``values``, made read-only. ``segments`` is the K x (sum_k M_k)
    pattern that sums each component's rows, with no values: component k
    owns rows ``indptr[k]:indptr[k + 1]``.
    """
    K, S = len(rows), len(indptr) - 1
    index = np.int32 if S * N < 2 ** 31 else np.int64  # S N >= nonzeros, K N
    starts, indptr = np.cumsum([0, *rows]).astype(index), indptr.astype(index)
    offsets = np.repeat(np.arange(0, K * N, N, dtype=index), np.diff(indptr[starts]))
    D = _Csr(S, K * N, indptr, cols.astype(index) + offsets, values)
    segments = _Csr(K, S, starts, np.arange(S, dtype=index), None)
    for a in (*D[2:], *segments[2:4]):
        a.flags.writeable = False
    return _Operator(D, segments)


# the data of a problem as its nonzeros, by the names a state file stores
_NONZERO_MEMBERS = ("data_dim", "data_rows", "data_indptr", "data_cols",
                    "data_values")


def _nonzeros(problem):
    """The problem's data as ``_NONZERO_MEMBERS``, in D's order, which ``_blocks`` reads.

    N, each component's row count, D's row pointer, each nonzero's
    column within its component and its value: about 12 bytes a nonzero.
    """
    D, segments = problem.operator
    N = problem.dim
    return dict(zip(_NONZERO_MEMBERS, (np.int64(N), np.diff(segments.indptr),
                                       D.indptr, D.indices % N, D.data)))


def _integers(name, a):
    if a.ndim != 1 or a.dtype.kind not in "iu":
        raise ValueError("%s must be a vector of integers, not %s of shape %s"
                         % (name, a.dtype, a.shape))
    return a


def _blocks(N, rows, indptr, cols, values):
    # each component's read-only dense M_k x N block, built when it is
    # asked for, from CSR arrays of its rows whose columns are counted
    # within the component; each value's flat index in its block is
    # formed once, for every block, so a block is a zero fill and one
    # scatter (a 2-D index is about 20% slower)
    starts = np.cumsum([0, *rows])
    local = np.arange(starts[-1]) - np.repeat(starts[:-1], rows)
    at = np.repeat(local * N, np.diff(indptr)) + cols
    ends = indptr[starts].tolist()
    for M, first, last in zip(rows, ends, ends[1:]):
        block = np.zeros((M, N))
        block.reshape(-1)[at[first:last]] = values[first:last]
        block.flags.writeable = False
        yield block


def _stored(members):
    """``_operator``'s arguments from the ``_nonzeros`` in ``members``, checked.

    Reads each member of the mapping once and checks them against each
    other, so a member that does not fit, or a stored value of 0, raises
    ValueError naming it, never an IndexError or a wrapped index.
    """
    dim, rows, indptr, cols, values = (np.asarray(members[name])
                                       for name in _NONZERO_MEMBERS)
    N = int(integer(dim[()] if dim.ndim == 0 else dim, "data_dim", 1))
    rows, indptr, cols = (_integers(name, a) for name, a in zip(
        _NONZERO_MEMBERS[1:4], (rows, indptr, cols)))
    if values.ndim != 1 or values.dtype != float:
        raise ValueError("data_values must be a vector of float64, not %s of "
                         "shape %s" % (values.dtype, values.shape))
    if not np.isfinite(values).all():
        raise ValueError("data_values holds non-finite entries")
    if not values.all():
        raise ValueError("data_values holds a zero: stored nonzeros are never 0")
    count = len(values)
    if not len(indptr) or indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
        raise ValueError("data_indptr must start at 0 and never decrease")
    if indptr[-1] != count:
        raise ValueError("data_indptr ends at %d, not at the %d entries of "
                         "data_values" % (indptr[-1], count))
    S = len(indptr) - 1
    if not len(rows) or rows.min() < 0 or sum(rows.tolist()) != S:
        raise ValueError("data_rows must be one row count of at least 0 per "
                         "component, adding up to the %d rows of data_indptr, "
                         "not %s" % (S, rows))
    if len(cols) != count:
        raise ValueError("data_cols holds %d columns for %d values"
                         % (len(cols), count))
    if count and (cols.min() < 0 or cols.max() >= N):
        raise ValueError("data_cols holds a column outside 0 to %d" % (N - 1))
    row = np.repeat(np.arange(S), np.diff(indptr))
    if ((cols[1:] <= cols[:-1]) & (row[1:] == row[:-1])).any():
        raise ValueError("data_cols are not increasing within each row")
    return N, rows.tolist(), indptr, cols, values


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
    times W the values ``-0.5 W_k . W_k``. An ``(R, K, N)`` stack of R
    such row sets gives ``(R, K)`` values and C-ordered ``(R, K, N)``
    gradients, the bits of R passes, in one pass of the multi-vector
    products, where ``segments`` with unit values takes the squares of W.
    """
    D, segments = operator
    if X.ndim == 3:
        W = _matvec(*D, X.reshape(len(X), -1))
        grads = None
        if gradients:
            grads = np.negative(_matvec(*D, W, transpose=True).reshape(X.shape),
                                order="C")
        return -0.5 * _matvec(*segments[:4], np.ones(segments.cols), W * W), grads
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

    ``data`` is any iterable of one M_k x N matrix per component, consumed
    once, one matrix at a time: each must be 2-D, nonempty, finite and of
    the first one's N, and a bad matrix raises ValueError naming its index
    before the next is drawn. Each is bounded (``lipschitz``) and scanned
    for its nonzeros as it arrives, so only one is held at a time. A
    mapping of the ``_nonzeros`` members, such as a state file, gives the
    matrices of its checked nonzeros (``_stored``), and D is those
    nonzeros, its values the given array, made read-only. The
    problem keeps the read-only ``operator`` (``_operator``) and neither
    keeps nor writes the matrices given.
    ``lipschitz[k]``, read-only, is ``leading_eigenvalue`` of the matrix
    as given, a proven upper bound on the top eigenvalue of its Gram
    matrix, floored at machine epsilon when the matrix is 0.
    ``penalty_inverses`` maps a penalty vector (a tuple of floats) to what
    ``penalized_argmin`` caches for it (``_penalty_inverses``).
    """

    def __init__(self, data, l1_weight=0.0, radius=1.0):
        self.l1_weight = nonnegative(l1_weight, "l1_weight")
        self.radius = positive(radius, "radius")
        eps = float(np.finfo(float).eps)
        stored = _stored(data) if isinstance(data, Mapping) else None
        bounds, scans = [], []
        for k, B in enumerate(_blocks(*stored) if stored else data):
            B = np.asarray(B, dtype=float)
            if B.ndim != 2:
                raise ValueError("data matrix %d must be 2-D, not of shape %s"
                                 % (k, B.shape))
            if B.size == 0:
                raise ValueError("data matrix %d is empty, of shape %s" % (k, B.shape))
            if not np.isfinite(B).all():
                raise ValueError("data matrix %d contains non-finite entries" % k)
            if k == 0:
                N = B.shape[1]
            elif B.shape[1] != N:
                raise ValueError("components disagree on dimension: %s"
                                 % sorted({N, B.shape[1]}))
            bound = leading_eigenvalue(B)
            bounds.append(bound if bound > 0.0 else eps)
            if not stored:
                scans.append(_scan(B))
        if not bounds:
            raise ValueError("need at least one component")
        self.lipschitz = np.array(bounds)
        self.lipschitz.flags.writeable = False
        if not stored:
            counts, cols, values = zip(*scans)
            stored = (N, [len(c) for c in counts],
                      np.concatenate([[0], *counts]).cumsum(),
                      np.concatenate(cols), np.concatenate(values))
        self.operator = _operator(*stored)
        self.penalty_inverses = {}

    @property
    def dim(self):
        return self.operator.D.cols // self.num_components

    @property
    def num_components(self):
        return self.operator.segments.rows


def _penalty_inverses(problem, rho):
    """The cached read-only stacks of ``S_k = (rho_k I - B_k B_k^T)^{-1}``.

    One ``(K_b, M_b, M_b)`` stack per run of consecutive components with
    equal row counts, built on the first call for ``rho``: each B_k is
    expanded from the operator's nonzeros one at a time, and its inverse,
    from the Gram ``B_k B_k^T`` and a Cholesky factor, written into its
    run's preallocated stack. A rejected penalty (see ``penalized_argmin``)
    caches nothing.

    The factor is LAPACK's ``dpotrf(A, lower=0, clean=0)`` of ``A = rho_k
    I - B_k B_k^T``, checked finite first, and the inverse ``dpotrs(c, I,
    lower=0)`` of that factor c: the calls ``scipy.linalg.cho_factor(A)``
    and ``cho_solve((c, False), I)`` make, so their bits. A factorization
    that fails (``info > 0``) rejects the penalty.
    """
    key = tuple(rho.tolist())
    inverses = problem.penalty_inverses.get(key)
    if inverses is not None:
        return inverses
    lipschitz = problem.lipschitz
    members = _nonzeros(problem)
    blocks = _blocks(*members.values())
    inverses = []
    k = 0
    for M, run in itertools.groupby(members["data_rows"].tolist()):
        stack = np.empty((len(list(run)), M, M))
        eye = np.eye(M)
        for inverse in stack:
            B = next(blocks)
            factor = None
            if rho[k] > lipschitz[k]:
                try:
                    factor, = _lapack("dpotrf", np.asarray_chkfinite(
                        rho[k] * eye - B @ B.T), lower=0, clean=0)
                except np.linalg.LinAlgError:
                    pass
            if factor is None:
                raise ValueError(
                    "penalty %g of component %d does not exceed its curvature "
                    "(bound %g); the exact subproblem is not strongly convex"
                    % (rho[k], k, lipschitz[k]))
            inverse[...], = _lapack("dpotrs", factor, eye, lower=0)
            k += 1
        stack.flags.writeable = False
        inverses.append(stack)
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
    return _argmin(problem, rho[:, None], _penalty_inverses(problem, rho),
                   x_master, y)


def _argmin(problem, rho, inverses, x_master, y):
    # penalized_argmin, unchecked: rho a (K, 1) column with its inverses
    b = rho * x_master - y
    v = _matvec(*problem.operator.D, b.ravel())
    start = 0
    for inverse in inverses:
        count, rows, _ = inverse.shape
        end = start + count * rows
        v[start:end] = (inverse @ v[start:end].reshape(count, rows, 1)).ravel()
        start = end
    out = _matvec(*problem.operator.D, v, transpose=True).reshape(b.shape)
    out += b
    out /= rho
    return out


@dataclass
class SolverState:
    """Master-side state after a completed iteration.

    ``y[k]`` is minus the gradient of component k at the master vector of
    iteration ``stale_index[k]``: the dual is the one record of the
    collected gradients. Staleness at iteration t is ``t - stale_index[k]``.

    No update writes into a state it was given: each returns a new state
    with new arrays. Traces therefore keep the states themselves as
    snapshots, and stack them once (``StateHistory``).
    """

    iteration: int
    x: np.ndarray
    x_local: np.ndarray
    y: np.ndarray
    stale_index: np.ndarray


# a state's arrays, in SolverState's field order
_STATE_ARRAYS = ("x", "x_local", "y", "stale_index")


class StateHistory(Sequence):
    """A run's states as four stacked arrays, one row per state.

    ``x`` is ``(R + 1, N)``, ``x_local`` and ``y`` are ``(R + 1, K, N)``
    and ``stale_index`` is ``(R + 1, K)``. As a sequence, item i is a
    ``SolverState`` of iteration i + 1 whose arrays are views of row i:
    writing into them writes into the history, while assigning one
    changes that state alone. A slice is a list of such states. The
    replay and ``save_states`` read the arrays whole, and ``of`` stacks a
    list of states once.
    """

    def __init__(self, x, x_local, y, stale_index):
        self.x, self.x_local, self.y, self.stale_index = x, x_local, y, stale_index

    @classmethod
    def of(cls, states):
        """``states`` if a StateHistory, else the states given, stacked."""
        if isinstance(states, cls):
            return states
        return cls(*(np.stack([getattr(s, name) for s in states])
                     for name in _STATE_ARRAYS))

    def __len__(self):
        return len(self.x)

    def __getitem__(self, i):
        at = range(len(self.x))[i]
        if isinstance(at, range):
            return [self[j] for j in at]
        return SolverState(at + 1, self.x[at], self.x_local[at], self.y[at],
                           self.stale_index[at])


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
    l1-plus-ball operator with the problem's own l1 weight. x and ``x -
    grad g(x)`` must be finite; the solver loop calls ``_terms`` unchecked.
    """
    return _terms(problem, _check_vector(x, "x"), prox_l1_ball)


def _terms(problem, x, prox=_prox):
    values, grads = _block_pass(problem.operator, x)
    # a Python loop: 0.6 us at K = 5, where np.add.reduce takes 2.1 us
    value = 0.0
    for v in values.tolist():
        value += v
    # rows added in order onto 0.0, so a column of -0.0 sums to 0.0
    grad = np.add.reduce(grads, axis=0, initial=0.0)
    l1_term = problem.l1_weight * float(np.add.reduce(np.abs(x)))
    residual = x - prox(x - grad, problem.l1_weight, problem.radius)
    return ConsensusTerms(value + l1_term, l1_term, residual, grads)


def stationarity(state, terms, diff=None):
    """``(objective, feas_gap, prox_grad_norm, measure)`` of a trace row.

    ``terms``, the ``consensus_terms`` pass at ``state.x``, gives the
    objective and the proximal-gradient norm. ``feas_gap`` is the relative
    consensus gap ``max_k ||x_local_k - x|| / ||x||`` (the absolute gap
    when x = 0); ``diff`` is ``x_local - x`` if the caller formed it. The
    measure is their sum; ``run`` reads it first, to tell if the row is last.
    """
    # np.linalg.norm(d, axis=1) is sqrt(add.reduce(d * d, axis=1)), and the
    # square root is monotone: the largest gap is the root of the largest square
    d = state.x_local - state.x if diff is None else diff
    absolute = math.sqrt(np.add.reduce(d * d, axis=1).max())
    norm_x = _norm(state.x)
    gap = absolute / norm_x if norm_x > 0 else absolute
    pg_norm = _norm(terms.prox_residual)
    return terms.objective, gap, pg_norm, gap + pg_norm


def optimality_measure(problem, state):
    """Progress measure: relative consensus gap plus proximal-gradient norm.

    Equals the measure of ``run``'s trace rows bit for bit.
    """
    return stationarity(state, consensus_terms(problem, state.x))[3]


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


@dataclass
class IterationTrace:
    """Per-iteration records of a run; one row per completed update.

    Each column is an ``array.array`` of doubles (``"d"``; ``"q"``, 64-bit
    integers, for ``collected``), 8 bytes a value: read like a list, but
    unequal to one, so compare ``list(column)`` or ``np.asarray(column)``.
    ``sim_time`` is the cumulative simulated clock in master-iteration
    units. ``lagrangian`` is None when the run did not record the
    augmented Lagrangian (``run(..., lagrangian=False)``); the length
    counts ``measure`` rows either way. When state snapshots are kept,
    ``states[0]`` is the initial state and ``states[t]`` the state after
    iteration row t: ``run`` stacks them once, as it ends, in a
    ``StateHistory`` (a run refused before its first update keeps []).
    """

    lagrangian: array = field(default_factory=partial(array, "d"))
    objective: array = field(default_factory=partial(array, "d"))
    feas_gap: array = field(default_factory=partial(array, "d"))
    prox_grad_norm: array = field(default_factory=partial(array, "d"))
    measure: array = field(default_factory=partial(array, "d"))
    sim_time: array = field(default_factory=partial(array, "d"))
    collected: array = field(default_factory=partial(array, "q"))
    states: object = None

    def __len__(self):
        return len(self.measure)

    def append(self, lagrangian, objective, feas_gap, prox_grad_norm, measure,
               sim_time, collected):
        if self.lagrangian is not None:
            self.lagrangian.append(lagrangian)
        self.objective.append(objective)
        self.feas_gap.append(feas_gap)
        self.prox_grad_norm.append(prox_grad_norm)
        self.measure.append(measure)
        self.sim_time.append(sim_time)
        self.collected.append(collected)
