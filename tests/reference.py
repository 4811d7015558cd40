"""Reference evaluation of one sparse-PCA component, g(z) = -0.5 ||B z||^2.

The plain per-component expressions the sparse passes of
``apadmm.problems`` are checked against, bit for bit where a test says
so. Pass ``dense(problem)[k]`` as B to compare with what a problem
computes for its component k.

Every sum here is taken the way the problems' kernels take it: the
products of a row in column order, added one at a time onto 0.0. For
``B.T`` that is the order in which ``csc_matvec`` adds B's rows into
each output of the transposed product. A zero
entry's product is a signed zero, which leaves such a sum unchanged, so
summing all of a row equals summing its nonzeros.

``dense`` scatters a problem's dense matrices from its operator's CSR
arrays by plain indexing, apart from the problems' own ``_blocks``.

``leading_eigenvalue`` is the curvature bound through the public
``scipy.linalg.eigvalsh``, which the problems' direct LAPACK call must
match bit for bit.

``penalty_inverses`` is the exact baseline's cached inverses built the
way they were while every component's dense matrix was held at once,
and ``traced_peak`` and ``one_block_bound`` check that a build holds one
dense component at a time.
"""

import itertools
import tracemalloc

import numpy as np
import scipy.linalg


def ordered_sum(products):
    """Sums along the last axis, in order, one at a time, onto 0.0."""
    products = np.asarray(products, dtype=float)
    start = np.zeros(products.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate([start, products], axis=-1), axis=-1)[..., -1]


def matvec(B, z):
    """``B @ z``, each row summed in column order."""
    return ordered_sum(B * z)


def component_value(B, z):
    w = matvec(B, z)
    return -0.5 * float(ordered_sum(w * w))


def component_gradient(B, z):
    return -matvec(B.T, matvec(B, z))


def dense(problem):
    """The problem's K dense matrices B_k, as a list: component k owns D's
    rows ``segments.indptr[k]`` to ``segments.indptr[k + 1]`` and its columns
    k N to (k + 1) N, each row's nonzeros at D's ``indices`` of that row."""
    D, segments = problem.operator
    N = problem.dim
    blocks = []
    for k in range(problem.num_components):
        first, last = segments.indptr[k], segments.indptr[k + 1]
        row = np.repeat(np.arange(last - first), np.diff(D.indptr[first:last + 1]))
        span = slice(D.indptr[first], D.indptr[last])
        B = np.zeros((last - first, N))
        B[row, D.indices[span] - k * N] = D.data[span]
        blocks.append(B)
    return blocks


def leading_eigenvalue(B):
    """The top eigenvalue of the smaller Gram of B by ``eigvalsh``, padded by
    ``2 (M + N) eps ||B||_F^2`` as ``problems.leading_eigenvalue`` pads it."""
    B = np.asarray(B, dtype=float)
    M, N = B.shape
    gram = B @ B.T if M <= N else B.T @ B
    top = scipy.linalg.eigvalsh(gram, subset_by_index=[len(gram) - 1] * 2)[0]
    return float(top) + 2.0 * (M + N) * np.finfo(float).eps * float(np.trace(gram))


def penalty_inverses(problem, rho):
    """``(rho_k I - B_k B_k^T)^{-1}``, one stack per run of equal row counts,
    from the stacked dense matrices of each run and their batched Gram."""
    inverses = []
    k = 0
    for _, run in itertools.groupby(dense(problem), key=len):
        block = np.stack(list(run))
        gram = block @ block.transpose(0, 2, 1)
        eye = np.eye(gram.shape[1])
        for i in range(len(block)):
            factor = scipy.linalg.cho_factor(rho[k] * eye - gram[i])
            gram[i] = scipy.linalg.cho_solve(factor, eye)
            k += 1
        inverses.append(gram)
    return tuple(inverses)


def traced_peak(call):
    """``call()`` and the peak bytes ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_block_bound(problem, kept):
    """A peak that holds one dense component at a time: three times the
    operator's bytes, six dense blocks of the largest row count and the
    ``kept`` bytes of the result, with no term in K M N."""
    D, segments = problem.operator
    operator = sum(a.nbytes for a in (*D[2:], *segments[2:4]))
    block = int(np.diff(segments.indptr).max()) * problem.dim * 8
    return 3 * operator + 6 * block + kept
