"""Reference evaluation of one sparse-PCA component, g(z) = -0.5 ||B z||^2.

The plain per-component expressions the sparse passes of
``apadmm.problems`` are checked against, bit for bit where a test says
so. Pass ``problem.data[k]`` as B to compare with what a problem
computes for its component k.

Every sum here is taken the way the problems' kernels take it: the
products of a row in column order, added one at a time onto 0.0. For
``B.T`` that is the order in which ``csc_matvec`` adds B's rows into
each output of the transposed product. A zero
entry's product is a signed zero, which leaves such a sum unchanged, so
summing all of a row equals summing its nonzeros.
"""

import numpy as np


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
