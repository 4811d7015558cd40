"""Reference evaluation of one sparse-PCA component, g(z) = -0.5 ||B z||^2.

The plain per-component expressions the batched passes of
``apadmm.problems`` are checked against, bit for bit where a test says
so. Pass ``problem.data[k]`` as B to compare with what a problem
computes for its component k.
"""


def component_value(B, z):
    w = B @ z
    return -0.5 * float(w @ w)


def component_gradient(B, z):
    return -(B.T @ (B @ z))
