"""Proximal and projection operators for the l1-penalized ball-constrained master step.

All operators act on 1-D numpy arrays and return new arrays. The composite
operator ``prox_l1_ball`` evaluates the proximal map of
``tau * ||u||_1 + indicator(||u||_2 <= radius)`` exactly: shrink first, then
project. The order matters and is correct because the ball projection is a
uniform radial scaling, which commutes with the KKT conditions of the
shrinkage subproblem (the multiplier of the norm constraint only rescales
every coordinate by the same positive factor, leaving the active set and
signs of the soft-thresholding solution unchanged).

Each public operator checks its arguments and calls an unchecked core; the
solver loop calls ``_prox`` on inputs it checked once per run.
"""

import math

import numpy as np

from ._rules import nonnegative, positive

__all__ = ["soft_threshold", "project_ball", "prox_l1_ball"]


def _norm(v):
    """``np.linalg.norm(v)`` of a real array, bit for bit, without its wrapper.

    The same steps numpy takes: ravel in memory order, then the square root
    of the dot product with itself.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _check_vector(v, name="v"):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("%s must be a 1-D vector, got shape %s" % (name, v.shape))
    if not np.isfinite(v).all():
        raise ValueError("%s contains non-finite entries" % name)
    return v


def _into_ball(v, radius):
    # v itself when feasible, else its radial scaling onto the sphere
    norm = _norm(v)
    return v if norm <= radius else v * (radius / norm)


def _prox(v, tau, radius):
    # prox_l1_ball unchecked; with no radius, soft_threshold (a new array)
    v = v + 0.0 if tau == 0 else np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
    return v if radius is None else _into_ball(v, radius)


def soft_threshold(v, tau):
    """Proximal map of ``tau * ||.||_1``.

    Parameters
    ----------
    v : array_like, shape (n,)
        Input vector.
    tau : float
        Nonnegative threshold.

    Returns
    -------
    ndarray
        ``sign(v) * max(|v| - tau, 0)`` evaluated componentwise. At
        ``tau == 0`` that is ``v + 0.0``, a new array equal to v bit for
        bit except that -0.0 becomes 0.0 (``sign(-0.0)`` is 0.0).
    """
    return _prox(_check_vector(v), nonnegative(tau, "tau"), None)


def project_ball(v, radius):
    """Euclidean projection onto the l2 ball of the given radius.

    Returns ``v`` unchanged (as a copy) when it is already feasible, else
    ``v * radius / ||v||``. Exactly idempotent: projecting a feasible
    point multiplies by 1.0, so project(project(v)) == project(v) bitwise.
    """
    v = _check_vector(v)
    u = _into_ball(v, positive(radius, "radius"))
    return v.copy() if u is v else u


def prox_l1_ball(v, tau, radius):
    """Proximal map of ``tau * ||.||_1 + indicator(||.||_2 <= radius)``.

    Parameters
    ----------
    v : array_like, shape (n,)
        Input vector.
    tau : float
        Nonnegative l1 weight (already divided by any quadratic scaling).
    radius : float
        Positive ball radius.

    Returns
    -------
    ndarray
        The unique minimizer of ``tau * ||u||_1 + 0.5 * ||u - v||^2``
        over the ball, computed as ``project_ball(soft_threshold(v, tau))``
        with one check of the input.
    """
    return _prox(_check_vector(v), nonnegative(tau, "tau"),
                 positive(radius, "radius"))
