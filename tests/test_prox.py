"""Proximal operator tests: hand values, invariants, independent oracles.

The oracles here deliberately avoid the library's own closed forms:
dense grid search over a ball-covering candidate set, plain projected
subgradient descent, and a penalized L-BFGS solve. They are reused by
the acceptance suite at larger input counts.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from apadmm import prox_l1_ball, project_ball, soft_threshold
from apadmm.prox import _prox


# -- independent oracles -----------------------------------------------------

def prox_objective(u, v, tau):
    u = np.asarray(u, dtype=float)
    return tau * np.abs(u).sum(axis=-1) + 0.5 * ((u - v) ** 2).sum(axis=-1)


def ball_candidates(dim, radius, lo, hi, res):
    """Grid points inside the ball plus sphere points covering the boundary.

    A plain grid cannot certify boundary minimizers: the objective is
    tangentially flat along the sphere, so interior grid points with
    O(res) radial depth beat tangentially nearby ones and the argmin can
    sit O(sqrt(res)) away. Radially projecting the grid shell onto the
    sphere restores a res-dense covering of the whole feasible set.
    """
    axes = [np.arange(lo[i], hi[i] + res / 2, res) for i in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    norms = np.linalg.norm(pts, axis=-1)
    keep = pts[norms <= radius]
    shell = (np.abs(norms - radius) <= res * np.sqrt(dim) * 1.01) & (norms > 1e-12)
    if shell.any():
        near = pts[shell]
        sphere = near * (radius / np.linalg.norm(near, axis=-1))[:, None]
        keep = np.concatenate([keep, sphere])
    return keep


def candidate_table(candidates):
    """A candidate set with each point's l1 norm and half squared norm.

    ``grid_prox`` takes the table as ``candidates``, so a set reused
    across many inputs has its norms computed once.
    """
    return (candidates, np.abs(candidates).sum(axis=-1),
            0.5 * (candidates ** 2).sum(axis=-1))


def grid_argmin(table, v, tau):
    """The candidate minimizing ``prox_objective`` less its constant ``0.5*|v|^2``."""
    candidates, l1, half_sq = table
    return candidates[np.argmin(tau * l1 + half_sq - candidates @ v)]


@functools.lru_cache(maxsize=2)
def ball_table(dim, radius, res):
    """``candidate_table`` of the whole ball at resolution ``res``, built once.

    Every caller gets the same arrays, so they are read-only.
    """
    lo, hi = -radius * np.ones(dim), radius * np.ones(dim)
    table = candidate_table(ball_candidates(dim, radius, lo, hi, res))
    for array in table:
        array.flags.writeable = False
    return table


def grid_prox(v, tau, radius, res=1e-3, coarse=None, candidates=None):
    """Dense-search oracle for argmin ``tau*|u|_1 + 0.5*|u-v|^2`` over the ball.

    ``coarse`` switches on a coarse-to-fine pass for dimension 3, where a
    flat res-1e-3 grid would be billions of points; convexity keeps the
    refinement exact to the final resolution. The coarse table is shared
    by every input with the same dimension, radius and ``coarse``.
    ``candidates`` lets callers reuse a precomputed full-ball
    ``candidate_table`` across many inputs.
    """
    v = np.asarray(v, dtype=float)
    dim = len(v)
    if candidates is None:
        lo, hi = -radius * np.ones(dim), radius * np.ones(dim)
        if coarse is not None:
            rough = grid_argmin(ball_table(dim, radius, coarse), v, tau)
            pad = 1.5 * coarse
            lo, hi = rough - pad, rough + pad
        candidates = candidate_table(ball_candidates(dim, radius, lo, hi, res))
    return grid_argmin(candidates, v, tau)


def subgradient_prox(v, tau, radius, steps=10 ** 4):
    """Projected subgradient descent on the prox objective, zero start.

    Step 1/t exploits the unit strong convexity; the last iterate lands
    within about 1e-4 of the minimizer after 1e4 steps. ``v`` is a stack
    of rows with one ``tau`` each, and every row takes the steps it would
    take alone, bit for bit (its norm is one dot product, as in
    ``np.linalg.norm``).
    """
    v = np.asarray(v, dtype=float)
    tau = np.asarray(tau, dtype=float)[:, None]
    u = np.zeros_like(v)
    for t in range(1, steps + 1):
        g = (u - v) + tau * np.sign(u)
        w = u - g / t
        norm = np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0])
        over = norm > radius
        if over.any():
            w[over] = w[over] * (radius / norm[over])[:, None]
        u = w
    return u


def penalty_projection(v, radius, beta=1e8):
    """L-BFGS on a quadratic-penalty relaxation of the ball constraint."""
    v = np.asarray(v, dtype=float)

    def fun(u):
        excess = max(np.linalg.norm(u) - radius, 0.0)
        return 0.5 * float((u - v) @ (u - v)) + 0.5 * beta * excess ** 2

    res = minimize(fun, np.zeros_like(v), method="L-BFGS-B",
                   options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-10})
    return res.x


# -- soft_threshold ----------------------------------------------------------

def test_soft_threshold_hand_values():
    np.testing.assert_array_equal(
        soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0),
        np.array([2.0, 0.0, 0.0]))


def test_soft_threshold_zero_weight_is_identity():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(7)
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_ties_map_to_zero():
    # |v_i| == tau sits exactly on the kink; max(|v|-tau, 0) forces 0
    out = soft_threshold(np.array([2.0, -2.0, 1.9999]), 2.0)
    np.testing.assert_array_equal(out[:2], [0.0, 0.0])
    assert out[2] == 0.0


def test_soft_threshold_rejects_negative_weight():
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), -0.1)


def test_soft_threshold_matches_per_coordinate_grid():
    """1-D grid oracle per coordinate; the objective is separable."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(4) * 2.0
        tau = float(rng.uniform(0.0, 1.5))
        out = soft_threshold(v, tau)
        span = np.abs(v).max() + 1.0
        axis = np.arange(-span, span, 1e-4)
        for i in range(len(v)):
            obj = tau * np.abs(axis) + 0.5 * (axis - v[i]) ** 2
            assert abs(out[i] - axis[np.argmin(obj)]) < 2e-4


# -- project_ball ------------------------------------------------------------

def test_project_ball_hand_values():
    np.testing.assert_allclose(project_ball(np.array([3.0, 4.0]), 1.0),
                               [0.6, 0.8], rtol=1e-15)
    np.testing.assert_array_equal(project_ball(np.array([0.1, 0.0]), 1.0),
                                  [0.1, 0.0])


def test_project_ball_idempotent_and_copies():
    v = np.array([5.0, 0.0, 0.0])
    out = project_ball(v, 2.0)
    np.testing.assert_allclose(project_ball(out, 2.0), out, rtol=1e-15)
    out2 = project_ball(np.array([0.5, 0.0, 0.0]), 2.0)
    out2[0] = -1.0
    # interior input must not alias the output
    assert v[0] == 5.0


def test_project_ball_matches_penalty_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(4) * 2.0
        ref = penalty_projection(v, 1.0)
        np.testing.assert_allclose(project_ball(v, 1.0), ref, atol=2e-5)


# -- prox_l1_ball ------------------------------------------------------------

def test_prox_l1_ball_hand_value():
    # KKT: shrink then radially rescale; [3,4] with tau=1 shrinks to [2,3]
    out = prox_l1_ball(np.array([3.0, 4.0]), 1.0, 1.0)
    np.testing.assert_allclose(out, np.array([2.0, 3.0]) / np.sqrt(13.0),
                               rtol=1e-14)


def test_prox_l1_ball_zero_weight_reduces_to_projection():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(6) * 3.0
    np.testing.assert_array_equal(prox_l1_ball(v, 0.0, 2.0),
                                  project_ball(v, 2.0))


def test_prox_l1_ball_full_shrinkage():
    v = np.array([0.3, -0.2, 0.1])
    np.testing.assert_array_equal(prox_l1_ball(v, 0.5, 1.0), np.zeros(3))


def test_prox_l1_ball_is_projection_of_shrinkage():
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = rng.standard_normal(5) * 2.0
        tau = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(0.5, 2.0))
        np.testing.assert_array_equal(
            prox_l1_ball(v, tau, r),
            project_ball(soft_threshold(v, tau), r))


def test_nonexpansiveness():
    rng = np.random.default_rng(21)
    for _ in range(100):
        dim = int(rng.integers(1, 7))
        a = rng.standard_normal(dim) * 3.0
        b = rng.standard_normal(dim) * 3.0
        tau = float(rng.uniform(0.0, 2.0))
        gap = np.linalg.norm(a - b) + 1e-12
        assert np.linalg.norm(soft_threshold(a, tau) - soft_threshold(b, tau)) <= gap
        assert np.linalg.norm(project_ball(a, 1.0) - project_ball(b, 1.0)) <= gap
        assert np.linalg.norm(prox_l1_ball(a, tau, 1.0) - prox_l1_ball(b, tau, 1.0)) <= gap


def test_prox_l1_ball_perturbation_optimality():
    """Feasible perturbations never improve the prox objective."""
    rng = np.random.default_rng(34)
    eps = 1e-4
    for _ in range(10):
        v = rng.standard_normal(4) * 1.5
        tau = float(rng.uniform(0.0, 0.8))
        u = prox_l1_ball(v, tau, 1.0)
        base = prox_objective(u, v, tau)
        for _ in range(50):
            d = rng.standard_normal(4)
            d /= np.linalg.norm(d)
            w = u + eps * d
            norm = np.linalg.norm(w)
            if norm > 1.0:
                w = w / norm
            assert prox_objective(w, v, tau) >= base - 1e-8


@settings(deadline=None)
@given(arrays(float, st.integers(1, 8), elements=st.floats(-10.0, 10.0)),
       st.floats(0.0, 5.0), st.floats(0.1, 10.0))
def test_prox_l1_ball_satisfies_kkt(v, tau, radius):
    """v - u = tau * s + mu * u with s in the l1 subdifferential at u,
    mu >= 0, ||u|| <= radius and mu * (radius - ||u||) = 0."""
    tol = 1e-9
    u = prox_l1_ball(v, tau, radius)
    norm = float(np.linalg.norm(u))
    assert norm <= radius * (1.0 + 1e-15)
    on = u != 0.0
    assert np.all(np.abs(v[~on]) <= tau + tol)
    rest = v[on] - u[on] - tau * np.sign(u[on])
    mu = 0.0
    if on.any():  # least-squares multiplier, scaled so tiny u cannot underflow
        scale = np.abs(u[on]).max()
        w = u[on] / scale
        mu = float(rest @ w / (w @ w) / scale)
    np.testing.assert_allclose(rest, mu * u[on], rtol=0.0, atol=tol)
    assert mu >= -tol
    assert mu * (radius - norm) <= tol


def test_prox_l1_ball_matches_grid_2d():
    rng = np.random.default_rng(11)
    cand = candidate_table(ball_candidates(2, 1.0, -np.ones(2), np.ones(2), 1e-3))
    for _ in range(6):
        v = rng.standard_normal(2) * 1.2
        tau = float(rng.uniform(0.0, 0.8))
        ref = grid_prox(v, tau, 1.0, candidates=cand)
        assert np.linalg.norm(prox_l1_ball(v, tau, 1.0) - ref) < 2e-3


def test_prox_l1_ball_matches_grid_3d():
    rng = np.random.default_rng(12)
    for _ in range(4):
        v = rng.standard_normal(3) * 1.2
        tau = float(rng.uniform(0.0, 0.8))
        ref = grid_prox(v, tau, 1.0, coarse=0.02)
        assert np.linalg.norm(prox_l1_ball(v, tau, 1.0) - ref) < 2e-3


def test_prox_l1_ball_matches_subgradient_oracle():
    rng = np.random.default_rng(17)
    inputs = [(rng.standard_normal(10), float(rng.uniform(0.05, 0.6)))
              for _ in range(4)]
    refs = subgradient_prox(np.array([v for v, _ in inputs]),
                            [tau for _, tau in inputs], 1.0)
    for (v, tau), ref in zip(inputs, refs):
        assert np.linalg.norm(prox_l1_ball(v, tau, 1.0) - ref) < 1e-4


def test_rejects_bad_vectors():
    with pytest.raises(ValueError):
        soft_threshold(np.ones((2, 2)), 0.5)
    with pytest.raises(ValueError):
        prox_l1_ball(np.array([np.nan, 0.0]), 0.5, 1.0)
    with pytest.raises(ValueError):
        project_ball(np.array([1.0, np.inf]), 1.0)


def test_prox_l1_ball_checks_each_argument():
    v = np.array([0.3, -2.0, 0.1])
    with pytest.raises(ValueError, match="tau must be a finite nonnegative number"):
        prox_l1_ball(v, -0.1, 1.0)
    with pytest.raises(ValueError, match="tau must be a finite nonnegative number"):
        prox_l1_ball(v, float("nan"), 1.0)
    with pytest.raises(ValueError, match="tau must be a finite nonnegative number"):
        soft_threshold(v, float("nan"))
    with pytest.raises(ValueError, match="radius must be a finite positive number"):
        prox_l1_ball(v, 0.1, 0.0)
    with pytest.raises(ValueError, match="1-D vector"):
        prox_l1_ball(np.ones((2, 2)), 0.1, 1.0)


def test_prox_l1_ball_is_the_composition_bit_for_bit():
    rng = np.random.default_rng(5)
    for radius in (0.05, 1.0, 50.0):
        v = rng.standard_normal(20)
        out = prox_l1_ball(v, 0.3, radius)
        np.testing.assert_array_equal(
            out, project_ball(soft_threshold(v, 0.3), radius))
        assert out is not v


# -- zero threshold ----------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(arrays(np.float64, st.integers(1, 40), elements=FINITE))
def test_soft_threshold_at_zero_weight_is_the_shrink_bit_for_bit(v):
    out = soft_threshold(v, 0.0)
    shrink = np.sign(v) * np.maximum(np.abs(v) - 0.0, 0.0)
    assert out.tobytes() == shrink.tobytes()
    # that is v itself, except that sign(-0.0) is 0.0, so -0.0 comes out 0.0
    assert out.tobytes() == np.where(v == 0.0, 0.0, v).tobytes()
    assert not np.shares_memory(out, v)


def test_soft_threshold_at_zero_weight_signed_zeros_and_extremes():
    v = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.0])
    out = soft_threshold(v, 0.0)
    assert not np.signbit(out[0])
    np.testing.assert_array_equal(out, v)
    assert out[2:].tobytes() == v[2:].tobytes()
    assert soft_threshold([1, -2], 0).tobytes() == np.array([1.0, -2.0]).tobytes()


# -- the solver loop's unchecked core ----------------------------------------

SIGNED = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6))


@settings(max_examples=300)
@given(arrays(np.float64, st.integers(1, 30), elements=SIGNED),
       st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
       st.floats(1e-3, 1e7))
@example(np.array([-0.0, 0.25, -0.5]), 0.0, 10.0)      # inside, no shrink
@example(np.array([-0.0, 3.0, -4.0]), 0.0, 1.0)        # outside, no shrink
@example(np.array([-0.0, 0.25, -0.5]), 0.1, 10.0)      # inside, shrinking
@example(np.array([-0.0, 3.0, -4.0]), 0.5, 1.0)        # outside, shrinking
def test_the_unchecked_prox_is_the_checked_one_bit_for_bit(v, tau, radius):
    out = _prox(v, tau, radius)
    assert out.tobytes() == prox_l1_ball(v, tau, radius).tobytes()
    assert not np.shares_memory(out, v)
