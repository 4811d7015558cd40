"""Penalty certification for delayed proximal consensus updates.

For a component with gradient Lipschitz constant L, staleness bound T, and
penalty rho, the certified descent margin is

    margin(rho) = rho - 2 * (1/rho + m*L/(2*rho^2)) * L^2 * (T+1)^2 - L * T^2

with the curvature-dependent constant m and penalty floor:

    general : m = 7, requires rho >  7*L   (strict)
    convex  : m = 1, requires rho >=   L
    concave : m = 5, requires rho >= 5*L

A penalty is feasible when the floor holds and the margin is positive.
Times rho^2 the margin is the cubic

    rho^3 - L*T^2 * rho^2 - 2*L^2*(T+1)^2 * rho - m*L^3*(T+1)^2,

whose coefficients change sign once, so by Descartes' rule of signs it
has exactly one positive root. The margin's derivative is positive, so
the margin is negative below that root and positive above it. The
minimal feasible penalty is the larger of the floor and the root, moved
ulp by ulp to the smallest double that ``certify`` passes.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rules import choice, nonnegative, positive

__all__ = [
    "descent_margin",
    "certify",
    "minimal_rho",
    "default_penalties",
    "exact_baseline_penalty",
    "StepsizeCertificate",
]

# curvature class -> (margin constant m, whether the floor rho >= m*L is strict)
CURVATURE_CLASSES = {"general": (7.0, True), "convex": (1.0, False),
                     "concave": (5.0, False)}

# automatic penalties sit this factor above the minimal certified one
_SAFETY = 1.01

# the cubic's computed root is a few ulps from the certified boundary; running
# out of steps means the margin cannot be evaluated accurately at this scale
_MAX_ULP_STEPS = 64


def _validate(rho, lipschitz, delay_bound, curvature):
    choice(curvature, "curvature", CURVATURE_CLASSES)
    positive(lipschitz, "lipschitz")
    nonnegative(delay_bound, "delay_bound")
    if rho is not None:
        positive(rho, "rho")


def descent_margin(rho, lipschitz, delay_bound, curvature):
    """Descent margin of the given penalty; positive margin is necessary for feasibility.

    The margin is -inf when a subtracted term is out of floating-point
    range and the margin is certainly negative. Raises ValueError, naming
    the arguments, when it is out of range and its sign is not known.
    """
    _validate(rho, lipschitz, delay_bound, curvature)
    m, _ = CURVATURE_CLASSES[curvature]
    rho, L, T = float(rho), float(lipschitz), float(delay_bound)
    try:
        inner = 1.0 / rho + m * L / (2.0 * rho * rho)
        margin = rho - 2.0 * inner * L * L * (T + 1.0) ** 2 - L * T * T
    except (OverflowError, ZeroDivisionError):
        margin = math.nan
    # the margin is below rho - 2 L^2 (T+1)^2 / rho, negative once
    # L (T+1) >= rho; an overflow to -inf is negative as it stands
    if math.isnan(margin):
        if L * (T + 1.0) >= rho:
            return -math.inf
        raise ValueError(
            "margin out of floating-point range at rho=%r, lipschitz=%r, "
            "delay_bound=%r" % (rho, L, T))
    return margin


def _floor_holds(rho, lipschitz, curvature):
    m, strict = CURVATURE_CLASSES[curvature]
    floor = m * lipschitz
    if strict:
        return rho > floor
    return rho >= floor


@dataclass
class StepsizeCertificate:
    """Verdict for one (penalty, component) pair."""

    rho: float
    lipschitz: float
    delay_bound: float
    curvature: str
    margin: float
    feasible: bool

    @property
    def rule(self):
        m, strict = CURVATURE_CLASSES[self.curvature]
        op = ">" if strict else ">="
        return "%s: rho %s %g*L and margin > 0" % (self.curvature, op, m)


def certify(rho, lipschitz, delay_bound, curvature):
    """Certificate for a penalty: margin value plus the class floor check."""
    margin = descent_margin(rho, lipschitz, delay_bound, curvature)
    feasible = margin > 0.0 and _floor_holds(rho, lipschitz, curvature)
    return StepsizeCertificate(
        rho=float(rho),
        lipschitz=float(lipschitz),
        delay_bound=float(delay_bound),
        curvature=curvature,
        margin=float(margin),
        feasible=feasible,
    )


def minimal_rho(lipschitz, delay_bound, curvature):
    """Smallest double penalty that ``certify`` passes.

    Starts at the larger of the class floor and the positive root of the
    margin cubic, then steps one ulp at a time: up while ``certify``
    fails, down while the next smaller double still passes. The result
    passes and ``np.nextafter(result, 0)`` does not.

    Raises ValueError, naming the argument, when ``delay_bound`` or
    ``lipschitz`` puts the margin out of floating-point range near the
    root.
    """
    _validate(None, lipschitz, delay_bound, curvature)
    m, _ = CURVATURE_CLASSES[curvature]
    L, T = float(lipschitz), float(delay_bound)
    # the cubic in s = rho / L, which is free of L
    try:
        coeffs = [1.0, -T * T, -2.0 * (T + 1.0) ** 2, -m * (T + 1.0) ** 2]
    except OverflowError:
        coeffs = [math.inf]
    if not all(map(math.isfinite, coeffs)):
        raise ValueError("margin out of floating-point range at "
                         "delay_bound=%r" % (T,))
    roots = np.roots(coeffs)
    root = float(roots[(roots.imag == 0.0) & (roots.real > 0.0)].real.max())
    rho = max(m * L, L * root)
    try:
        for _ in range(_MAX_ULP_STEPS):
            if not certify(rho, L, T, curvature).feasible:
                rho = np.nextafter(rho, math.inf)
            elif certify(np.nextafter(rho, 0.0), L, T, curvature).feasible:
                rho = np.nextafter(rho, 0.0)
            else:
                return float(rho)
    except ValueError:
        pass  # the margin is out of range at a penalty near the root
    raise ValueError("margin out of floating-point range at lipschitz=%r "
                     "(delay_bound=%r): no certified penalty near the root %r"
                     % (L, T, L * root))


def default_penalties(lipschitz, delay_bounds, curvatures):
    """Penalties ``1.01 * minimal_rho(L_k, T_k, class_k)`` from K-entry sequences."""
    return np.array([_SAFETY * minimal_rho(L, T, c)
                     for L, T, c in zip(lipschitz, delay_bounds, curvatures)])


def exact_baseline_penalty(lipschitz, curvature):
    """Penalty for the exact-minimization baseline: ``1.01 * max(7L, minimal_rho(L, 0, class))``."""
    return _SAFETY * max(7.0 * lipschitz, minimal_rho(lipschitz, 0.0, curvature))
