"""Stepsize certification tests: frozen margins, minimality, class ordering."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apadmm import certify, descent_margin, minimal_rho
from apadmm.stepsize import default_penalties, exact_baseline_penalty


def test_margin_frozen_values():
    # 8 - 2*(1/8 + 7/128) is exactly representable; demand equality
    assert descent_margin(8.0, 1.0, 0, "general") == 7.640625
    assert abs(descent_margin(10.0, 1.0, 2, "general") - 3.57) <= 1e-12


def test_margin_t0_general_matches_synchronous_formula():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = float(rng.uniform(0.5, 30.0))
        L = float(rng.uniform(0.1, 4.0))
        ref = rho - 2.0 * (1.0 / rho + 7.0 * L / (2.0 * rho * rho)) * L * L
        assert descent_margin(rho, L, 0, "general") == pytest.approx(ref, rel=1e-14)


def test_margin_scales_with_lipschitz():
    # margin(c*rho, c*L) = c * margin(rho, L): the rule is scale free
    for curvature in ("general", "convex", "concave"):
        for c in (0.5, 3.0, 10.0):
            base = descent_margin(9.0, 1.0, 2, curvature)
            scaled = descent_margin(9.0 * c, c, 2, curvature)
            assert scaled == pytest.approx(c * base, rel=1e-12)


def test_margin_rejects_bad_arguments():
    with pytest.raises(ValueError):
        descent_margin(0.0, 1.0, 0, "general")
    with pytest.raises(ValueError):
        descent_margin(1.0, -1.0, 0, "general")
    with pytest.raises(ValueError):
        descent_margin(1.0, 1.0, -1, "general")
    with pytest.raises(ValueError):
        descent_margin(1.0, 1.0, 0, "smooth")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_arguments_are_rejected_by_name(bad):
    with pytest.raises(ValueError, match="rho"):
        certify(bad, 1.0, 0, "general")
    with pytest.raises(ValueError, match="lipschitz"):
        certify(8.0, bad, 0, "general")
    with pytest.raises(ValueError, match="delay_bound"):
        certify(8.0, 1.0, bad, "general")
    with pytest.raises(ValueError, match="lipschitz"):
        minimal_rho(bad, 0, "general")
    with pytest.raises(ValueError, match="delay_bound"):
        minimal_rho(1.0, bad, "general")


@pytest.mark.parametrize("L,T,needle", [
    (1.0, 1e200, "delay_bound=1e+200"),
    (1e-300, 3.0, "lipschitz=1e-300"),
    (1e200, 3.0, "lipschitz=1e+200"),
], ids=["T_huge", "L_tiny", "L_huge"])
def test_out_of_range_scales_raise_a_named_value_error(L, T, needle):
    # finite inputs whose margin overflows or divides by zero; no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="out of floating-point range") as err:
            minimal_rho(L, T, "general")
        assert needle in str(err.value)


@pytest.mark.parametrize("rho,L,T", [
    (1e300, 1e200, 1e60), (1e-160, 1.0, 3.0), (1e-300, 1.0, 3.0),
    (1.0, 1.0, 1e200),
], ids=["overflow", "rho_small", "rho_squared_zero", "T_huge"])
def test_out_of_range_margins_of_certain_sign_are_minus_infinity(rho, L, T):
    # rho minus terms that overflow, or that exceed rho once L (T+1) >= rho
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert descent_margin(rho, L, T, "general") == -math.inf
        assert not certify(rho, L, T, "general").feasible


def test_out_of_range_margin_of_unknown_sign_raises_a_named_value_error():
    # rho * rho underflows, and with L this small the margin may be positive
    with pytest.raises(ValueError, match="rho=1e-170, lipschitz=1e-200"):
        descent_margin(1e-170, 1e-200, 3.0, "general")


def test_certify_verdicts():
    assert not certify(7.0, 1.0, 0, "general").feasible  # floor is strict
    cert = certify(8.0, 1.0, 0, "general")
    assert cert.feasible
    assert cert.margin == 7.640625
    assert "7*L" in cert.rule


def test_certify_convex_small_rho_computes_the_verdict():
    # rho = 1.01 clears the convex floor rho >= L but the margin is negative;
    # the verdict must come from evaluating, not from the floor alone
    cert = certify(1.01, 1.0, 0, "convex")
    assert cert.margin < 0.0
    assert not cert.feasible


def test_certify_records_inputs():
    cert = certify(12.0, 2.0, 3, "concave")
    assert (cert.rho, cert.lipschitz, cert.delay_bound) == (12.0, 2.0, 3)
    assert cert.curvature == "concave"


CLASSES = st.sampled_from(["general", "convex", "concave"])
LIPSCHITZ = st.floats(1e-3, 1e3)
DELAYS = st.floats(0.0, 20.0)


@settings(deadline=None)
@given(LIPSCHITZ, DELAYS, CLASSES)
def test_minimal_rho_is_the_smallest_certified_double(L, T, curvature):
    rho = minimal_rho(L, T, curvature)
    assert certify(rho, L, T, curvature).feasible
    assert not certify(np.nextafter(rho, 0.0), L, T, curvature).feasible


def test_minimal_rho_known_values():
    assert 7.0 < minimal_rho(1.0, 0, "general") < 8.0
    # concave: the margin is already positive at the floor 5L
    assert minimal_rho(1.0, 0, "concave") == 5.0
    # convex T=0: margin zero at r^3 - 2r - 1 = 0, whose positive root is
    # the golden ratio
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert minimal_rho(1.0, 0, "convex") == pytest.approx(golden, abs=1e-6)


def test_minimal_rho_grows_with_delay():
    # small T can sit at the class floor (the floor margin is still
    # positive there), so the sequence is only non-decreasing overall
    for curvature in ("general", "convex", "concave"):
        values = [minimal_rho(1.0, T, curvature) for T in range(6)]
        assert all(b >= a - 1e-8 for a, b in zip(values, values[1:]))
        assert values[5] > values[0] + 1.0


def test_class_ordering_on_grid():
    """Convex and concave rules never demand more than the general one."""
    for L in (0.5, 1.0, 3.0):
        for T in (0, 1, 3, 6):
            general = minimal_rho(L, T, "general")
            assert minimal_rho(L, T, "convex") <= general
            assert minimal_rho(L, T, "concave") <= general


def test_margin_monotone_in_rho_above_floor():
    for curvature in ("general", "convex", "concave"):
        grid = np.linspace(7.5, 60.0, 80)
        margins = [descent_margin(r, 1.0, 3, curvature) for r in grid]
        assert all(b > a for a, b in zip(margins, margins[1:]))


@settings(deadline=None)
@given(LIPSCHITZ, DELAYS, CLASSES, st.floats(1e-2, 1e3), st.floats(1e-6, 10.0))
def test_margin_strictly_increases_in_rho(L, T, curvature, scale, step):
    # points a relative 1e-6 or more apart, so rounding cannot reorder them
    rho = scale * L
    assert (descent_margin(rho * (1.0 + step), L, T, curvature)
            > descent_margin(rho, L, T, curvature))


def test_default_penalties_apply_safety_factor():
    L = [1.0, 2.0]
    out = default_penalties(L, [0, 3], ["concave", "general"])
    ref = [1.01 * minimal_rho(1.0, 0, "concave"),
           1.01 * minimal_rho(2.0, 3, "general")]
    np.testing.assert_allclose(out, ref, rtol=1e-12)


def test_exact_baseline_penalty_uses_the_larger_floor():
    # concave: max(7L, 5L) = 7L; the exact subproblem needs rho > L anyway
    assert exact_baseline_penalty(1.0, "concave") == pytest.approx(7.07, rel=1e-12)
    general = exact_baseline_penalty(1.0, "general")
    assert general == pytest.approx(1.01 * max(7.0, minimal_rho(1.0, 0, "general")),
                                    rel=1e-12)
