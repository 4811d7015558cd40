"""Every public numeric parameter fails by one rule, with that rule's message.

Each row names a parameter, the rule it is held to and a call that takes
the bad value. Every row is sent NaN, both infinities, a bool, a numeric
string and the value just past the rule's boundary; each must raise
ValueError naming the parameter, in the rule's one message form.
"""

import math

import numpy as np
import pytest

from apadmm import (DelayModel, LinkModel, RunConfig, SparsePcaSpec, certify,
                    descent_margin, minimal_rho, project_ball, prox_l1_ball,
                    soft_threshold)
from apadmm.problems import ConsensusProblem

V = np.array([0.3, -2.0, 0.1])
B = np.ones((2, 3))

# rule -> (message form, the first bad value past its boundary)
RULES = {
    "nonnegative": ("a finite nonnegative number", -1e-300),
    "positive": ("a finite positive number", 0),
    "probability": ("a number in [0, 1]", 1 + 2 ** -52),
}

# (parameter, name in the message, rule, call taking the value)
PARAMETERS = [
    ("soft_threshold.tau", "tau", "nonnegative", lambda b: soft_threshold(V, b)),
    ("prox_l1_ball.tau", "tau", "nonnegative", lambda b: prox_l1_ball(V, b, 1.0)),
    ("project_ball.radius", "radius", "positive", lambda b: project_ball(V, b)),
    ("prox_l1_ball.radius", "radius", "positive", lambda b: prox_l1_ball(V, 0.1, b)),
    ("ConsensusProblem.l1_weight", "l1_weight", "nonnegative",
     lambda b: ConsensusProblem([B], l1_weight=b)),
    ("ConsensusProblem.radius", "radius", "positive",
     lambda b: ConsensusProblem([B], radius=b)),
    ("certify.rho", "rho", "positive", lambda b: certify(b, 1.0, 0, "concave")),
    ("certify.lipschitz", "lipschitz", "positive",
     lambda b: certify(8.0, b, 0, "concave")),
    ("certify.delay_bound", "delay_bound", "nonnegative",
     lambda b: certify(8.0, 1.0, b, "concave")),
    ("descent_margin.rho", "rho", "positive",
     lambda b: descent_margin(b, 1.0, 0, "concave")),
    ("descent_margin.lipschitz", "lipschitz", "positive",
     lambda b: descent_margin(8.0, b, 0, "concave")),
    ("descent_margin.delay_bound", "delay_bound", "nonnegative",
     lambda b: descent_margin(8.0, 1.0, b, "concave")),
    ("minimal_rho.lipschitz", "lipschitz", "positive",
     lambda b: minimal_rho(b, 0, "concave")),
    ("minimal_rho.delay_bound", "delay_bound", "nonnegative",
     lambda b: minimal_rho(1.0, b, "concave")),
    ("LinkModel.loss", "loss", "probability", lambda b: LinkModel(loss=b)),
    ("DelayModel.value", "delay.value", "nonnegative", DelayModel.constant),
    ("DelayModel.lo", "delay.lo", "nonnegative", lambda b: DelayModel.uniform(b, 1.0)),
    ("DelayModel.hi", "delay.hi", "nonnegative", lambda b: DelayModel.uniform(0.0, b)),
    ("DelayModel.values", "delay.values[1]", "nonnegative",
     lambda b: DelayModel.empirical([1.0, b])),
    ("RunConfig.epsilon", "epsilon", "positive",
     lambda b: RunConfig(epsilon=b).validate()),
    ("SparsePcaSpec.l1_weight", "l1_weight", "nonnegative",
     lambda b: SparsePcaSpec(dim=5, num_components=2, l1_weight=b)),
    ("SparsePcaSpec.nonzero_prob", "nonzero_prob", "probability",
     lambda b: SparsePcaSpec(dim=5, num_components=2, nonzero_prob=b)),
]

BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "true": True,
       "string": "1"}

CASES = [pytest.param(call, name, rule, value, id="%s-%s" % (param, label))
         for param, name, rule, call in PARAMETERS
         for label, value in [*BAD.items(), ("boundary", RULES[rule][1])]]


@pytest.mark.parametrize("call,name,rule,value", CASES)
def test_a_bad_value_fails_by_the_parameters_rule(call, name, rule, value):
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == "%s must be %s, not %r" % (name, RULES[rule][0], value)


@pytest.mark.parametrize("call, message", [
    (lambda: soft_threshold(V, np.float64(-1.0)),
     "tau must be a finite nonnegative number, not -1.0"),
    (lambda: certify(np.float64(math.nan), 1.0, 0, "concave"),
     "rho must be a finite positive number, not nan"),
    (lambda: LinkModel(loss=np.float32(1.5)),
     "loss must be a number in [0, 1], not 1.5"),
    (lambda: SparsePcaSpec(dim=np.int64(0), num_components=2),
     "dim must be an integer of at least 1, not 0"),
], ids=["nonnegative", "positive", "probability", "integer"])
def test_a_numpy_scalar_shows_as_the_number_it_holds(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
