"""Every public input fails by one rule, with that rule's message.

Each row of ``PARAMETERS`` names a numeric parameter, the rule it is held
to and a call that takes the bad value. Every row is sent NaN, both
infinities, a bool, a numeric string and the value just past the rule's
boundary; each must raise ValueError naming the parameter, in the rule's
one message form. ``INPUTS`` does the same for every switch (true or
false), choice (one of a few strings) and JSON object, each sent None, a
number, a near-miss string and a list.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest

from apadmm import (DelayModel, LinkModel, RunConfig, SparsePcaSpec, certify,
                    descent_margin, minimal_rho, project_ball, prox_l1_ball,
                    run, soft_threshold)
from apadmm.algorithms import ALGORITHMS
from apadmm.benchmark import BENCH_PRESETS, bench_preset
from apadmm.cli import build_parser
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
    (lambda: RunConfig(force=np.int64(1)).validate(),
     "force must be true or false, not 1"),
], ids=["nonnegative", "positive", "probability", "integer", "boolean"])
def test_a_numpy_scalar_shows_as_the_number_it_holds(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def from_file(command, flag, data):
    """Run ``apadmm <command> <flag> FILE`` on ``data`` as the JSON file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        args = build_parser().parse_args([command, flag, path])
        args.func(args)


def run_config(data):
    from_file("run", "--config", data)


def campaign(data):
    from_file("bench", "--campaign", data)


CELL = {"algorithm": "async_padmm", "dim": 10, "num_components": 2,
        "delay_bound": 1}
SWITCH, OBJECT = "true or false", "an object"


def one_of(options):
    return "one of " + ", ".join(options)


# (input, name in the message, message form, near-miss string, call)
INPUTS = [
    ("RunConfig.force", "force", SWITCH, "true",
     lambda v: RunConfig(force=v).validate()),
    ("RunConfig.full_trace", "full_trace", SWITCH, "false",
     lambda v: RunConfig(full_trace=v).validate()),
    ("run.lagrangian", "lagrangian", SWITCH, "True",
     lambda v: run(ConsensusProblem([B]), RunConfig(), lagrangian=v)),
    ("LinkModel.allow_reordering", "allow_reordering", SWITCH, "yes",
     lambda v: LinkModel(allow_reordering=v)),
    ("RunConfig.algorithm", "algorithm", one_of(ALGORITHMS), "async-padmm",
     lambda v: RunConfig(algorithm=v).validate()),
    ("RunConfig.enforcement", "enforcement", "one of enforce, observe",
     "Enforce", lambda v: RunConfig(enforcement=v).validate()),
    ("RunConfig.init", "init", "one of zero, random_ball", "random-ball",
     lambda v: RunConfig(init=v).validate()),
    ("DelayModel.kind", "delay.kind", "one of constant, uniform, empirical",
     "Uniform", DelayModel),
    ("DelayModel.from_spec.kind", "compute_delay.kind",
     "one of constant, uniform, empirical", "uniform ",
     lambda v: DelayModel.from_spec({"kind": v, "hi": 1.0}, "compute_delay")),
    ("certify.curvature", "curvature", "one of general, convex, concave",
     "Concave", lambda v: certify(10.0, 1.0, 0, v)),
    ("descent_margin.curvature", "curvature", "one of general, convex, concave",
     "concav", lambda v: descent_margin(10.0, 1.0, 0, v)),
    ("minimal_rho.curvature", "curvature", "one of general, convex, concave",
     "convex ", lambda v: minimal_rho(1.0, 0, v)),
    ("bench_preset.name", "bench preset", one_of(BENCH_PRESETS), "table5",
     bench_preset),
    ("bench_preset.scale", "scale", "one of desk, paper", "Desk",
     lambda v: bench_preset("table1", v)),
    ("config_file", "config", OBJECT, json.dumps({"seed": 1}), run_config),
    ("config_instance", "instance", OBJECT, json.dumps({"dim": 5}),
     lambda v: run_config({"instance": v})),
    ("campaign_file", "campaign", OBJECT, json.dumps({"cells": [CELL]}),
     campaign),
    ("campaign_cell", "campaign cell 0", OBJECT, json.dumps(CELL),
     lambda v: campaign({"cells": [v]})),
]

INPUT_CASES = [
    pytest.param(call, name, form, value, id="%s-%s" % (label, kind))
    for label, name, form, near_miss, call in INPUTS
    for kind, value in [("none", None), ("number", 1), ("near_miss", near_miss),
                        ("list", [near_miss])]]


@pytest.mark.parametrize("call,name,form,value", INPUT_CASES)
def test_a_bad_switch_choice_or_object_fails_by_its_rule(call, name, form, value):
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == "%s must be %s, not %r" % (name, form, value)


def test_a_numpy_bool_is_a_switch():
    RunConfig(force=np.True_, full_trace=np.False_).validate()
    assert LinkModel(allow_reordering=np.True_).allow_reordering
