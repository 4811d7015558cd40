"""Asynchronous proximal ADMM for nonconvex consensus on star networks.

The package splits into small layers:

* :mod:`apadmm._rules` - the rules every layer checks its inputs by
  (finite nonnegative, finite positive, probability, integer of at least
  n, switch, choice, JSON object), each written once with one message.
* :mod:`apadmm.prox` - proximal maps (soft threshold, ball projection,
  and their composition).
* :mod:`apadmm.problems` - consensus problem containers, component
  costs, solver state, traces, and the optimality measure each run
  stops on.
* :mod:`apadmm.stepsize` - descent margins, penalty certification, and
  minimal feasible penalties per curvature class.
* :mod:`apadmm.simnet` - deterministic discrete-event star network that
  times the master's copies through delays and losses.
* :mod:`apadmm.algorithms` - one solver loop (master step, one pass over
  the components, exchange, commit, trace row) that runs the asynchronous
  solver and synchronous baselines.
* :mod:`apadmm.diagnostics` - the residual checks replayed over stored
  traces.
* :mod:`apadmm.benchmark` - sparse-PCA instance generator and campaign
  sweeps.
* :mod:`apadmm.cli` - the ``apadmm`` command.

The package namespace re-exports what demos and outside callers use;
every other name is imported from its submodule.
"""

from .prox import soft_threshold, project_ball, prox_l1_ball
from .stepsize import certify, descent_margin, minimal_rho
from .simnet import DelayModel, LinkModel, StarNetwork
from .algorithms import RunConfig, run
from .problems import optimality_measure
from .diagnostics import trace_residuals
from .benchmark import (
    CampaignCell,
    SparsePcaSpec,
    campaign_csv,
    generate,
    run_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "soft_threshold", "project_ball", "prox_l1_ball",
    "certify", "descent_margin", "minimal_rho",
    "DelayModel", "LinkModel", "StarNetwork",
    "RunConfig", "run",
    "optimality_measure", "trace_residuals",
    "CampaignCell", "SparsePcaSpec", "campaign_csv", "generate",
    "run_campaign",
    "__version__",
]
