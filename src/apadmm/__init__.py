"""Asynchronous proximal ADMM for nonconvex consensus on star networks.

The package splits into small layers:

* :mod:`apadmm.prox` - proximal maps (soft threshold, ball projection,
  and their composition).
* :mod:`apadmm.problems` - consensus problem containers, component
  costs, solver state, traces.
* :mod:`apadmm.stepsize` - descent margins, penalty certification, and
  minimal feasible penalties per curvature class.
* :mod:`apadmm.simnet` - deterministic discrete-event star network with
  delays, losses, and bounded staleness.
* :mod:`apadmm.algorithms` - one solver loop, an exchange plus a local
  update, that runs the asynchronous solver and synchronous baselines.
* :mod:`apadmm.diagnostics` - optimality measures, surrogate values,
  and residual checks replayed over stored traces.
* :mod:`apadmm.benchmark` - sparse-PCA instance generator and campaign
  sweeps.
* :mod:`apadmm.cli` - the ``apadmm`` command.
"""

from .prox import soft_threshold, project_ball, prox_l1_ball
from .problems import (
    CallableCost,
    ConcaveQuadratic,
    ConsensusProblem,
    IterationTrace,
    SolverState,
    augmented_lagrangian,
    ball_diameter,
    check_gradients,
    check_lipschitz,
    feasibility_gap,
    initial_state,
    leading_eigenvalue,
    objective,
    smooth_gradient,
    smooth_value,
)
from .stepsize import (
    StepsizeCertificate,
    certify,
    default_penalties,
    descent_margin,
    exact_baseline_penalty,
    minimal_rho,
)
from .simnet import ComputeModel, DelayModel, LinkModel, Message, StarNetwork
from .algorithms import (
    ALGORITHMS,
    RunConfig,
    RunResult,
    exact_admm_iteration,
    master_step,
    padmm_apply,
    run,
    sync_padmm_iteration,
)
from .diagnostics import (
    CheckOutcome,
    TraceReport,
    optimality_measure,
    penalized_surrogates,
    proximal_gradient,
    trace_residuals,
)
from .benchmark import (
    CampaignCell,
    SparsePcaSpec,
    bench_preset,
    campaign_csv,
    generate,
    run_campaign,
    run_preset,
)

__version__ = "0.1.0"

__all__ = [
    "soft_threshold", "project_ball", "prox_l1_ball",
    "CallableCost", "ConcaveQuadratic", "ConsensusProblem",
    "IterationTrace", "SolverState", "augmented_lagrangian",
    "ball_diameter", "check_gradients", "check_lipschitz",
    "feasibility_gap", "initial_state", "leading_eigenvalue", "objective",
    "smooth_gradient", "smooth_value",
    "StepsizeCertificate", "certify", "default_penalties", "descent_margin",
    "exact_baseline_penalty", "minimal_rho",
    "ComputeModel", "DelayModel", "LinkModel", "Message", "StarNetwork",
    "ALGORITHMS", "RunConfig", "RunResult", "run", "master_step",
    "padmm_apply", "sync_padmm_iteration", "exact_admm_iteration",
    "CheckOutcome", "TraceReport", "optimality_measure",
    "penalized_surrogates", "proximal_gradient", "trace_residuals",
    "CampaignCell", "SparsePcaSpec", "bench_preset", "campaign_csv",
    "generate", "run_campaign", "run_preset",
    "__version__",
]
