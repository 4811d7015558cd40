"""Consensus solvers: asynchronous proximal updates plus synchronous baselines.

Every algorithm runs the same master iteration in one solver loop: an
exchange with the workers followed by a local update. Each update starts
with the same master step: average the local copies and duals, then
apply the l1-plus-ball proximal map with weight scaled by the total
penalty. The algorithms differ only in the two varying parts:

* ``async_padmm``: the exchange is one window of a simulated star
  network; the master broadcasts the new x, waits one window, and applies
  whatever gradients arrived (stale copies allowed, bounded staleness
  enforced or observed per config). All local copies and duals are
  refreshed every iteration, recently arrived gradients or not.
* ``sync_padmm``: the exchange blocks on every worker, and every component
  contributes a fresh gradient at the new x (the zero-delay protocol).
* ``sync_admm``: the exchange blocks as for ``sync_padmm``, and every
  component solves its penalized subproblem exactly; requires components
  that expose an exact solver and penalties above the component curvature.

Time accounting: the reported iteration count is the simulated master
clock in window units. Async iterations cost exactly 1. Synchronous
updates block on the slowest worker and cost ``max(1, ceil(max_k
round_trip_k))``, so delay inflates their clock, not their update count.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import IterationTrace, SolverState, initial_state
from .prox import prox_l1_ball
from .simnet import ComputeModel, DelayModel, LinkModel, StarNetwork
from .stepsize import certify, default_penalties, exact_baseline_penalty
from . import diagnostics

__all__ = [
    "ALGORITHMS",
    "RunConfig",
    "RunResult",
    "master_step",
    "padmm_apply",
    "sync_padmm_iteration",
    "exact_admm_iteration",
    "run",
]

ALGORITHMS = ("async_padmm", "sync_padmm", "sync_admm")


@dataclass
class RunConfig:
    """Everything a run needs beyond the problem itself.

    Model fields (``compute_delay``, ``downlink``, ``uplink``) hold plain
    JSON-able specs, resolved to simulator models at run time: a number is
    a constant delay, dicts select {"kind": "constant"|"uniform"|
    "empirical", ...}, and link dicts accept {"delay": ..., "loss": ...,
    "allow_reordering": ...}; a missing or unknown key raises ValueError.
    A single spec applies to every worker; a list gives one per worker.
    ``compute_delay=None`` defaults to uniform(0, T_k).

    ``delay_bound`` is the staleness level enforcement acts on;
    ``cert_delay`` is the staleness level the automatic penalty rule
    certifies, defaulting to ``delay_bound``. Campaigns set it to the
    delay model's mean gradient age, which is what reproduces the
    published iteration counts; worst-case penalties over-damp the
    asynchronous updates by roughly the bound-to-mean ratio.

    ``init`` picks the start point: ``random_ball`` (the default) starts
    every copy at one point at half the radius, drawn from ``seed``;
    ``zero`` starts at x = 0, which is stationary for concave quadratic
    components, so such a run stops after one update.
    """

    algorithm: str = "async_padmm"
    rho: object = "auto"
    max_iters: int = 5000
    epsilon: float = 1e-3
    seed: int = 0
    delay_bound: object = 0
    cert_delay: object = None
    window: float = 1.0
    enforcement: str = "enforce"
    init: str = "random_ball"
    force: bool = False
    full_trace: bool = False
    compute_delay: object = None
    downlink: object = None
    uplink: object = None

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError("unknown algorithm %r; expected one of %s"
                             % (self.algorithm, list(ALGORITHMS)))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.enforcement not in ("enforce", "observe"):
            raise ValueError("enforcement must be 'enforce' or 'observe'")
        if self.init not in ("zero", "random_ball"):
            raise ValueError("init must be 'zero' or 'random_ball'")


@dataclass
class RunResult:
    """Outcome of one run.

    ``iterations`` is the simulated clock in window units (the number the
    campaign tables report); ``updates`` the number of state updates,
    which is smaller for synchronous algorithms under delay.
    """

    termination: str
    iterations: int
    updates: int
    state: SolverState
    trace: IterationTrace
    rho: np.ndarray
    certificates: list
    final_measure: float
    violations: list = field(default_factory=list)
    violation: tuple = None

    @property
    def converged(self):
        return self.termination == "converged"


def master_step(problem, state, rho):
    """New master vector: prox of the penalty-weighted average.

    Evaluates ``prox_l1_ball`` at ``(sum_k rho_k x_local_k + sum_k y_k) /
    sum_k rho_k`` with l1 weight ``l1_weight / sum_k rho_k``; the weight
    scaling comes from completing the square in the master subproblem.
    """
    rho = np.asarray(rho, dtype=float)
    total = float(rho.sum())
    v = (rho[:, None] * state.x_local + state.y).sum(axis=0) / total
    return prox_l1_ball(v, problem.l1_weight / total, problem.radius)


def padmm_apply(problem, state, rho, x_new, updates):
    """Commit one proximal update given the new master vector and fresh gradients.

    Parameters
    ----------
    updates : dict
        ``{k: (gradient, copy_index)}`` for the components whose gradient
        arrived this iteration; the rest keep their stored gradient. Every
        component refreshes its local copy and dual, with whatever
        gradient is stored.
    """
    rho = np.asarray(rho, dtype=float)
    grad = state.grad_stored.copy()
    stale = state.stale_index.copy()
    x_local = state.x_local.copy()
    y = state.y.copy()
    for k, (g, idx) in updates.items():
        grad[k] = g
        stale[k] = idx
    for k in range(problem.num_components):
        x_local[k] = x_new - (grad[k] + y[k]) / rho[k]
        y[k] = y[k] + rho[k] * (x_local[k] - x_new)
    return SolverState(state.iteration + 1, np.asarray(x_new, dtype=float),
                       x_local, y, grad, stale)


def sync_padmm_iteration(problem, state, rho):
    """One synchronous proximal update: fresh gradients at the new master vector."""
    x_new = master_step(problem, state, rho)
    t_new = state.iteration + 1
    updates = {
        k: (comp.gradient(x_new), t_new)
        for k, comp in enumerate(problem.components)
    }
    return padmm_apply(problem, state, rho, x_new, updates)


def exact_admm_iteration(problem, state, rho):
    """One synchronous exact update: each component minimizes its penalized cost.

    Requires every component to expose ``penalized_argmin`` and every
    penalty to exceed the component curvature; both are checked by the
    component solver.
    """
    rho = np.asarray(rho, dtype=float)
    x_new = master_step(problem, state, rho)
    t_new = state.iteration + 1
    x_local = np.empty_like(state.x_local)
    y = state.y.copy()
    grad = np.empty_like(state.grad_stored)
    for k, comp in enumerate(problem.components):
        if not hasattr(comp, "penalized_argmin"):
            raise TypeError(
                "component %d has no exact penalized solver; "
                "sync_admm needs one (use the proximal algorithms instead)" % k)
        x_local[k] = comp.penalized_argmin(rho[k], x_new, y[k])
        y[k] = y[k] + rho[k] * (x_local[k] - x_new)
        grad[k] = comp.gradient(x_local[k])
    stale = np.full(problem.num_components, t_new, dtype=int)
    return SolverState(t_new, x_new, x_local, y, grad, stale)


# -- config resolution -------------------------------------------------------


# keys of a delay spec dict beyond "kind": (required, optional)
_DELAY_KEYS = {
    "constant": ((), ("value",)),
    "uniform": (("hi",), ("lo",)),
    "empirical": (("values",), ()),
}
_LINK_KEYS = ("delay", "loss", "allow_reordering")


def _check_keys(spec, name, required, optional):
    for key in required:
        if key not in spec:
            raise ValueError("%s spec %r is missing key '%s'" % (name, spec, key))
    for key in spec:
        if key not in required and key not in optional:
            raise ValueError("%s spec %r has unknown key '%s'" % (name, spec, key))


def _delay_model(spec, name):
    if spec is None:
        return DelayModel.constant(0.0)
    if isinstance(spec, (int, float)):
        return DelayModel.constant(float(spec))
    if isinstance(spec, DelayModel):
        return spec
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _DELAY_KEYS:
        raise ValueError("%s spec %r is not a number or an object with key "
                         "'kind' in %s" % (name, spec, sorted(_DELAY_KEYS)))
    required, optional = _DELAY_KEYS[kind]
    _check_keys(spec, name, ("kind",) + required, optional)
    if kind == "constant":
        return DelayModel.constant(spec.get("value", 0.0))
    if kind == "uniform":
        return DelayModel.uniform(spec.get("lo", 0.0), spec["hi"])
    return DelayModel.empirical(spec["values"])


def _link_model(spec, name):
    if spec is None:
        return LinkModel()
    if not isinstance(spec, dict):
        # bare numbers (or DelayModel) mean a lossless link with that delay
        return LinkModel(delay=_delay_model(spec, name))
    _check_keys(spec, name, (), _LINK_KEYS)
    return LinkModel(
        delay=_delay_model(spec.get("delay"), name + ".delay"),
        loss=float(spec.get("loss", 0.0)),
        allow_reordering=bool(spec.get("allow_reordering", False)),
    )


def _per_worker(spec, count, build, name):
    if isinstance(spec, (list, tuple, np.ndarray)):
        if len(spec) != count:
            raise ValueError("%s list has %d entries for %d components"
                             % (name, len(spec), count))
        return [build(s) for s in spec]
    return [build(spec) for _ in range(count)]


def _build_network(problem, config, delay_bounds):
    K = problem.num_components
    downs = _per_worker(config.downlink, K,
                        lambda s: _link_model(s, "downlink"), "downlink")
    ups = _per_worker(config.uplink, K,
                      lambda s: _link_model(s, "uplink"), "uplink")
    compute = config.compute_delay
    if compute is None:
        # uniform(0, 0) draws nothing from the rng, like constant(0)
        compute = [DelayModel.uniform(0.0, T) for T in delay_bounds]
    computes = _per_worker(
        compute, K, lambda s: ComputeModel(_delay_model(s, "compute_delay")),
        "compute_delay")
    return StarNetwork(
        K, lambda k, x: problem.components[k].gradient(x),
        downs, ups, computes, seed=[int(config.seed), 29],
        window=config.window)


def _resolve_rho(problem, config, cert_delays):
    K = problem.num_components
    lipschitz = problem.lipschitz_constants()
    classes = problem.curvature_classes()
    cert_bounds = (np.asarray(cert_delays, dtype=float)
                   if config.algorithm == "async_padmm" else np.zeros(K))
    if not (isinstance(config.rho, str) and config.rho == "auto"):
        rho = np.broadcast_to(np.asarray(config.rho, dtype=float), (K,)).copy()
    elif config.algorithm == "sync_admm":
        rho = np.array([exact_baseline_penalty(L, c)
                        for L, c in zip(lipschitz, classes)])
    else:
        rho = default_penalties(lipschitz, cert_bounds, classes)
    certs = [
        certify(r, L, T, c)
        for r, L, T, c in zip(rho, lipschitz, cert_bounds, classes)
    ]
    return rho, certs


def _initial(problem, config):
    if config.init == "zero":
        return initial_state(problem)
    rng = np.random.default_rng([int(config.seed), 17])
    direction = rng.standard_normal(problem.dim)
    direction /= max(float(np.linalg.norm(direction)), 1e-300)
    return initial_state(problem, 0.5 * problem.radius * direction)


def _record(problem, state, rho, trace, sim_time, collected):
    row = diagnostics.trace_row(problem, state, rho)
    trace.append(*row, sim_time, collected)
    if trace.states is not None:
        trace.states.append(state.copy())
    return row[-1]


def run(problem, config):
    """Execute one full run and return its trace and termination status.

    Every algorithm runs the same loop: an exchange with the workers (one
    network window for ``async_padmm``, a blocking round trip for the
    synchronous baselines) followed by a local update (proximal for
    ``async_padmm`` and ``sync_padmm``, exact for ``sync_admm``).

    Termination is one of ``converged`` (optimality measure dropped below
    epsilon), ``max_iters`` (clock budget exhausted), ``staleness_violation``
    (enforce mode tripped), or ``infeasible_stepsize`` (certificates failed
    and force was not set; no iterations run).
    """
    config.validate()
    K = problem.num_components
    delay_bounds = np.array(
        _per_worker(config.delay_bound, K, float, "delay_bound"))
    if np.any(delay_bounds < 0):
        raise ValueError("delay bounds must be nonnegative")
    cert_delays = delay_bounds
    if config.cert_delay is not None:
        cert_delays = np.array(
            _per_worker(config.cert_delay, K, float, "cert_delay"))
        if np.any(cert_delays < 0):
            raise ValueError("certification delays must be nonnegative")
    net = _build_network(problem, config, delay_bounds)
    asynchronous = config.algorithm == "async_padmm"
    if not asynchronous and net.has_loss:
        raise ValueError(
            "synchronous algorithms block on every worker and need lossless "
            "links; set loss to 0 or use an asynchronous algorithm")
    rho, certs = _resolve_rho(problem, config, cert_delays)
    trace = IterationTrace(states=[] if config.full_trace else None)
    state = _initial(problem, config)

    hard_reject = config.algorithm == "sync_admm" and any(
        r <= c.lipschitz for r, c in zip(rho, problem.components))
    if hard_reject or (not all(c.feasible for c in certs) and not config.force):
        return RunResult(
            termination="infeasible_stepsize", iterations=0, updates=0,
            state=state, trace=trace, rho=rho, certificates=certs,
            final_measure=float("inf"))

    if trace.states is not None:
        trace.states.append(state.copy())

    local_update = (exact_admm_iteration if config.algorithm == "sync_admm"
                    else sync_padmm_iteration)
    enforce = config.enforcement == "enforce"
    violations = []
    violation = None
    termination = "max_iters"
    measure = float("inf")
    clock = 0
    while clock < config.max_iters:
        if asynchronous:
            x_new = master_step(problem, state, rho)
            collected = net.run_window(x_new, state.iteration + 1)
            updates = {
                k: (msg.gradient, msg.copy_index)
                for k, msg in collected.items()
            }
            new = padmm_apply(problem, state, rho, x_new, updates)
            staleness = new.iteration - new.stale_index
            over = np.nonzero(staleness > delay_bounds)[0]
            if over.size:
                worst = int(over[np.argmax(staleness[over])])
                violations.append((new.iteration, worst, int(staleness[worst])))
                if enforce:
                    violation = violations[-1]
                    termination = "staleness_violation"
                    break
            state, cost, arrived = new, 1, len(updates)
        else:
            round_trips = net.sample_round_trips()
            cost = max(1, int(math.ceil(float(round_trips.max()) / config.window)))
            state, arrived = local_update(problem, state, rho), K
        clock += cost
        measure = _record(problem, state, rho, trace, float(clock), arrived)
        if measure < config.epsilon:
            termination = "converged"
            break
    return RunResult(
        termination=termination, iterations=clock, updates=len(trace),
        state=state, trace=trace, rho=rho, certificates=certs,
        final_measure=measure, violations=violations, violation=violation)
