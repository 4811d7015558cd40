"""Consensus solvers: asynchronous proximal updates plus synchronous baselines.

Every algorithm runs the same update in one solver loop: a master step
(the l1-plus-ball prox of the penalty-weighted average of the local
copies and duals), one evaluation of each component at the new x, an
exchange with the workers, a commit of the local copies and duals, and
a trace row, whose augmented Lagrangian (one more evaluation, at the
local copies) a caller that does not read it, such as a campaign, skips.
The algorithms differ only in how the master gets its gradients:

* ``async_padmm``: the exchange is one window of a simulated star
  network; the master broadcasts its gradients at the new x and, one
  window later, applies whatever arrived (stale copies allowed, bounded
  staleness enforced or observed per config); a worker's delay only
  times when its gradient lands. The dual is the gradient record, so a
  component that received nothing keeps its dual, and its copy is the new x.
* ``sync_padmm``: the exchange blocks on every worker and commits every
  component's gradient at the new x (the zero-delay protocol).
* ``sync_admm``: the exchange blocks as for ``sync_padmm``, and every
  component solves its penalized subproblem exactly, all K in one
  ``problems.penalized_argmin`` call, through one cached M x M inverse
  per component; requires penalties above the component curvature.

Time accounting: the reported iteration count is the simulated master
clock in windows, the simulator's unit of time. Async iterations cost
exactly 1. Synchronous updates block on the slowest worker and cost
``max(1, ceil(max_k round_trip_k))``, so delay inflates their clock, not
their update count.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .problems import (IterationTrace, SolverState, augmented_lagrangian,
                       consensus_terms, initial_state, penalized_argmin)
from .prox import _norm, prox_l1_ball
from .simnet import DelayModel, LinkModel, StarNetwork, _delay, _is_number
from .stepsize import certify, default_penalties, exact_baseline_penalty
from . import diagnostics

__all__ = [
    "ALGORITHMS",
    "RunConfig",
    "RunResult",
    "master_step",
    "padmm_apply",
    "exact_admm_iteration",
    "run",
]

ALGORITHMS = ("async_padmm", "sync_padmm", "sync_admm")


@dataclass
class RunConfig:
    """Everything a run needs beyond the problem itself.

    The per-component keys (``delay_bound``, ``cert_delay``, ``rho``,
    ``compute_delay``, ``downlink``, ``uplink``) take one value for every
    worker or a list of 1 or K, one per worker; a 1-entry list runs
    exactly as its value. Model fields (``compute_delay``, ``downlink``,
    ``uplink``) hold plain JSON-able specs, parsed at run time by
    ``DelayModel.from_spec`` and ``LinkModel.from_spec``, which document
    the format; delays are finite and nonnegative, in windows, one
    master iteration each. ``compute_delay=None`` defaults to
    uniform(0, T_k). ``seed`` is an integer of at least 0 and
    ``max_iters`` one of at least 1.

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
        if not (_is_number(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be a positive number, not %r"
                             % (self.epsilon,))
        _check_integer("max_iters", self.max_iters, 1)
        _check_integer("seed", self.seed, 0)
        if self.enforcement not in ("enforce", "observe"):
            raise ValueError("enforcement must be 'enforce' or 'observe'")
        if self.init not in ("zero", "random_ball"):
            raise ValueError("init must be 'zero' or 'random_ball'")
        for name in ("force", "full_trace"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError("%s must be true or false, not %r"
                                 % (name, getattr(self, name)))


@dataclass
class RunResult:
    """Outcome of one run.

    ``iterations`` is the simulated clock in windows (the number the
    campaign tables report); ``updates`` the number of state updates,
    which is smaller for synchronous algorithms under delay.
    ``delay_bounds`` are the staleness bounds the run was held to: the
    resolved ``delay_bound`` for ``async_padmm``, zeros for the
    synchronous algorithms, whose gradients are always fresh.
    """

    termination: str
    iterations: int
    updates: int
    state: SolverState
    trace: IterationTrace
    rho: np.ndarray
    delay_bounds: np.ndarray
    certificates: list
    final_measure: float
    violations: list = field(default_factory=list)

    @property
    def converged(self):
        return self.termination == "converged"

    @property
    def violation(self):
        """The ``(iteration, worker, staleness)`` that aborted the run, or None."""
        aborted = self.termination == "staleness_violation"
        return self.violations[-1] if aborted else None


def master_step(problem, state, rho):
    """New master vector: prox of the penalty-weighted average.

    Evaluates ``prox_l1_ball`` at ``(sum_k rho_k x_local_k + sum_k y_k) /
    sum_k rho_k`` with l1 weight ``l1_weight / sum_k rho_k``; the weight
    scaling comes from completing the square in the master subproblem.
    """
    rho = np.asarray(rho, dtype=float)
    total = float(np.add.reduce(rho))
    v = np.add.reduce(rho[:, None] * state.x_local + state.y, axis=0) / total
    return prox_l1_ball(v, problem.l1_weight / total, problem.radius)


def padmm_apply(state, rho, x_new, grads, stale_index):
    """Commit one proximal update: component k commits row k of ``grads``.

    ``stale_index[k]`` is the iteration that gradient was taken at (kept,
    not copied). The new dual is ``-grads``. A component that received
    nothing passes its record ``-y[k]`` and its old index, so it keeps
    its dual and moves its local copy to ``x_new``, both bit for bit.
    """
    rho = np.asarray(rho, dtype=float)[:, None]
    x_local = x_new - (grads + state.y) / rho
    return SolverState(state.iteration + 1, np.asarray(x_new, dtype=float),
                       x_local, -grads, stale_index)


def exact_admm_iteration(problem, state, rho, x_new):
    """Commit one exact update: each component minimizes its penalized cost at x_new.

    One ``penalized_argmin`` call solves every component's subproblem,
    with no loop over components, and checks that each penalty
    exceeds its component's curvature. The subproblem's first-order
    condition ``grad g_k(u_k) + y_k + rho_k (u_k - x_new) = 0`` has the
    new dual as its last two terms, so the new dual is ``-grad g_k(u_k)``
    and no component is evaluated here.
    """
    rho = np.asarray(rho, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    x_local = penalized_argmin(problem, rho, x_new, state.y)
    y = state.y + rho[:, None] * (x_local - x_new)
    t_new = state.iteration + 1
    stale = np.full(problem.num_components, t_new, dtype=int)
    return SolverState(t_new, x_new, x_local, y, stale)


# -- config resolution -------------------------------------------------------


def _check_integer(name, value, least):
    # numpy integers are Integral; bools are too, but not counts
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError("%s must be an integer of at least %d, not %r"
                         % (name, least, value))


def _per_worker(value, count, name):
    """``count`` entries from one value, or from a list of 1 or ``count``."""
    if isinstance(value, np.ndarray):
        value = value.tolist()      # a 0-d array is one value
    if not isinstance(value, (list, tuple)):
        return [value] * count
    if len(value) not in (1, count):
        raise ValueError("%s needs 1 or %d entries, got %d"
                         % (name, count, len(value)))
    return list(value) if len(value) == count else [value[0]] * count


def _delays(spec, count, name):
    return np.array([_delay(v, name) for v in _per_worker(spec, count, name)])


def _build_network(problem, config, delay_bounds):
    K = problem.num_components
    downs = [LinkModel.from_spec(s, "downlink")
             for s in _per_worker(config.downlink, K, "downlink")]
    ups = [LinkModel.from_spec(s, "uplink")
           for s in _per_worker(config.uplink, K, "uplink")]
    compute = config.compute_delay
    if compute is None:
        # uniform(0, 0) draws nothing from the rng, like constant(0)
        compute = [DelayModel.uniform(0.0, T) for T in delay_bounds]
    computes = [DelayModel.from_spec(s, "compute_delay")
                for s in _per_worker(compute, K, "compute_delay")]
    return StarNetwork(K, downs, ups, computes, seed=[config.seed, 29])


def _resolve_rho(problem, config, cert_delays):
    K = problem.num_components
    lipschitz = problem.lipschitz
    # every component is a concave quadratic
    if not (isinstance(config.rho, str) and config.rho == "auto"):
        rho = _per_worker(config.rho, K, "rho")
        for r in rho:
            if not (_is_number(r) and 0 < r < math.inf):
                raise ValueError("rho must be 'auto', a positive number or one "
                                 "per component, not %r" % (r,))
        rho = np.array(rho, dtype=float)
    elif config.algorithm == "sync_admm":
        rho = np.array([exact_baseline_penalty(L, "concave") for L in lipschitz])
    else:
        rho = default_penalties(lipschitz, cert_delays, ["concave"] * K)
    certs = [certify(r, L, T, "concave")
             for r, L, T in zip(rho, lipschitz, cert_delays)]
    return rho, certs


def _initial(problem, config):
    if config.init == "zero":
        return initial_state(problem)
    rng = np.random.default_rng([config.seed, 17])
    direction = rng.standard_normal(problem.dim)
    direction /= max(_norm(direction), 1e-300)
    return initial_state(problem, 0.5 * problem.radius * direction)


def run(problem, config, lagrangian=True):
    """Execute one full run and return its trace and termination status.

    Every algorithm runs the same update: a master step, one
    ``consensus_terms`` pass at the new x (read by the exchange and the
    trace row), an exchange (a network window for ``async_padmm``, a
    blocking round trip otherwise), a commit (exact for ``sync_admm``,
    proximal otherwise) and a row; only the exchange differs by algorithm.
    A blocking exchange commits the pass's gradients, all at t; a window
    starts from the record ``-y`` and the old indices and overwrites each
    arrived worker's row with its row of the payload it picked up.

    Each point takes a pass of its own. The start state's is in
    ``initial_state``. Update t takes the pass at x_t =
    ``master_step(state_{t-1})``, exchanges its gradients and commits
    state_t; row t reads its measure from that pass. So R rows take R
    gradient passes and, when the Lagrangian is recorded, R values
    passes: row t's augmented Lagrangian takes one at ``state_t.x_local``.
    A staleness violation aborts before its row, so no values pass
    follows, and no point is evaluated twice.

    ``lagrangian=False`` records no augmented Lagrangian
    (``trace.lagrangian`` is None) for a caller that reads neither the
    trace CSV nor the residual checks, such as ``benchmark.run_campaign``;
    every other result and trace field stays bit for bit the same.

    Termination is one of ``converged`` (optimality measure dropped below
    epsilon), ``max_iters`` (clock budget exhausted), ``staleness_violation``
    (enforce mode tripped), or ``infeasible_stepsize`` (certificates failed
    and force was not set; no iterations run).
    """
    config.validate()
    if not isinstance(lagrangian, bool):
        raise ValueError("lagrangian must be true or false, not %r" % (lagrangian,))
    K = problem.num_components
    delay_bounds = _delays(config.delay_bound, K, "delay_bound")
    cert_delays = (delay_bounds if config.cert_delay is None
                   else _delays(config.cert_delay, K, "cert_delay"))
    net = _build_network(problem, config, delay_bounds)
    asynchronous = config.algorithm == "async_padmm"
    exact = config.algorithm == "sync_admm"
    bounds = delay_bounds
    if not asynchronous:
        if net.has_loss:
            raise ValueError(
                "synchronous algorithms block on every worker and need "
                "lossless links; set loss to 0 or use an asynchronous algorithm")
        # a blocking exchange delivers fresh gradients: staleness is always 0
        bounds = cert_delays = np.zeros(K)
    rho, certs = _resolve_rho(problem, config, cert_delays)
    trace = IterationTrace(lagrangian=[] if lagrangian else None,
                           states=[] if config.full_trace else None)
    state = _initial(problem, config)

    hard_reject = exact and np.any(rho <= problem.lipschitz)
    if hard_reject or (not all(c.feasible for c in certs) and not config.force):
        return RunResult(
            termination="infeasible_stepsize", iterations=0, updates=0,
            state=state, trace=trace, rho=rho, delay_bounds=bounds,
            certificates=certs, final_measure=float("inf"))

    if trace.states is not None:
        trace.states.append(state)

    violations = []
    termination = "max_iters"
    measure = float("inf")
    clock = 0
    while clock < config.max_iters:
        x_new = master_step(problem, state, rho)
        terms = consensus_terms(problem, x_new)
        t_new = state.iteration + 1
        if asynchronous:
            grads, stale = -state.y, state.stale_index.copy()
            got = net.run_window(terms.gradients, t_new)
            for k, msg in got.items():
                grads[k], stale[k] = msg.payload[k], msg.copy_index
            cost, arrived = 1, len(got)
        else:
            cost = max(1, math.ceil(float(net.sample_round_trips().max())))
            grads, stale = terms.gradients, np.full(K, t_new)
            arrived = K
        new = (exact_admm_iteration(problem, state, rho, x_new) if exact
               else padmm_apply(state, rho, x_new, grads, stale))
        staleness = new.iteration - new.stale_index
        over = np.nonzero(staleness > bounds)[0]
        if over.size:
            worst = int(over[np.argmax(staleness[over])])
            violations.append((new.iteration, worst, int(staleness[worst])))
            if config.enforcement == "enforce":
                termination = "staleness_violation"
                break
        state = new
        clock += cost
        # the row's gap and Lagrangian share x_local - x, and its l1 term
        diff = state.x_local - state.x
        row = diagnostics.stationarity(state, terms, diff)
        measure = row[-1]
        value = (augmented_lagrangian(problem, state, rho, diff, terms.l1_term)
                 if lagrangian else None)
        trace.append(value, *row, float(clock), arrived)
        if trace.states is not None:
            trace.states.append(state)
        if measure < config.epsilon:
            termination = "converged"
            break
    return RunResult(
        termination=termination, iterations=clock, updates=len(trace),
        state=state, trace=trace, rho=rho, delay_bounds=bounds,
        certificates=certs, final_measure=measure, violations=violations)
