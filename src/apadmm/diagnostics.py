"""Optimality measures and residual checks for recorded runs.

The residual suite replays a stored trace (with per-iteration state
snapshots) and verifies, observationally, the quantities the solver's
certificates promise:

* dual identity: the stored dual of each component equals the negated
  gradient at the copy its stale index points to, recomputed from the
  problem data in one block pass per row (not from the solver's own
  stored gradient);
* per-iteration descent and the telescoped descent bound of the
  augmented Lagrangian, with general-class margins;
* the staleness-window bound on successive dual differences;
* the lower bound on the augmented Lagrangian in terms of the best
  observed objective and the feasible-set diameter.

Checks never abort a run; they return a report with pass/fail/skipped
status, the worst margin seen, and the offending iterations.
"""

from dataclasses import dataclass, field

import numpy as np

from .problems import (_block_pass, augmented_lagrangian, consensus_terms,
                       feasibility_gap)
from .prox import _norm
from .stepsize import descent_margin

__all__ = [
    "optimality_measure",
    "trace_row",
    "trace_residuals",
    "CheckOutcome",
    "TraceReport",
]


def _stationarity(state, terms):
    # objective, relative gap, prox-gradient norm and measure at state.x
    _, gap_rel = feasibility_gap(state)
    pg_norm = _norm(terms.prox_residual)
    return terms.objective, gap_rel, pg_norm, gap_rel + pg_norm


def optimality_measure(problem, state):
    """Progress measure: relative consensus gap plus proximal-gradient norm."""
    return _stationarity(state, consensus_terms(problem, state.x))[3]


def trace_row(problem, state, rho, terms):
    """Values of one trace row, in ``IterationTrace.append`` order.

    Returns ``(lagrangian, objective, feas_gap, prox_grad_norm, measure)``.
    ``terms``, the ``consensus_terms`` pass at ``state.x``, gives the
    objective, the proximal-gradient norm and the measure; the augmented
    Lagrangian adds one value pass at the local copies. The measure
    equals ``optimality_measure`` bit for bit.
    """
    return (augmented_lagrangian(problem, state, rho),) + _stationarity(state, terms)


@dataclass
class CheckOutcome:
    """One residual check: status, tightest margin, and failing iterations.

    ``worst_slack`` is the smallest (allowed - observed) margin across the
    trace; negative means the check failed at some iteration.
    """

    name: str
    status: str
    worst_slack: float = None
    failing: list = field(default_factory=list)

    def line(self):
        if self.status == "skipped":
            return "SKIP %s (trace too short)" % self.name
        extra = "" if not self.failing else " failing at %s" % self.failing[:5]
        return "%s %s worst_slack=%.3e%s" % (
            self.status.upper(), self.name, self.worst_slack, extra)


@dataclass
class TraceReport:
    outcomes: list

    @property
    def passed(self):
        return all(o.status != "fail" for o in self.outcomes)

    def lines(self):
        return [o.line() for o in self.outcomes]


def _outcome(name, margins, failing):
    if not margins:
        return CheckOutcome(name, "skipped")
    status = "fail" if failing else "pass"
    return CheckOutcome(name, status, float(min(margins)), failing)


def trace_residuals(problem, trace, rho, delay_bounds,
                    dual_tol=1e-9, descent_tol=1e-9, telescope_tol=1e-6,
                    dual_diff_tol=1e-9, lower_tol=1e-6):
    """Residual report for a stored run.

    Needs per-iteration state snapshots (runs recorded with full tracing);
    raises ValueError without them. History-window checks are skipped when
    the trace is shorter than max(T_k) + 2 iterations.
    """
    if trace.states is None or len(trace.states) != len(trace) + 1:
        raise ValueError(
            "trace has no per-iteration state snapshots; "
            "rerun with full_trace enabled")
    rho = np.asarray(rho, dtype=float)
    delay_bounds = np.asarray(delay_bounds, dtype=float)
    states = trace.states
    rows = len(trace)
    K = problem.num_components
    lipschitz = problem.lipschitz_constants()
    outcomes = []

    def x_at(index):
        # master vector of iteration ``index``; indices before the start
        # clamp to the initial state (nothing moved before iteration 1)
        return states[max(int(index) - 1, 0)].x

    # dual identity, recomputed from problem data at the stale copies, in
    # one block pass per row
    margins, failing = [], []
    for r in range(1, rows + 1):
        st = states[r]
        points = np.array([x_at(index) for index in st.stale_index])
        grads = _block_pass(problem.blocks, points)[1]
        worst = np.inf
        for grad, y in zip(grads, st.y):
            resid = _norm(grad + y)
            allowed = dual_tol * (1.0 + _norm(y))
            worst = min(worst, allowed - resid)
        margins.append(worst)
        if worst < 0:
            failing.append(r)
    outcomes.append(_outcome("dual_identity", margins, failing))

    # per-iteration descent of the augmented Lagrangian
    lagrangian = [augmented_lagrangian(problem, states[0], rho)]
    lagrangian += list(trace.lagrangian)
    margins, failing = [], []
    for r in range(1, len(lagrangian)):
        allowed = descent_tol * (1.0 + abs(lagrangian[r - 1]))
        margins.append(lagrangian[r - 1] + allowed - lagrangian[r])
        if margins[-1] < 0:
            failing.append(r)
    outcomes.append(_outcome("descent", margins, failing))

    # telescoped descent with general-class margins
    total_claim = 0.0
    alphas = np.array([
        descent_margin(rho[k], lipschitz[k], delay_bounds[k], "general")
        for k in range(K)
    ])
    for r in range(1, rows + 1):
        dxk = states[r].x_local - states[r - 1].x_local
        dx = states[r].x - states[r - 1].x
        total_claim += float(
            ((rho - 7.0 * lipschitz) / 2.0) @ (dxk * dxk).sum(axis=1))
        total_claim += float(alphas.sum() * (dx @ dx))
    drop = lagrangian[0] - lagrangian[-1]
    slack = telescope_tol * (1.0 + max(abs(drop), abs(total_claim)))
    margin = drop + slack - total_claim
    outcomes.append(_outcome("telescoped_descent", [margin],
                             [] if margin >= 0 else [rows]))

    # dual-difference bound over the staleness window
    t_max = int(delay_bounds.max())
    if rows < t_max + 2:
        outcomes.append(CheckOutcome("dual_difference", "skipped"))
    else:
        # squared master steps ||x_at(j + 1) - x_at(j)||^2, each taken
        # once; steps before the start are 0, like squares[0]
        squares = [float(step @ step) for step in
                   (x_at(j + 1) - x_at(j) for j in range(rows + 1))]
        margins, failing = [], []
        for r in range(1, rows + 1):
            worst = np.inf
            for k in range(K):
                dy = states[r].y[k] - states[r - 1].y[k]
                window = 0.0
                T_k = int(delay_bounds[k])
                for i in range(T_k + 1):
                    window += squares[max(r - i, 0)]
                bound = lipschitz[k] ** 2 * (T_k + 1) * window + dual_diff_tol
                worst = min(worst, bound - float(dy @ dy))
            margins.append(worst)
            if worst < 0:
                failing.append(r)
        outcomes.append(_outcome("dual_difference", margins, failing))

    # lower bound from best observed objective and feasible diameter
    objectives = [float(np.asarray(o)) for o in trace.objective]
    f_best = min(objectives) if objectives else np.inf
    floor = f_best - (2.0 * problem.radius) ** 2 * lipschitz.sum() / 2.0
    margins, failing = [], []
    for r, val in enumerate(lagrangian):
        margins.append(val + lower_tol - floor)
        if margins[-1] < 0:
            failing.append(r)
    outcomes.append(_outcome("lower_bound", margins, failing))

    return TraceReport(outcomes)
