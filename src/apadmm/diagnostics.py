"""Optimality measures and residual checks for recorded runs.

The residual suite replays a stored trace (with per-iteration state
snapshots) and verifies, observationally, the quantities the solver's
certificates promise:

* dual identity: the stored dual of each component, the solver's one
  record of the gradient it collected, equals the negated gradient at
  the copy its stale index points to, recomputed from the problem data
  in one evaluation pass per row;
* per-iteration descent and the telescoped descent bound of the
  augmented Lagrangian, with general-class margins;
* the staleness-window bound on successive dual differences;
* the lower bound on the augmented Lagrangian in terms of the best
  observed objective and the feasible-set diameter.

Each check computes one margin (allowed - observed) per row, and one
rule turns the margins into its verdict: a row fails when its margin is
negative or NaN, and the check fails when any row does. A NaN anywhere
in a margin's inputs therefore fails that row. Checks never abort a run;
they return a report with pass/fail/skipped status, the worst margin
seen (NaN if any margin is NaN), and the offending iterations.

The allowed side of each check carries a fixed rounding tolerance, so a
stored run's verdict depends on the run alone:
``DUAL_TOL`` scales with one plus the dual's norm, ``DESCENT_TOL`` and
``TELESCOPE_TOL`` with one plus the Lagrangian's (or the drop's) size,
and ``DUAL_DIFF_TOL`` and ``LOWER_TOL`` are absolute.
"""

from dataclasses import dataclass, field

import numpy as np

from .problems import (_block_pass, _row_dots, augmented_lagrangian,
                       consensus_terms, feasibility_gap)
from .prox import _norm
from .stepsize import descent_margin

__all__ = [
    "optimality_measure",
    "stationarity",
    "trace_residuals",
    "CheckOutcome",
    "TraceReport",
]

DUAL_TOL, DESCENT_TOL, TELESCOPE_TOL, DUAL_DIFF_TOL, LOWER_TOL = (
    1e-9, 1e-9, 1e-6, 1e-9, 1e-6)


def stationarity(state, terms, diff=None):
    """``(objective, feas_gap, prox_grad_norm, measure)`` of a trace row.

    ``terms``, the ``consensus_terms`` pass at ``state.x``, gives the
    objective and the proximal-gradient norm; ``feas_gap`` is the
    relative consensus gap (``feasibility_gap``, handed ``diff``), and
    the measure their sum. With the augmented Lagrangian in front, these
    are a row in ``IterationTrace.append`` order; ``run`` reads the
    measure first, to tell whether the row is the last.
    """
    _, gap_rel = feasibility_gap(state, diff)
    pg_norm = _norm(terms.prox_residual)
    return terms.objective, gap_rel, pg_norm, gap_rel + pg_norm


def optimality_measure(problem, state):
    """Progress measure: relative consensus gap plus proximal-gradient norm.

    Equals the measure of ``run``'s trace rows bit for bit.
    """
    return stationarity(state, consensus_terms(problem, state.x))[3]


@dataclass
class CheckOutcome:
    """One residual check: status, tightest margin, and failing iterations.

    ``worst_slack`` is the smallest (allowed - observed) margin across the
    trace; negative or NaN means the check failed at some iteration.
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


def _outcome(name, margins, first=1):
    # the verdict rule: margins[i] is the margin of row first + i; a row
    # fails when its margin is negative or NaN (NaN compares false, so a
    # "< 0" test alone would pass it), and numpy's min keeps a NaN
    if not len(margins):
        return CheckOutcome(name, "skipped")
    margins = np.asarray(margins, dtype=float)
    failing = [first + int(i) for i in np.flatnonzero(~(margins >= 0.0))]
    return CheckOutcome(name, "fail" if failing else "pass",
                        float(margins.min()), failing)


def trace_residuals(problem, trace, rho, delay_bounds):
    """Residual report for a stored run.

    Needs per-iteration state snapshots (runs recorded with full tracing)
    and the augmented Lagrangian of every row (``run``'s default); raises
    ValueError without either. History-window checks are skipped when the
    trace is shorter than max(T_k) + 2 iterations.
    """
    if trace.states is None or len(trace.states) != len(trace) + 1:
        raise ValueError(
            "trace has no per-iteration state snapshots; "
            "rerun with full_trace enabled")
    if trace.lagrangian is None:
        raise ValueError("trace recorded no augmented Lagrangian; "
                         "rerun with lagrangian=True")
    rho = np.asarray(rho, dtype=float)
    delay_bounds = np.asarray(delay_bounds, dtype=float)
    states = trace.states
    rows = len(trace)
    lipschitz = problem.lipschitz
    # squared master steps ||x_r - x_{r-1}||^2 by row, read by the
    # telescoped and the dual-difference checks; nothing moved before row 1
    steps = [0.0] + [float(dx @ dx) for dx in
                     (b.x - a.x for a, b in zip(states, states[1:]))]

    # dual identity, recomputed from problem data at the stale copies, in
    # one pass per row; stale index i names the master vector of
    # iteration i, and indices before the start clamp to the initial state;
    # a norm is the root of a row dot, the bits ``_norm`` gives row by row
    dual = []
    for st in states[1:]:
        points = np.array([states[max(int(i) - 1, 0)].x for i in st.stale_index])
        residual = _block_pass(problem.operator, points)[1] + st.y
        allowed = DUAL_TOL * (1.0 + np.sqrt(_row_dots(st.y, st.y)))
        dual.append(np.min(allowed - np.sqrt(_row_dots(residual, residual))))

    # per-iteration descent of the augmented Lagrangian
    lagrangian = np.array([augmented_lagrangian(problem, states[0], rho),
                           *trace.lagrangian])
    before, after = lagrangian[:-1], lagrangian[1:]
    descent = before + DESCENT_TOL * (1.0 + np.abs(before)) - after

    # telescoped descent with general-class margins
    alpha = np.sum([descent_margin(r_k, L, T_k, "general")
                    for r_k, L, T_k in zip(rho, lipschitz, delay_bounds)])
    local = (rho - 7.0 * lipschitz) / 2.0
    claim = 0.0
    for r in range(1, rows + 1):
        dxk = states[r].x_local - states[r - 1].x_local
        claim += float(local @ (dxk * dxk).sum(axis=1))
        claim += float(alpha * steps[r])
    drop = lagrangian[0] - lagrangian[-1]
    slack = TELESCOPE_TOL * (1.0 + max(abs(drop), abs(claim)))
    telescoped = [drop + slack - claim]

    # dual-difference bound over the staleness window: row r's window for
    # bound T is steps[r] + steps[r-1] + ... + steps[r-T], summed in that
    # order, with the steps before the start taken as 0
    T = delay_bounds.astype(int)
    t_max = int(delay_bounds.max())
    scale = np.array([L ** 2 * (T_k + 1) for L, T_k in zip(lipschitz, T)])
    difference = []
    for r in range(1, rows + 1):
        windows = np.cumsum([steps[max(r - i, 0)] for i in range(t_max + 1)])
        bound = scale * windows[T] + DUAL_DIFF_TOL
        dy = states[r].y - states[r - 1].y
        difference.append(np.min(bound - [float(d @ d) for d in dy]))

    # lower bound from best observed objective and feasible diameter; a NaN
    # objective makes the floor NaN
    f_best = np.min(np.asarray(trace.objective, dtype=float), initial=np.inf)
    floor = f_best - (2.0 * problem.radius) ** 2 * lipschitz.sum() / 2.0

    return TraceReport([
        _outcome("dual_identity", dual),
        _outcome("descent", descent),
        _outcome("telescoped_descent", telescoped, first=rows),
        # too short a trace holds no full window, so the check is skipped
        _outcome("dual_difference", difference if rows >= t_max + 2 else []),
        _outcome("lower_bound", lagrangian + LOWER_TOL - floor, first=0),
    ])
