"""Residual checks replayed over recorded runs.

The residual suite replays a stored trace (with per-iteration state
snapshots) and verifies, observationally, the quantities the solver's
certificates promise:

* dual identity: the stored dual of each component, the solver's one
  record of the gradient it collected, equals the negated gradient at
  the copy its stale index points to, recomputed from the problem data;
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

The replay reads the run's ``StateHistory``, stacked once if the trace
holds a list of states, ``BLOCK_ROWS`` rows at a time: slices of its
arrays, with the block's stale copies gathered from its master history
and evaluated in one pass. So its memory beyond the stacked history is
that of one block and a few numbers per row, however long the trace.

The allowed side of each check carries a fixed rounding tolerance, so a
stored run's verdict depends on the run alone:
``DUAL_TOL`` scales with one plus the dual's norm, ``DESCENT_TOL`` and
``TELESCOPE_TOL`` with one plus the Lagrangian's (or the drop's) size,
and ``DUAL_DIFF_TOL`` and ``LOWER_TOL`` are absolute.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from ._rules import nonnegative, positive
from .problems import (IterationTrace, StateHistory, _block_pass, _row_dots,
                       augmented_lagrangian)
from .stepsize import descent_margin

__all__ = [
    "trace_residuals",
    "CheckOutcome",
    "TraceReport",
]

DUAL_TOL, DESCENT_TOL, TELESCOPE_TOL, DUAL_DIFF_TOL, LOWER_TOL = (
    1e-9, 1e-9, 1e-6, 1e-9, 1e-6)
# the trace's columns, one value a row each; len(trace) counts measure
_COLUMNS = tuple(f.name for f in fields(IterationTrace) if f.name != "states")
# rows replayed at once, which bounds the replay's memory; at paper scale
# 64-row stacks fall out of cache and replay slower than 16-row ones
BLOCK_ROWS = 16


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


def _replay_block(operator, history, a, b, stale):
    """The terms of trace rows a to b - 1, from ``history`` rows a - 1 to b - 1.

    ``stale`` holds the rows' ``(b - a, K)`` stale indices, each from 1
    to its row's iteration. Returns by row the dual-identity margin and the
    squared master step, and by row and component the squared steps of
    the local copies and of the duals. Each is an array expression over
    the block, with one stacked gradient pass at the stale copies; a norm
    is the root of a row dot, the bits ``_norm`` gives row by row. The
    gradient stack is reused for each difference, so the block holds a
    few stacks of its rows.
    """
    R, K = stale.shape
    x = history.x[a - 1:b]
    dx = x[1:] - x[:-1]
    # stale index i names the master vector of iteration i, row i - 1
    work = _block_pass(operator, history.x[stale - 1])[1]
    y = history.y[a - 1:b]
    work += y[1:]
    flat, duals = work.reshape(R * K, -1), y[1:].reshape(R * K, -1)
    margins = (DUAL_TOL * (1.0 + np.sqrt(_row_dots(duals, duals)))
               - np.sqrt(_row_dots(flat, flat))).reshape(R, K).min(axis=1)
    np.subtract(y[1:], y[:-1], out=work)
    dual_steps = _row_dots(flat, flat).reshape(R, K)
    x_local = history.x_local[a - 1:b]
    np.subtract(x_local[1:], x_local[:-1], out=work)
    work *= work
    return margins, _row_dots(dx, dx), work.sum(axis=2), dual_steps


def trace_residuals(problem, trace, rho, delay_bounds):
    """Residual report for a stored run.

    Needs per-iteration state snapshots (runs recorded with full tracing),
    one more than the rows, the augmented Lagrangian of every row
    (``run``'s default), every column as long as ``measure``, and one
    ``rho`` and one delay bound per component, each checked by its rule
    under its own name, such as ``rho[1]``; raises ValueError otherwise.
    History-window checks are skipped when the trace is shorter than
    max(T_k) + 2 iterations.
    """
    if trace.states is None:
        raise ValueError(
            "trace has no per-iteration state snapshots; "
            "rerun with full_trace enabled")
    if len(trace.states) != len(trace) + 1:
        raise ValueError("trace has %d state snapshots for %d rows; expected %d"
                         % (len(trace.states), len(trace), len(trace) + 1))
    if trace.lagrangian is None:
        raise ValueError("trace recorded no augmented Lagrangian; "
                         "rerun with lagrangian=True")
    for name in _COLUMNS:
        column = getattr(trace, name)
        if len(column) != len(trace):
            raise ValueError("trace column %s has %d rows, not %d"
                             % (name, len(column), len(trace)))
    rho = np.asarray(rho, dtype=float)
    delay_bounds = np.asarray(delay_bounds, dtype=float)
    K = problem.num_components
    for name, values, rule in (("rho", rho, positive),
                               ("delay_bounds", delay_bounds, nonnegative)):
        if values.shape != (K,):
            raise ValueError("%s needs %d entries, got %s" % (
                name, K, values.size if values.ndim == 1
                else "an array of shape %s" % (values.shape,)))
        for k, value in enumerate(values):
            rule(value, "%s[%d]" % (name, k))
    states = StateHistory.of(trace.states)
    rows = len(trace)
    # row r is iteration r + 1, so its gradients were taken at iterations
    # 1 to r + 1; any other index names no copy the row could have read
    stale = states.stale_index[1:].astype(np.int64).reshape(rows, K)
    last = np.arange(2, rows + 2)[:, None]
    acausal = np.argwhere((stale < 1) | (stale > last))
    if len(acausal):
        r, k = acausal[0]
        raise ValueError(
            "row %d, component %d: stale index %d is not an iteration the row "
            "could read; row %d reads iterations 1 to %d"
            % (r + 1, k, stale[r, k], r + 1, r + 2))
    lipschitz = problem.lipschitz
    # the squared master steps ||x_r - x_{r-1}||^2 by row, filled in block
    # by block, read by the telescoped and the dual-difference checks;
    # nothing moved before row 1
    steps = np.zeros(rows + 1)

    # per-iteration descent of the augmented Lagrangian
    lagrangian = np.concatenate((
        [augmented_lagrangian(problem, states[0], rho)],
        np.asarray(trace.lagrangian, dtype=float)))
    before, after = lagrangian[:-1], lagrangian[1:]
    descent = before + DESCENT_TOL * (1.0 + np.abs(before)) - after

    # the telescoped claim adds each row's local term, then its master
    # term, in row order; row r's dual-difference window for bound T is
    # steps[r] + steps[r-1] + ... + steps[r-T], summed in that order, with
    # the steps before the start taken as 0; too short a trace holds no
    # full window, so no window is built and the check is skipped
    alpha = np.sum([descent_margin(r_k, L, T_k, "general")
                    for r_k, L, T_k in zip(rho, lipschitz, delay_bounds)])
    local = np.broadcast_to((rho - 7.0 * lipschitz) / 2.0, (BLOCK_ROWS, K))
    claim = 0.0
    T = delay_bounds.astype(int)
    t_max = int(delay_bounds.max())
    scale = np.array([L ** 2 * (T_k + 1) for L, T_k in zip(lipschitz, T)])
    windowed = rows >= t_max + 2
    dual, difference = np.empty(rows), np.empty(rows if windowed else 0)

    for a in range(1, rows + 1, BLOCK_ROWS):
        b = min(a + BLOCK_ROWS, rows + 1)
        dual[a - 1:b - 1], steps[a:b], squares, dual_steps = _replay_block(
            problem.operator, states, a, b, stale[a - 1:b - 1])
        terms = _row_dots(squares, local[:b - a])
        for term, step in zip(terms.tolist(), (alpha * steps[a:b]).tolist()):
            claim += term
            claim += step
        if windowed:
            lags = np.arange(a, b)[:, None] - np.arange(t_max + 1)
            windows = np.cumsum(steps[np.maximum(lags, 0)], axis=1)
            bound = scale * windows[:, T] + DUAL_DIFF_TOL
            difference[a - 1:b - 1] = (bound - dual_steps).min(axis=1)

    drop = lagrangian[0] - lagrangian[-1]
    slack = TELESCOPE_TOL * (1.0 + max(abs(drop), abs(claim)))
    telescoped = [drop + slack - claim]

    # lower bound from best observed objective and feasible diameter; a NaN
    # objective makes the floor NaN, and a trace with no row has no floor
    f_best = np.min(np.asarray(trace.objective, dtype=float), initial=np.inf)
    floor = f_best - (2.0 * problem.radius) ** 2 * lipschitz.sum() / 2.0
    lower = lagrangian + LOWER_TOL - floor if rows else []

    return TraceReport([
        _outcome("dual_identity", dual),
        _outcome("descent", descent),
        _outcome("telescoped_descent", telescoped, first=rows),
        _outcome("dual_difference", difference),
        _outcome("lower_bound", lower, first=0),
    ])
