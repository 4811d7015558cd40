"""Deterministic discrete-event simulator for a star network of workers.

One master broadcasts x copies to K workers; each worker holds the copy
it picked up for its compute delay, then sends that copy back as its
result. Time is measured in windows, one master iteration each: the
master broadcasts, waits one window, then collects whatever results
arrived. Every delay is drawn in window units.

Semantics pinned down here:

* A worker is either idle or computing. Copies delivered while computing
  are dropped, not queued. Copies delivered at the same instant to an idle
  worker are batched; the worker starts on the one with the highest
  master-iteration index and the others are dropped.
* Per-message loss is sampled at send time; lost messages consume no delay
  draw. On a link with reordering disallowed, delivery times are clamped
  to be no earlier than the previous delivery on that link, and ties
  preserve send order, so arrivals are FIFO.
* Events are ordered by (time, insertion sequence), so equal-time events
  process in creation order and the whole simulation is a pure function of
  the seed and the call sequence.
* Every loss and delay draw is taken, in call order, from one private
  stream of standard uniforms (``_UniformStream``), which fills blocks
  from ``Generator.random``; a uniform delay is ``lo + (hi - lo) * u``,
  numpy's own formula for ``Generator.uniform``. Drawing ahead in blocks
  changes no value, so runs are still a pure function of the seed and the
  call sequence, and equal to scalar ``Generator.uniform`` draws.
* A sent result is not an event but carries its arrival time.
  ``collect`` takes only results with ``arrived_at < now``, so one
  landing exactly on a window boundary waits for the next window, and
  returns at most one per worker: the earliest-sent arrived one,
  discarding the other arrived ones.
* ``StarNetwork`` reads each model once, at construction: a link's loss,
  reordering flag and delay sampler, and each compute sampler. Every
  sampler has its own cursor, so one model may serve several workers or
  networks, and changing a model afterwards changes no network.

The simulator only times copies: ``run()`` broadcasts the master's
gradients at its iterate, so a delay only times when, and whether, they
land. The ``from_spec`` constructors parse the JSON-able specs run
configs hold.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._rules import (boolean, choice, integer, is_number, json_object,
                     nonnegative, probability)

__all__ = ["DelayModel", "LinkModel", "Message", "StarNetwork"]

# keys of a delay spec object by kind: (required, optional)
_DELAY_KEYS = {
    "constant": (("kind",), ("value",)),
    "uniform": (("kind", "hi"), ("lo",)),
    "empirical": (("kind", "values"), ()),
}
_DELAY_ARGS = ("value", "lo", "hi", "values")
_LINK_KEYS = ("delay", "loss", "allow_reordering")


class DelayModel:
    """Delay distribution: constant, uniform(lo, hi), or a cyclic empirical list.

    A sampler consumes an empirical list in order, wrapping around; this
    makes scripted scenarios (for example two consecutive sends with
    delays 5 then 1) reproducible. ``name`` labels errors.
    """

    def __init__(self, kind, value=0.0, lo=0.0, hi=0.0, values=None, name="delay"):
        # every delay is finite: a dead link is loss 1, not an endless delay
        self.kind = choice(kind, name + ".kind", _DELAY_KEYS)
        if kind == "constant":
            self.value = float(nonnegative(value, name + ".value"))
        elif kind == "uniform":
            self.lo = float(nonnegative(lo, name + ".lo"))
            self.hi = float(nonnegative(hi, name + ".hi"))
            if hi < lo:
                raise ValueError("%s.hi must be at least lo, not lo=%r, hi=%r"
                                 % (name, lo, hi))
        else:
            if not (isinstance(values, (list, tuple)) and values):
                raise ValueError("%s.values must be a nonempty list, not %r"
                                 % (name, values))
            self.values = tuple(float(nonnegative(v, "%s.values[%d]" % (name, i)))
                                for i, v in enumerate(values))

    @classmethod
    def constant(cls, value=0.0):
        return cls("constant", value=value)

    @classmethod
    def uniform(cls, lo, hi):
        return cls("uniform", lo=lo, hi=hi)

    @classmethod
    def empirical(cls, values):
        return cls("empirical", values=values)

    @classmethod
    def from_spec(cls, spec, name):
        """Delay model from a config spec; ``name`` labels errors.

        ``None`` is a zero delay, a number a constant delay, and an object
        picks a kind: ``{"kind": "constant", "value": v}`` (v defaults to
        0), ``{"kind": "uniform", "lo": lo, "hi": hi}`` (lo defaults to 0)
        or ``{"kind": "empirical", "values": [...]}``, a list consumed in
        order. A ``DelayModel`` passes through. A missing, unknown or
        mistyped key, or a delay that is negative, infinite or NaN, raises
        ValueError naming the field.
        """
        if spec is None:
            return cls.constant(0.0)
        if is_number(spec):
            return cls("constant", value=spec, name=name)
        if isinstance(spec, cls):
            return spec
        kind = json_object(spec, name, ("kind",), _DELAY_ARGS)["kind"]
        required, optional = _DELAY_KEYS[choice(kind, name + ".kind", _DELAY_KEYS)]
        json_object(spec, name, required, optional)
        return cls(name=name, **spec)

    def sampler(self, uniform):
        """A zero-argument callable returning one delay per call, with its own cursor.

        Only a uniform delay with ``hi > lo`` calls ``uniform()``, a standard
        uniform draw, once a delay, and returns ``lo + (hi - lo) * u``: with
        ``uniform = rng.random`` that is ``rng.uniform(lo, hi)`` bit for bit.
        """
        if self.kind == "constant":
            value = self.value
            return lambda: value
        if self.kind == "uniform":
            lo, span = self.lo, self.hi - self.lo
            if self.hi == self.lo:
                return lambda: lo
            return lambda: lo + span * uniform()
        return itertools.cycle(self.values).__next__


@dataclass
class LinkModel:
    """One directed link: delay distribution, loss probability, reordering flag."""

    delay: DelayModel = field(default_factory=DelayModel.constant)
    loss: float = 0.0
    allow_reordering: bool = False

    def __post_init__(self):
        probability(self.loss, "loss")
        boolean(self.allow_reordering, "allow_reordering")

    @classmethod
    def from_spec(cls, spec, name):
        """Link model from a config spec; ``name`` labels errors.

        ``None`` is a lossless zero-delay link. An object takes the keys
        ``delay`` (a delay spec, see ``DelayModel.from_spec``), ``loss``
        (a probability) and ``allow_reordering`` (a boolean), all
        optional; anything else is the delay spec of a lossless link. The
        constructor's errors gain the field path, such as ``uplink.loss``.
        """
        if not isinstance(spec, dict):
            return cls(delay=DelayModel.from_spec(spec, name))
        json_object(spec, name, optional=_LINK_KEYS)
        delay = DelayModel.from_spec(spec.get("delay"), name + ".delay")
        try:
            return cls(delay, spec.get("loss", 0.0), spec.get("allow_reordering", False))
        except ValueError as err:
            raise ValueError("%s.%s" % (name, err)) from None


class Message(NamedTuple):
    """A worker's result: the copy ``copy_index`` it picked up, as ``payload``."""

    worker: int
    payload: np.ndarray
    copy_index: int
    arrived_at: float


class _UniformStream:
    """Standard uniforms from ``default_rng(seed)``, drawn in blocks.

    Each call returns the next ``Generator.random()`` value of the
    generator's stream: ``BLOCK`` values are drawn at once with
    ``Generator.random(BLOCK)``, which consumes the stream exactly as that
    many scalar draws do, and handed out in order.
    """

    BLOCK = 256

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._buffer = []      # the rest of the current block, reversed

    def __call__(self):
        if not self._buffer:
            self._buffer = self._rng.random(self.BLOCK)[::-1].tolist()
        return self._buffer.pop()


class StarNetwork:
    """K workers behind per-worker ``LinkModel``s and ``DelayModel`` compute delays.

    Worker k sends back the payload x it picked up, as a ``Message``.
    ``seed`` is an integer or a nonempty list of integers, each at least 0.
    """

    def __init__(self, num_workers, downlinks, uplinks, compute_delays, seed=0):
        integer(num_workers, "num_workers", 1)
        if isinstance(seed, (list, tuple)) and seed:
            for i, s in enumerate(seed):
                integer(s, "seed[%d]" % i, 0)
        else:
            integer(seed, "seed", 0)
        for name, models in (("downlinks", downlinks), ("uplinks", uplinks),
                             ("compute_delays", compute_delays)):
            if len(models) != num_workers:
                raise ValueError("%s must have one entry per worker" % name)
        self.num_workers = num_workers
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._uniform = uniform = _UniformStream(seed)
        # each link as (loss, allow_reordering, delay sampler)
        self._down = [(l.loss, l.allow_reordering, l.delay.sampler(uniform))
                      for l in downlinks]
        self._up = [(l.loss, l.allow_reordering, l.delay.sampler(uniform))
                    for l in uplinks]
        self._compute = [m.sampler(uniform) for m in compute_delays]
        self.has_loss = any(link[0] > 0 for link in self._down + self._up)
        self._busy = [False] * num_workers
        # (copy_index, x) while idle; a pickup is scheduled exactly while set
        self._pending = [None] * num_workers
        self._last_down = [0.0] * num_workers         # FIFO clamps
        self._last_up = [0.0] * num_workers
        self._inbox = []        # sent results not yet collected, in send order
        self.dropped_busy = [0] * num_workers
        self.dropped_stale = [0] * num_workers
        self.lost_down = [0] * num_workers
        self.lost_up = [0] * num_workers

    # -- event plumbing ----------------------------------------------------

    def _schedule(self, time, handler, args):
        # (time, seq) is unique, so the handler is never compared
        heapq.heappush(self._heap, (time, self._seq, handler, args))
        self._seq += 1

    def _send(self, link, last, lost, k):
        # slot k's arrival on link, no earlier than last[k] unless it reorders,
        # or None if lost (counted in lost[k]); a lost send draws no delay
        loss, allow_reordering, delay = link
        if loss > 0.0 and self._uniform() < loss:
            lost[k] += 1
            return None
        t = self.now + delay()
        if not allow_reordering:
            t = max(t, last[k])
        last[k] = t
        return t

    # -- master side -------------------------------------------------------

    def broadcast(self, x, copy_index):
        """Send one x copy to every worker, subject to per-link loss and delay."""
        x = np.asarray(x, dtype=float)
        for k in range(self.num_workers):
            t = self._send(self._down[k], self._last_down, self.lost_down, k)
            if t is not None:
                self._schedule(t, self._on_deliver_x, (k, x, int(copy_index)))

    def advance(self, duration=1.0):
        """Process all events strictly before now + duration, then move the clock.

        Events landing exactly on the boundary wait for the next window.
        """
        target = self.now + duration
        while self._heap and self._heap[0][0] < target:
            time, _, handler, args = heapq.heappop(self._heap)
            self.now = time
            handler(args)
        self.now = target

    def collect(self):
        """Results that arrived before now, one per worker: ``{worker: Message}``.

        The inbox is in send order, so a worker's earliest-sent arrived
        result wins; its other arrived ones are discarded, and results
        still in flight stay.
        """
        best, in_flight = {}, []
        for msg in self._inbox:
            if msg.arrived_at < self.now:
                best.setdefault(msg.worker, msg)
            else:
                in_flight.append(msg)
        self._inbox = in_flight
        return best

    def run_window(self, x, copy_index):
        """Broadcast, advance one window, collect: one master exchange."""
        self.broadcast(x, copy_index)
        self.advance()
        return self.collect()

    # -- worker side -------------------------------------------------------

    def _on_deliver_x(self, args):
        k, x, copy_index = args
        if self._busy[k]:
            self.dropped_busy[k] += 1
            return
        pending = self._pending[k]
        if pending is None or copy_index > pending[0]:
            if pending is not None:
                self.dropped_stale[k] += 1
            self._pending[k] = (copy_index, x)
        else:
            self.dropped_stale[k] += 1
        if pending is None:
            self._schedule(self.now, self._on_pickup, k)

    def _on_pickup(self, k):
        # scheduled when a copy reached this idle worker with none pending;
        # only a pickup makes the worker busy or takes its copy, so the
        # worker is still idle and a copy still pending
        copy_index, x = self._pending[k]
        self._pending[k] = None
        self._busy[k] = True
        self._schedule(self.now + self._compute[k](), self._on_complete, (k, x, copy_index))

    def _on_complete(self, args):
        k, x, copy_index = args
        self._busy[k] = False
        t = self._send(self._up[k], self._last_up, self.lost_up, k)
        if t is not None:
            # not an event: collect reads the arrival time
            self._inbox.append(Message(k, x, copy_index, t))

    # -- direct sampling for blocking baselines ---------------------------

    def sample_round_trips(self):
        """One draw of downlink + compute + uplink delay per worker.

        Used by synchronous baselines, which block rather than window; no
        events are scheduled and no losses apply (callers must have
        rejected lossy configurations first). A list of floats, one per
        worker, whose delays are drawn in this order: downlink, compute,
        uplink.
        """
        return [down[2]() + compute() + up[2]()
                for down, compute, up in zip(self._down, self._compute, self._up)]
