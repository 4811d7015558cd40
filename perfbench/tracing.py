"""In-memory span tracing of apadmm's public functions, and the per-layer metrics.

``Tracer.install`` wraps every public function and public method defined
in each layer module, under every module-level name it is bound to. The
algorithms and diagnostics modules import ``prox_l1_ball``,
``augmented_lagrangian``, ``feasibility_gap``, ``objective`` and
``smooth_gradient`` by name, so patching only the defining module would
miss their calls. Spans are appended to flat arrays (parent span, name,
run id, start, end); nothing is written until the caller asks. Self time
is a span's duration minus the durations of its direct children.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("problems", "prox", "stepsize", "simnet", "algorithms",
          "diagnostics", "benchmark", "cli")

# the public calls ``run`` makes after each update to record the trace row
RECORD_CALLS = ("problems.augmented_lagrangian", "problems.objective",
                "problems.feasibility_gap", "diagnostics.proximal_gradient",
                "diagnostics.optimality_measure")


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.run = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._runs = [0]
        self._patches = []

    def _name_id(self, span_name):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._ids[span_name]

    def _wrap(self, span_name, fn):
        name_id = self._name_id(span_name)
        # a run id groups the spans of one solver run (or of one top-level call)
        opens_run = span_name == "algorithms.run"
        stack, runs = self._stack, self._runs
        parent, name, run = self.parent, self.name, self.run
        start, end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            up = stack[-1] if stack else -1
            if opens_run or up < 0:
                runs[0] += 1
                run_id = runs[0]
            else:
                run_id = run[up]
            parent.append(up)
            name.append(name_id)
            run.append(run_id)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the public functions and methods of every layer of ``package``."""
        modules = [importlib.import_module(package.__name__ + "." + layer)
                   for layer in LAYERS]
        owners = [package] + modules
        for layer, module in zip(LAYERS, modules):
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(layer + "." + attr, obj)
                    for owner in owners:
                        for bound, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, bound, traced)
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, method,
                                        self._wrap(layer + "." + method, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def spans(self):
        """Span table as numpy arrays, with durations and self times in seconds."""
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        run = np.array(self.run, dtype=np.int64)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        return SpanTable(self.names, parent, name, run, start, end, duration,
                         duration - child_time)



class SpanTable:
    def __init__(self, names, parent, name, run, start, end, duration, self_time):
        self.names = list(names)
        self.parent, self.name, self.run = parent, name, run
        self.start, self.end = start, end
        self.duration, self.self_time = duration, self_time

    def named(self, *span_names):
        ids = [self.names.index(n) for n in span_names if n in self.names]
        return np.isin(self.name, ids)

    def under(self, mask):
        """Spans with a strict ancestor in ``mask``."""
        found = np.zeros(len(mask), dtype=bool)
        cursor = self.parent.copy()
        live = cursor >= 0
        while live.any():
            found[live] |= mask[cursor[live]]
            cursor[live] = self.parent[cursor[live]]
            live = cursor >= 0
        return found

    def calls(self, span_name, within=None):
        mask = self.named(span_name)
        if within is not None:
            mask &= within
        return int(mask.sum())

    def self_total(self, *span_names):
        return float(self.self_time[self.named(*span_names)].sum())

    def total(self, *span_names):
        return float(self.duration[self.named(*span_names)].sum())

    def self_mean(self, span_name):
        calls = self.calls(span_name)
        return self.self_total(span_name) / calls if calls else 0.0

    def layer_self_total(self, layer):
        prefix = layer + "."
        return self.self_total(*[n for n in self.names if n.startswith(prefix)])

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), parent=self.parent,
                            name=self.name, run=self.run, start=self.start,
                            end=self.end)

    def summary(self):
        """Calls, total and self seconds per span name."""
        out = {}
        for i, span_name in enumerate(self.names):
            mask = self.name == i
            out[span_name] = {"calls": int(mask.sum()),
                              "total_s": float(self.duration[mask].sum()),
                              "self_s": float(self.self_time[mask].sum())}
        return out


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(table, info):
    """Per-layer metrics from a traced section.

    ``info`` carries what the spans cannot see: ``updates`` (solver updates
    in the section), ``collected`` (gradients the master collected in
    asynchronous runs), ``rows_replayed`` (stored rows loaded and
    checked), ``saved_bytes`` (mean state-file size), ``dim``
    (instance dimension), ``wall`` (traced section wall) and
    ``overhead`` (traced minus untraced wall).
    """
    runs = table.named("algorithms.run")
    in_run = table.under(runs)
    record = table.named(*RECORD_CALLS) & (table.parent >= 0)
    record &= np.isin(table.parent, np.nonzero(runs)[0])
    in_record = record | table.under(record)
    in_advance = table.under(table.named("simnet.advance"))
    in_check = table.under(table.named("diagnostics.trace_residuals"))
    updates, wall = info["updates"], info["wall"]
    n = info["dim"]
    us, ms = 1e6, 1e3
    metrics = {
        "problems.gradient.calls_per_update":
            (_ratio(table.calls("problems.gradient", in_run), updates), "count"),
        "problems.gradient.self_us": (table.self_mean("problems.gradient") * us, "us"),
        "problems.gradient.share": (_ratio(table.self_total("problems.gradient"), wall), "ratio"),
        # dense Gram matvec: 2 n^2 flops and one pass over the n x n matrix
        "problems.gradient.flops_computed": (2.0 * n * n, "flop"),
        "problems.gradient.bytes_computed": (8.0 * (n * n + 2 * n), "B"),
        "problems.value.calls_per_update":
            (_ratio(table.calls("problems.value", in_run), updates), "count"),
        "problems.value.self_us": (table.self_mean("problems.value") * us, "us"),
        "problems.penalized_argmin.self_us":
            (table.self_mean("problems.penalized_argmin") * us, "us"),
        "problems.leading_eigenvalue.self_ms":
            (table.self_mean("problems.leading_eigenvalue") * ms, "ms"),
        "benchmark.generate.self_ms": (table.self_mean("benchmark.generate") * ms, "ms"),
        "record.share": (_ratio(float(table.duration[record].sum()),
                                table.total("algorithms.run")), "ratio"),
        "record.gradients_per_update":
            (_ratio(table.calls("problems.gradient", in_record), updates), "count"),
        "algorithms.master_step.self_us":
            (table.self_mean("algorithms.master_step") * us, "us"),
        "algorithms.padmm_apply.self_us":
            (table.self_mean("algorithms.padmm_apply") * us, "us"),
        "algorithms.exact_admm_iteration.self_us":
            (table.self_mean("algorithms.exact_admm_iteration") * us, "us"),
        "algorithms.run.self_share": (_ratio(table.self_total("algorithms.run"),
                                             table.total("algorithms.run")), "ratio"),
        "prox.prox_l1_ball.self_us": (table.self_mean("prox.prox_l1_ball") * us, "us"),
        "prox.prox_l1_ball.total_us": (_ratio(table.total("prox.prox_l1_ball"),
                                              table.calls("prox.prox_l1_ball")) * us, "us"),
        "prox.prox_l1_ball.calls_per_update":
            (_ratio(table.calls("prox.prox_l1_ball", in_run), updates), "count"),
        "simnet.advance.self_us": (table.self_mean("simnet.advance") * us, "us"),
        "simnet.sample_round_trips.self_us":
            (table.self_mean("simnet.sample_round_trips") * us, "us"),
        "simnet.share": (_ratio(table.layer_self_total("simnet"), wall), "ratio"),
        "simnet.grad_useful_ratio":
            (_ratio(info["collected"], table.calls("problems.gradient", in_advance)), "ratio"),
        "stepsize.default_penalties.self_ms":
            (table.self_mean("stepsize.default_penalties") * ms, "ms"),
        "benchmark.run_campaign.self_share":
            (_ratio(table.self_total("benchmark.run_campaign"),
                    table.total("benchmark.run_campaign")), "ratio"),
        "diagnostics.trace_residuals.self_s":
            (table.self_mean("diagnostics.trace_residuals"), "s"),
        "diagnostics.trace_residuals.gradients_per_row":
            (_ratio(table.calls("problems.gradient", in_check), info["rows_replayed"]), "count"),
        "cli.load_run.self_s": (table.self_mean("cli.load_run"), "s"),
        "cli.load_run.us_per_row":
            (_ratio(table.self_total("cli.load_run"), info["rows_replayed"]) * us, "us"),
        "cli.save_states.self_s": (table.self_mean("cli.save_states"), "s"),
        "cli.save_states.bytes": (float(info["saved_bytes"]), "B"),
        "cli.trace_csv.self_ms": (table.self_mean("cli.trace_csv") * ms, "ms"),
        "trace.overhead_s": (info["overhead"], "s"),
        "trace.spans": (float(len(table.name)), "count"),
    }
    return metrics
