"""Span tracing of the semihoc package, installed from outside it.

`Tracer.install()` replaces every public function of each traced semihoc
module, and every public method of the classes those modules define, with a
wrapper that times the call. A name another module imported
(`from .prohoc import fuse_batch` in `trainer`, `predict_dataset` in `cli`)
is replaced in the importing module too, because that is where the call
looks it up. `uninstall()` puts the originals back.

Each call is a span: name, start, end and the enclosing span. Spans stay in
memory; the first SPAN_CAP of each name are kept whole, and every call,
kept or not, adds to its name's totals. Three times are totalled per name:

* `total`: the whole duration;
* `self`: the duration minus the time covered by child spans;
* `module_self`: the duration minus the time covered by child spans of
  other modules. Calls into the same module count as the function's own
  work, so `heads.ce_loss_and_grad` includes its forward and backward.

A module's self time sums `module_self` over the spans that are not nested
in another span of the same module, so no interval is counted twice.

What the wrapper itself costs is measured once per tracer (`_calibrate`)
and left out of every time: the part inside a span's interval is taken off
the span, the part outside is not charged to the enclosing span. A parent
that makes many small calls keeps a fair self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

MODULES = ("hierarchy", "datagen", "heads", "prohoc", "spl", "trainer", "metrics", "rng", "benchmark", "cli")
SPAN_CAP = 200


def _counter_probes() -> dict:
    """Work counts read off a call's arguments and result, by span name."""

    def rows(a) -> int:
        return 1 if getattr(a, "ndim", 2) == 1 else len(a)

    def ce(t, args, kwargs, result):
        x, targets = args[1], args[2]
        t.count("heads.fwd_bwd_rows", rows(x))
        if kwargs.get("masks") is not None and kwargs.get("masks") is t.unlabeled_masks:
            t.count("heads.unlabeled_rows", rows(x))
            t.count("heads.unlabeled_target_rows", int(targets.any(axis=1).sum()))

    def masks(t, args, kwargs, result):
        # The trainer draws unlabeled dropout masks from this stream only.
        if args[2] is t.unlabeled_rng:
            t.unlabeled_masks = result

    def stream(t, args, kwargs, result):
        if args[1] == "dropout/unlabeled":
            t.unlabeled_rng = result

    def file_bytes(key, arg):
        return lambda t, args, kwargs, result: t.count(key, os.path.getsize(args[arg]))

    return {
        "heads.ce_loss_and_grad": ce,
        "heads.sample_masks": masks,
        "rng.StreamSet.get": stream,
        "heads.DepthHeads.teacher_forward_all": lambda t, a, k, r: t.count("heads.teacher_fwd_rows", rows(a[1])),
        "prohoc.fuse_batch": lambda t, a, k, r: t.count("prohoc.fuse_rows", rows(a[0][0])),
        "spl.compute_spls_batch": lambda t, a, k, r: t.count("spl.assignments", sum(len(c) for c in r)),
        "spl.apply_gating": lambda t, a, k, r: t.count("spl.gated", len(a[0]) - len(r)),
        "trainer.save_checkpoint": file_bytes("trainer.ckpt_bytes", 1),
        "trainer.load_checkpoint": file_bytes("trainer.ckpt_bytes", 0),
        "datagen.load_features": file_bytes("datagen.feature_bytes", 0),
    }


class Tracer:
    def __init__(self):
        self._clock = time.perf_counter_ns
        self._origin = self._clock()
        self._patches: list[tuple[object, str, object]] = []
        self._probes = _counter_probes()
        self.unlabeled_rng = None
        self.unlabeled_masks = None
        self.inner_ns = 0  # wrapper cost inside a span's interval, per call
        self.outer_ns = 0  # wrapper cost outside it, per call
        self.call_cost_ns = 0.0  # all that one traced call adds
        self._reset()
        self._calibrate()

    def _reset(self) -> None:
        self._stack: list[list] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total, self, module_self]
        self.module_self: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start ns, end ns, parent span index]

    def _clear(self) -> None:
        """Zero the totals in place; the wrappers hold references to them."""
        for cell in (*self.stats.values(), *self.module_self.values()):
            cell[:] = [0] * len(cell)
        self._stack.clear()
        self.counters.clear()
        self.spans = []

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, name: str, module: str):
        clock = self._clock
        probe = self._probes.get(name)
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        module_cell = self.module_self.setdefault(module, [0])
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            link = parent[3] if parent else -1
            own = -1
            if stat[0] < SPAN_CAP:
                own = len(tracer.spans)
                tracer.spans.append([name, 0, 0, link])
                link = own
            frame = [module, 0, 0, link]  # module, child ns, foreign child ns, span link
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                raw = t1 - t0
                dur = raw - tracer.inner_ns if raw > tracer.inner_ns else 0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                stat[3] += dur - frame[2]
                if parent is not None:
                    cost = raw + tracer.outer_ns
                    parent[1] += cost
                    # a same-module child's own time stays the parent's; its wrapper cost does not
                    parent[2] += frame[2] + (cost - dur) if parent[0] == module else cost
                if parent is None or parent[0] != module:
                    module_cell[0] += dur - frame[2]
                if own >= 0:
                    tracer.spans[own][1] = t0 - tracer._origin
                    tracer.spans[own][2] = t1 - tracer._origin
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return traced

    def _calibrate(self, n: int = 20000) -> None:
        """Measure what one traced call adds, inside and outside its interval."""

        def noop():
            return None

        traced = self._wrap(noop, "noop", "calibration")
        self._stack.append(["", 0, 0, -1])
        t0 = self._clock()
        for _ in range(n):
            traced()
        wrapped_ns = (self._clock() - t0) / n
        t0 = self._clock()
        for _ in range(n):
            noop()
        plain_ns = (self._clock() - t0) / n
        inside_ns = self.stats["noop"][1] / n  # the noop's own call included
        self.inner_ns = max(0, int(inside_ns - plain_ns))
        self.outer_ns = max(0, int(wrapped_ns - inside_ns))
        self.call_cost_ns = max(0.0, wrapped_ns - plain_ns)
        del self.stats["noop"], self.module_self["calibration"]
        self._stack.pop()

    def install(self, package: str = "semihoc") -> None:
        import importlib

        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}", short)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(fn, f"{short}.{attr}.{meth}", short))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def take(self) -> dict:
        """Everything recorded since the last take, as plain data; then clear."""
        out = {
            "functions": {
                name: {"calls": s[0], "total_ns": s[1], "self_ns": s[2], "module_self_ns": s[3]}
                for name, s in sorted(self.stats.items())
                if s[0]
            },
            "module_self_ns": {m: cell[0] for m, cell in sorted(self.module_self.items()) if cell[0]},
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
            "call_cost_ns": self.call_cost_ns,
        }
        self._clear()
        return out


def merge(records: list[dict]) -> dict:
    """Sum the totals of several `take()` records, e.g. one per process.

    Each span is tagged with the index of the record it came from.
    """
    functions: dict[str, dict] = {}
    modules: dict[str, int] = {}
    counters: dict[str, int] = {}
    spans = []
    calls = cost = 0.0
    for i, rec in enumerate(records):
        for name, f in rec["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(f, 0))
            for key, value in f.items():
                acc[key] += value
            calls += f["calls"]
            cost += f["calls"] * rec["call_cost_ns"]
        for key, value in rec["module_self_ns"].items():
            modules[key] = modules.get(key, 0) + value
        for key, value in rec["counters"].items():
            counters[key] = counters.get(key, 0) + value
        spans.extend([i, *span] for span in rec["spans"])
    return {
        "functions": dict(sorted(functions.items())),
        "module_self_ns": dict(sorted(modules.items())),
        "counters": dict(sorted(counters.items())),
        "spans": spans,
        "calls": int(calls),
        "estimated_overhead_ms": cost / 1e6,
    }


# Per-layer metrics: name -> (unit, better, how it is read off a merged record).
# ("fn", f): module-self time of function f;   ("calls", f): its call count;
# ("module", m): self time of module m;        ("count", k): a probe counter;
# ("setup_fn", f): module-self time of f during one set-up.
PER_LAYER = {
    "heads.fwd_bwd_ms": ("ms", "lower", ("fn", "heads.ce_loss_and_grad")),
    "heads.fwd_bwd_rows": ("count", "lower", ("count", "heads.fwd_bwd_rows")),
    "heads.target_row_ratio": ("ratio", "higher", ("ratio", "heads.unlabeled_target_rows", "heads.unlabeled_rows")),
    "heads.masks_ms": ("ms", "lower", ("fn", "heads.sample_masks")),
    "heads.sgd_ms": ("ms", "lower", ("fn", "heads.DepthHeads.sgd_step")),
    "heads.ema_ms": ("ms", "lower", ("fn", "heads.DepthHeads.ema_update_all")),
    "heads.teacher_fwd_ms": ("ms", "lower", ("fn", "heads.DepthHeads.teacher_forward_all")),
    "heads.teacher_fwd_rows": ("count", "lower", ("count", "heads.teacher_fwd_rows")),
    "prohoc.fuse_ms": ("ms", "lower", ("fn", "prohoc.fuse_batch")),
    "prohoc.fuse_rows": ("count", "lower", ("count", "prohoc.fuse_rows")),
    "prohoc.subtree_conf_ms": ("ms", "lower", ("fn", "prohoc.subtree_confidences")),
    "spl.compute_ms": ("ms", "lower", ("fn", "spl.compute_spls_batch")),
    "spl.log_ms": ("ms", "lower", ("fn", "spl.update_log")),
    "spl.log_calls": ("count", "lower", ("calls", "spl.update_log")),
    "spl.gating_ms": ("ms", "lower", ("fn", "spl.apply_gating")),
    "spl.gating_calls": ("count", "lower", ("calls", "spl.apply_gating")),
    "spl.cutoffs_ms": ("ms", "lower", ("fn", "spl.update_cutoffs")),
    "spl.assignments": ("count", "higher", ("count", "spl.assignments")),
    "spl.gated": ("count", "lower", ("count", "spl.gated")),
    "trainer.epoch_self_ms": ("ms", "lower", ("fn", "trainer.Trainer.run_epoch")),
    "trainer.evaluate_ms": ("ms", "lower", ("fn", "trainer.Trainer.evaluate")),
    "trainer.predict_ms": ("ms", "lower", ("fn", "trainer.predict_dataset")),
    "trainer.save_ckpt_ms": ("ms", "lower", ("fn", "trainer.save_checkpoint")),
    "trainer.load_ckpt_ms": ("ms", "lower", ("fn", "trainer.load_checkpoint")),
    "trainer.ckpt_bytes": ("B", "lower", ("count", "trainer.ckpt_bytes")),
    "metrics.purity_ms": ("ms", "lower", ("fn", "metrics.spl_purity_and_depth")),
    "metrics.bmhd_ms": ("ms", "lower", ("fn", "metrics.bmhd")),
    "metrics.decomposition_ms": ("ms", "lower", ("fn", "metrics.decomposition_matrix")),
    "metrics.bins_ms": ("ms", "lower", ("fn", "metrics.confidence_accuracy_bins")),
    "metrics.gate_ms": ("ms", "lower", ("fn", "metrics.gate_fpr_coverage")),
    "hierarchy.subtree_calls": ("count", "lower", ("calls", "hierarchy.Hierarchy.subtree")),
    "hierarchy.subtree_ms": ("ms", "lower", ("fn", "hierarchy.Hierarchy.subtree")),
    "hierarchy.lca_calls": ("count", "lower", ("calls", "hierarchy.Hierarchy.lca")),
    "hierarchy.target_distribution_calls": ("count", "lower", ("calls", "hierarchy.Hierarchy.target_distribution")),
    "datagen.generate_ms": ("ms", "lower", ("setup_fn", "datagen.generate")),
    "datagen.save_features_ms": ("ms", "lower", ("setup_fn", "datagen.save_features")),
    "datagen.load_features_ms": ("ms", "lower", ("fn", "datagen.load_features")),
    "datagen.feature_bytes": ("B", "lower", ("count", "datagen.feature_bytes")),
    "cli.bytes_written": ("B", "lower", ("count", "cli.bytes_written")),
}
# `benchmark` only builds inputs, which happens in set-up.
PER_LAYER.update({f"{m}.self_ms": ("ms", "lower", ("module", m)) for m in MODULES if m != "benchmark"})


def per_layer_metrics(measured: dict, setup: dict) -> dict:
    def fn_ms(record, name):
        return record["functions"].get(name, {}).get("module_self_ns", 0) / 1e6

    out = {}
    for name, (unit, _better, how) in PER_LAYER.items():
        kind = how[0]
        if kind == "fn":
            value = fn_ms(measured, how[1])
        elif kind == "setup_fn":
            value = fn_ms(setup, how[1])
        elif kind == "calls":
            value = measured["functions"].get(how[1], {}).get("calls", 0)
        elif kind == "module":
            value = measured["module_self_ns"].get(how[1], 0) / 1e6
        elif kind == "ratio":
            den = measured["counters"].get(how[2], 0)
            value = measured["counters"].get(how[1], 0) / den if den else 0.0
        else:
            value = measured["counters"].get(how[1], 0)
        out[name] = {"value": value, "unit": unit}
    return out
