"""In-memory span tracer that wraps litrel's public functions from outside.

Each wrap target is a module function or a class method.  Wrapping
replaces the attribute on its module or class, and also every alias of
the same function object that another litrel module imported by name
(``from litrel.data import load_triples``), so calls through either
path are recorded.  A target that no longer exists is reported as
absent instead of failing the run.

A span is ``[name, start, end, parent, command]``.  Spans stay in memory
until the run ends; :func:`layer_metrics` derives self times (a span's
duration minus its direct children) and exact counts from them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# span name -> per-layer metric that receives the span's self time
SELF_TIME_METRIC = {
    "data.load_triples": "data.parse_s",
    "data.load_literals": "data.parse_s",
    "data.build_graph": "data.build_graph_s",
    "data.KnowledgeGraph.save": "data.graph_save_s",
    "data.KnowledgeGraph.load": "data.graph_load_s",
    "kernels.column_stats": "kernels.column_stats_s",
    "aggregation.build_profiles": "aggregation.build_profiles_self_s",
    "aggregation.literal_vectors": "aggregation.literal_vectors_s",
    "aggregation.literal_vectors_backward": "aggregation.literal_vectors_backward_s",
    "fusion.LinearFusion.forward": "fusion.forward_s",
    "fusion.GatedFusion.forward": "fusion.forward_s",
    "fusion.LinearFusion.backward": "fusion.backward_s",
    "fusion.GatedFusion.backward": "fusion.backward_s",
    "scoring.score_all_tails": "scoring.forward_s",
    "scoring.score_all_heads": "scoring.forward_s",
    "training.init_state": "training.init_s",
    "training.symmetric_lcwa_loss": "training.loss_self_s",
    "training.optimizer_step": "training.optimizer_s",
    "training.save_checkpoint": "training.checkpoint_save_s",
    "training.load_checkpoint": "training.checkpoint_load_s",
    "evaluation.rank_triple": "evaluation.rank_self_s",
    "evaluation.group_by_frequency": "evaluation.grouping_s",
    "evaluation.group_by_correlation": "evaluation.grouping_s",
    "downstream.knn_classify": "downstream.knn_s",
    "downstream.svm_train": "downstream.svm_s",
    "downstream.LinearSvm.predict": "downstream.svm_s",
    "serialize.save_arrays": "serialize.save_s",
    "serialize.load_arrays": "serialize.load_s",
}
for _model in ("TransE", "DistMult", "ComplEx", "RotatE", "TuckER"):
    for _side in ("tails", "heads"):
        SELF_TIME_METRIC[f"scoring.{_model}.backward_{_side}"] = "scoring.backward_s"

COMMANDS = ("preprocess", "train", "evaluate", "classify")


def _filter_entries(tracer, args, graph):
    tracer.count("data.filter_entries",
                 sum(map(len, graph.filter_tails.values()))
                 + sum(map(len, graph.filter_heads.values())))


def _cells(tracer, args, result):
    tracer.count("kernels.cells", int(np.asarray(args[0]).size))


def _forward_rows(tracer, args, scores):
    tracer.count("scoring.entity_rows", int(scores.shape[0]))


def _backward_rows(tracer, args, result):
    tracer.count("scoring.entity_rows", int(args[4].shape[0]))  # (self, tables, i, r, g, ...)


def _relation_groups(tracer, args, result):
    batch = np.asarray(args[0]).reshape(-1, 3)
    _, sizes = np.unique(batch[:, 1], return_counts=True)
    tracer.count("training.relation_groups", int(sizes.size))
    tracer.count("training.singleton_groups", int((sizes == 1).sum()))


def _competitors(tracer, args, record):
    graph = args[2]
    h, r, t = (int(x) for x in args[0])
    tracer.count("evaluation.filtered_competitors",
                 len(graph.filter_tails[(h, r)]) - 1 + len(graph.filter_heads[(r, t)]) - 1)


def _bytes_written(tracer, args, result):
    tracer.count("serialize.bytes_written", sum(int(a.nbytes) for a in args[1].values()))


def _bytes_read(tracer, args, arrays):
    tracer.count("serialize.bytes_read", sum(int(a.nbytes) for a in arrays.values()))


# span name -> hook run after the call, recording counts at the same boundary
HOOKS = {
    "data.build_graph": _filter_entries,
    "data.KnowledgeGraph.load": _filter_entries,
    "kernels.column_stats": _cells,
    "scoring.score_all_tails": _forward_rows,
    "scoring.score_all_heads": _forward_rows,
    "training.symmetric_lcwa_loss": _relation_groups,
    "evaluation.rank_triple": _competitors,
    "serialize.save_arrays": _bytes_written,
    "serialize.load_arrays": _bytes_read,
}
for _name in SELF_TIME_METRIC:
    if ".backward_" in _name:
        HOOKS[_name] = _backward_rows


class Tracer:
    """Records spans and counts while ``enabled`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.enabled = False
        self._stack: list[int] = []
        self._command: str | None = None

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                           self._command])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    def run_command(self, command: str, fn, *args):
        """Run one CLI command as the root span ``cli.<command>``."""
        self._command = command
        index = self._open(f"cli.{command}")
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(index, start, time.perf_counter())
            self._command = None

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, time.perf_counter())
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    # the call signature or result type changed: drop the count
                    if name + " (counts)" not in self.absent:
                        self.absent.append(name + " (counts)")
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in :data:`SELF_TIME_METRIC` that exists."""
        for name in SELF_TIME_METRIC:
            module_name, *owner_path, attr = name.split(".")
            try:
                module = importlib.import_module("litrel." + module_name)
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            unwrapped = original.__func__ if isinstance(original, classmethod) else original
            traced = self._wrap(unwrapped, name, HOOKS.get(name))
            setattr(owner, attr, classmethod(traced) if isinstance(original, classmethod) else traced)
            if owner is module:
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("litrel"):
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, traced)


def _percentile_ms(durations, q):
    return float(np.percentile(durations, q) * 1e3) if durations else 0.0


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer self times, latencies and counts of one traced pipeline."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metrics = {m: 0.0 for m in SELF_TIME_METRIC.values()}
    metrics.update({f"cli.{c}.self_s": 0.0 for c in COMMANDS})
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for i, (name, start, end, parent, command) in enumerate(spans):
        self_time = end - start - child_time[i]
        key = SELF_TIME_METRIC.get(name, f"{name}.self_s")
        metrics[key] = metrics.get(key, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(end - start)

    def total_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    backward = [n for n in SELF_TIME_METRIC if ".backward_" in n]
    losses = durations.get("training.symmetric_lcwa_loss", [])
    steps = [a + b for a, b in zip(losses, durations.get("training.optimizer_step", []))]
    groups = counts.get("training.relation_groups", 0)
    metrics.update({
        "data.filter_entries": counts.get("data.filter_entries", 0),
        "kernels.column_stats_calls": total_calls("kernels.column_stats"),
        "kernels.cells": counts.get("kernels.cells", 0),
        "aggregation.literal_vectors_calls": total_calls("aggregation.literal_vectors"),
        "aggregation.literal_vectors_backward_calls":
            total_calls("aggregation.literal_vectors_backward"),
        "fusion.calls": total_calls("fusion.LinearFusion.forward", "fusion.GatedFusion.forward"),
        "scoring.forward_calls": total_calls("scoring.score_all_tails", "scoring.score_all_heads"),
        "scoring.backward_calls": total_calls(*backward),
        "scoring.entity_rows": counts.get("scoring.entity_rows", 0),
        "training.steps": len(losses),
        "training.relation_groups": groups,
        "training.singleton_group_share":
            counts.get("training.singleton_groups", 0) / groups if groups else 0.0,
        "training.step_ms_p50": _percentile_ms(steps, 50),
        "training.step_ms_p90": _percentile_ms(steps, 90),
        "evaluation.rank_ms_p50": _percentile_ms(durations.get("evaluation.rank_triple", []), 50),
        "evaluation.rank_ms_p99": _percentile_ms(durations.get("evaluation.rank_triple", []), 99),
        "evaluation.filtered_competitors": counts.get("evaluation.filtered_competitors", 0),
        "serialize.bytes_written": counts.get("serialize.bytes_written", 0),
        "serialize.bytes_read": counts.get("serialize.bytes_read", 0),
    })
    return metrics


def accounting_error(spans: list[list], metrics: dict[str, float]) -> float:
    """|sum of self-time metrics - sum of command wall times|, in seconds.

    Zero up to rounding when every span's self time lands in exactly one
    per-layer metric or in its command's ``cli.*.self_s`` remainder.
    """
    wall = sum(end - start for name, start, end, parent, _ in spans if parent < 0)
    self_keys = set(SELF_TIME_METRIC.values()) | {f"cli.{c}.self_s" for c in COMMANDS}
    return abs(sum(metrics[k] for k in self_keys) - wall)
