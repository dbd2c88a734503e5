"""Outside-in layer tracing: wrappers around ``repro``'s public calls.

:func:`install` patches each traced call at the binding its caller uses
(class methods on the class, module functions in the importing module) and
records a span per call: name, start, end, parent.  Spans stay in memory
and are written at exit as Chrome trace-event JSON (viewable in Perfetto).
Some wrappers also bump counters (cache hits, slots, rows) measured at the
same boundary.  Nothing under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path

from harness import self_times


class Tracer:
    """In-memory span and counter recorder; a no-op while disabled."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: ``[name, start_ns, end_ns, parent_index, tid]`` per span.
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span (the harness's root ops)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span = [name, 0, 0, stack[-1] if stack else -1, threading.get_ident()]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, fn, name: str | None, probe=None):
        """``fn`` wrapped to record a span named ``name`` (no span when
        ``None``) and, when given, ``probe(tracer, args, kwargs, result,
        state)`` counters; ``probe.before(args)`` may capture ``state``."""
        tracer = self
        before = getattr(probe, "before", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            if name is None:
                result = fn(*args, **kwargs)
                probe(tracer, args, kwargs, result, state)
                return result
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if probe is not None:
                probe(tracer, args, kwargs, result, state)
            return result

        traced.__perfbench_wrapped__ = fn
        return traced

    # -- export ----------------------------------------------------------- #

    def chrome_events(self, pid: int | None = None) -> list[dict]:
        """Spans as Chrome trace-event ``X`` (complete) events."""
        pid = os.getpid() if pid is None else pid
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        return [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"id": index, "parent": parent, "self_us": own / 1e3},
            }
            for index, ((name, start, end, parent, tid), own) in enumerate(
                zip(self.spans, selfs)
            )
        ]

    def dump(self, path: Path) -> None:
        """Write spans (and counters) as a Chrome trace JSON file."""
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"counters": self.counters},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------- #
# Probes: counters measured at the traced boundary
# ---------------------------------------------------------------------- #


def _sgns_probe(tracer, args, kwargs, result, state):
    # sgns_step(self, in_table, out_table, sub_ids, sub_mask, contexts, negatives, lr)
    in_table, _, sub_ids, sub_mask, contexts, negatives = args[1:7]
    n, slots = sub_ids.shape
    dim = in_table.shape[1]
    targets = 1 + negatives.shape[1]
    width = in_table.itemsize * dim
    tracer.count("nn.sgns_step.slots", sub_mask.size)
    tracer.count("nn.sgns_step.live_slots", float(sub_mask.sum()))
    # Row gathers plus read-modify-write scatters of every slot and target.
    tracer.count("nn.sgns_step.bytes", 3 * width * n * (slots + targets))


def _artifact_get_probe(tracer, args, kwargs, result, state):
    tracer.count("artifacts.lookups")
    if result is not None:
        tracer.count("artifacts.hits")


def _cache_probe(tracer, args, kwargs, result, state):
    tracer.count("features.cache.lookups")
    if args[0].stats.hits > state:
        tracer.count("features.cache.hits")


_cache_probe.before = lambda args: args[0].stats.hits


def _augment_probe(tracer, args, kwargs, result, state):
    tracer.count("augmentation.examples", len(result))


def _score_rows_probe(tracer, args, kwargs, result, state):
    tracer.count("core.score.rows", args[1].numeric.shape[0])


def _cells_asked_probe(tracer, args, kwargs, result, state):
    tracer.count("core.score.cells", args[1].batch_size)


def _session_probe(tracer, args, kwargs, result, state):
    tracer.count("core.rescored_cells", args[0].rescored_cells - state)


_session_probe.before = lambda args: args[0].rescored_cells


#: Spans of calls that fit something; none may occur while serving.
FIT_SPANS = frozenset({
    "core.fit", "embeddings.fit", "features.fit", "augmentation.weak_supervision",
    "augmentation.policy_learn", "core.train", "core.calibrate",
})

#: ``(module, owner class or None, attribute, span name or None, probe)``.
#: Module functions are patched in the module whose code calls them.
POINTS = (
    ("repro.core.detector", "HoloDetect", "fit", "core.fit", None),
    ("repro.embeddings.fasttext", "FastTextEmbedding", "fit", "embeddings.fit", None),
    ("repro.nn.backends.numpy_backend", "NumpyBackend", "sgns_step", "nn.sgns_step",
     _sgns_probe),
    ("repro.artifacts.store", "ArtifactStore", "put", "artifacts.put", None),
    ("repro.artifacts.store", "ArtifactStore", "get", "artifacts.get", _artifact_get_probe),
    ("repro.features.pipeline", "FeaturePipeline", "fit", "features.fit", None),
    ("repro.features.pipeline", "FeaturePipeline", "transform", "features.transform",
     None),
    ("repro.features.pipeline", "FeaturePipeline", "transform_batch",
     "features.transform", None),
    ("repro.features.cache", "FeatureCache", "get_or_compute", None, _cache_probe),
    ("repro.augmentation.naive_bayes", "NaiveBayesRepairModel", "fit",
     "augmentation.weak_supervision", None),
    ("repro.augmentation.naive_bayes", "NaiveBayesRepairModel", "example_pairs",
     "augmentation.weak_supervision", None),
    ("repro.augmentation.policy", "Policy", "learn", "augmentation.policy_learn", None),
    ("repro.core.detector", None, "augment_training_set", "augmentation.augment",
     _augment_probe),
    ("repro.core.detector", None, "train_model", "core.train", None),
    ("repro.core.calibration", "PlattScaler", "fit", "core.calibrate", None),
    ("repro.core.model", "JointModel", "error_scores", "core.score", _score_rows_probe),
    ("repro.core.detector", "HoloDetect", "_score_features", None, _cells_asked_probe),
    ("repro.core.detector", "DetectionSession", "apply", "core.session_apply",
     _session_probe),
    ("repro.dataset.table", "Dataset", "apply_edits", "dataset.apply_edits", None),
    ("repro.evaluation.matrix", None, "run_trials", "evaluation.run_trials", None),
    ("repro.evaluation.store", "ResultStore", "put", "evaluation.store_put", None),
    ("repro.serving.server", None, "encode_payload", "serving.wire", None),
    ("repro.serving.server", None, "decode_payload", "serving.wire", None),
    ("repro.serving.server", None, "build_detect_report", "serving.report", None),
    ("repro.serving.registry", None, "load_detector", "persistence.load", None),
)


def install(tracer: Tracer) -> None:
    """Patch every point in :data:`POINTS` to record into ``tracer``."""
    for module_name, owner_name, attr, name, probe in POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, probe)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(tracer.wrap(raw.__func__, name, probe)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name, probe))


# ---------------------------------------------------------------------- #
# Span analysis
# ---------------------------------------------------------------------- #


def layer_totals(spans, window: tuple[int, int] | None = None) -> dict[str, dict]:
    """Per span name: ``calls``, total ``s`` and total ``self_s``.

    With ``window`` (``start_ns, end_ns``) only spans starting inside it
    count.  A name nested inside itself (a recursive call) counts once.
    """
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    totals: dict[str, dict] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        if window is not None and not window[0] <= start < window[1]:
            continue
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index] / 1e9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += (end - start) / 1e9
    return totals


def fit_calls(totals: dict) -> float:
    """Calls, in :func:`layer_totals` output, of anything that fits."""
    return float(sum(v["calls"] for name, v in totals.items() if name in FIT_SPANS))


def reconcile(spans, root: str | None = "op") -> float:
    """Worst relative mismatch, over every span named ``root`` (every span
    that has children when ``root`` is ``None``), between its wall time and
    its child spans' durations plus its self time.

    Zero when children nest cleanly; overlapping or escaping children (a
    broken wrapper, a thread the stack did not follow) show up here.
    """
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    child_time: dict[int, int] = {}
    for start, end, parent in ((s[1], s[2], s[3]) for s in spans):
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0) + (end - start)
    worst = 0.0
    for index, (name, start, end, _, _) in enumerate(spans):
        if name == root or (root is None and index in child_time):
            wall = max(end - start, 1)
            total = child_time.get(index, 0) + selfs[index]
            worst = max(worst, abs(total - wall) / wall)
    return worst


def layer_metrics(totals: dict, counters: dict, ops: int) -> dict[str, float]:
    """The span-derived per-layer metrics: seconds, calls and counts are per
    op, ratios are taken over the whole traced window."""
    per = 1.0 / max(ops, 1)

    def total(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0.0)

    def ratio(num: str, den: str) -> float:
        base = counters.get(den, 0.0)
        return counters.get(num, 0.0) / base if base else 0.0

    return {
        "embeddings.fit.self_s": per * total("embeddings.fit", "self_s"),
        "embeddings.fit.calls": per * total("embeddings.fit", "calls"),
        "nn.sgns_step.s": per * total("nn.sgns_step"),
        "nn.sgns_step.calls": per * total("nn.sgns_step", "calls"),
        "nn.sgns_step.live_slot_ratio": ratio(
            "nn.sgns_step.live_slots", "nn.sgns_step.slots"
        ),
        "nn.sgns_step.mb_moved": per * counters.get("nn.sgns_step.bytes", 0.0) / 1e6,
        "artifacts.put.s": per * total("artifacts.put"),
        "artifacts.put.calls": per * total("artifacts.put", "calls"),
        "artifacts.get.s": per * total("artifacts.get"),
        "artifacts.hit_ratio": ratio("artifacts.hits", "artifacts.lookups"),
        "features.fit.self_s": per * total("features.fit", "self_s"),
        "features.transform.s": per * total("features.transform"),
        "features.cache.hit_ratio": ratio(
            "features.cache.hits", "features.cache.lookups"
        ),
        "augmentation.weak_supervision.s": per * total("augmentation.weak_supervision"),
        "augmentation.policy_learn.s": per * total("augmentation.policy_learn"),
        "augmentation.augment.s": per * total("augmentation.augment"),
        "augmentation.examples": per * counters.get("augmentation.examples", 0.0),
        "core.train.s": per * total("core.train"),
        "core.calibrate.s": per * total("core.calibrate"),
        "core.score.s": per * total("core.score"),
        "core.score.rows": per * counters.get("core.score.rows", 0.0),
        "core.pad_fill_ratio": ratio("core.score.cells", "core.score.rows"),
        "core.session_apply.s": per * total("core.session_apply"),
        "core.rescored_cells": per * counters.get("core.rescored_cells", 0.0),
        "dataset.apply_edits.s": per * total("dataset.apply_edits"),
        "evaluation.run_trials.s": per * total("evaluation.run_trials"),
        "evaluation.store_put.s": per * total("evaluation.store_put"),
        "serving.wire.s": per * total("serving.wire"),
        "serving.report.s": per * total("serving.report"),
    }
