"""The in-process workloads ``fit-cold`` and ``sweep-warm``, and the timed
loop, set-up and result types every workload shares.

Each workload takes a :class:`Context` and returns an :class:`Outcome`.
Inputs come from ``ctx.seed`` alone; ``repro`` sees only the generated
inputs.  Only calls into ``repro``'s public API are timed.  Every set-up
runs :data:`SETUPS` times untraced and ``setup_s`` is their median, scaled
by the host speed sampled while they ran (:class:`harness.HostSampler`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import FailLedger, HostSampler, peak_rss_mb, ref_loop_ms
from tracing import Tracer, fit_calls, layer_metrics, layer_totals, reconcile

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Rows of the generated Hospital relation (17 attributes).  A cold fit has
#: ~2 s of fixed cost (40 compressed artifact writes, joint training), and
#: its SGNS embedding training grows with rows: at 30 rows SGNS is ~40% of
#: a ~4 s op, at 60 rows most of a ~5 s op on a 2-core x86 host.
FIT_ROWS = 50
#: Rows of the sweep's and the server's relation; their ops cost about the
#: same at any small size.
ROWS = 30
#: Share of rows labelled for training (fit-cold's and serve-mixed's split).
TRAIN_FRACTION = 0.1
#: Label-budget ladder of the sweep matrix; ops cycle through it.
LADDER = (0.1, 0.2, 0.3)
#: Share of a traced run's timed phase that runs with recording off, so the
#: run measures its own tracing overhead.
UNTRACED_SHARE = 1.0 / 3.0


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))


@dataclass
class Outcome:
    ledger: FailLedger
    #: End-to-end metrics (untraced run).
    e2e: dict[str, float]
    #: Per-layer metrics (traced run).
    layers: dict[str, float]
    #: Everything else worth keeping next to the result.
    record: dict


@dataclass
class Phase:
    """What the timed loop measured."""

    durations: list[float]
    #: CPU seconds of each op.
    cpu: list[float]
    #: Per op: was recording on?
    traced: list[bool]
    wall: float
    #: Host speed sampled during the ops (none in a traced run).
    sampler: HostSampler
    #: ``(start_ns, end_ns)`` of the traced part of the phase.
    window: tuple[int, int]
    canary: tuple[float, float]

    def split(self) -> tuple[list[float], list[float]]:
        """``(untraced, traced)`` op durations."""
        return (
            [d for d, t in zip(self.durations, self.traced) if not t],
            [d for d, t in zip(self.durations, self.traced) if t],
        )


def scratch(ctx: Context) -> Path:
    return Path(tempfile.mkdtemp(dir=ctx.work))


def digest(payload: object) -> str:
    """A short content digest of an op's output, kept in the run record so
    that a traced and an untraced run of one seed can be compared."""
    if isinstance(payload, bytes):
        data = payload
    else:
        data = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def timed_phase(ctx: Context, op) -> Phase:
    """Run ``op(index)`` back to back until ``ctx.seconds`` have passed.

    An untraced run samples host speed all through the phase (see
    :class:`harness.HostSampler`) and times each op net of the samples.  A
    traced run samples nothing, so that no unit lands inside a span, and
    keeps recording off for the first :data:`UNTRACED_SHARE` of the phase
    and on for the rest, with at least one op on each side.
    """
    canary_before = ref_loop_ms()
    ctx.tracer.counters = {}
    durations: list[float] = []
    cpu: list[float] = []
    traced: list[bool] = []
    sampler = HostSampler()
    start = time.perf_counter()
    switch = start + ctx.seconds * UNTRACED_SHARE
    deadline = start + ctx.seconds
    window_start = None
    with contextlib.nullcontext() if ctx.trace else sampler:
        while time.perf_counter() < deadline or (ctx.trace and not any(traced)):
            now = time.perf_counter()
            on = ctx.trace and bool(durations) and now >= switch
            if on and window_start is None:
                window_start = time.perf_counter_ns()
            ctx.tracer.enabled = on
            with ctx.tracer.span("op"):
                began_wall, began_cpu = sampler.clock()
                op(len(durations))
                end_wall, end_cpu = sampler.clock()
            durations.append(end_wall - began_wall)
            cpu.append(end_cpu - began_cpu)
            traced.append(on)
    ctx.tracer.enabled = False
    wall = time.perf_counter() - start
    window = (window_start or 0, time.perf_counter_ns())
    canary = (canary_before, ref_loop_ms())
    return Phase(durations, cpu, traced, wall, sampler, window, canary)


def setup_seconds(setups, sampler: HostSampler) -> float:
    """Median set-up time, scaled to the reference host's speed."""
    return statistics.median(setups) / sampler.wall_factor


def e2e_metrics(setups, setup_sampler: HostSampler, phase: Phase, work: float) -> dict[str, float]:
    """End-to-end metrics of an in-process workload (see ``run.END_TO_END``).

    Rates count only the time inside ops.  Times and rates are scaled to the
    reference host's speed by the host speed sampled while they ran."""
    return {
        "setup_s": setup_seconds(setups, setup_sampler),
        "work_per_s": work / sum(phase.durations) * phase.sampler.wall_factor,
        "capacity_rps": len(phase.durations) / sum(phase.cpu) * phase.sampler.cpu_factor,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_layers(ctx: Context, ledger: FailLedger, phase: Phase) -> dict[str, float]:
    """Per-layer metrics of the traced share of the phase, plus the
    harness's validity metrics."""
    untraced, traced = phase.split()
    totals = layer_totals(ctx.tracer.spans, phase.window)
    layers = layer_metrics(totals, ctx.tracer.counters, len(traced))
    # Each root op's child spans plus its self time must add up to its wall.
    mismatch = reconcile(ctx.tracer.spans)
    if mismatch > 1e-6:
        ledger.check_failed("trace_reconcile")
    layers.update({
        "host.ref_loop_ms": phase.canary[0],
        "host.ref_loop_after_ms": phase.canary[1],
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "trace.reconcile_error": mismatch,
        "trace.fit_spans_in_phase": fit_calls(totals),
    })
    return layers


def harness_record(phase: Phase) -> dict:
    return {
        "ops": len(phase.durations),
        "op_p50_ms": 1e3 * statistics.median(phase.durations),
        "op_s": phase.durations,
        "traced": phase.traced,
        "op_cpu_s": phase.cpu,
        "phase_wall_s": phase.wall,
        "host_speed": {
            "units": phase.sampler.units, "wall_s": phase.sampler.wall,
            "cpu_s": phase.sampler.cpu, "wall_factor": phase.sampler.wall_factor,
            "cpu_factor": phase.sampler.cpu_factor,
        },
        "host.ref_loop_ms": phase.canary,
    }


# ---------------------------------------------------------------------- #
# fit-cold
# ---------------------------------------------------------------------- #


def fit_cold(ctx: Context) -> Outcome:
    """Cold ``HoloDetect.fit`` + ``predict()`` into a fresh artifact store,
    identical inputs every op."""
    import numpy as np

    from repro import DetectorConfig, HoloDetect, load_dataset, make_split
    from repro.evaluation import evaluate_predictions

    def detect(bundle, split):
        store = scratch(ctx)
        try:
            detector = HoloDetect(DetectorConfig(artifact_dir=str(store)))
            detector.fit(bundle.dirty, split.training, bundle.constraints)
            return detector.predict()
        finally:
            shutil.rmtree(store)

    ledger = FailLedger()
    setups, setup_sampler = [], HostSampler()
    reference = None
    with setup_sampler:
        for _ in range(SETUPS):
            began = setup_sampler.clock()[0]
            bundle = load_dataset("hospital", num_rows=FIT_ROWS, seed=ctx.seed)
            split = make_split(bundle, TRAIN_FRACTION, rng=ctx.seed)
            # The untimed cold detect absorbs lazy imports and first-call costs.
            predictions = detect(bundle, split)
            setups.append(setup_sampler.clock()[0] - began)
            if reference is None:
                reference = predictions
            elif not np.array_equal(predictions.probabilities, reference.probabilities):
                ledger.check_failed("setup_output_mismatch")

    def op(_):
        try:
            predictions = detect(bundle, split)
        except Exception as exc:  # any exception is a failed op
            ledger.fail(type(exc).__name__)
            return
        if predictions.cells == reference.cells and np.array_equal(
            predictions.probabilities, reference.probabilities
        ):
            ledger.ok()
        else:
            ledger.fail("output_mismatch")

    phase = timed_phase(ctx, op)
    test = set(split.test_cells)
    flagged = {c for c in reference.error_cells if c in test}
    f1 = evaluate_predictions(flagged, bundle.error_cells, split.test_cells).f1
    cells = len(reference.cells)
    return Outcome(
        ledger=ledger,
        e2e=e2e_metrics(setups, setup_sampler, phase, cells * len(phase.durations)),
        layers={**traced_layers(ctx, ledger, phase), "quality.f1": f1} if ctx.trace else {},
        record={
            "rows": FIT_ROWS, "cells": cells, "setup_s": setups,
            "setup_wall_factor": setup_sampler.wall_factor, "f1": f1,
            "output_digest": digest(reference.probabilities.tobytes()),
            **harness_record(phase),
        },
    )


# ---------------------------------------------------------------------- #
# sweep-warm
# ---------------------------------------------------------------------- #


def _accuracy(record: dict) -> dict:
    """The fields of a sweep record that are pure functions of its spec."""
    return {k: record[k] for k in ("fingerprint", "metrics", "mean_f1", "std_f1", "trials")}


def sweep_warm(ctx: Context) -> Outcome:
    """Serial one-scenario ``run_matrix`` calls over a pre-warmed artifact
    directory, cycling through the label-budget ladder."""
    from repro import ResultStore, ScenarioMatrix, run_matrix

    def matrix(budget: float):
        return ScenarioMatrix.from_dict({
            "datasets": [{"name": "hospital", "rows": ROWS}],
            "error_profiles": ["native"],
            "label_budgets": [budget],
            "methods": ["holodetect"],
            "trials": 1,
            "seed": ctx.seed,
        })

    matrices = {budget: matrix(budget) for budget in LADDER}

    def scenario(budget: float, artifacts: Path) -> dict:
        directory = scratch(ctx)
        try:
            report = run_matrix(
                matrices[budget], store=ResultStore(directory / "store.jsonl"),
                workers=1, artifact_dir=str(artifacts),
            )
        finally:
            shutil.rmtree(directory)
        return report.records[0]

    ledger = FailLedger()
    setups, setup_sampler = [], HostSampler()
    reference: dict[float, dict] = {}
    warm = None
    with setup_sampler:
        for _ in range(SETUPS):
            if warm is not None:
                shutil.rmtree(warm)
            warm = scratch(ctx)
            began = setup_sampler.clock()[0]
            # One cold scenario fills the artifact store; every budget of the
            # ladder then reads the same embeddings and featurizer states.
            record = scenario(LADDER[0], warm)
            setups.append(setup_sampler.clock()[0] - began)
            if reference.setdefault(LADDER[0], _accuracy(record)) != _accuracy(record):
                ledger.check_failed("setup_output_mismatch")

    def op(index: int):
        budget = LADDER[index % len(LADDER)]
        try:
            record = scenario(budget, warm)
        except Exception as exc:
            ledger.fail(type(exc).__name__)
            return
        if reference.setdefault(budget, _accuracy(record)) == _accuracy(record):
            ledger.ok()
        else:
            ledger.fail("output_mismatch")

    phase = timed_phase(ctx, op)
    seen = [b for b in LADDER if b in reference]
    f1 = statistics.fmean(reference[b]["mean_f1"] for b in seen)
    layers = {}
    if ctx.trace:
        layers = traced_layers(ctx, ledger, phase)
        layers["evaluation.driver_s"] = (
            statistics.fmean(phase.split()[1]) - layers["evaluation.run_trials.s"]
        )
        layers["quality.f1"] = f1
    return Outcome(
        ledger=ledger,
        e2e=e2e_metrics(setups, setup_sampler, phase, len(phase.durations)),
        layers=layers,
        record={
            "rows": ROWS, "ladder": LADDER, "setup_s": setups,
            "setup_wall_factor": setup_sampler.wall_factor, "f1": f1,
            "output_digest": digest({str(b): reference[b] for b in seen}),
            **harness_record(phase),
        },
    )
