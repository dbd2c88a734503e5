"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fit-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (a separate run, with wrappers installed around ``repro``'s public
calls).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(metrics, per-op samples, host provenance and canary) and, when traced, a
Chrome trace are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import THREAD_ENV, dump_json, provenance  # noqa: E402

#: ``(name, unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("capacity_rps", "req/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better)`` of the per-layer metrics (``--trace 1``).
#: Seconds, calls and counts are per op; ratios cover the traced window.
PER_LAYER = (
    ("embeddings.fit.self_s", "s", "lower"),
    ("embeddings.fit.calls", "count", "lower"),
    ("nn.sgns_step.s", "s", "lower"),
    ("nn.sgns_step.calls", "count", "lower"),
    ("nn.sgns_step.live_slot_ratio", "ratio", "higher"),
    ("nn.sgns_step.mb_moved", "MB", "lower"),
    ("artifacts.put.s", "s", "lower"),
    ("artifacts.put.calls", "count", "lower"),
    ("artifacts.get.s", "s", "lower"),
    ("artifacts.hit_ratio", "ratio", "higher"),
    ("features.fit.self_s", "s", "lower"),
    ("features.transform.s", "s", "lower"),
    ("features.cache.hit_ratio", "ratio", "higher"),
    ("augmentation.weak_supervision.s", "s", "lower"),
    ("augmentation.policy_learn.s", "s", "lower"),
    ("augmentation.augment.s", "s", "lower"),
    ("augmentation.examples", "count", "higher"),
    ("core.train.s", "s", "lower"),
    ("core.calibrate.s", "s", "lower"),
    ("core.score.s", "s", "lower"),
    ("core.score.rows", "count", "lower"),
    ("core.pad_fill_ratio", "ratio", "higher"),
    ("core.session_apply.s", "s", "lower"),
    ("core.rescored_cells", "count", "lower"),
    ("dataset.apply_edits.s", "s", "lower"),
    ("evaluation.run_trials.s", "s", "lower"),
    ("evaluation.store_put.s", "s", "lower"),
    ("evaluation.driver_s", "s", "lower"),
    ("serving.wire.s", "s", "lower"),
    ("serving.report.s", "s", "lower"),
    ("serving.coalesced_ratio", "ratio", "higher"),
    ("serving.shed", "count", "lower"),
    ("serving.detect_p50_ms", "ms", "lower"),
    ("serving.rescore_p50_ms", "ms", "lower"),
    ("serving.request_p50_ms", "ms", "lower"),
    ("serving.request_p98_ms", "ms", "lower"),
    ("persistence.load.s", "s", "lower"),
    ("loadgen.lag_p98_ms", "ms", "lower"),
    ("loadgen.inflight_max", "count", "lower"),
    ("host.ref_loop_ms", "ms", "lower"),
    ("host.ref_loop_after_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.reconcile_error", "ratio", "lower"),
    ("trace.fit_spans_in_phase", "count", "lower"),
    ("quality.f1", "ratio", "higher"),
    ("fail_ratio", "ratio", "lower"),
)

WORKLOADS = ("fit-cold", "sweep-warm", "serve-mixed")


def _reexec_pinned() -> None:
    """Re-run this interpreter under the pinned thread/hash environment
    (``PYTHONHASHSEED`` only takes effect at interpreter start)."""
    if all(os.environ.get(k) == v for k, v in THREAD_ENV.items()):
        return
    env = dict(os.environ, **THREAD_ENV)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _cross_check(path: Path, record: dict, sources: str, seconds: float, ledger) -> None:
    """Outputs must not depend on tracing: compare this run's output digest
    with the other mode's run of the same workload, seed, sources and
    ``--seconds`` (the phase length sets how much output there is), when one
    is on record in this checkout."""
    try:
        other = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return
    if other["provenance"]["sources"] != sources or other["seconds"] != seconds:
        return
    if other["record"].get("output_digest") != record.get("output_digest"):
        ledger.check_failed("output_differs_between_traced_and_untraced_runs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _reexec_pinned()
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_repro()

    from tracing import Tracer, install
    from workloads import Context, fit_cold, sweep_warm
    from serve_mixed import serve_mixed

    out = ROOT / ".perfbench_out"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), tracer=Tracer(enabled=False))
    if ctx.trace and args.workload != "serve-mixed":
        install(ctx.tracer)
    runner = {"fit-cold": fit_cold, "sweep-warm": sweep_warm, "serve-mixed": serve_mixed}
    try:
        outcome = runner[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    other = out / f"{args.workload}-seed{args.seed}-trace{1 - args.trace}.json"
    facts = provenance(ROOT)
    ledger = outcome.ledger
    _cross_check(other, outcome.record, facts["sources"], args.seconds, ledger)
    table = PER_LAYER if ctx.trace else END_TO_END
    values = (
        {**outcome.layers, "fail_ratio": ledger.ratio} if ctx.trace else outcome.e2e
    )
    # Layers a workload does not reach did no work on it.
    metrics = {
        name: {"value": float(values.get(name, 0.0) if ctx.trace else values[name]),
               "unit": unit}
        for name, unit, _ in table
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    dump_json(out / f"{stem}.json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": facts,
        "fail_reasons": ledger.reasons, "fail_ratio": ledger.ratio,
        "e2e": outcome.e2e, "layers": outcome.layers, "record": outcome.record,
    })
    if ctx.trace and ctx.tracer.spans:
        ctx.tracer.dump(out / f"{stem}.trace.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
