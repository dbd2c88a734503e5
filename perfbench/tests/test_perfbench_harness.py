"""Self-tests for the benchmark harness maths (no ``repro`` import needed)."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    REFERENCE_UNIT_MS,
    FailLedger,
    HostSampler,
    OpenLoopSample,
    capacity,
    covered,
    cpu_seconds,
    max_inflight,
    nearest_rank,
    parse_proc_stat,
    poisson_schedule,
    quartile_spread,
    self_times,
    tail_percentile,
)
from tracing import Tracer, layer_totals, reconcile  # noqa: E402


# -- tail percentile rule ------------------------------------------------- #


def test_tail_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert tail_percentile(samples) == (99.0, 990)
    # One sample short of p99: falls back to the next rung.
    assert tail_percentile(list(range(1, 1000)))[0] == 98.0
    assert tail_percentile(list(range(1, 501))) == (98.0, 490)
    assert tail_percentile(list(range(1, 500)))[0] == 95.0
    assert tail_percentile(list(range(1, 10001))) == (99.9, 9990)
    assert tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert tail_percentile(list(range(1, 20))) is None


def test_nearest_rank_is_order_free():
    rng = np.random.default_rng(0)
    values = list(rng.permutation(100) + 1)
    assert nearest_rank(values, 99.0) == 99
    assert nearest_rank(values, 100.0) == 100
    assert nearest_rank([5.0], 50.0) == 5.0
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)


def test_quartile_spread_matches_statistics():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# -- self time from nested spans ------------------------------------------ #


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, 100, -1),   # root
        (10, 30, 0),    # child
        (15, 25, 1),    # grandchild: not subtracted from the root
        (40, 60, 0),    # child
    ]
    assert self_times(spans) == [60, 10, 10, 20]


def test_self_time_counts_overlap_once_and_clips():
    spans = [(0, 100, -1), (10, 50, 0), (30, 70, 0), (90, 120, 0)]
    # Children cover [10, 70] and [90, 100] of the root.
    assert self_times(spans)[0] == 100 - 60 - 10
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4


def test_tracer_spans_nest_and_reconcile():
    tracer = Tracer(enabled=True)
    leaf = tracer.wrap(lambda: sum(range(2000)), "layer.leaf")

    def middle():
        leaf()
        return leaf()

    middle = tracer.wrap(middle, "layer.middle")
    with tracer.span("op"):
        assert middle() == sum(range(2000))
    assert [s[0] for s in tracer.spans] == ["op", "layer.middle", "layer.leaf", "layer.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert reconcile(tracer.spans) < 1e-9
    totals = layer_totals(tracer.spans)
    assert totals["layer.leaf"]["calls"] == 2
    inner = totals["layer.middle"]
    assert inner["self_s"] == pytest.approx(inner["s"] - totals["layer.leaf"]["s"])


def test_reconcile_without_root_checks_every_parent():
    nested = [["a", 0, 100, -1, 0], ["b", 10, 40, 0, 0], ["c", 50, 90, 0, 0],
              ["d", 60, 70, 2, 0]]
    assert reconcile(nested) == 0.0  # no span named "op"
    assert reconcile(nested, root=None) == 0.0
    overlapping = [*nested[:3], ["e", 30, 45, 0, 0]]
    assert reconcile(overlapping, root=None) == pytest.approx(10 / 100)
    escaping = [*nested[:3], ["d", 80, 95, 2, 0]]
    assert reconcile(escaping, root=None) == pytest.approx(5 / 40)


def test_server_spans_survive_the_chrome_round_trip():
    from serve_mixed import _spans_of

    tracer = Tracer(enabled=True)
    base = 987_654_321_123_457
    tracer.spans = [["a", base, base + 1_001, -1, 1], ["b", base + 1, base + 999, 0, 1]]
    trace = json.loads(json.dumps({"traceEvents": tracer.chrome_events(pid=1)}))
    assert _spans_of(trace) == tracer.spans
    assert reconcile(_spans_of(trace), root=None) == 0.0


def test_recursive_span_counts_time_once():
    spans = [["f", 0, 100, -1, 0], ["f", 10, 60, 0, 0]]
    totals = layer_totals(spans)
    assert totals["f"]["calls"] == 2
    assert totals["f"]["s"] == pytest.approx(100 / 1e9)
    assert totals["f"]["self_s"] == pytest.approx(100 / 1e9)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    wrapped = tracer.wrap(lambda x: x + 1, "noop")
    assert wrapped(1) == 2
    with tracer.span("op"):
        pass
    assert tracer.spans == []


def test_chrome_events_carry_parent_and_self():
    tracer = Tracer(enabled=True)
    tracer.spans = [["a", 0, 10_000, -1, 1], ["b", 2_000, 5_000, 0, 1]]
    events = tracer.chrome_events(pid=7)
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["dur"] == 10.0 and events[0]["args"]["self_us"] == 7.0
    assert events[1]["args"]["parent"] == 0
    json.dumps(events)


# -- open-loop timing ----------------------------------------------------- #


def test_open_loop_latency_counts_from_due_time():
    sample = OpenLoopSample(due=1.0, sent=1.25, done=2.0)
    assert sample.latency == pytest.approx(1.0)
    assert sample.lag == pytest.approx(0.25)


def test_max_inflight_counts_overlap():
    samples = [
        OpenLoopSample(0.0, 0.0, 2.0),
        OpenLoopSample(0.5, 0.5, 1.0),
        OpenLoopSample(1.0, 1.0, 3.0),  # starts as the second one ends
        OpenLoopSample(4.0, 4.0, 5.0),
    ]
    assert max_inflight(samples) == 2


def test_poisson_schedule_is_seeded_and_near_rate():
    first = poisson_schedule(np.random.default_rng(3), 50.0, 2000)
    again = poisson_schedule(np.random.default_rng(3), 50.0, 2000)
    assert first == again
    assert all(b > a for a, b in zip(first, first[1:]))
    assert 2000 / first[-1] == pytest.approx(50.0, rel=0.1)


# -- capacity from /proc CPU ticks ---------------------------------------- #


def test_parse_proc_stat_handles_spaces_in_comm():
    fields = ["S"] + [str(i) for i in range(4, 60)]
    fields[11], fields[12] = "1234", "56"  # utime, stime (fields 14, 15)
    line = "4242 (my (odd) name) " + " ".join(fields)
    assert parse_proc_stat(line) == (1234, 56)


def test_capacity_is_completions_per_cpu_second():
    assert capacity(100, 1.0, 3.0) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        capacity(100, 2.0, 2.0)


def test_cpu_seconds_grows_with_work():
    before = cpu_seconds()
    total = 0
    while cpu_seconds() - before < 0.02:
        total += sum(range(10_000))
    assert cpu_seconds() > before


# -- host speed scaling --------------------------------------------------- #


def test_host_sampler_factor_is_unit_time_over_reference():
    unit = REFERENCE_UNIT_MS / 1e3
    slow = HostSampler()
    slow.wall, slow.cpu, slow.units = 4 * 1.25 * unit, 4 * 1.2 * unit, 4
    assert slow.wall_factor == pytest.approx(1.25)
    assert slow.cpu_factor == pytest.approx(1.2)
    # An op rate read on a host 1.25x slower is scaled back up by the
    # factor, and a set-up time down by it.
    assert 0.8 * slow.wall_factor == pytest.approx(1.0)
    assert 1.25 / slow.wall_factor == pytest.approx(1.0)
    assert HostSampler().wall_factor == 1.0  # never entered: unscaled


def test_host_sampler_clock_excludes_unit_time():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with HostSampler() as sampler:
        began = sampler.clock()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
        ended = sampler.clock()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert sampler.units >= 3
    assert ended[0] - began[0] == pytest.approx(0.3 - sampler.wall, abs=0.02)
    assert ended[0] - began[0] < 0.3


# -- fail accounting ------------------------------------------------------ #


def test_fail_ledger_counts_every_failure_kind():
    ledger = FailLedger()
    for _ in range(7):
        ledger.ok()
    ledger.fail("status:503")
    ledger.fail("unanswered:TimeoutError")
    ledger.check_failed("replay_mismatch:alpha")  # an op already counted
    assert ledger.attempted == 9
    assert ledger.failed == 3
    assert ledger.ratio == pytest.approx(3 / 9)
    assert ledger.reasons == {
        "status:503": 1, "unanswered:TimeoutError": 1, "replay_mismatch:alpha": 1,
    }
    assert FailLedger().ratio == 0.0


# -- timed loop and cross-run output check -------------------------------- #


def test_traced_phase_has_untraced_and_traced_ops(tmp_path):
    import time

    from workloads import Context, timed_phase, traced_layers

    ctx = Context(root=tmp_path, work=tmp_path, seed=0, seconds=0.06, trace=True,
                  tracer=Tracer(enabled=False))
    phase = timed_phase(ctx, lambda index: time.sleep(0.004))
    untraced, traced = phase.split()
    assert untraced and traced
    assert phase.traced == sorted(phase.traced)  # off first, then on
    assert [s[0] for s in ctx.tracer.spans] == ["op"] * len(traced)
    ledger = FailLedger()
    layers = traced_layers(ctx, ledger, phase)
    assert ledger.failed == 0
    assert layers["trace.reconcile_error"] < 1e-9
    assert layers["trace.overhead_ratio"] > 0
    assert layers["embeddings.fit.calls"] == 0.0


def test_untraced_phase_records_no_spans(tmp_path):
    from workloads import Context, timed_phase

    ctx = Context(root=tmp_path, work=tmp_path, seed=0, seconds=0.02, trace=False)
    phase = timed_phase(ctx, lambda index: None)
    assert phase.durations and not any(phase.traced)
    assert ctx.tracer.spans == []


def test_cross_check_compares_runs_of_the_same_sources(tmp_path):
    from run import _cross_check

    other = tmp_path / "other.json"
    other.write_text(json.dumps({
        "provenance": {"sources": "sha256:a"}, "seconds": 20.0,
        "record": {"output_digest": "x"},
    }))
    ledger = FailLedger()
    _cross_check(other, {"output_digest": "x"}, "sha256:a", 20.0, ledger)
    _cross_check(other, {"output_digest": "y"}, "sha256:b", 20.0, ledger)  # other sources
    _cross_check(other, {"output_digest": "y"}, "sha256:a", 5.0, ledger)  # other length
    _cross_check(tmp_path / "missing.json", {"output_digest": "y"}, "sha256:a", 20.0, ledger)
    assert ledger.failed == 0
    _cross_check(other, {"output_digest": "y"}, "sha256:a", 20.0, ledger)
    assert ledger.failed == 1


# -- BENCHMARK.json agrees with the harness ------------------------------- #


def test_benchmark_json_matches_run_tables():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
