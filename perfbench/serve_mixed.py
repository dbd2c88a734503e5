"""``serve-mixed``: an open-loop client against a ``repro serve`` process.

Set-up fits and saves one detector, starts the server as a subprocess and
registers two tenants over the same relation.  The timed phase sends a
seeded Poisson schedule at :data:`RATE` requests per second from this one
process over at most :data:`CONNECTIONS` connections; each request is timed
from its *due* time.  The server starts through ``serve_launcher.py``: in a
traced run it records spans, with the first :data:`UNTRACED_SHARE` of the
schedule untraced; otherwise it samples host speed for ``capacity_rps``.  Request bodies are encoded before the phase and
replies are decoded after it, so the client does little work while timing.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from harness import (
    THREAD_ENV,
    FailLedger,
    HostSampler,
    OpenLoopSample,
    capacity,
    cpu_seconds,
    max_inflight,
    nearest_rank,
    peak_rss_mb,
    poisson_schedule,
    ref_loop_ms,
    speed_factor,
    tail_percentile,
)
from tracing import fit_calls, layer_metrics, layer_totals, reconcile
from workloads import (
    ROWS, SETUPS, TRAIN_FRACTION, UNTRACED_SHARE, Context, Outcome, digest,
    setup_seconds,
)

#: Offered load, requests per second: 500 requests in a 20 s phase, so
#: that ten lie beyond the p98.  One server core answers 60-72 req/s of this
#: mix on a 2-core x86 host, depending on the seed's relation, and less in
#: the host's slow spells; at 40 req/s a traced run in such a spell fell
#: behind its schedule, and at 50 req/s queueing doubled the median.
RATE = 25.0
CONNECTIONS = 2
CELLS = 40
HOT_SUBSETS = 16
TENANTS = ("alpha", "beta")
#: Request mix: cell-subset detects, 1-3 edit rescores, whole-relation detects.
MIX = (("detect", 0.65), ("rescore", 0.30), ("whole", 0.05))
#: Seconds a request may still be answered after the last one was due.
DRAIN_S = 5.0


def _env(ctx: Context) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ctx.root / "src")
    return env


class Server:
    """One ``repro serve`` subprocess on an ephemeral port, started through
    ``serve_launcher.py``: recording spans to ``trace_path`` when the run is
    traced, sampling host speed otherwise."""

    def __init__(self, ctx: Context, models: Path, trace_path: Path | None):
        self.log = models.parent / "server.log"
        self.trace_path = trace_path
        self.sample_path = models.parent / "host_sample.json"
        mode, out = ("trace", trace_path) if trace_path else ("sample", self.sample_path)
        command = [
            sys.executable, str(Path(__file__).with_name("serve_launcher.py")), mode, str(out),
            "serve", "--models", str(models), "--port", "0",
        ]
        with self.log.open("wb") as log:
            self.process = subprocess.Popen(
                command, env=_env(ctx), cwd=ctx.work,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
        self.port = self._wait_port()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log.read_text(encoding="utf-8", errors="replace").splitlines():
                if line.startswith("serving ") and "http://" in line:
                    return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def host_sample(self, timeout: float = 10.0) -> dict:
        """The running totals of the server's host sampler (untraced runs)."""
        self.sample_path.unlink(missing_ok=True)
        self.signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.sample_path.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError(f"server wrote no host sample: {self.log.read_text()[-2000:]}")
            time.sleep(0.005)
        return json.loads(self.sample_path.read_text(encoding="utf-8"))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


# ---------------------------------------------------------------------- #
# Requests
# ---------------------------------------------------------------------- #


def build_schedule(seed: int, seconds: float, columns, rows) -> list:
    """The seeded request list ``[(due, path, body, kind, tenant, edits)]``.

    Every (tenant, cell) is edited at most once, so the final relation does
    not depend on the order concurrent rescores reach the server.
    """
    from repro.serving.wire import JSON_CONTENT_TYPE, SERVE_SCHEMA, encode_payload

    rng = np.random.default_rng([seed, 0x5E7E])
    count = max(1, int(round(RATE * seconds)))
    dues = poisson_schedule(rng, RATE, count)
    # Condition the Poisson process on its count: the schedule spans exactly
    # count / RATE seconds and the mix holds exact shares, so neither the
    # offered load nor the number of heavy requests varies between seeds.
    dues = [due * count / RATE / dues[-1] for due in dues]
    shares = [int(round(count * weight)) for _, weight in MIX[:-1]]
    kinds = [kind for (kind, _), n in zip(MIX, shares + [count - sum(shares)]) for _ in range(n)]
    kinds = [kinds[i] for i in rng.permutation(count)]
    num_rows, num_cols = len(rows), len(columns)
    all_cells = [(r, c) for r in range(num_rows) for c in range(num_cols)]
    editable = {t: list(rng.permutation(len(all_cells))) for t in TENANTS}

    def subset():
        picks = rng.choice(len(all_cells), size=CELLS, replace=False)
        return [[all_cells[i][0], columns[all_cells[i][1]]] for i in picks]

    hot = [subset() for _ in range(HOT_SUBSETS)]
    requests = []
    for due, kind in zip(dues, kinds):
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        payload = {"schema": SERVE_SCHEMA, "tenant": tenant}
        edits = None
        if kind == "detect":
            payload["cells"] = hot[int(rng.integers(HOT_SUBSETS))] if rng.random() < 0.5 else subset()
            path = "/v1/detect"
        elif kind == "whole":
            path = "/v1/detect"
        else:
            size = int(rng.integers(1, 4))
            if len(editable[tenant]) < size:
                payload["cells"] = subset()
                kind, path = "detect", "/v1/detect"
            else:
                edits = []
                for _ in range(size):
                    r, c = all_cells[editable[tenant].pop()]
                    donor = int(rng.integers(num_rows))
                    edits.append({"row": r, "attribute": columns[c], "value": rows[donor][c]})
                payload.update(edits=edits, refresh=False, include_cells=False)
                path = "/v1/rescore"
        body = encode_payload(payload, JSON_CONTENT_TYPE)
        requests.append((due, path, body, kind, tenant, edits))
    return requests


async def _post(port: int, path: str, body: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nAccept: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()


async def _run_schedule(port: int, requests: list, hooks: list) -> tuple[float, list]:
    """Send ``requests`` open-loop; ``hooks`` are ``(offset, callable)``
    run at their offsets.  Returns the phase start and, per request,
    ``(sample or None, raw reply or exception)``."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(CONNECTIONS)
    results: list = [None] * len(requests)
    start = time.perf_counter() + 0.05
    horizon = start + (requests[-1][0] if requests else 0.0) + DRAIN_S

    async def one(index: int, due_offset: float, path: str, body: bytes) -> None:
        due = start + due_offset
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        async with slots:
            sent = time.perf_counter()
            try:
                raw = await asyncio.wait_for(
                    _post(port, path, body), max(0.01, horizon - sent)
                )
            except (OSError, asyncio.TimeoutError) as exc:
                results[index] = (None, exc)
                return
            results[index] = (OpenLoopSample(due, sent, time.perf_counter()), raw)

    for offset, hook in hooks:
        loop.call_at(loop.time() + (start + offset - time.perf_counter()), hook)
    await asyncio.gather(*(
        one(i, due, path, body) for i, (due, path, body, *_) in enumerate(requests)
    ))
    return start, results


def _reply(raw: bytes) -> tuple[int, dict | None]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head.startswith(b"HTTP/") else 0
    try:
        return status, json.loads(body)
    except ValueError:
        return status, None


# ---------------------------------------------------------------------- #
# The workload
# ---------------------------------------------------------------------- #


def serve_mixed(ctx: Context) -> Outcome:
    from repro import DetectorSpec, HoloDetect, load_dataset, make_split
    from repro.core.detector import DetectionSession
    from repro.dataset.table import Cell, Dataset
    from repro.evaluation import evaluate_predictions
    from repro.persistence import load_detector, save_detector
    from repro.serving import ServeClient, probabilities_of
    from repro.serving.wire import SERVE_SCHEMA

    bundle = load_dataset("hospital", num_rows=ROWS, seed=ctx.seed)
    columns = list(bundle.dirty.attributes)
    rows = [bundle.dirty.row_values(r) for r in range(bundle.dirty.num_rows)]
    requests = build_schedule(ctx.seed, ctx.seconds, columns, rows)
    ledger = FailLedger()
    setups, servers = [], []
    setup_sampler = HostSampler()
    try:
        with setup_sampler:
            for _ in range(SETUPS):
                if servers:
                    servers[-1].stop()
                began = setup_sampler.clock()[0]
                base = Path(tempfile.mkdtemp(dir=ctx.work))
                models = base / "models"
                split = make_split(bundle, TRAIN_FRACTION, rng=ctx.seed)
                # A short training run: serving cost depends on the model's
                # shape, not on how long it trained.
                spec = DetectorSpec.default(
                    seed=ctx.seed, embedding_epochs=1, epochs=5, min_training_steps=100
                )
                detector = HoloDetect.from_spec(spec)
                detector.fit(bundle.dirty, split.training, bundle.constraints)
                save_detector(detector, models / "hospital")
                trace_path = (
                    ctx.work.parent / f"serve-mixed-seed{ctx.seed}.server.trace.json"
                    if ctx.trace else None
                )
                server = Server(ctx, models, trace_path)
                servers.append(server)
                client = ServeClient("127.0.0.1", server.port)
                for tenant in TENANTS:
                    client.detect(spec.fingerprint(), columns=columns, rows=rows,
                                  tenant=tenant, include_cells=False)
                setups.append(setup_sampler.clock()[0] - began)

        test = set(split.test_cells)
        flagged = {c for c in detector.predict().error_cells if c in test}
        f1 = evaluate_predictions(flagged, bundle.error_cells, split.test_cells).f1
        registry_before = client.registry()
        units_before = None if ctx.trace else server.host_sample()
        cpu_before = cpu_seconds(server.pid)
        canary_before = ref_loop_ms()
        hooks = []
        if ctx.trace:
            # Recording off for the first share of the schedule, then on:
            # the two halves give the tracing overhead.
            switch_at = requests[int(len(requests) * UNTRACED_SHARE)][0]
            server.signal(signal.SIGUSR1)
            marks = {}

            def enable():
                marks["on"] = time.perf_counter_ns()
                server.signal(signal.SIGUSR2)

            hooks.append((switch_at - 0.001, enable))
        start, results = asyncio.run(_run_schedule(server.port, requests, hooks))
        phase_end_ns = time.perf_counter_ns()
        if ctx.trace:
            server.signal(signal.SIGUSR1)
        cpu_after = cpu_seconds(server.pid)
        units_after = None if ctx.trace else server.host_sample()
        canary_after = ref_loop_ms()
        registry_after = client.registry()
        rss = peak_rss_mb(server.pid)

        samples, routes, shed = [], {"detect": [], "rescore": []}, 0
        applied = {t: [] for t in TENANTS}
        for (due, path, body, kind, tenant, edits), (sample, raw) in zip(requests, results):
            if sample is None:
                ledger.fail(f"unanswered:{type(raw).__name__}")
                continue
            status, payload = _reply(raw)
            if status != 200 or not isinstance(payload, dict) or payload.get("schema") != SERVE_SCHEMA:
                shed += status == 503
                ledger.fail(f"status:{status}")
                continue
            ledger.ok()
            samples.append(sample)
            routes["rescore" if kind == "rescore" else "detect"].append(sample.latency)
            if edits is not None:
                applied[tenant].append(edits)

        # Bit-identity (at the report's 6-decimal wire precision): each
        # tenant's live relation equals an in-process session replaying the
        # same edits on the same saved model.
        final = {}
        for tenant in TENANTS:
            served = probabilities_of(client.detect(tenant=tenant))
            dataset = Dataset.from_rows(columns, rows)
            session = DetectionSession(
                load_detector(models / "hospital", dataset), cells=list(dataset.cells())
            )
            for batch in applied[tenant]:
                session.apply({Cell(e["row"], e["attribute"]): e["value"] for e in batch})
            replay = session.predictions
            expected = {
                (c.row, c.attr): round(float(p), 6)
                for c, p in zip(replay.cells, replay.probabilities)
            }
            if served != expected:
                ledger.check_failed(f"replay_mismatch:{tenant}")
            final[tenant] = sorted(served.items())
    finally:
        for server in servers:
            server.stop()

    if not samples:
        raise RuntimeError("no request was answered")
    latencies = [s.latency for s in samples]
    first_due = min(s.due for s in samples)
    wall = max(s.done for s in samples) - first_due
    units = {"wall": 0.0, "cpu": 0.0, "units": 0}  # a traced server samples nothing
    if units_before is not None:
        units = {k: units_after[k] - units_before[k] for k in units}
    e2e = {
        "setup_s": setup_seconds(setups, setup_sampler),
        # Open loop: the offered RATE while the server keeps up, so it gates
        # only falling behind; capacity_rps is this workload's program gate.
        "work_per_s": len(samples) / wall,
        # Server CPU per request net of the server's reference units, scaled
        # by the host speed they read during the phase.
        "capacity_rps": capacity(len(samples), cpu_before, cpu_after - units["cpu"])
        * speed_factor(units["cpu"], units["units"]),
        "peak_rss_mb": rss,
    }
    batcher = {
        k: registry_after["batcher"][k] - registry_before["batcher"][k]
        for k in registry_after["batcher"] if k != "max_batch_cells"
    }
    lags = [s.lag for s in samples]
    layers = {}
    if ctx.trace:
        trace = json.loads(server.trace_path.read_text(encoding="utf-8"))
        spans = _spans_of(trace)
        on = marks["on"]
        traced = [s for s in samples if s.sent * 1e9 >= on]
        untraced = [s.latency for s in samples if s.sent * 1e9 < on]
        totals = layer_totals(spans, (on, phase_end_ns))
        # The launcher restarts its counters when recording is switched on.
        layers = layer_metrics(totals, trace["otherData"]["counters"], len(traced))
        loads = layer_totals(spans).get("persistence.load", {"s": 0.0, "calls": 1})
        # Requests interleave on the server's event loop, so there is no
        # per-request root span: every traced call's children must lie inside
        # it and must not overlap one another.
        mismatch = reconcile(spans, root=None)
        if mismatch > 1e-6:
            ledger.check_failed("trace_reconcile")
        layers.update({
            "persistence.load.s": loads["s"] / loads["calls"],
            "trace.overhead_ratio": statistics.median(s.latency for s in traced)
            / statistics.median(untraced),
            "trace.fit_spans_in_phase": fit_calls(totals),
            "trace.reconcile_error": mismatch,
        })
    layers.update({
        "serving.coalesced_ratio": batcher["coalesced_requests"] / max(batcher["requests"], 1),
        "serving.shed": float(shed),
        "serving.detect_p50_ms": 1e3 * statistics.median(routes["detect"]),
        "serving.rescore_p50_ms": 1e3 * statistics.median(routes["rescore"]),
        # Latencies follow the host's CPU steal, not only the program's cost
        # (see README), so they are not end-to-end metrics.
        "serving.request_p50_ms": 1e3 * statistics.median(latencies),
        # 500 requests put ten beyond the p98.
        "serving.request_p98_ms": 1e3 * nearest_rank(latencies, 98.0),
        "loadgen.lag_p98_ms": 1e3 * nearest_rank(lags, 98.0),
        "loadgen.inflight_max": float(max_inflight(samples)),
        "host.ref_loop_ms": canary_before,
        "host.ref_loop_after_ms": canary_after,
        "quality.f1": f1,
    })
    return Outcome(
        ledger=ledger,
        e2e=e2e,
        layers=layers,
        record={
            "rows": ROWS, "rate": RATE, "requests": len(requests), "f1": f1,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "output_digest": digest(final),
            "answered": len(samples),
            # The highest percentile this many requests support.
            "tail_pct": (tail_percentile(latencies) or (None,))[0],
            "setup_s": setups, "batcher": batcher,
            "setup_wall_factor": setup_sampler.wall_factor,
            "server_units": units,
            "server_cpu_s": cpu_after - cpu_before,
            "route_p50_ms": {k: 1e3 * statistics.median(v) for k, v in routes.items()},
            "lag_p50_ms": 1e3 * statistics.median(lags),
            "lag_max_ms": 1e3 * max(lags),
            "latency_deciles_ms": [1e3 * nearest_rank(latencies, p) for p in range(10, 101, 10)],
            "host.ref_loop_ms": (canary_before, canary_after),
        },
    )


def _spans_of(trace: dict) -> list[list]:
    """Chrome ``X`` events back to ``[name, start_ns, end_ns, parent, tid]``
    (rounded, so the microsecond floats give back the recorded integers)."""
    return [
        [e["name"], round(e["ts"] * 1e3), round((e["ts"] + e["dur"]) * 1e3),
         e["args"]["parent"], e["tid"]]
        for e in trace["traceEvents"]
    ]
