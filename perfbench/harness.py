"""Measurement maths and host probes for the ``perfbench`` harness.

Everything here is pure Python (plus numpy for the host canary) and never
imports ``repro``, so the self-tests in ``perfbench/tests`` exercise it in
isolation.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_SAMPLES = 10
#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Environment every process the harness starts runs under.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# ---------------------------------------------------------------------- #
# Order statistics
# ---------------------------------------------------------------------- #


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile among ``n``."""
    # Rounding first keeps e.g. 99.9% of 10000 at rank 9990, not 9991.
    return min(n, max(1, math.ceil(round(pct * n / 100.0, 9))))


def nearest_rank(samples, pct: float) -> float:
    """The nearest-rank ``pct``-th percentile of ``samples`` (non-empty)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(samples) -> tuple[float, float] | None:
    """``(pct, value)`` for the highest percentile in :data:`TAIL_LADDER`
    with at least :data:`TAIL_SAMPLES` samples strictly beyond its rank,
    or ``None`` when there are too few samples for any of them."""
    n = len(samples)
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_SAMPLES:
            return pct, nearest_rank(samples, pct)
    return None


def quartile_spread(values) -> float:
    """Inter-quartile distance of ``values`` as a share of their median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# ---------------------------------------------------------------------- #
# Open-loop timing
# ---------------------------------------------------------------------- #


@dataclass
class OpenLoopSample:
    """One scheduled request: when it was due, sent and answered
    (seconds on one monotonic clock)."""

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Latency from the *due* time: a stalled generator's wait counts."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent this request."""
        return self.sent - self.due


def max_inflight(samples) -> int:
    """Peak number of requests sent and not yet answered."""
    events = []
    for sample in samples:
        events.append((sample.sent, 1))
        events.append((sample.done, -1))
    # Completions sort before sends at equal timestamps.
    events.sort(key=lambda event: (event[0], event[1]))
    peak = live = 0
    for _, step in events:
        live += step
        peak = max(peak, live)
    return peak


def poisson_schedule(rng, rate: float, count: int) -> list[float]:
    """``count`` due offsets (seconds from phase start) of a Poisson process
    at ``rate`` per second, drawn from the numpy generator ``rng``."""
    gaps = rng.exponential(1.0 / rate, size=count)
    return [float(x) for x in gaps.cumsum()]


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it covered by
    its direct children (clipped to the parent's interval).

    ``spans`` is a list of ``(start, end, parent_index)``; ``parent_index``
    is ``-1`` for a root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _) in enumerate(spans):
        inner = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        result.append((end - start) - covered(inner))
    return result


# ---------------------------------------------------------------------- #
# Process accounting
# ---------------------------------------------------------------------- #


def parse_proc_stat(text: str) -> tuple[int, int]:
    """``(utime, stime)`` clock ticks from a ``/proc/<pid>/stat`` line.

    The command name (field 2) may hold spaces and parentheses, so fields
    are counted from the last ``)``.
    """
    rest = text[text.rindex(")") + 2 :].split()
    # rest[0] is field 3 (state); utime/stime are fields 14/15.
    return int(rest[11]), int(rest[12])


def cpu_seconds(pid: int | str = "self") -> float:
    """User+system CPU seconds consumed so far by process ``pid``."""
    text = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    utime, stime = parse_proc_stat(text)
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def capacity(completed: int, cpu_before: float, cpu_after: float) -> float:
    """Completed operations per CPU second spent by the serving process."""
    spent = cpu_after - cpu_before
    if spent <= 0:
        raise ValueError(f"no CPU time measured ({cpu_before} -> {cpu_after})")
    return completed / spent


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in Path(f"/proc/{pid}/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class FailLedger:
    """Attempted/failed operation accounting with the reasons kept."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check_failed(self, reason: str) -> None:
        """A completed op whose output check failed after it was counted."""
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------- #
# Host canary and provenance
# ---------------------------------------------------------------------- #


def ref_loop_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python + numpy loop, in ms.

    Recorded before and after each timed phase so that a run on a noisy
    host can be told apart from a regression; it never rescales a metric.
    """
    import numpy as np

    matrix = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += (i * 7) % 13
        product = matrix
        for _ in range(40):
            product = np.tanh(product @ matrix)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


#: Wall milliseconds one :func:`reference_unit` takes on the reference host
#: (a quiet 2-vCPU x86 VM) when run between a fit's bytecodes, which leave it
#: colder caches than a loop of units would (there it takes ~1.6 ms);
#: in-process times and rates are scaled to it.
REFERENCE_UNIT_MS = 2.0
#: Seconds between two reference units while a :class:`HostSampler` runs.
SAMPLE_INTERVAL_S = 0.05


def reference_unit() -> tuple[float, float]:
    """Run one fixed unit (about two milliseconds) of host reference work:
    Python dict, sort and string handling, small- and medium-array numpy
    and zlib, the mix a detector fit or scenario spends its time on,
    without ``repro`` code.  Returns its ``(wall, cpu)`` seconds."""
    import gc
    import zlib

    import numpy as np

    # Collections would scan the program's heap, whose size is not host speed.
    collecting = gc.isenabled()
    gc.disable()
    wall, cpu = time.perf_counter(), time.process_time()
    table: dict = {}
    for i in range(200):
        table.setdefault((i % 23, str(i % 11)), []).append(i * 3 % 17)
    keys = sorted(table, key=lambda k: (len(table[k]), k))
    text = ",".join(f"{a}:{b}" for a, b in keys)
    vector = np.linspace(0.0, 1.0, 64)
    for i in range(40):
        vector = np.tanh(vector * 1.01 + i * 1e-3)
        vector[int(np.argmax(vector))] *= 0.5
    block = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    block = np.tanh(block @ block * 1e-2)
    zlib.compress(block.tobytes() + text.encode(), 6)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if collecting:
        gc.enable()
    return wall, cpu


class HostSampler:
    """Host speed sampled while the program runs.

    On a shared host the speed of a CPU second drifts by tens of percent
    within seconds and between minutes, and CPU time slows with the wall
    clock.  While active, a ``SIGALRM`` timer runs one
    :func:`reference_unit` every :data:`SAMPLE_INTERVAL_S` in the main
    thread, between the program's bytecodes, so the units meet the host
    the program meets.  A factor above 1 means the host ran slower than
    the reference host; a rate times the factor, or a time divided by it,
    reads as on the reference host.  The units run no program code, so a
    change to the program moves the scaled figures as it moves the raw
    ones.  Time spent in units is kept apart (:attr:`wall`, :attr:`cpu`)
    so that callers can take it out of what they timed.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.units = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        wall, cpu = reference_unit()
        self.wall += wall
        self.cpu += cpu
        self.units += 1

    def __enter__(self) -> "HostSampler":
        reference_unit()  # first-call costs are not host speed
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> tuple[float, float]:
        """Wall and CPU seconds now, less the time spent in units so far:
        differences of two readings are the program's own time."""
        return time.perf_counter() - self.wall, time.process_time() - self.cpu

    @property
    def wall_factor(self) -> float:
        return speed_factor(self.wall, self.units)

    @property
    def cpu_factor(self) -> float:
        return speed_factor(self.cpu, self.units)


def speed_factor(seconds: float, units: int) -> float:
    """How much slower than the reference host ``units`` reference units
    that took ``seconds`` ran; 1 when no unit ran, leaving figures unscaled."""
    return 1e3 * seconds / units / REFERENCE_UNIT_MS if units else 1.0


def _blas_build() -> object:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return "unknown"
    deps = config.get("Build Dependencies", {}) if isinstance(config, dict) else {}
    return {
        name: {k: deps[name].get(k) for k in ("name", "version") if k in deps[name]}
        for name in ("blas", "lapack")
        if name in deps
    }


def tree_digest(root: Path) -> str:
    """Digest of the program's and the benchmark's Python sources."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def source_commit(root: Path) -> str | None:
    """The checkout's git commit, or ``None`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        # A checkout nested in some other repository is not a git checkout.
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]) == root:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def provenance(root: Path) -> dict:
    """Host and build facts recorded next to every result."""
    import numpy as np

    return {
        "commit": source_commit(root),
        "sources": tree_digest(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def dump_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")
