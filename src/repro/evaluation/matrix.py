"""Declarative scenario matrix + parallel sweep execution.

The paper's evaluation is a grid — datasets × error profiles × label
budgets × methods, several seeded trials each (§6.1, Tables 2–5).  This
module makes that grid a first-class object:

- :class:`ScenarioMatrix` declares the axes (loaded from a TOML/JSON spec
  file or built in code) and expands to concrete :class:`ScenarioSpec`\\ s;
- :class:`ScenarioSpec` is a pure-data description of one grid point with a
  stable content *fingerprint* (SHA-256 over canonical JSON) and
  deterministic derived seeds, so a scenario's result is a function of its
  spec alone — independent of execution order, worker count, or executor;
- :func:`run_scenario` executes one spec end-to-end (generate bundle →
  apply error profile → build method adapter → seeded trials);
- :func:`run_matrix` drains the specs through one claim loop — serial,
  over a process/thread pool, or cooperatively across hosts — and streams
  finished records into a resumable
  :class:`~repro.evaluation.store.ResultStore`.

Seed derivation is *scoped*, not global: the dataset seed depends only on
(matrix seed, dataset, rows) and the trial seed additionally on the error
profile and label budget — but never on the method.  Two methods at the
same grid point therefore see byte-identical dirty data and splits, which
is what makes Table-2-style columns comparable.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.artifacts import ArtifactStore, get_default_store, set_default_store, use_store
from repro.baselines.adapters import build_method
from repro.data.registry import DEFAULT_ROWS, load_dataset
from repro.errors.profiles import apply_profile, resolve_profile
from repro.registry import REGISTRY, ComponentError
from repro.evaluation.report import markdown_table
from repro.evaluation.runner import ExperimentResult, run_trials
from repro.evaluation.store import ResultStore
from repro.nn.backend import set_default_backend, use_backend
from repro.utils.timing import Timer

#: Fingerprint format version; bump when the spec schema changes meaning.
_FINGERPRINT_VERSION = "repro.scenario/v1"

#: JSON report schema identifier.
SWEEP_SCHEMA = "repro.sweep/v1"

_EXECUTORS = ("process", "thread", "serial")


class MatrixSpecError(ValueError):
    """A sweep spec is malformed (unknown axis value, bad type, ...)."""


def _canonical(payload: object) -> str:
    """Canonical JSON: sorted keys at every depth, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _derive_seed(*parts: object) -> int:
    """A stable 63-bit seed from a labelled tuple of spec components."""
    digest = hashlib.sha256(_canonical(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


@dataclass(frozen=True)
class ScenarioSpec:
    """One grid point: pure data, picklable, content-fingerprinted."""

    dataset: str
    error_profile: str
    label_budget: float
    method: str
    rows: int | None = None
    error_params: Mapping[str, object] = field(default_factory=dict)
    method_params: Mapping[str, object] = field(default_factory=dict)
    trials: int = 3
    sampling_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        # Resolve the registry's default size *now*: the fingerprint (and
        # dataset seed) must pin the relation actually generated, not a
        # None that would silently track future DEFAULT_ROWS edits.
        if self.rows is None:
            object.__setattr__(self, "rows", DEFAULT_ROWS.get(self.dataset))

    def to_dict(self) -> dict[str, object]:
        """JSON-able canonical form (the fingerprint input)."""
        return {
            "dataset": self.dataset,
            "rows": self.rows,
            "error_profile": self.error_profile,
            "error_params": dict(self.error_params),
            "label_budget": self.label_budget,
            "method": self.method,
            "method_params": dict(self.method_params),
            "trials": self.trials,
            "sampling_fraction": self.sampling_fraction,
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical spec.  Stable across dict ordering,
        processes, and sessions — the :class:`ResultStore` key."""
        payload = f"{_FINGERPRINT_VERSION}:{_canonical(self.to_dict())}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- scoped seeds ----------------------------------------------------
    # The scoping rule (see module docstring): widen the derivation tuple
    # only with the axes that should change the artefact.

    @property
    def dataset_seed(self) -> int:
        """Seeds bundle generation: same across profiles/budgets/methods."""
        return _derive_seed("dataset", self.seed, self.dataset, self.rows)

    @property
    def errors_seed(self) -> int:
        """Seeds error injection: same across budgets/methods."""
        return _derive_seed(
            "errors", self.seed, self.dataset, self.rows,
            self.error_profile, dict(self.error_params),
        )

    @property
    def trials_seed(self) -> int:
        """Seeds the trial splits: same across methods (comparable columns)."""
        return _derive_seed(
            "trials", self.seed, self.dataset, self.rows,
            self.error_profile, dict(self.error_params),
            self.label_budget, self.sampling_fraction, self.trials,
        )


def _axis_entry(raw: object, axis: str) -> tuple[str, dict[str, object]]:
    """Normalise a spec-file axis entry (string or table) to (name, params)."""
    if isinstance(raw, str):
        return raw, {}
    if isinstance(raw, Mapping):
        entry = dict(raw)
        name = entry.pop("name", None)
        if not isinstance(name, str):
            raise MatrixSpecError(f"{axis} entry {raw!r} needs a string 'name'")
        return name, entry
    raise MatrixSpecError(f"{axis} entry {raw!r} must be a string or a table with 'name'")


@dataclass
class ScenarioMatrix:
    """The declared grid: axes + shared knobs, expandable to specs.

    Axis entries are ``(name, params)`` pairs; dataset params may carry
    ``rows``, profile params override :mod:`repro.errors.profiles` presets,
    method params feed :func:`repro.baselines.adapters.build_method`.
    """

    datasets: list[tuple[str, dict[str, object]]]
    error_profiles: list[tuple[str, dict[str, object]]]
    label_budgets: list[float]
    methods: list[tuple[str, dict[str, object]]]
    trials: int = 3
    sampling_fraction: float = 0.2
    seed: int = 0

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ScenarioMatrix":
        """Validate and build a matrix from a parsed spec mapping.

        The mapping may be the spec's top level or nested under a
        ``"matrix"`` key (the TOML layout).  Every axis value is validated
        eagerly — unknown datasets, methods, profiles, or parameters fail
        here, before any scenario runs.
        """
        if "matrix" in payload and isinstance(payload["matrix"], Mapping):
            strays = set(payload) - {"matrix"}
            if strays:
                raise MatrixSpecError(
                    f"keys {sorted(strays)} sit outside the [matrix] table and "
                    "would be silently ignored; move them under [matrix]"
                )
            payload = payload["matrix"]  # type: ignore[assignment]
        known = {
            "datasets", "error_profiles", "label_budgets", "methods",
            "trials", "sampling_fraction", "seed",
        }
        unknown = set(payload) - known
        if unknown:
            raise MatrixSpecError(f"unknown spec keys {sorted(unknown)}; valid: {sorted(known)}")

        def non_empty_list(key: str, value: object) -> Sequence:
            # str is a Sequence: without the explicit exclusion a bare
            # "hospital" would be iterated per character.
            if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) or not value:
                raise MatrixSpecError(f"spec needs a non-empty {key!r} list")
            return value

        for key in ("datasets", "label_budgets", "methods"):
            non_empty_list(key, payload.get(key))

        datasets = []
        for raw in payload["datasets"]:  # type: ignore[union-attr]
            name, params = _axis_entry(raw, "datasets")
            try:
                REGISTRY.entry("dataset", name)
            except ComponentError as exc:
                raise MatrixSpecError(str(exc)) from exc
            extra = set(params) - {"rows"}
            if extra:
                raise MatrixSpecError(f"dataset {name!r}: unknown keys {sorted(extra)}")
            rows = params.get("rows")
            if rows is not None and (not isinstance(rows, int) or rows <= 0):
                raise MatrixSpecError(f"dataset {name!r}: rows must be a positive integer")
            datasets.append((name, params))

        profiles_raw = non_empty_list("error_profiles", payload.get("error_profiles", ["native"]))
        profiles = []
        for raw in profiles_raw:  # type: ignore[union-attr]
            name, params = _axis_entry(raw, "error_profiles")
            try:
                resolve_profile(name, **params)
            except ValueError as exc:
                raise MatrixSpecError(str(exc)) from exc
            profiles.append((name, params))

        budgets = []
        for budget in payload["label_budgets"]:  # type: ignore[union-attr]
            if not isinstance(budget, (int, float)) or not 0.0 < float(budget) < 1.0:
                raise MatrixSpecError(f"label budget {budget!r} must be in (0, 1)")
            budgets.append(float(budget))

        methods = []
        for raw in payload["methods"]:  # type: ignore[union-attr]
            name, params = _axis_entry(raw, "methods")
            # build_method resolves through the registry: built-in keys and
            # 'module:attr' references both validate here, before any run.
            try:
                build_method(name, params)
            except ValueError as exc:
                raise MatrixSpecError(str(exc)) from exc
            methods.append((name, params))

        trials = payload.get("trials", 3)
        if not isinstance(trials, int) or trials < 1:
            raise MatrixSpecError("trials must be a positive integer")
        sampling = payload.get("sampling_fraction", 0.2)
        if not isinstance(sampling, (int, float)) or not 0.0 <= float(sampling) < 1.0:
            raise MatrixSpecError("sampling_fraction must be in [0, 1)")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int):
            raise MatrixSpecError("seed must be an integer")

        return cls(
            datasets=datasets,
            error_profiles=profiles,
            label_budgets=budgets,
            methods=methods,
            trials=trials,
            sampling_fraction=float(sampling),
            seed=seed,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioMatrix":
        """Load a spec file; format chosen by suffix (.toml or .json)."""
        path = Path(path)
        if not path.exists():
            raise MatrixSpecError(f"spec file not found: {path}")
        suffix = path.suffix.lower()
        if suffix == ".toml":
            import tomllib

            try:
                payload = tomllib.loads(path.read_text(encoding="utf-8"))
            except tomllib.TOMLDecodeError as exc:
                raise MatrixSpecError(f"{path}: invalid TOML: {exc}") from exc
        elif suffix == ".json":
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise MatrixSpecError(f"{path}: invalid JSON: {exc}") from exc
        else:
            raise MatrixSpecError(f"{path}: unsupported spec format {suffix!r} (use .toml or .json)")
        if not isinstance(payload, Mapping):
            raise MatrixSpecError(f"{path}: spec must be a mapping at top level")
        try:
            return cls.from_dict(payload)
        except MatrixSpecError as exc:
            raise MatrixSpecError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict[str, object]:
        """JSON-able form (embedded in sweep reports)."""
        def axis(entries):
            return [{"name": n, **p} if p else n for n, p in entries]

        return {
            "datasets": axis(self.datasets),
            "error_profiles": axis(self.error_profiles),
            "label_budgets": list(self.label_budgets),
            "methods": axis(self.methods),
            "trials": self.trials,
            "sampling_fraction": self.sampling_fraction,
            "seed": self.seed,
        }

    def expand(self) -> list[ScenarioSpec]:
        """The cartesian product in declared order, deduped by fingerprint."""
        specs: list[ScenarioSpec] = []
        seen: set[str] = set()
        for dataset, dataset_params in self.datasets:
            for profile, profile_params in self.error_profiles:
                for budget in self.label_budgets:
                    for method, method_params in self.methods:
                        spec = ScenarioSpec(
                            dataset=dataset,
                            rows=dataset_params.get("rows"),  # type: ignore[arg-type]
                            error_profile=profile,
                            error_params=dict(profile_params),
                            label_budget=budget,
                            method=method,
                            method_params=dict(method_params),
                            trials=self.trials,
                            sampling_fraction=self.sampling_fraction,
                            seed=self.seed,
                        )
                        fingerprint = spec.fingerprint()
                        if fingerprint not in seen:
                            seen.add(fingerprint)
                            specs.append(spec)
        return specs


def scenario_record(spec: ScenarioSpec, result: ExperimentResult, elapsed: float) -> dict:
    """Serialise one executed scenario to the store/report record shape.

    Accuracy fields (``metrics``, ``trials``, ``mean_f1``, ``std_f1``) are
    pure functions of the spec; only ``runtimes``/``median_runtime``/
    ``elapsed`` carry wall-clock noise, so equality checks across executors
    should compare the accuracy fields.
    """
    median = result.median
    return {
        "fingerprint": spec.fingerprint(),
        "spec": spec.to_dict(),
        "metrics": {
            "precision": median.precision,
            "recall": median.recall,
            "f1": median.f1,
        },
        "mean_f1": result.mean_f1,
        "std_f1": result.std_f1,
        "trials": [
            {"precision": m.precision, "recall": m.recall, "f1": m.f1}
            for m in result.trials
        ],
        "runtimes": list(result.runtimes),
        "median_runtime": result.median_runtime,
        "elapsed": elapsed,
    }


def run_scenario(spec: ScenarioSpec) -> dict:
    """Execute one scenario end-to-end; deterministic given the spec."""
    bundle = load_dataset(spec.dataset, num_rows=spec.rows, seed=spec.dataset_seed)
    profile = resolve_profile(spec.error_profile, **dict(spec.error_params))
    bundle = apply_profile(bundle, profile, rng=spec.errors_seed)
    method = build_method(spec.method, spec.method_params)
    with Timer() as timer:
        result = run_trials(
            method,
            bundle,
            spec.label_budget,
            num_trials=spec.trials,
            sampling_fraction=spec.sampling_fraction,
            seed=spec.trials_seed,
        )
    return scenario_record(spec, result, timer.elapsed)


def _init_worker(directory: str | None, backend: str | None) -> None:
    """Process-pool initializer: install the ambient artifact store and/or
    compute backend for every detector the worker builds."""
    if directory is not None:
        set_default_store(ArtifactStore(directory=directory))
    if backend is not None:
        set_default_backend(backend)


def _run_with_artifact_stats(runner: Callable[["ScenarioSpec"], dict], spec) -> dict:
    """Run one scenario and report the artifact-store counter delta it
    caused, so the coordinator can aggregate hit/miss totals across
    workers without touching the (resume-stable) scenario record."""
    store = get_default_store()
    if store is None:
        return {"record": runner(spec), "artifact_stats": None}
    before = store.stats.as_dict()
    record = runner(spec)
    after = store.stats.as_dict()
    return {
        "record": record,
        "artifact_stats": {k: after[k] - before[k] for k in after},
    }


#: Absolute ceiling on pool size — beyond this, worker startup cost
#: dominates any timesharing benefit.
MAX_WORKERS = 64


def clamp_workers(requested: int, pending: int) -> int:
    """Clamp a worker request to ``[1, min(pending, MAX_WORKERS)]``.

    Zero/negative requests mean one worker, and there is never a reason
    for more workers than pending scenarios.  Oversubscribing CPUs is
    deliberately allowed: workers beyond the core count just timeshare,
    and capping at ``os.cpu_count()`` would silently serialise sweeps on
    small CI runners.
    """
    return max(1, min(int(requested), max(int(pending), 1), MAX_WORKERS))


@dataclass
class SweepReport:
    """The outcome of one :func:`run_matrix` call."""

    matrix: ScenarioMatrix
    records: list[dict]
    executed: int
    cached: int
    workers: int
    #: Artifact-store summary (``{"dir": ..., "stats": {...}}``) when the
    #: sweep ran with a shared artifact directory; ``None`` otherwise.
    #: Stats cover freshly executed scenarios only — records themselves
    #: stay pure functions of their spec (the resume contract).
    artifacts: dict | None = None
    #: Cooperative-mode summary (``{"dir", "worker", "ttl", "executed",
    #: "remote", ...}``) when the sweep ran with ``coordinate=``; ``None``
    #: for single-host sweeps.
    coordination: dict | None = None

    @property
    def total(self) -> int:
        return len(self.records)

    def table(self) -> str:
        """Markdown summary table, one scenario per row, expansion order."""
        rows = []
        for record in self.records:
            spec = record["spec"]
            metrics = record["metrics"]
            rows.append([
                spec["dataset"],
                spec["error_profile"],
                f"{spec['label_budget']:g}",
                spec["method"],
                f"{metrics['precision']:.3f}",
                f"{metrics['recall']:.3f}",
                f"{metrics['f1']:.3f}",
                f"{record['mean_f1']:.3f}±{record['std_f1']:.3f}",
                f"{record['median_runtime']:.2f}",
                "cached" if record.get("cached") else "run",
            ])
        return markdown_table(
            ["dataset", "profile", "budget", "method", "P", "R", "F1",
             "F1 mean±std", "runtime (s)", "source"],
            rows,
        )

    def to_json(self) -> dict:
        """The ``repro.sweep/v1`` report payload.

        The ``artifacts`` key is additive (present only for sweeps run
        with ``--artifacts``); consumers of the original schema are
        unaffected.
        """
        payload = {
            "schema": SWEEP_SCHEMA,
            "matrix": self.matrix.to_dict(),
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "workers": self.workers,
            "scenarios": self.records,
        }
        if self.artifacts is not None:
            payload["artifacts"] = self.artifacts
        if self.coordination is not None:
            payload["coordination"] = self.coordination
        return payload


class _InlineExecutor(Executor):
    """Runs each task inside :meth:`submit`, on the calling thread.

    Serial sweeps share the pools' claim loop, but their scenarios must
    run on the main thread: Ctrl-C is delivered there, and ``SIGALRM``
    samplers (the benchmark harness's host sampler) only interrupt it.  A
    one-thread pool would break both.  An ``Exception`` lands in the
    returned future as it would from a pool; a ``BaseException``
    (``KeyboardInterrupt``) propagates from ``submit`` at once.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class _LocalWork:
    """Single-host work source: the pending fingerprints, claimed in order.

    No peer competes for them, so there is no lease to release, renew or
    abort, every finished scenario is this worker's own, and the sweep has
    drained once nothing is left to claim.
    """

    def __init__(self, pending: list[str]):
        self._pending = iter(pending)

    def claim(self, busy: set[str]) -> str | None:
        return next(self._pending, None)

    def owns(self, fingerprint: str) -> bool:
        return True

    def release(self, fingerprint: str, event: str = "release") -> None:
        pass

    def idle(self) -> bool:
        return True

    def abort(self) -> None:
        pass


@dataclass(frozen=True)
class CoordinateOptions:
    """Knobs for the cooperative claim-loop executor mode of
    :func:`run_matrix` (``repro sweep --coordinate``).

    ``directory`` is the shared coordination directory (lease files +
    audit log); it defaults to ``<store path>.coord/`` so every worker and
    ``repro report`` agree on it with no extra configuration.  ``ttl`` is
    the stale-lease reclaim threshold: a worker silent for longer than
    this forfeits its in-flight scenarios to the survivors.  Size it to a
    small multiple of the longest expected scenario *claim-to-heartbeat*
    gap — i.e. filesystem latency, not scenario runtime (heartbeats renew
    every ``ttl / 4`` during execution) — 60 s is comfortable on NFS.
    ``poll_interval`` is the idle re-scan period while other workers hold
    the remaining scenarios.
    """

    directory: str | Path | None = None
    worker_id: str | None = None
    ttl: float = 60.0
    poll_interval: float | None = None


class _LeasedWork:
    """Multi-host work source: scenarios are claimed through lease files
    (:mod:`repro.coordination`) in competition with peer workers, and the
    store is the completion ledger.

    Control flow per slot: *completion scan* (only fingerprints missing
    from the store are candidates — finished work is never re-claimed,
    even across restarts) → *claim* (atomic lease create; losing the race
    just moves on) → *execute* → *append to the store* → *release*.  When
    nothing is claimable but the matrix is not drained, the worker polls:
    other workers' completions arrive via :meth:`ResultStore.refresh`
    (reported through ``on_refresh``), and leases whose heartbeat exceeded
    the TTL are reclaimed so a killed worker's scenarios re-enter the pool.
    The sweep returns only when the *whole* matrix is complete.
    """

    def __init__(
        self,
        store: ResultStore,
        fingerprints: list[str],
        coordinate: CoordinateOptions,
        on_refresh: Callable[[], None],
    ):
        from repro.coordination import HeartbeatThread, WorkQueue, coordination_dir

        directory = (
            Path(coordinate.directory)
            if coordinate.directory is not None
            else coordination_dir(store.path)
        )
        self.queue = WorkQueue(directory, worker_id=coordinate.worker_id, ttl=coordinate.ttl)
        self.poll = (
            coordinate.poll_interval
            if coordinate.poll_interval is not None
            else min(1.0, self.queue.ttl / 4.0)
        )
        self.heartbeat = HeartbeatThread(self.queue)
        self.store = store
        self.fingerprints = fingerprints
        self.on_refresh = on_refresh

    def claim(self, busy: set[str]) -> str | None:
        """Claim the next runnable scenario; None when nothing claimable.

        After winning a claim the store is re-scanned: the lease may have
        been absent because another worker *finished* the scenario between
        our completion scan and the claim — then the claim is released
        unused (``skip``) instead of re-executing done work.
        """
        for fp in self.store.missing(self.fingerprints):
            if fp in busy:
                continue
            if not self.queue.claim(fp):
                continue
            self.store.refresh()
            if fp in self.store:
                self.queue.release(fp, event="skip")
                continue
            self.queue.audit("execute", fp)
            return fp
        return None

    def owns(self, fingerprint: str) -> bool:
        # Check the lease *before* the put: a worker that slept past its
        # TTL was reclaimed, and the scenario now belongs to whoever
        # re-claimed it.  Writing our record anyway would double-write the
        # store (latest-wins keeps it correct, but the audit would show a
        # completion from a worker that no longer held the lease).  The
        # "lost" audit event was already appended at detection time by
        # renew(); here we abandon the record and let on_refresh report
        # the new owner's result.
        if fingerprint in self.heartbeat.lost or fingerprint not in self.queue.held():
            self.queue.audit("abandoned", fingerprint)
            return False
        return True

    def release(self, fingerprint: str, event: str = "release") -> None:
        self.queue.release(fingerprint, event=event)

    def idle(self) -> bool:
        """One poll iteration; True when the matrix has fully drained."""
        self.store.refresh()
        self.on_refresh()
        missing = self.store.missing(self.fingerprints)
        if not missing:
            return True
        if not self.queue.reclaim_stale(missing):
            time.sleep(self.poll)
        return False

    def abort(self) -> None:
        # Interrupted: free every lease still held so surviving workers
        # pick the scenarios up without waiting for the TTL (our discarded
        # in-flight results don't count — whoever re-runs them lands the
        # same bits anyway).
        for fp in self.queue.held():
            self.queue.release(fp, event="abort")


def _drive(
    source: _LocalWork | _LeasedWork,
    pool: Executor,
    slots: int,
    task: Callable[[ScenarioSpec], dict],
    specs: Mapping[str, ScenarioSpec],
    finish: Callable[[str, dict], None],
) -> None:
    """The claim loop behind every sweep: keep up to ``slots`` claimed
    scenarios in flight on ``pool`` and ``finish`` each as it completes,
    until ``source`` reports the matrix drained.

    A failed scenario never discards finished work (the resume contract):
    completed siblings are flushed, unstarted claims are freed, in-flight
    ones run to completion and are flushed too, and only then is the
    failure raised, naming its grid point.  Interrupts and store failures
    don't burn CPU finishing a doomed sweep: queued work is cancelled and
    every held claim aborted.
    """
    in_flight: dict[Future, str] = {}
    try:
        while True:
            while len(in_flight) < slots:
                fp = source.claim(set(in_flight.values()))
                if fp is None:
                    break
                in_flight[pool.submit(task, specs[fp])] = fp
            if not in_flight:
                if source.idle():
                    return
                continue
            done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
            # The done set is unordered: flush every completed sibling
            # first, then raise.
            failed: tuple[str, BaseException] | None = None
            for future in done:
                fp = in_flight.pop(future)
                exc = future.exception()
                if exc is not None:
                    # Free the lease: another worker may retry.
                    source.release(fp, event="failed")
                    failed = failed or (fp, exc)
                else:
                    finish(fp, future.result())
            if failed is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                for future, fp in in_flight.items():
                    # wait() must not be used here: futures cancelled by
                    # the shutdown queue-drain never reach
                    # CANCELLED_AND_NOTIFIED, so wait() would block
                    # forever.  exception() blocks only on genuinely
                    # in-flight work.
                    if future.cancelled():
                        source.release(fp)
                    elif future.exception() is not None:
                        source.release(fp, event="failed")
                    else:
                        finish(fp, future.result())
                spec, exc = specs[failed[0]], failed[1]
                raise RuntimeError(
                    f"scenario {spec.dataset}/{spec.error_profile}/{spec.label_budget:g}"
                    f"/{spec.method} (fingerprint {failed[0][:12]}) failed: {exc}"
                ) from exc
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        source.abort()
        raise


def run_matrix(
    matrix: ScenarioMatrix,
    store: ResultStore | None = None,
    workers: int = 1,
    resume: bool = False,
    executor: str = "process",
    on_result: Callable[[dict], None] | None = None,
    scenario_runner: Callable[[ScenarioSpec], dict] = run_scenario,
    artifact_dir: str | Path | None = None,
    backend: str | None = None,
    coordinate: CoordinateOptions | None = None,
) -> SweepReport:
    """Run every scenario in ``matrix``, fanning out over a worker pool.

    With ``resume=True`` and a ``store``, scenarios whose fingerprint is
    already on disk are served from the store (``record["cached"]`` is
    True) and only the missing ones execute; every freshly executed record
    is appended to the store as soon as it finishes, so a killed sweep
    restarts where it left off.  Results are returned in expansion order
    regardless of completion order, and each scenario is self-seeded, so
    metrics are identical for any ``workers``/``executor`` choice.

    ``executor`` is ``"process"`` (default; scenarios are CPU-bound),
    ``"thread"``, or ``"serial"`` (scenarios run on the calling thread,
    also used when only one worker is effective).  Every executor runs
    through one claim loop; a single-host sweep claims from its own list
    of pending scenarios.  ``on_result`` is called in completion order
    from the coordinating process.

    ``artifact_dir`` attaches a shared fitted-artifact store directory
    (:mod:`repro.artifacts`): every worker serves trained embeddings and
    fitted featurizer states from it, so scenarios that fit the same
    component on the same data (the Table-2 shape: many methods × budgets
    × trials over one dirty relation) share one fit instead of retraining.
    Fits are content-seeded, so metrics are bit-identical with or without
    the store, at any worker count.

    ``backend`` installs a process-ambient compute backend
    (:func:`repro.nn.backend.set_default_backend`) for every scenario:
    around the loop for the serial and thread executors, through the pool
    initializer for the process executor.  Each scenario's detector trains
    and scores on it without the name appearing in any scenario
    fingerprint — metrics at float64 are bit-identical across backends, so
    cached records stay valid.

    ``coordinate`` makes this invocation one of N independent workers
    (possibly on other hosts sharing the store's filesystem) that *claim*
    scenarios one at a time through lease files (:mod:`repro.coordination`)
    instead of owning a fixed list, and drain the matrix together.
    Requires a ``store`` (the shared completion ledger) and implies
    ``resume`` — work already in the store is never re-claimed.
    """
    if executor not in _EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose from {_EXECUTORS}")
    artifact_dir = str(artifact_dir) if artifact_dir is not None else None
    if coordinate is not None:
        if store is None:
            raise ValueError(
                "coordinated sweeps need a store: it is the shared completion ledger"
            )
        store.refresh()
        resume = True
    specs = {spec.fingerprint(): spec for spec in matrix.expand()}
    fingerprints = list(specs)
    records: dict[str, dict] = {}

    def report(record: dict, remote: bool = False) -> None:
        records[record["fingerprint"]] = record
        if on_result is not None:
            on_result({**record, "remote": True} if remote else record)

    if resume and store is not None:
        for fp in fingerprints:
            if fp in store:
                report({**store.get(fp), "cached": True})  # type: ignore[dict-item]
    pending = [fp for fp in fingerprints if fp not in records]

    def note_remote() -> None:
        """Report scenarios other workers completed since the last scan."""
        for fp in fingerprints:
            if fp not in records and fp in store:  # type: ignore[operator]
                report({**store.get(fp), "cached": True}, remote=True)  # type: ignore[union-attr]

    source = (
        _LocalWork(pending)
        if coordinate is None
        else _LeasedWork(store, fingerprints, coordinate, note_remote)  # type: ignore[arg-type]
    )
    effective = 1 if executor == "serial" else clamp_workers(workers, len(pending))
    # In-process executors (serial/thread) share the coordinator's ambient
    # store and backend and read that one store's counters directly, which
    # is also exact under thread interleaving.  Process workers get both
    # from the pool initializer and report per-scenario counter deltas.
    in_process = effective == 1 or executor == "thread"
    executed: set[str] = set()
    artifact_totals: dict[str, int] = {}

    def finish(fingerprint: str, result: dict) -> None:
        if not source.owns(fingerprint):
            return
        if not in_process:
            for counter, value in (result["artifact_stats"] or {}).items():
                artifact_totals[counter] = artifact_totals.get(counter, 0) + value
            result = result["record"]
        result["cached"] = False
        if store is not None:
            store.put(result)
        executed.add(fingerprint)
        source.release(fingerprint, event="complete")
        report(result)

    # A plain sweep with nothing pending starts no pool and opens no store,
    # so its artifact stats stay empty.  A coordinated one always enters the
    # loop: its first idle step confirms the drain against the refreshed
    # ledger.
    if pending or coordinate is not None:
        with ExitStack() as stack:
            shared = None
            if in_process:
                task = scenario_runner
                pool: Executor = (
                    ThreadPoolExecutor(effective) if effective > 1 else _InlineExecutor()
                )
                if artifact_dir is not None:
                    shared = stack.enter_context(use_store(ArtifactStore(directory=artifact_dir)))
                if backend is not None:
                    stack.enter_context(use_backend(backend))
            else:
                task = partial(_run_with_artifact_stats, scenario_runner)
                pool = ProcessPoolExecutor(
                    effective, initializer=_init_worker, initargs=(artifact_dir, backend)
                )
            if isinstance(source, _LeasedWork):
                stack.enter_context(source.heartbeat)
            _drive(source, stack.enter_context(pool), effective, task, specs, finish)
            if shared is not None:
                artifact_totals = shared.stats.as_dict()

    coordination = None
    if isinstance(source, _LeasedWork):
        coordination = {
            "dir": str(source.queue.directory),
            "worker": source.queue.worker_id,
            "ttl": source.queue.ttl,
            "executed": len(executed),
            "remote": len(pending) - len(executed),
            "initially_cached": len(fingerprints) - len(pending),
        }
    return SweepReport(
        matrix=matrix,
        records=[records[fp] for fp in fingerprints],
        executed=len(executed),
        cached=len(fingerprints) - len(executed),
        workers=effective,
        artifacts=(
            None
            if artifact_dir is None
            else {"dir": artifact_dir, "stats": artifact_totals}
        ),
        coordination=coordination,
    )
