"""Experiment runner: simulate (benchmark × config) cells with caching,
supervision, checkpoint/resume, and graceful degradation.

All figure modules funnel their simulations through one
:class:`ExperimentRunner`, which memoizes :class:`~repro.arch.gpu.RunResult`
by what is simulated — (benchmark, config hash, *flags) — so Fig 2, 10
and 11 share baseline runs and ``baseline`` ≡ ``geo_64x4`` is one
simulation.  A cell's label (benchmark, tag, *flags) names it in
checkpoints, failure reports, trace parts and fault plans, and is bound
to one config hash.

On top of the in-memory memo the runner layers the resilience features
of :mod:`repro.engine.supervision`:

* ``supervised=True`` (automatic whenever a ``timeout`` or
  ``fault_plan`` is set) runs each cell in an isolated subprocess
  worker with a wall-clock watchdog and retries transient failures with
  exponential backoff;
* ``checkpoint_path`` appends every simulated cell, with its config
  hash, to a versioned on-disk store; ``resume=True`` preloads it, so a
  killed sweep picks up where it left off without re-simulating
  finished cells;
* ``strict=False`` converts terminal cell failures into placeholder
  :meth:`RunResult.make_failed` results — the figure modules render
  those cells as ``FAILED(<reason>)`` instead of aborting the report.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..arch.config import GPUConfig
from ..arch.gpu import RunResult
from ..arch.kernel import Kernel
from ..engine.checkpoint import CellKey, CheckpointStore
from ..engine.errors import (
    CheckpointError,
    ConfigError,
    SimulationError,
    classify,
)
from ..engine.faults import FaultPlan
from ..engine.supervision import (
    CellFailure,
    CellSpec,
    RetryPolicy,
    Supervisor,
    content_key,
    simulate_cell,
)
from ..sanitizer import normalize_mode
from ..telemetry import (
    RunManifest,
    TelemetrySettings,
    merge_traces,
)
from ..workloads import BENCHMARKS, cached_benchmark
from .configs import get_config


@dataclass
class ExperimentRunner:
    """Caching, supervising simulation front-end for the figure modules."""

    scale: str = "small"
    seed: int = 0
    benchmarks: Tuple[str, ...] = BENCHMARKS
    #: wall-clock budget per cell attempt (seconds); implies supervision
    timeout: Optional[float] = None
    #: retry/backoff schedule for transient failures (supervised mode)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: versioned on-disk cell cache; every completed cell is appended
    checkpoint_path: Optional[str] = None
    #: preload the checkpoint instead of starting fresh
    resume: bool = False
    #: deterministic fault injection (tests / CI smoke); implies supervision
    fault_plan: Optional[FaultPlan] = None
    #: run cells in isolated subprocess workers; ``None`` = auto
    supervised: Optional[bool] = None
    #: raise on cell failure (True) or degrade to FAILED placeholders
    strict: bool = True
    #: merged Chrome trace destination; each simulated cell writes a
    #: per-cell part next to it, merged (one pid per cell) by close()
    trace_path: Optional[str] = None
    #: default time-series sampling interval for every cell (cycles);
    #: per-call ``sample_every`` overrides it
    sample_every: Optional[int] = None
    #: runtime invariant checking mode ("strict"/"cheap"/"off"/None);
    #: ``None`` lets workers fall back to REPRO_SANITIZE, "off" forces it
    #: off even when the environment asks for it
    sanitize: Optional[str] = None
    #: supervised worker processes used by :meth:`prefetch`; 1 keeps
    #: every cell sequential and in-process (the default behaviour)
    parallel: int = 1
    _results: Dict[CellKey, RunResult] = field(default_factory=dict)
    _failed: Dict[CellKey, RunResult] = field(default_factory=dict)
    #: terminal failures keyed like results (inspect after a degraded run)
    failures: Dict[CellKey, CellFailure] = field(default_factory=dict)
    #: cells actually simulated (excludes memo and checkpoint hits)
    cells_simulated: int = 0
    #: cells restored from the on-disk checkpoint
    cells_restored: int = 0
    #: cell requests (:meth:`run_config` calls), memo hits included
    cells_requested: int = 0
    #: most supervised workers one :meth:`prefetch` ran at once
    workers: int = 1
    #: wall seconds spent in :meth:`prefetch`
    plan_wall_s: float = 0.0

    def __post_init__(self) -> None:
        self._started = time.monotonic()
        self._trace_parts: List[Tuple[str, str]] = []
        #: label -> (config hash, bound only by a restored record)
        self._labels: Dict[CellKey, Tuple[str, bool]] = {}
        #: content keys of every cell handed to prefetch
        self._planned: set = set()
        self._kernels_before = cached_benchmark.generated
        if self.sanitize is not None:
            # fail fast on a bad mode string ("off" stays distinct from
            # None: it must override REPRO_SANITIZE inside workers)
            normalize_mode(self.sanitize)
        if self.supervised is None:
            self.supervised = (
                self.timeout is not None or self.fault_plan is not None
            )
        self._supervisor = Supervisor(
            timeout=self.timeout,
            retry=self.retry,
            fault_plan=self.fault_plan,
        )
        self._store: Optional[CheckpointStore] = None
        if self.checkpoint_path is not None:
            self._store = CheckpointStore(
                self.checkpoint_path, scale=self.scale, seed=self.seed
            )
            if self.resume:
                for label, payload in self._store.load().items():
                    digest = self._store.config_hashes[label]
                    self.bind(label, digest, restored=True)
                    self._results[content_key(label, digest)] = (
                        RunResult.from_dict(payload)
                    )
                    self.cells_restored += 1
            elif self._store.exists():
                self._store.discard()

    # ------------------------------------------------------------------ #
    # Workload construction
    # ------------------------------------------------------------------ #
    def kernel(self, benchmark: str) -> Kernel:
        return cached_benchmark(benchmark, self.scale, self.seed)

    @property
    def cells_planned(self) -> int:
        """Distinct cells (by content) handed to :meth:`prefetch`."""
        return len(self._planned)

    @property
    def kernels_generated(self) -> int:
        """Kernels this process generated since the runner was made."""
        return cached_benchmark.generated - self._kernels_before

    # ------------------------------------------------------------------ #
    # Cell execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        benchmark: str,
        config_name: str,
        record_tlb_trace: bool = False,
        occupancy_override: Optional[int] = None,
        sample_every: Optional[int] = None,
    ) -> RunResult:
        """Simulate one named-configuration cell (memoized)."""
        return self.run_config(
            benchmark,
            get_config(config_name),
            config_name,
            record_tlb_trace=record_tlb_trace,
            occupancy_override=occupancy_override,
            sample_every=sample_every,
        )

    def run_config(
        self,
        benchmark: str,
        config: GPUConfig,
        tag: str,
        record_tlb_trace: bool = False,
        occupancy_override: Optional[int] = None,
        sample_every: Optional[int] = None,
    ) -> RunResult:
        """Simulate one cell for an explicit config (memoized by content).

        This is the single funnel every experiment goes through —
        ad-hoc configs (ablations, oversubscription) get the same
        supervision, checkpointing, degradation, and telemetry as named
        ones.  A cell simulated before under any tag is not simulated
        again.
        """
        self.cells_requested += 1
        return self._resolve(
            self.make_spec(
                benchmark,
                config,
                tag,
                record_tlb_trace=record_tlb_trace,
                occupancy_override=occupancy_override,
                sample_every=sample_every,
            )
        )

    def make_spec(
        self,
        benchmark: str,
        config: GPUConfig,
        tag: str,
        record_tlb_trace: bool = False,
        occupancy_override: Optional[int] = None,
        sample_every: Optional[int] = None,
    ) -> CellSpec:
        """Build the :class:`CellSpec` for one cell and bind its label to
        its config hash.

        With tracing on, the spec's trace path is the merged trace's; the
        cell's own part file is named when it executes.
        """
        if sample_every is None:
            sample_every = self.sample_every
        telemetry = None
        if self.trace_path is not None or sample_every is not None:
            telemetry = TelemetrySettings(
                trace_path=self.trace_path, sample_every=sample_every
            )
        spec = CellSpec(
            benchmark=benchmark,
            config=config,
            config_tag=tag,
            scale=self.scale,
            seed=self.seed,
            record_tlb_trace=record_tlb_trace,
            occupancy_override=occupancy_override,
            telemetry=telemetry,
            sanitize=self.sanitize,
        )
        self.bind(spec.key, spec.config_hash)
        return spec

    def bind(
        self, label: CellKey, digest: str, restored: bool = False
    ) -> None:
        """Bind a cell label (benchmark, tag, *flags) to its config hash.

        A label already bound to another hash is refused: with
        :class:`CheckpointError` if a restored checkpoint record bound
        it, :class:`ConfigError` if this run did.
        """
        bound, from_checkpoint = self._labels.setdefault(
            label, (digest, restored)
        )
        if bound == digest:
            if from_checkpoint and not restored:
                self._labels[label] = (digest, False)
            return
        benchmark, tag = label[0], label[1]
        if from_checkpoint:
            raise CheckpointError(
                f"cannot resume {self.checkpoint_path!r}: benchmark "
                f"{benchmark!r} under tag {tag!r} was checkpointed with "
                f"config {bound}; this config hashes to {digest} — rerun "
                f"without --resume (or restore the original configuration)"
            )
        raise ConfigError(
            f"benchmark {benchmark!r} under tag {tag!r} was already run "
            f"with config {bound}; this config hashes to {digest} — "
            f"give it its own tag"
        )

    def cells_for(
        self,
        configs: Dict[str, GPUConfig],
        benchmarks: Optional[Sequence[str]] = None,
        **flags,
    ) -> List[CellSpec]:
        """Specs for every (benchmark, tag -> config) pair, benchmark-major
        (``benchmarks`` defaults to the runner's)."""
        return [
            self.make_spec(b, config, tag, **flags)
            for b in (self.benchmarks if benchmarks is None else benchmarks)
            for tag, config in configs.items()
        ]

    def named_cells(
        self,
        tags: Sequence[str],
        benchmarks: Optional[Sequence[str]] = None,
        **flags,
    ) -> List[CellSpec]:
        """:meth:`cells_for` the named configurations ``tags``."""
        configs = {tag: get_config(tag) for tag in tags}
        return self.cells_for(configs, benchmarks, **flags)

    def results(
        self, specs: Sequence[CellSpec]
    ) -> Dict[Tuple[str, str], RunResult]:
        """Each spec's result by (benchmark, tag), prefetched first and
        then requested through :meth:`run_config`, the request funnel.

        Once a compiled plan has simulated ``specs``, every request here
        is a memo hit.
        """
        self.prefetch(specs)
        return {
            (spec.benchmark, spec.config_tag): self.run_config(
                spec.benchmark,
                spec.config,
                spec.config_tag,
                record_tlb_trace=spec.record_tlb_trace,
                occupancy_override=spec.occupancy_override,
                sample_every=(
                    spec.telemetry.sample_every if spec.telemetry else None
                ),
            )
            for spec in specs
        }

    def _resolve(self, spec: CellSpec) -> RunResult:
        """The memoized outcome of ``spec``, simulating it if needed."""
        cached = self._cached(spec)
        if cached is not None:
            return cached
        spec = self._with_trace_part(spec)
        try:
            result = self._execute(spec)
        except SimulationError as exc:
            return self._integrate(spec, exc)
        return self._integrate(spec, result)

    def _with_trace_part(self, spec: CellSpec) -> CellSpec:
        """``spec`` writing its trace to the next per-cell part file
        (traced cells run one at a time, so the numbering is exact)."""
        if spec.telemetry is None or spec.telemetry.trace_path is None:
            return spec
        part = f"{self.trace_path}.cell{len(self._trace_parts)}.part"
        return dataclasses.replace(
            spec,
            telemetry=dataclasses.replace(spec.telemetry, trace_path=part),
        )

    def _cached(self, spec: CellSpec) -> Optional[RunResult]:
        """The memoized outcome for ``spec``: its label's failure
        placeholder, else the result of any cell with its content."""
        failed = self._failed.get(spec.key)
        return failed or self._results.get(spec.content_key)

    def _integrate(
        self, spec: CellSpec, outcome: RunResult | SimulationError
    ) -> RunResult:
        """Record a simulated cell's :class:`RunResult` (or the
        :class:`SimulationError` it raised) in the memo and checkpoint."""
        if isinstance(outcome, SimulationError):
            failure = CellFailure(
                error_class=classify(outcome),
                message=str(outcome),
                attempts=getattr(outcome, "attempts", 1),
                elapsed=getattr(outcome, "elapsed", 0.0),
            )
            self.failures[spec.key] = failure
            if self.strict:
                raise outcome
            placeholder = RunResult.make_failed(
                spec.benchmark, failure.error_class
            )
            self._failed[spec.key] = placeholder
            return placeholder
        self.cells_simulated += 1
        self._results[spec.content_key] = outcome
        if spec.telemetry is not None and spec.telemetry.trace_path:
            name = f"{spec.benchmark}:{spec.config_tag}"
            self._trace_parts.append((name, spec.telemetry.trace_path))
        if self._store is not None:
            self._store.append(spec.key, outcome.to_dict(), spec.config_hash)
        return outcome

    def _execute(self, spec: CellSpec) -> RunResult:
        if self.supervised:
            return RunResult.from_dict(self._supervisor.run_cell(spec))
        return simulate_cell(spec)

    # ------------------------------------------------------------------ #
    # Parallel prefetch
    # ------------------------------------------------------------------ #
    def prefetch(self, specs: Sequence[CellSpec]) -> None:
        """Simulate ``specs`` ahead of their requests, fanned out over
        ``parallel`` supervised subprocess workers.

        Cells already memoized are skipped and content twins simulate
        once.  Results are integrated into the memo (and checkpoint) in
        **submission order**, regardless of worker completion order, so
        a parallel sweep produces byte-identical bookkeeping to a
        sequential one; later requests for ``specs`` are memo hits.
        Runs sequentially when ``parallel <= 1``, when at most one cell
        is missing, or when per-cell tracing is on (trace part numbering
        is inherently sequential).

        The parallel path always runs cells in supervised workers (the
        fan-out needs process isolation to actually run concurrently);
        the ``supervised`` flag only governs the sequential path.
        """
        started = time.monotonic()
        pending: Dict[CellKey, CellSpec] = {}
        for spec in specs:
            self._planned.add(spec.content_key)
            if self._cached(spec) is None:
                pending.setdefault(spec.content_key, spec)
        futures: Dict[CellKey, Future] = {}
        if self.parallel > 1 and len(pending) > 1 and self.trace_path is None:
            futures = self._fan_out(list(pending.values()))
        # integrate in deterministic submission order (a strict sweep
        # keeps the cells before the first failure, like a sequential
        # one); a twin of a failed cell simulates on its own, in turn
        for spec in specs:
            if self._cached(spec) is not None:
                continue
            future = futures.pop(spec.content_key, None)
            if future is None:
                self._resolve(spec)
                continue
            try:
                outcome = RunResult.from_dict(future.result())
            except SimulationError as exc:
                outcome = exc
            self._integrate(spec, outcome)
        self.plan_wall_s += time.monotonic() - started

    def _fan_out(self, jobs: List[CellSpec]) -> Dict[CellKey, Future]:
        """Run ``jobs`` on ``parallel`` supervised workers; returns each
        job's finished future by content key."""
        # Workers are forked from a (briefly) multi-threaded parent;
        # importing the worker-side modules here first means the children
        # find sys.modules populated and never touch the import machinery
        # mid-fork.  Kernels generated here are inherited by every fork.
        _preimport_worker_modules()
        for spec in jobs:
            try:
                cached_benchmark(spec.benchmark, spec.scale, spec.seed)
            except Exception:  # noqa: BLE001
                pass  # the cell's own worker raises and classifies it
        workers = min(self.parallel, len(jobs))
        self.workers = max(self.workers, workers)
        run_cell = self._supervisor.run_cell
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return {
                spec.content_key: pool.submit(run_cell, spec) for spec in jobs
            }

    def run_all(
        self, config_name: str, record_tlb_trace: bool = False
    ) -> Dict[str, RunResult]:
        specs = self.named_cells(
            (config_name,), record_tlb_trace=record_tlb_trace
        )
        return {b: result for (b, _), result in self.results(specs).items()}

    # ------------------------------------------------------------------ #
    # Degradation bookkeeping
    # ------------------------------------------------------------------ #
    def _failed_cells(self) -> Dict[Tuple[str, str], CellFailure]:
        """(benchmark, tag) -> its first failure (dedup trace variants)."""
        cells: Dict[Tuple[str, str], CellFailure] = {}
        for key, failure in self.failures.items():
            cells.setdefault(key[:2], failure)
        return cells

    def failure_for(self, benchmark: str, tag: str) -> Optional[CellFailure]:
        return self._failed_cells().get((benchmark, tag))

    def failure_summary(self) -> List[str]:
        """One human-readable line per failed (benchmark, tag) cell."""
        return [
            f"({b}, {t}) {f.marker} after {f.attempts} attempt(s): "
            f"{f.message.splitlines()[0]}"
            for (b, t), f in sorted(self._failed_cells().items())
        ]

    def finalize_trace(self) -> Optional[str]:
        """Merge per-cell trace parts into ``trace_path`` (idempotent).

        Each cell becomes its own Chrome "process" named
        ``benchmark:config`` in the merged file; the part files are
        removed after a successful merge.  Returns the merged path, or
        ``None`` when tracing was off or produced nothing.
        """
        if self.trace_path is None or not self._trace_parts:
            return None
        merged = merge_traces(self._trace_parts, self.trace_path)
        for _, part in self._trace_parts:
            if os.path.exists(part):
                os.remove(part)
        self._trace_parts = []
        return merged

    def write_manifest(self, artifact_kind: str, artifact_path: str) -> str:
        """Write the reproducibility manifest ``<artifact>.manifest.json``
        next to an artifact this runner produced."""
        # tag -> hash of the first label this run (not a checkpoint) bound
        tag_hashes: Dict[str, str] = {}
        for label, (digest, restored) in self._labels.items():
            if not restored:
                tag_hashes.setdefault(label[1], digest)
        return RunManifest(
            artifact_kind=artifact_kind,
            artifact_path=artifact_path,
            scale=self.scale,
            seed=self.seed,
            benchmarks=list(self.benchmarks),
            config_hashes=dict(sorted(tag_hashes.items())),
            trace_path=self.trace_path,
            sample_every=self.sample_every,
            cells_simulated=self.cells_simulated,
            cells_restored=self.cells_restored,
            cells_requested=self.cells_requested,
            cells_planned=self.cells_planned,
            kernels_generated=self.kernels_generated,
            workers=self.workers,
            wall_time_s=time.monotonic() - self._started,
            plan_wall_s=self.plan_wall_s,
        ).write()

    def close(self) -> None:
        """Flush telemetry artifacts and release the checkpoint store.

        Writes the merged trace plus a manifest sidecar for the trace
        and for the checkpoint store, so every on-disk artifact of this
        runner is reproducible from the files next to it.
        """
        merged = self.finalize_trace()
        if merged is not None:
            self.write_manifest("trace", merged)
        if self._store is not None:
            # compaction squeezes out any torn tail a crashed ancestor
            # left behind, so the surviving store is byte-exact JSONL
            self._store.close(compact=True)
            self.write_manifest("checkpoint", self._store.path)


def _preimport_worker_modules() -> None:
    """Import everything a cell worker needs before forking from threads.

    ``simulate_cell`` imports the architecture stack lazily; with the
    modules already in ``sys.modules`` a forked child never acquires the
    import lock, which a thread in the parent could have held at fork
    time.
    """
    from ..sanitizer.core import Sanitizer  # noqa: F401
    from ..system import build_gpu  # noqa: F401
    from ..telemetry import TimeSeriesSampler, Tracer  # noqa: F401
    from ..workloads import cached_benchmark  # noqa: F401


# ---------------------------------------------------------------------- #
# Shared helpers for the figure modules
# ---------------------------------------------------------------------- #
def collect_failures(
    failures: Dict[str, str], benchmark: str, *results: RunResult
) -> bool:
    """Record any failed cell for ``benchmark``; True when all are ok.

    The figure modules call this at their funnel point so a failed cell
    drops out of the aggregate math and surfaces as a ``FAILED(...)``
    table row instead of poisoning (or aborting) the whole figure.
    """
    ok = True
    for result in results:
        if result.failure is not None:
            failures.setdefault(benchmark, result.failure)
            ok = False
    return ok


def failed_rows(failures: Dict[str, str], width: int = 10) -> List[str]:
    """``FAILED(<reason>)`` table rows for every degraded benchmark."""
    return [
        f"{b:{width}s} FAILED({reason})"
        for b, reason in sorted(failures.items())
    ]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; NaN entries (failed cells) are skipped."""
    vals = [v for v in values if not math.isnan(v)]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Arithmetic mean; NaN entries (failed cells) are skipped."""
    vals = [v for v in values if not math.isnan(v)]
    return sum(vals) / len(vals) if vals else 0.0


@dataclass
class ShapeCheck:
    """One reproduction criterion: the paper's qualitative claim and
    whether our measurement satisfies it."""

    description: str
    passed: bool
    measured: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.measured})" if self.measured else ""
        return f"[{mark}] {self.description}{extra}"


def summarize_checks(checks: List[ShapeCheck]) -> str:
    passed = sum(1 for c in checks if c.passed)
    return f"{passed}/{len(checks)} shape criteria hold"
