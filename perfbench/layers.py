"""Layer boundaries the traced run wraps, and the per-layer metrics.

``Instrumentation.install`` replaces the public entry point of each layer
with a wrapper that opens a span around the call (see ``spans.py``); the
simulator's own code is not modified, and ``uninstall`` restores every
original.  Counts come from where the work happens: ``RunResult.stats``
and ``Simulator.events_run`` of every ``GPU.run``, and the call arguments
of ``make_benchmark`` and ``ExperimentRunner.run_config``.

Supervised cell workers are forked from the benchmark process, so they
inherit the wrappers.  A worker starts with an empty recorder, and after
its cell it writes the recorder to the spool directory; ``collect``
folds those files back into the parent's recorder.

Layer times named ``*_s`` of the simulator layers (engine, arch, core,
translation, memory) are self times: the wrapped call minus the wrapped
calls nested in it.  ``engine.loop_self_s`` is what is left of
``GPU.run``: the event loop plus the SM's private event callbacks, which
have no public boundary to wrap.  Times of the harness layers
(workloads, runner, experiments, supervision, checkpoint) include their
children.
"""

from __future__ import annotations

import glob
import inspect
import json
import os
import re
import sys
from typing import Callable, Dict, List, Optional, Tuple

from spans import Recorder

#: report sections in ``run_all`` order (``ExperimentReport.experiment_id``)
SECTIONS: Tuple[str, ...] = (
    "Table II", "Table III", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6",
    "Fig 10", "Fig 11", "Fig 12", "Large pages", "Ext: oversubscription",
    "Ext: sharing ablation", "Ext: geometry sweep", "Ext: warp scheduling",
    "Ext: warp reuse", "Ext: time-resolved", "Ext: tenancy",
    "Ext: translation zoo",
)


def section_metric(exp_id: str) -> str:
    """``"Ext: translation zoo"`` -> ``experiments.section_s.ext_translation_zoo``."""
    slug = re.sub(r"[^a-z0-9]+", "_", exp_id.lower()).strip("_")
    return f"experiments.section_s.{slug}"


#: every per-layer metric: (name, unit, direction), in reporting order;
#: the direction says which way a change reads as an improvement of the
#: layer (less work or time; more hits or reuse)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.gen_s", "s", "lower"),
    ("workloads.calls", "count", "lower"),
    ("workloads.distinct", "count", "lower"),
    ("workloads.graph_cold_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.txns", "count", "lower"),
    ("engine.events_per_txn", "ratio", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.loop_self_s", "s", "lower"),
    ("engine.ns_per_event", "ns", "lower"),
    ("arch.tbs", "count", "lower"),
    ("arch.dispatch_s", "s", "lower"),
    ("arch.issue_requests", "count", "lower"),
    ("arch.issue_s", "s", "lower"),
    ("core.select_sm_calls", "count", "lower"),
    ("core.select_sm_s", "s", "lower"),
    ("core.partitioned_probes", "count", "lower"),
    ("core.partitioned_probe_s", "s", "lower"),
    ("core.sharing_spill_attempts", "count", "lower"),
    ("core.sharing_spill_ratio", "ratio", "higher"),
    ("translation.l1_probes", "count", "lower"),
    ("translation.l1_hit_rate", "ratio", "higher"),
    ("translation.l1_probe_s", "s", "lower"),
    ("translation.l1_inserts", "count", "lower"),
    ("translation.l1_insert_s", "s", "lower"),
    ("translation.translate_calls", "count", "lower"),
    ("translation.translate_s", "s", "lower"),
    ("translation.l2_probes", "count", "lower"),
    ("translation.l2_hit_rate", "ratio", "higher"),
    ("translation.walks", "count", "lower"),
    ("translation.walks_per_txn", "ratio", "lower"),
    ("translation.walk_s", "s", "lower"),
    ("translation.merged_misses", "count", "lower"),
    ("translation.far_faults", "count", "lower"),
    ("memory.accesses", "count", "lower"),
    ("memory.access_s", "s", "lower"),
    ("memory.l1_hit_rate", "ratio", "higher"),
    ("memory.noc_packets", "count", "lower"),
    ("memory.l2_requests", "count", "lower"),
    ("memory.l2_hit_rate", "ratio", "higher"),
    ("memory.dram_requests", "count", "lower"),
    ("runner.cells_requested", "count", "lower"),
    ("runner.cells_simulated", "count", "lower"),
    ("runner.memo_hits", "count", "higher"),
    ("runner.memo_hit_ratio", "ratio", "higher"),
    ("runner.cells_restored", "count", "higher"),
    ("runner.content_duplicates", "count", "lower"),
    ("runner.cell_s", "s", "lower"),
) + tuple((section_metric(s), "s", "lower") for s in SECTIONS) + (
    ("experiments.render_s", "s", "lower"),
    ("experiments.shape_checks_passed", "count", "higher"),
    ("experiments.shape_checks_total", "count", "higher"),
    ("experiments.ours_cycle_reduction_pct", "%", "higher"),
    ("supervision.cells", "count", "lower"),
    ("supervision.run_cell_s", "s", "lower"),
    ("checkpoint.appends", "count", "lower"),
    ("checkpoint.append_s", "s", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.resume_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}

#: spans stored individually; all others are only aggregated
KEPT = frozenset({
    "cell.simulate", "engine.run", "runner.run_config",
    "supervision.run_cell", "checkpoint.append", "checkpoint.load",
    "experiments.render", "experiments.run_all",
}) | {f"section:{s}" for s in SECTIONS}


def new_recorder() -> Recorder:
    return Recorder(keep=KEPT.__contains__)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Instrumentation:
    """Installs and removes the layer wrappers around one recorder."""

    def __init__(self, recorder: Recorder, spool_dir: str) -> None:
        self.rec = recorder
        self.spool_dir = spool_dir
        self.parent_pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []
        self._requests = set()
        self._contents = set()
        self._active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------ #
    def _after_fork(self) -> None:
        if self._active:
            self.rec.reset_after_fork()

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, base: type, attr: str, name_of, **hooks) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass defining it."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self._set(cls, attr, self.rec.wrap(name_of, cls.__dict__[attr], **hooks))

    def _wrap_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        original = getattr(module, attr)
        wrapper = self.rec.wrap(name, original, **hooks)
        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").startswith("repro")
                and mod.__dict__.get(attr) is original
            ):
                self._set(mod, attr, wrapper)

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        import repro.engine.supervision as supervision
        # load every module that binds make_benchmark by name before the
        # scan in _wrap_function, so that uninstall restores them all
        import repro.experiments.report  # noqa: F401
        import repro.workloads.registry as registry
        from repro.arch.gpu import GPU
        from repro.arch.sm import StreamingMultiprocessor
        from repro.arch.warp_scheduler import GTOIssuePort
        from repro.core.tb_scheduler import TBScheduler
        from repro.engine.checkpoint import CheckpointStore
        from repro.experiments.runner import ExperimentRunner
        from repro.memory.subsystem import SMMemoryPath
        from repro.telemetry import config_hash
        from repro.tenancy import MultiTenantGPU
        from repro.translation.service import SharedTranslationService
        from repro.translation.tlb import SetAssociativeTLB
        from repro.translation.walker import WalkerPool

        rec = self.rec

        gen_signature = inspect.signature(registry.make_benchmark)

        def note_kernel(args, kwargs, result, token):
            # a counter, not a set, so that kernels built in forked
            # workers reach the parent through the spool files
            call = gen_signature.bind(*args, **kwargs)
            call.apply_defaults()
            rec.add("kernel:" + repr(tuple(call.arguments.values())), 1)

        self._wrap_function(registry, "make_benchmark", "workloads.gen", after=note_kernel)

        def events_before(args, kwargs):
            return args[0].sim.events_run

        def note_run(args, kwargs, result, events_before):
            result = getattr(result, "combined", result)  # TenancyResult
            rec.add("engine.events", args[0].sim.events_run - events_before)
            rec.add("engine.txns", result.l1_tlb_accesses)
            for group, counters in result.stats.items():
                group = re.sub(r"^(sm|partition)\d+", r"\1", group)
                for counter, value in counters.items():
                    if isinstance(value, (int, float)):
                        rec.add(f"stats.{group}.{counter}", value)

        self._wrap_method(GPU, "run", "engine.run", before=events_before, after=note_run)
        self._wrap_method(
            MultiTenantGPU, "run_tenants", "engine.run", before=events_before, after=note_run
        )
        self._wrap_method(StreamingMultiprocessor, "dispatch_tb", "arch.dispatch")
        self._wrap_method(GTOIssuePort, "request", "arch.issue")
        self._wrap_method(TBScheduler, "select_sm", "core.select_sm")

        def tlb_span(kind: str) -> Callable:
            def name_of(tlb) -> str:
                if str(getattr(tlb, "name", "")).startswith("l2"):
                    return f"translation.l2_{kind}"
                if kind == "probe" and hasattr(getattr(tlb, "policy", None), "sets_for"):
                    return "core.partitioned_probe"
                return f"translation.l1_{kind}"
            return name_of

        self._wrap_method(SetAssociativeTLB, "probe", tlb_span("probe"))
        self._wrap_method(SetAssociativeTLB, "insert", tlb_span("insert"))
        self._wrap_method(SharedTranslationService, "translate", "translation.translate")
        self._wrap_method(WalkerPool, "walk", "translation.walk")
        self._wrap_method(SMMemoryPath, "access", "memory.access")

        request_signature = inspect.signature(ExperimentRunner.run_config)

        def note_request(args, kwargs, result, token):
            call = request_signature.bind(*args, **kwargs)
            call.apply_defaults()
            _, benchmark, config, tag, *flags = call.arguments.values()
            self._requests.add((benchmark, tag, *flags))
            if result.failure is None:
                self._contents.add((benchmark, config_hash(config), *flags))

        self._wrap_method(ExperimentRunner, "run_config", "runner.run_config", after=note_request)
        self._wrap_method(supervision.Supervisor, "run_cell", "supervision.run_cell")
        self._wrap_method(CheckpointStore, "append", "checkpoint.append")
        self._wrap_method(CheckpointStore, "load", "checkpoint.load")

        def export_child(args, kwargs, result, token):
            if os.getpid() != self.parent_pid:
                rec.dump(os.path.join(self.spool_dir, f"worker-{os.getpid()}.json"))

        self._wrap_function(supervision, "simulate_cell", "cell.simulate", after=export_child)
        self._active = True

    def uninstall(self) -> None:
        self._active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def collect(self) -> None:
        """Merge the recorders the forked workers wrote, then delete them."""
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "worker-*.json"))):
            with open(path) as handle:
                self.rec.merge(json.load(handle))
            os.remove(path)

    # ------------------------------------------------------------------ #
    def metrics(self, extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        """Every ``PER_LAYER`` metric; ``extra`` supplies the values the
        workload measures itself (graph_cold_s, cells_simulated, ...)."""
        rec = self.rec
        totals = rec.totals
        count = lambda name: totals.get(name, (0, 0.0, 0.0))[0]  # noqa: E731
        total_s = lambda name: totals.get(name, (0, 0.0, 0.0))[1]  # noqa: E731
        self_s = lambda name: totals.get(name, (0, 0.0, 0.0))[2]  # noqa: E731
        stat = lambda key: rec.counter(f"stats.{key}")  # noqa: E731
        events, txns = rec.counter("engine.events"), rec.counter("engine.txns")
        l1_probes = stat("sm_l1tlb.hits") + stat("sm_l1tlb.misses")
        l2_probes = stat("l2_tlb.hits") + stat("l2_tlb.misses")
        l1_cache = stat("sm_l1cache.hits") + stat("sm_l1cache.misses")
        l2_requests = stat("partition.hits") + stat("partition.misses")
        attempts = stat("sm_l1tlb.sharing_spill_attempts")
        requests = count("runner.run_config")
        memo_hits = requests - len(self._requests)
        values = {
            "workloads.gen_s": total_s("workloads.gen"),
            "workloads.calls": count("workloads.gen"),
            "workloads.distinct": sum(1 for key in rec.counts if key.startswith("kernel:")),
            "engine.events": events,
            "engine.txns": txns,
            "engine.events_per_txn": _ratio(events, txns),
            "engine.run_s": total_s("engine.run"),
            "engine.loop_self_s": self_s("engine.run"),
            "engine.ns_per_event": _ratio(total_s("engine.run") * 1e9, events),
            "arch.tbs": count("arch.dispatch"),
            "arch.dispatch_s": self_s("arch.dispatch"),
            "arch.issue_requests": count("arch.issue"),
            "arch.issue_s": self_s("arch.issue"),
            "core.select_sm_calls": count("core.select_sm"),
            "core.select_sm_s": self_s("core.select_sm"),
            "core.partitioned_probes": count("core.partitioned_probe"),
            "core.partitioned_probe_s": self_s("core.partitioned_probe"),
            "core.sharing_spill_attempts": attempts,
            "core.sharing_spill_ratio": _ratio(stat("sm_l1tlb.sharing_spills"), attempts),
            "translation.l1_probes": l1_probes,
            "translation.l1_hit_rate": _ratio(stat("sm_l1tlb.hits"), l1_probes),
            "translation.l1_probe_s": (
                self_s("translation.l1_probe") + self_s("core.partitioned_probe")
            ),
            "translation.l1_inserts": count("translation.l1_insert"),
            "translation.l1_insert_s": self_s("translation.l1_insert"),
            "translation.translate_calls": count("translation.translate"),
            "translation.translate_s": self_s("translation.translate"),
            "translation.l2_probes": l2_probes,
            "translation.l2_hit_rate": _ratio(stat("l2_tlb.hits"), l2_probes),
            "translation.walks": stat("walkers.walks"),
            "translation.walks_per_txn": _ratio(stat("walkers.walks"), txns),
            "translation.walk_s": self_s("translation.walk"),
            "translation.merged_misses": (
                stat("l2_translation.merged_misses") + stat("sm.translation_mshr_merged")
            ),
            "translation.far_faults": stat("walkers.far_faults"),
            "memory.accesses": count("memory.access"),
            "memory.access_s": self_s("memory.access"),
            "memory.l1_hit_rate": _ratio(stat("sm_l1cache.hits"), l1_cache),
            "memory.noc_packets": stat("interconnect.packets"),
            "memory.l2_requests": l2_requests,
            "memory.l2_hit_rate": _ratio(stat("partition.hits"), l2_requests),
            "memory.dram_requests": stat("partition.requests"),
            "runner.cells_requested": requests,
            "runner.memo_hits": memo_hits,
            "runner.memo_hit_ratio": _ratio(memo_hits, requests),
            "runner.content_duplicates": len(self._requests) - len(self._contents),
            "runner.cell_s": total_s("runner.run_config"),
            "experiments.render_s": total_s("experiments.render"),
            "supervision.cells": count("supervision.run_cell"),
            "supervision.run_cell_s": total_s("supervision.run_cell"),
            "checkpoint.appends": count("checkpoint.append"),
            "checkpoint.append_s": total_s("checkpoint.append"),
            "checkpoint.load_s": total_s("checkpoint.load"),
        }
        for section in SECTIONS:
            values[section_metric(section)] = total_s(f"section:{section}")
        values.update(extra or {})
        return {name: float(values.get(name, 0.0)) for name in UNITS}


class SectionClock:
    """``run_all`` progress callback that turns each section announcement
    into a span ending at the next announcement (or at :meth:`close`)."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._frame = None

    def __call__(self, message: str) -> None:
        if message not in SECTIONS:
            return
        self.close()
        self._frame = self.rec.begin(f"section:{message}")

    def close(self) -> None:
        if self._frame is not None:
            self.rec.end(self._frame)
            self._frame = None
