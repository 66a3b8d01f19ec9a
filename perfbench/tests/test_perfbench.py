"""Self-tests of the benchmark: the correctness gate, the span
arithmetic, and each workload's preparation at a reduced size.

    python3 -m pytest perfbench/tests -q

(run from the root of the repository; the suite is not part of the
simulator's own ``tests/`` tree).
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402


@pytest.fixture(autouse=True)
def private_graph_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "graphs"))
    for name in ("REPRO_FAULT", "REPRO_SANITIZE", "REPRO_SANITIZE_INJECT"):
        monkeypatch.delenv(name, raising=False)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------- #
# correctness gate
# ---------------------------------------------------------------------- #
def test_gate_passes_goldens_and_fails_one_perturbed_value():
    golden = gate.golden_reference(ROOT, "micro", 0)
    assert golden and "atax:baseline" in golden
    kernels = workloads.make_kernels(("atax",), "micro", 0)
    cells = {
        f"atax:{config}": gate.metrics_of(workloads.simulate_cell(kernels["atax"], config))
        for config in workloads.CONFIGS
    }
    assert set(cells) == {"atax:baseline", "atax:partition_sharing"}
    assert gate.mismatches(cells, golden) == []

    perturbed = copy.deepcopy(golden)
    perturbed["atax:partition_sharing"]["walks"] += 1
    problems = gate.mismatches(cells, perturbed)
    assert len(problems) == 1
    assert problems[0].startswith("atax:partition_sharing: walks=")


def test_gate_counts_each_mismatching_cell_once():
    cell = dict.fromkeys(gate.METRICS, 10)
    cells = {"a:x": dict(cell), "b:x": dict(cell), "c:x": dict(cell)}
    reference = copy.deepcopy(cells)
    reference["a:x"]["cycles"] = 11
    reference["b:x"]["walks"] = 9
    reference["b:x"]["far_faults"] = 1
    del reference["c:x"]  # unpinned cells pass
    problems = gate.mismatches(cells, reference)
    assert [p.split(":")[0] for p in problems] == ["a", "b"]
    # float serialization noise is within tolerance, a real change is not
    reference = {"a:x": dict(cell, cycles=10 * (1 + 1e-12))}
    assert gate.mismatches(cells, reference) == []


def test_recorded_reference_applies_to_every_seed_with_the_same_kernel():
    kernels = workloads.make_kernels(("nw",), workloads.CELL_SCALE, 12345)
    digests = {"nw": gate.kernel_digest(kernels["nw"])}
    reference = gate.recorded_reference(digests, workloads.CONFIGS)
    assert set(reference) == {f"nw:{c}" for c in workloads.CONFIGS}
    micro = workloads.make_kernels(("nw",), "micro", 0)
    assert gate.recorded_reference({"nw": gate.kernel_digest(micro["nw"])}, workloads.CONFIGS) == {}


def test_cell_run_fails_on_a_perturbed_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CELL_SCALE", "micro")
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    kernels = workloads.make_kernels(("gemm", "3dconv"), "micro", 0)
    cells = {}
    for benchmark, kernel in kernels.items():
        digest = gate.kernel_digest(kernel)
        for config in workloads.CONFIGS:
            metrics = gate.metrics_of(workloads.simulate_cell(kernel, config))
            cells[gate.reference_key(benchmark, config, digest)] = metrics
    path = tmp_path / "reference.json"
    monkeypatch.setattr(gate, "REFERENCE_PATH", str(path))

    def run_against(reference_cells):
        path.write_text(json.dumps({"cells": reference_cells}))
        run = workloads.Run(root=ROOT, workdir=str(tmp_path), seed=0, seconds=0)
        return workloads.run_cells(run, "cells-datapath")

    assert run_against(cells)["correct"]
    key = sorted(cells)[0]
    perturbed = copy.deepcopy(cells)
    perturbed[key]["cycles"] += 1
    result = run_against(perturbed)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 4


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def at(t: float) -> None:
        clock.now = t

    # root 0..10 ; a 1..4 (a1 2..3) ; b 5..9 (leaf c 6..7, leaf c 7.5..8)
    at(0); root = rec.begin("root")
    at(1); a = rec.begin("a")
    at(2); a1 = rec.begin("a1")
    at(3); rec.end(a1)
    at(4); rec.end(a)
    at(5); b = rec.begin("b")
    at(6); c = rec.begin("c")
    at(7); rec.end(c)
    at(7.5); c = rec.begin("c")
    at(8); rec.end(c)
    at(9); rec.end(b)
    at(10); rec.end(root)

    totals = rec.totals
    assert totals["root"] == [1, 10.0, 10.0 - 3.0 - 4.0]
    assert totals["a"] == [1, 3.0, 2.0]
    assert totals["a1"] == [1, 1.0, 1.0]
    assert totals["b"] == [1, 4.0, 2.5]
    assert totals["c"] == [2, 1.5, 1.5]
    # self times partition the root's interval
    assert sum(v[2] for v in totals.values()) == pytest.approx(10.0)
    parents = {span[0]: span[4] for span in rec.spans}
    names = {span[0]: span[1] for span in rec.spans}
    assert {names[i]: names.get(p) for i, p in parents.items() if names[i] != "c"} == {
        "root": None, "a": "root", "a1": "a", "b": "root",
    }


def test_wrapped_calls_nest_and_super_calls_count_once():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    class Base:
        def step(self, cost):
            clock.now += cost
            return cost

    class Child(Base):
        def step(self, cost):
            clock.now += 1.0
            return super().step(cost)

    Base.step = rec.wrap("step", Base.__dict__["step"])
    Child.step = rec.wrap("step", Child.__dict__["step"])
    outer = rec.wrap("outer", lambda obj: obj.step(2.0) + obj.step(3.0))

    assert outer(Child()) == 5.0
    totals = rec.totals
    assert totals["step"] == [2, 7.0, 7.0]
    assert totals["outer"] == [1, 7.0, 0.0]


def test_worker_state_merges_into_the_parent():
    clock = FakeClock()
    parent, worker = Recorder(clock=clock), Recorder(clock=clock)
    for rec in (parent, worker):
        frame = rec.begin("engine.run")
        clock.now += 2.0
        rec.end(frame)
        rec.add("engine.events", 5)
    parent.merge(worker.state())
    assert parent.totals["engine.run"] == [2, 4.0, 4.0]
    assert parent.counter("engine.events") == 10


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_section_metric_names_are_valid():
    names = list(layers.UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert len(name) <= 64 and name[0].isalnum()
        assert set(name) <= set("abcdefghijklmnopqrstuvwxyz0123456789_.-")
    assert layers.section_metric("Ext: translation zoo") == (
        "experiments.section_s.ext_translation_zoo"
    )


# ---------------------------------------------------------------------- #
# workload preparation at a reduced size
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", sorted(workloads.CELL_WORKLOADS))
def test_cell_workload_runs_at_micro_scale(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CELL_SCALE", "micro")
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    run = workloads.Run(root=ROOT, workdir=str(tmp_path), seed=0, seconds=0)
    result = workloads.run_cells(run, workload)
    cells = len(workloads.CELL_WORKLOADS[workload]) * len(workloads.CONFIGS)
    assert result["correct"] and result["failed"] == 0, run.problems
    assert result["attempted"] == cells
    assert [m for m, _ in workloads.END_TO_END] == list(result["metrics"])
    assert all(m["value"] > 0 for n, m in result["metrics"].items() if n.endswith("_s"))


def test_traced_cell_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CELL_SCALE", "micro")
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "save_trace", lambda *args: None)
    run = workloads.Run(root=ROOT, workdir=str(tmp_path), seed=0, seconds=0, trace=True)
    result = workloads.run_cells(run, "cells-datapath")
    assert result["correct"], run.problems
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(layers.UNITS)
    assert metrics["engine.txns"] == metrics["translation.l1_probes"]
    assert metrics["memory.accesses"] == metrics["engine.txns"]
    assert metrics["workloads.distinct"] == 2
    assert metrics["core.partitioned_probes"] > 0
    assert 0 < metrics["translation.l1_hit_rate"] < 1


def test_report_preparation_warms_the_graph_cache(tmp_path):
    cold = workloads.warm_graph_cache(ROOT, "micro", 0)
    assert cold > 0
    assert [p for p in os.listdir(os.environ["REPRO_CACHE_DIR"]) if p.endswith(".npz")]
    run = workloads.Run(root=ROOT, workdir=str(tmp_path), seed=0, seconds=0)
    assert workloads.import_seconds(run, repeats=1) > 0


def test_forked_workers_report_through_the_spool(tmp_path):
    from repro.arch.gpu import GPU
    from repro.experiments.runner import ExperimentRunner

    original_run = GPU.__dict__["run"]
    rec = layers.new_recorder()
    instr = layers.Instrumentation(rec, str(tmp_path))
    instr.install()
    try:
        runner = ExperimentRunner(scale="micro", benchmarks=("nw", "atax"), parallel=2)
        results = runner.run_all("baseline")
        instr.collect()
    finally:
        instr.uninstall()
    assert GPU.__dict__["run"] is original_run
    assert rec.count("supervision.run_cell") == 2
    assert rec.count("engine.run") == 2
    assert rec.counter("engine.txns") == sum(r.l1_tlb_accesses for r in results.values())
    assert not os.listdir(tmp_path)
