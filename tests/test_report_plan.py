"""The report as one compiled cell plan: every section's cells are
simulated up front (sequentially or over supervised workers), then the
sections render from memo hits."""

import hashlib
import json

import pytest

from repro.engine.faults import FaultKind, FaultPlan
from repro.experiments import report
from repro.experiments.runner import ExperimentRunner
from repro.workloads import cached_benchmark, registry

BENCHMARKS = ("bfs", "gemm")


class PlanProbe(ExperimentRunner):
    """Records how many cells had been simulated when the plan (the
    first prefetch) finished."""

    plan_simulated = None

    def prefetch(self, specs):
        super().prefetch(specs)
        if self.plan_simulated is None:
            self.plan_simulated = self.cells_simulated


def report_run(checkpoint, parallel, resume=False, fault_plan=None):
    runner = PlanProbe(
        scale="micro",
        benchmarks=BENCHMARKS,
        checkpoint_path=str(checkpoint),
        resume=resume,
        parallel=parallel,
        fault_plan=fault_plan,
        strict=False,
    )
    reports, runner = report.run_all(runner=runner)
    markdown = report.render_markdown(reports, "micro", runner)
    return markdown, runner


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plan")
    out = {}
    for parallel in (1, 2):
        path = tmp / f"p{parallel}.jsonl"
        out[parallel] = report_run(path, parallel) + (path.read_bytes(),)
        out[parallel, "resumed"] = report_run(
            path, parallel, resume=True
        ) + (path.read_bytes(),)
    return out


def test_markdown_and_checkpoint_identical_across_parallel_and_resume(runs):
    markdown, _, records = runs[1]
    assert "FAILED" not in markdown
    for key in (2, (1, "resumed"), (2, "resumed")):
        other_markdown, _, other_records = runs[key]
        assert other_markdown == markdown, key
        assert other_records == records, key


def test_parallel_plan_fans_out_over_workers(runs):
    assert runs[1][1].workers == 1
    assert runs[2][1].workers == 2


def test_resume_simulates_no_runner_cell(runs):
    for parallel in (1, 2):
        simulated = runs[parallel][1].cells_simulated
        resumed = runs[parallel, "resumed"][1]
        assert resumed.cells_simulated == 0
        assert resumed.cells_restored == simulated > 0


def test_sections_render_from_the_plan_alone(runs):
    """A section that requests a cell its ``cells()`` did not list would
    simulate it while rendering."""
    for parallel in (1, 2):
        runner = runs[parallel][1]
        assert runner.plan_simulated == runner.cells_simulated
        assert runner.cells_planned == runner.cells_simulated
        assert runner.cells_requested > runner.cells_planned


def test_manifest_records_the_plan(runs, tmp_path):
    runner = runs[2][1]
    path = runner.write_manifest("report", str(tmp_path / "EXPERIMENTS.md"))
    manifest = json.load(open(path))
    assert manifest["cells_planned"] == runner.cells_planned
    assert manifest["cells_requested"] == runner.cells_requested
    assert manifest["workers"] == 2
    assert manifest["plan_wall_s"] > 0
    assert manifest["kernels_generated"] == runner.kernels_generated >= 0


def test_parallel_degrades_the_same_cells(tmp_path):
    plan = FaultPlan().add("bfs", "*", FaultKind.LIVELOCK)
    out = {}
    for parallel in (1, 2):
        out[parallel] = report_run(
            tmp_path / f"f{parallel}.jsonl", parallel, fault_plan=plan
        )
    (seq_markdown, seq), (par_markdown, par) = out[1], out[2]
    assert seq.failures.keys() == par.failures.keys()
    assert {f.error_class for f in par.failures.values()} == {"livelock"}
    assert {key[0] for key in par.failures} == {"bfs"}
    assert "FAILED(livelock)" in par_markdown
    assert par_markdown == seq_markdown


class TestKernelMemo:
    def test_one_kernel_per_benchmark_scale_seed(self):
        kernel = cached_benchmark("nw", "micro", 0)
        assert cached_benchmark("nw", "micro", 0) is kernel
        assert cached_benchmark("nw", "micro", 1) is not kernel

    def test_generates_through_the_module_global(self, monkeypatch):
        calls = []
        original = registry.make_benchmark

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(registry, "make_benchmark", counting)
        registry.cached_benchmark.forget("mvt")
        before = registry.cached_benchmark.generated
        for _ in range(3):
            cached_benchmark("mvt", "micro", 0)
        assert calls == [("mvt",)]
        assert registry.cached_benchmark.generated == before + 1

    def test_bounded(self):
        memo = registry.KernelMemo(size=2)
        for seed in range(3):
            memo("nw", "micro", seed)
        assert len(memo._kernels) == 2
        assert ("nw", "micro", 0) not in memo._kernels

    def test_reregistered_benchmark_is_regenerated(self):
        from repro.workloads import register_benchmark, unregister_benchmark

        def digest(kernel):
            return hashlib.sha256(repr(list(kernel.addresses())).encode()).digest()

        register_benchmark("memo_probe", registry._FACTORIES["nw"])
        try:
            first = cached_benchmark("memo_probe", "micro", 0)
            unregister_benchmark("memo_probe")
            register_benchmark("memo_probe", registry._FACTORIES["gemm"])
            second = cached_benchmark("memo_probe", "micro", 0)
            assert digest(second) != digest(first)
        finally:
            unregister_benchmark("memo_probe")
