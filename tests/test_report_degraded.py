"""End-to-end degradation: a report survives injected cell failures."""

from repro.engine.faults import FaultKind, FaultPlan
from repro.experiments import fig2, fig11, report
from repro.experiments.runner import ExperimentRunner, failed_rows


def degraded_runner(kind=FaultKind.LIVELOCK, benchmarks=("bfs", "nw")):
    plan = FaultPlan().add("bfs", "*", kind)
    return ExperimentRunner(
        scale="micro", benchmarks=benchmarks, fault_plan=plan, strict=False
    )


class TestFigureDegradation:
    def test_fig2_marks_failed_cell(self):
        runner = degraded_runner()
        result = fig2.run(runner)
        table = result.format_table()
        assert "FAILED(livelock)" in table
        assert "nw" in table  # the healthy benchmark still reports
        assert result.failures == {"bfs": "livelock"}

    def test_fig11_geomean_skips_failed_cell(self):
        runner = degraded_runner()
        result = fig11.run(runner)
        assert "bfs" in result.failures
        # normalized times only exist for surviving benchmarks ...
        assert "bfs" not in result.sharing
        assert "nw" in result.sharing
        # ... and the table still renders with the failure marked
        assert "FAILED(livelock)" in result.format_table()

    def test_failed_rows_formatting(self):
        rows = failed_rows({"bfs": "timeout", "nw": "worker_crash"})
        assert rows == [
            "bfs        FAILED(timeout)",
            "nw         FAILED(worker_crash)",
        ]


class TestFullReportDegradation:
    def test_report_completes_with_injected_livelock(self):
        plan = FaultPlan().add("bfs", "*", FaultKind.LIVELOCK)
        reports, runner = report.run_all(
            scale="micro",
            benchmarks=("bfs", "nw"),
            fault_plan=plan,
            strict=False,
        )
        # every experiment produced a section despite the dead benchmark
        assert len(reports) == 19
        assert all(r.table for r in reports)
        rendered = report.render_markdown(reports, "micro", runner)
        assert "FAILED(livelock)" in rendered
        assert "Degraded run" in rendered
        assert runner.failures  # per-cell records survive for inspection

    def test_clean_report_has_no_degradation_banner(self):
        reports, runner = report.run_all(scale="micro", benchmarks=("nw",))
        rendered = report.render_markdown(reports, "micro", runner)
        assert "Degraded run" not in rendered
        assert report.degradation_summary(reports, runner) == []


class TestWriteRefusesPartialRecord:
    """``--write`` never commits a restricted, reseeded or degraded run."""

    def test_restricted_sweep_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert report.main(["micro", "--benchmarks", "nw", "--write"]) == 2
        assert "--benchmarks" in capsys.readouterr().err
        assert not (tmp_path / "EXPERIMENTS.md").exists()

    def test_reseeded_sweep_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert report.main(["micro", "--seed", "1", "--write"]) == 2
        assert "--seed 1" in capsys.readouterr().err
        assert not (tmp_path / "EXPERIMENTS.md").exists()

    def test_degraded_run_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_FAULT", "bfs:*:livelock")
        # Table III and Fig 2 keep the full sweep cheap
        monkeypatch.setattr(report, "SECTIONS", report.SECTIONS[1:3])
        assert report.main(["micro", "--write"]) == 2
        captured = capsys.readouterr()
        assert "FAILED(livelock)" in captured.out
        assert "degraded" in captured.err
        assert not (tmp_path / "EXPERIMENTS.md").exists()
