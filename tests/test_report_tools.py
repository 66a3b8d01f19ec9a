"""Tests for report rendering and the committed EXPERIMENTS.md record."""

import os
import re

from repro.experiments import report
from repro.experiments.report import ExperimentReport, render_markdown
from repro.experiments.runner import ShapeCheck, summarize_checks


class TestReportRendering:
    def test_render_single_report(self):
        report = ExperimentReport(
            "Fig X", "A title", "col1 col2\n1 2",
            [ShapeCheck("claim holds", True, "x=1"),
             ShapeCheck("claim fails", False)],
        )
        text = report.render()
        assert "## Fig X — A title" in text
        assert "[PASS] claim holds (x=1)" in text
        assert "[FAIL] claim fails" in text
        assert "1/2 shape criteria hold" in text

    def test_render_markdown_totals(self):
        reports = [
            ExperimentReport("A", "t", "x", [ShapeCheck("ok", True)]),
            ExperimentReport("B", "t", "y", [ShapeCheck("no", False),
                                             ShapeCheck("yes", True)]),
        ]
        text = render_markdown(reports, "micro")
        assert "2/3 shape checks hold" in text
        assert "`micro`" in text

    def test_summarize(self):
        checks = [ShapeCheck("a", True), ShapeCheck("b", False)]
        assert summarize_checks(checks) == "1/2 shape criteria hold"


class TestCommittedExperiments:
    """EXPERIMENTS.md is ``report small --write`` output, not a hand edit."""

    PATH = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "EXPERIMENTS.md",
    )

    def text(self):
        with open(self.PATH) as handle:
            return handle.read()

    def test_header_is_the_small_report_header(self):
        header = render_markdown([], "small").split("**Overall:")[0]
        assert self.text().startswith(header)

    def test_one_heading_per_section_in_order(self):
        headings = re.findall(r"^## (.+)$", self.text(), re.MULTILINE)
        assert headings == [
            f"{s.experiment_id} — {s.title}" for s in report.SECTIONS
        ]

    def test_overall_line_counts_the_checks(self):
        text = self.text()
        passed, total = map(int, re.search(
            r"^\*\*Overall: (\d+)/(\d+) shape checks hold\.\*\*$",
            text, re.MULTILINE,
        ).groups())
        assert passed == len(re.findall(r"^- \[PASS\] ", text, re.MULTILINE))
        assert total == len(re.findall(r"^- \[(?:PASS|FAIL)\] ", text,
                                       re.MULTILINE))
