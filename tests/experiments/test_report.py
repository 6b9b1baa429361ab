"""Tests for repro.experiments.report (markdown generation)."""

from repro.experiments.report import build_markdown_report, result_to_markdown
from repro.experiments.results import ExperimentResult
from repro.metrics.report import ComparisonRow


def make_result(ok=True):
    return ExperimentResult(
        experiment_id="fig1",
        title="Sliding Window",
        rows=[
            ComparisonRow("average coverage", 0.80, 0.802, band=(0.72, 0.88)),
            ComparisonRow(
                "average success", 0.79, 0.5 if not ok else 0.79, band=(0.7, 0.88)
            ),
            ComparisonRow("informational", "n/a", 1.23),
        ],
        series={"coverage": [0.8, 0.81], "success": [0.79, 0.78]},
    )


class TestResultToMarkdown:
    def test_contains_table_and_sparklines(self):
        text = result_to_markdown(make_result())
        assert "## `fig1`" in text
        assert "| average coverage | 0.800 | 0.802 |" in text
        assert "`coverage` over blocks:" in text
        assert "OK" in text

    def test_miss_flagged(self):
        text = result_to_markdown(make_result(ok=False))
        assert "**MISS**" in text

    def test_unbanded_row(self):
        text = result_to_markdown(make_result())
        assert "| informational | n/a | 1.230 | — | — |" in text


class TestBuildReport:
    def test_summary_counts(self):
        report = build_markdown_report([make_result(), make_result(ok=False)])
        assert "2 experiments; 1 fully within" in report
        assert report.count("## `fig1`") == 2


class TestCliMarkdown:
    def test_cli_writes_report(self, tmp_path, monkeypatch):
        """`python -m repro all --markdown` writes the report file.

        The registry is shrunk to one cheap experiment at a tiny scale so
        the test stays fast; the report path itself is what is under test.
        """
        import repro.experiments.registry as registry
        from repro.cli import main
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale("t", 6, 8, 30_000, 80, 30, 60)
        monkeypatch.setattr("repro.experiments.config.DEFAULT_SCALE", tiny)
        fig1 = registry.EXPERIMENTS["fig1"]
        monkeypatch.setattr(registry, "EXPERIMENTS", {"fig1": fig1})

        out = tmp_path / "report.md"
        code = main(["all", "--markdown", str(out)])
        assert code in (0, 1)
        assert out.exists()
        assert "## `fig1`" in out.read_text()
