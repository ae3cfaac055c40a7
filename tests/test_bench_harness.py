"""Tests for the benchmark harness utilities."""

import math

import pytest

from repro.bench.harness import (
    ResultTable,
    fit_growth_exponent,
    relative_error,
    timed,
)


class TestResultTable:
    def test_render_contains_caption_and_cells(self):
        table = ResultTable("demo", ["x", "value"])
        table.add_row([1, 2.5])
        table.add_row([10, 0.00001])
        text = table.render()
        assert "== demo ==" in text
        assert "2.5" in text
        assert "e-05" in text

    def test_alignment(self):
        table = ResultTable("t", ["long_column_name", "y"])
        table.add_row(["a", "b"])
        lines = table.render().splitlines()
        assert len(lines) == 4

    def test_float_formatting(self):
        table = ResultTable("t", ["v"])
        table.add_row([0.0])
        table.add_row([1234567.0])
        text = table.render()
        assert "0" in text
        assert "e+06" in text


class TestTimed:
    def test_returns_result_and_positive_time(self):
        result, seconds = timed(lambda: sum(range(1000)))
        assert result == 499500
        assert seconds >= 0


class TestFitGrowthExponent:
    def test_linear(self):
        xs = [1, 2, 4, 8, 16]
        ys = [3 * x for x in xs]
        assert fit_growth_exponent(xs, ys) == pytest.approx(1.0)

    def test_quadratic(self):
        xs = [1, 2, 4, 8]
        ys = [5 * x * x for x in xs]
        assert fit_growth_exponent(xs, ys) == pytest.approx(2.0)

    def test_exponential_detected_as_superpolynomial(self):
        xs = [1, 2, 4, 8, 16, 32]
        ys = [2.0**x for x in xs]
        # Over a doubling range an exponential fits a slope well above
        # any small polynomial degree.
        assert fit_growth_exponent(xs, ys) > 4

    def test_drops_nonpositive(self):
        assert fit_growth_exponent([1, 2, 4], [0, 2, 4]) == pytest.approx(
            1.0
        )

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([1], [1])

    def test_identical_x(self):
        with pytest.raises(ValueError):
            fit_growth_exponent([2, 2], [1, 3])


class TestRelativeError:
    def test_basic(self):
        assert relative_error(110, 100) == pytest.approx(0.1)

    def test_zero_truth(self):
        assert relative_error(0, 0) == 0.0
        assert math.isinf(relative_error(1, 0))


class TestCompareSequentialVsBatch:
    def test_every_task_matches_the_batch(self, rs_query):
        """The sequential loop sends each item to its task's engine
        entry point, so probability, reliability and RPQ items all
        agree bitwise with ``evaluate_batch``."""
        from repro.bench.harness import compare_sequential_vs_batch
        from repro.core.estimator import PQEEngine
        from repro.core.parallel import BatchItem
        from repro.db.fact import Fact
        from repro.db.probabilistic import ProbabilisticDatabase
        from repro.graphs import Edge, ProbabilisticGraph, RPQQuery

        pdb = ProbabilisticDatabase(
            {Fact("R", ("a", "b")): "1/2", Fact("S", ("b", "c")): "2/3"}
        )
        graph = ProbabilisticGraph({Edge("s", "a", "t"): "1/2"})
        items = [
            BatchItem(rs_query, pdb),
            BatchItem(rs_query, pdb, task="reliability"),
            BatchItem(RPQQuery("a", "s", "t"), graph, task="rpq"),
        ]
        comparison = compare_sequential_vs_batch(
            PQEEngine(seed=3), items, max_workers=2, seed=3
        )
        assert comparison.values_match
        assert comparison.sequential_values[2] == 0.5
