"""Level sweeps, scaling tables and crossover detection."""

import pytest

from repro.harness import BenchmarkRunner, RunnerConfig
from repro.harness.report import (
    find_crossovers,
    per_node_series,
    scaling_table,
)


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    config = RunnerConfig(
        backends=["memory"],
        levels=[2, 3],
        op_ids=["01", "03", "10"],
        repetitions=3,
        workdir=str(tmp_path_factory.mktemp("sweep")),
    )
    with BenchmarkRunner(config) as runner:
        results, _creation = runner.run()
    return results


class TestLevelSweep:
    def test_covers_all_levels_and_ops(self, sweep_results):
        assert sweep_results.levels == [2, 3]
        assert set(sweep_results.op_ids) == {"01", "03", "10"}
        assert len(sweep_results) == 6

    def test_series_extraction(self, sweep_results):
        series = per_node_series(sweep_results, "memory", "01")
        assert [level for level, _ms in series] == [2, 3]
        assert all(ms >= 0 for _level, ms in series)

    def test_scaling_table_renders(self, sweep_results):
        table = scaling_table(sweep_results, "memory")
        assert "01 nameLookup" in table
        assert "L 2" in table and "L 3" in table
        assert "x" in table
        with pytest.raises(ValueError):
            scaling_table(sweep_results, "memory", "tepid")


class TestCrossovers:
    def _fake_results(self):
        """Hand-built results where backend b overtakes a at level 3."""
        from repro.harness.protocol import ColdWarmResult
        from repro.harness.results import ResultSet
        from repro.harness.timing import Stats

        def cell(backend, level, cold_mean):
            stats = Stats.from_samples([cold_mean])
            return ColdWarmResult(
                op_id="01", op_name="nameLookup", category="Name Lookup",
                backend=backend, level=level, repetitions=1,
                cold=stats, warm=stats, commit_seconds=0.0,
                cold_total_seconds=cold_mean, warm_total_seconds=cold_mean,
                nodes_per_repetition=1.0,
            )

        return ResultSet(
            [
                cell("a", 2, 1.0), cell("a", 3, 5.0),
                cell("b", 2, 2.0), cell("b", 3, 3.0),
            ]
        )

    def test_crossover_found(self):
        flips = find_crossovers(self._fake_results(), "a", "b")
        assert flips == {"01": 3}

    def test_no_crossover_when_one_side_dominates(self):
        from repro.harness.results import ResultSet

        results = self._fake_results()
        dominated = ResultSet(
            [r for r in results if not (r.backend == "a" and r.level == 3)]
        )
        # Only one shared level remains: no verdict possible.
        assert find_crossovers(dominated, "a", "b") == {}
