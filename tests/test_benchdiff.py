"""``repro bench-diff``: the cell-by-cell table over two grid documents.

Covers the ``cells`` document shape, the percentile-aware thresholds,
the absolute noise floor, and the exit-code contract.
"""

import copy
import json

import pytest

from repro.harness.benchdiff import (
    ABSOLUTE_FLOOR_MS,
    DEFAULT_THRESHOLDS,
    diff_documents,
    diff_files,
    extract_cells,
    format_diff,
    regressions,
)


def closure_doc(p50=1.0, p90=2.0, p99=3.0):
    return {
        "benchmark": "closure-batch-traversal",
        "cells": {
            "memory": {
                "10": {
                    "p50_ms": p50,
                    "p90_ms": p90,
                    "p99_ms": p99,
                    "median_ms": p50,
                    "mode": "native",
                }
            }
        },
    }


class TestExtractCells:
    def test_closure_documents_yield_closure_mode_cells(self):
        cells = extract_cells(closure_doc())
        assert ("memory", "10", "native") in cells
        assert cells[("memory", "10", "native")]["p90"] == 2.0

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            extract_cells({"something": "else"})


class TestThresholds:
    def test_identical_documents_have_no_regressions(self):
        rows = diff_documents(closure_doc(), closure_doc())
        assert rows and not regressions(rows)

    def test_p90_regression_past_threshold_is_flagged(self):
        rows = diff_documents(closure_doc(), closure_doc(p90=2.0 * 1.5))
        bad = regressions(rows)
        assert [r.quantile for r in bad] == ["p90"]
        assert bad[0].threshold == DEFAULT_THRESHOLDS["p90"]

    def test_p90_drift_inside_threshold_passes(self):
        rows = diff_documents(closure_doc(), closure_doc(p90=2.0 * 1.3))
        assert not regressions(rows)

    def test_p99_gets_the_loosest_threshold(self):
        # +40% trips p90 but not p99.
        rows = diff_documents(closure_doc(), closure_doc(p99=3.0 * 1.4))
        assert not regressions(rows)
        rows = diff_documents(closure_doc(), closure_doc(p99=3.0 * 1.6))
        assert [r.quantile for r in regressions(rows)] == ["p99"]

    def test_improvements_never_regress(self):
        rows = diff_documents(
            closure_doc(), closure_doc(p50=0.1, p90=0.2, p99=0.3)
        )
        assert not regressions(rows)

    def test_sub_floor_cells_never_regress(self):
        # 0.010 ms -> 0.040 ms is +300% but both sit under the noise
        # floor: timer jitter, not a regression.
        tiny = ABSOLUTE_FLOOR_MS / 5
        rows = diff_documents(
            closure_doc(p50=tiny, p90=tiny, p99=tiny),
            closure_doc(p50=tiny * 4, p90=tiny * 4, p99=tiny * 4),
        )
        assert not regressions(rows)

    def test_crossing_the_floor_does_regress(self):
        rows = diff_documents(
            closure_doc(p50=0.04, p90=0.04, p99=0.04),
            closure_doc(p50=0.2, p90=0.2, p99=0.2),
        )
        assert regressions(rows)

    def test_cells_on_one_side_only_are_skipped(self):
        base = closure_doc()
        cand = copy.deepcopy(base)
        cand["cells"]["sqlite"] = {
            "10": {"p50_ms": 99.0, "p90_ms": 99.0, "mode": "native"}
        }
        rows = diff_documents(base, cand)
        assert {r.backend for r in rows} == {"memory"}


class TestCliContract:
    def test_diff_files_exit_codes(self, tmp_path):
        base = tmp_path / "base.json"
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        base.write_text(json.dumps(closure_doc()))
        good.write_text(json.dumps(closure_doc(p90=2.1)))
        bad.write_text(json.dumps(closure_doc(p90=5.0)))
        _rows, code = diff_files(str(base), str(good))
        assert code == 0
        _rows, code = diff_files(str(base), str(bad))
        assert code == 1

    def test_cli_bench_diff_exits_nonzero_on_regression(self, tmp_path):
        from repro.cli import main

        base = tmp_path / "base.json"
        bad = tmp_path / "bad.json"
        base.write_text(json.dumps(closure_doc()))
        bad.write_text(json.dumps(closure_doc(p90=5.0)))
        assert main(["bench-diff", str(base), str(base)]) == 0
        assert main(["bench-diff", str(base), str(bad)]) == 1

    def test_format_diff_mentions_every_regression(self):
        rows = diff_documents(closure_doc(), closure_doc(p90=5.0))
        table = format_diff(rows, only_regressions=True)
        assert "REGRESSED" in table
        assert "memory/10/native/p90" in table
        assert "1 regression" in table

    def test_baseline_document_self_diffs_clean(self):
        # A committed baseline never flags itself.
        import os

        path = os.path.join(
            os.path.dirname(__file__),
            os.pardir,
            "benchmarks",
            "baseline",
            "BENCH_sharded.json",
        )
        with open(path) as handle:
            document = json.load(handle)
        assert "provenance" in document
        rows = diff_documents(document, document)
        assert rows and not regressions(rows)
