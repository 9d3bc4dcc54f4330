"""``repro bench-diff``: two grid documents, leaf by leaf.

Covers the ``cells`` document shape, the exact-equality rule (every
differing leaf is reported, a cell on one side only is a difference)
and the exit-code contract.
"""

import copy
import json

import pytest

from repro.harness.benchdiff import (
    MISSING,
    diff_documents,
    diff_files,
    extract_cells,
    format_diff,
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
        assert cells[("memory", "10", "mode")] == "native"
        assert cells[("memory", "10", "p90_ms")] == 2.0

    def test_nested_leaves_are_walked(self):
        document = closure_doc()
        document["cells"]["memory"]["10"]["histogram"] = {
            "buckets": {"3": 2}
        }
        cells = extract_cells(document)
        assert cells[("memory", "10", "histogram", "buckets", "3")] == 2

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError):
            extract_cells({"something": "else"})


class TestThresholds:
    """There is one threshold, zero: any differing leaf fails."""

    def test_identical_documents_have_no_regressions(self):
        assert diff_documents(closure_doc(), closure_doc()) == []

    def test_p90_regression_past_threshold_is_flagged(self):
        (row,) = diff_documents(closure_doc(), closure_doc(p90=3.0))
        assert row.path == ("memory", "10", "p90_ms")
        assert (row.baseline, row.candidate) == (2.0, 3.0)
        assert row.change == pytest.approx(0.5)

    def test_any_change_differs_improvements_too(self):
        rows = diff_documents(closure_doc(), closure_doc(p99=2.9999))
        assert [row.label for row in rows] == ["memory/10/p99_ms"]

    def test_changed_aborted_count_fails(self):
        base = closure_doc()
        base["cells"]["memory"]["10"]["aborted"] = 0
        cand = copy.deepcopy(base)
        cand["cells"]["memory"]["10"]["aborted"] = 1
        (row,) = diff_documents(base, cand)
        assert row.label == "memory/10/aborted"
        assert row.change == float("inf")

    def test_cell_on_one_side_only_differs(self):
        base = closure_doc()
        cand = copy.deepcopy(base)
        cand["cells"]["sqlite"] = {
            "10": {"p50_ms": 99.0, "mode": "native"}
        }
        rows = diff_documents(base, cand)
        assert {row.label for row in rows} == {
            "sqlite/10/p50_ms", "sqlite/10/mode"
        }
        assert all(row.baseline == MISSING for row in rows)
        assert all(row.change is None for row in rows)


class TestCliContract:
    def test_diff_files_exit_codes(self, tmp_path):
        base = tmp_path / "base.json"
        same = tmp_path / "same.json"
        moved = tmp_path / "moved.json"
        base.write_text(json.dumps(closure_doc()))
        same.write_text(json.dumps(closure_doc()))
        moved.write_text(json.dumps(closure_doc(p90=2.1)))
        _rows, code = diff_files(str(base), str(same))
        assert code == 0
        _rows, code = diff_files(str(base), str(moved))
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
        rows = diff_documents(closure_doc(), closure_doc(p50=1.5, p90=5.0))
        table = format_diff(rows)
        assert "memory/10/p90_ms: 2.0 -> 5.0 (+150.00%)" in table
        assert "memory/10/p50_ms" in table
        assert "3 differing leaves" in table  # median_ms moved with p50
        assert format_diff([]) == "cells equal"

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
        assert extract_cells(document)
        assert diff_documents(document, document) == []
