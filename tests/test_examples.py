"""Smoke tests: every example script runs to completion.

Examples are deliverables; these tests keep them from rotting.  Each
runs in a subprocess with small parameters where the script accepts
them (level-sweep and the grid comparison default to laptop-scale runs
that are still too slow for a unit-test suite).
"""

import os
import subprocess
import sys

import pytest

_EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES_DIR, script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestExamples:
    def test_quickstart(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "op 01 nameLookup" in result.stdout
        assert "done" in result.stdout

    def test_document_archive(self):
        result = _run("document_archive.py")
        assert result.returncode == 0, result.stderr
        assert "table of contents" in result.stdout
        assert "durability holds" in result.stdout

    def test_multiuser_collaboration(self):
        result = _run("multiuser_collaboration.py")
        assert result.returncode == 0, result.stderr
        assert "validated commits: 3, conflicts: 0" in result.stdout
        assert "every edit visible from every workstation: True" in result.stdout
        assert "bob's validation fails" in result.stdout

    def test_versions_and_access(self):
        result = _run("versions_and_access.py")
        assert result.returncode == 0, result.stderr
        assert "previous version text" in result.stdout
        # R4: a node written before add_field reads the default.
        assert "4 ellipses" in result.stdout
        assert "reads language='en'" in result.stdout
        assert "links across protection boundaries" in result.stdout

    def test_benchmark_comparison_small(self):
        result = _run(
            "benchmark_comparison.py",
            "--backends", "memory",
            "--level", "2",
            "--repetitions", "2",
        )
        assert result.returncode == 0, result.stderr
        assert "nameLookup" in result.stdout
        assert "Level 2, cold run" in result.stdout  # comparison table
        assert "(cold mean / warm mean)" in result.stdout  # speedup table

    def test_level_sweep_small(self):
        result = _run(
            "level_sweep.py",
            "--levels", "2,3",
            "--backends", "memory",
            "--repetitions", "2",
        )
        assert result.returncode == 0, result.stderr
        assert "Scaling, backend memory" in result.stdout
