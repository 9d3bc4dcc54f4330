"""Smoke tests of the benchmark itself (``python -m pytest bench/tests -q``).

They run the ``--quick`` form (level 3, two rounds), so they check the
benchmark's plumbing — declared metrics, seeding, the correctness gate,
the comparison rule — not its numbers.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import compare, run, sequence
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def quick(capsys, *extra):
    """One in-process ``--quick`` run: (exit code, result line)."""
    status = run.main(["--quick", *extra])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return status, line


def test_declaration_matches_the_contract():
    declared = run.declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert len(declared["end_to_end"]) == 16
    assert len(declared["per_layer"]) == 45
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_reported(capsys, workload, trace):
    status, line = quick(capsys, "--workload", workload, "--trace", str(trace))
    declared = run.declared()["per_layer" if trace else "end_to_end"]
    assert status == 0 and line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_layers_fire_only_where_the_workload_uses_them(capsys):
    _status, oodb = quick(capsys, "--workload", "oodb-fit", "--trace", "1")
    _status, cs = quick(capsys, "--workload", "cs-nav", "--trace", "1")
    value = lambda line, name: line["metrics"][name]["value"]
    for name in ("engine.store", "engine.btree", "engine.buffer", "engine.heap"):
        assert value(oodb, name + ".self_ms_per_node") > 0
        assert value(cs, name + ".self_ms_per_node") == 0
    for name in ("netsim.server", "netsim.cache", "backends.clientserver"):
        assert value(cs, name + ".self_ms_per_node") > 0
        assert value(oodb, name + ".self_ms_per_node") == 0
    assert value(cs, "sharding.router.round_trips_per_op") > 0
    assert value(oodb, "sharding.router.round_trips_per_op") == 0
    for line in (oodb, cs):
        assert value(line, "trace.unattributed_share") < 0.05
        assert value(line, "trace.overhead_ratio") > 1.0


def test_inputs_follow_the_seed(tmp_path, capsys):
    def inputs_digest(seed):
        out = tmp_path / f"{seed}.json"
        run.main(["--quick", "--workload", "oodb-fit", "--seed", str(seed),
                  "--out", str(out)])
        capsys.readouterr()
        return json.loads(out.read_text())["detail"]["inputs_digest"]

    assert inputs_digest(7) == inputs_digest(7)
    assert inputs_digest(7) != inputs_digest(8)


def test_a_wrong_oracle_digest_fails_the_run(capsys, monkeypatch):
    real = sequence.digest

    def wrong_for_the_oracle(handle, spec, args, result):
        found = real(handle, spec, args, result)
        if handle.db.backend_name == "memory" and spec.op_id == "10":
            return "not-" + found
        return found

    monkeypatch.setattr(sequence, "digest", wrong_for_the_oracle)
    status, line = quick(capsys, "--workload", "oodb-fit")
    assert status != 0
    assert line["correct"] is False and line["failed"] > 0


def test_trace_out_writes_one_object_per_span(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    status, _line = quick(
        capsys, "--workload", "oodb-fit", "--trace", "1",
        "--trace-out", str(spans))
    assert status == 0
    rows = [json.loads(row) for row in spans.read_text().splitlines()]
    assert rows and all(
        set(row) == {"id", "name", "start", "end", "parent", "seq"}
        for row in rows)
    by_id = {row["id"]: row for row in rows}
    child = next(row for row in rows if row["name"] == "engine.btree:search_unique")
    assert by_id[child["parent"]]["seq"] == child["seq"]


def test_the_driver_command_and_the_bare_directory(tmp_path):
    command = run.declared()["command"] + [
        "--workload", "cs-nav", "--seed", "3", "--seconds", "1", "--trace", "0",
        "--quick"]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"]
    assert not os.path.exists(os.path.join(run.ROOT, ".bench_work"))

    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(run.ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True)
    assert bare.returncode != 0
    assert bare.stdout == ""


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 10, [10.2] * 10, "unchanged"),
    ([10.0] * 10, [11.5] * 10, "regressed"),
    ([10.0 + i / 10 for i in range(10)], [8.0 + i / 10 for i in range(10)], "improved"),
    ([8.0, 12.0, 9.0, 11.0, 7.0, 13.0], [9.9, 10.1, 9.8, 10.2, 10.0, 10.0], "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "lower", 0.10)[0] == expected


def test_compare_reads_suite_documents(tmp_path, capsys):
    document = tmp_path / "A.json"
    status = subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "bench", "run.py"),
         "--quick", "--seed", "5", "--out", str(document)],
        capture_output=True, text=True).returncode
    assert status == 0
    assert compare.main([str(document), str(document)]) == 0
    report = capsys.readouterr().out
    assert "regressed" not in report and "unresolved" not in report
    for workload in WORKLOADS:
        assert f"== {workload}" in report
