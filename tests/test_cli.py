"""The ``hypermodel`` CLI: every subcommand end to end."""

import sqlite3
from unittest import mock

import pytest

from repro.cli import main


class TestInfo:
    def test_prints_sizing_table(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "19531" in out
        assert "781" in out


class TestGenerate:
    def test_memory_backend(self, capsys):
        assert main(["generate", "--level", "2"]) == 0
        out = capsys.readouterr().out
        assert "generated 31 nodes" in out
        assert "node-leaf" in out

    def test_oodb_backend_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "cli.hmdb")
        assert main(
            ["generate", "--backend", "oodb", "--path", path, "--level", "2"]
        ) == 0
        assert "generated 31 nodes" in capsys.readouterr().out

    def test_level4_oodb_file_is_byte_identical(self, tmp_path):
        # The on-disk page format is frozen: a refactor of the engine
        # must write this exact level-4 file.
        import hashlib

        path = tmp_path / "l4.hmdb"
        assert main(
            ["generate", "--backend", "oodb", "--path", str(path),
             "--level", "4"]
        ) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "899e618ac4886d446582823c2148e2b4ec72fcc4c304fc84ebaebe7bf0aa2c02"
        )

    def test_level4_oodb_space_split(self, capsys, tmp_path):
        # Where the bytes of the file above go: 177 heap, 36 B+tree and
        # 1 free page of 4 KiB over 781 nodes; the heap is 41 % live
        # record bytes (299 066 of 724 992).
        path = tmp_path / "l4.hmdb"
        assert main(
            ["generate", "--backend", "oodb", "--path", str(path),
             "--level", "4"]
        ) == 0
        assert (
            "  bytes/node     heap 928.3, index 188.8, free 5.2; "
            "heap fill 0.413\n"
        ) in capsys.readouterr().out


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--level", "2"]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_verify_sqlite(self, capsys):
        assert main(["verify", "--backend", "sqlite", "--level", "2"]) == 0
        assert "OK:" in capsys.readouterr().out


class TestRun:
    def test_small_grid_with_save(self, capsys, tmp_path):
        save = str(tmp_path / "results.json")
        code = main(
            [
                "run",
                "--backends", "memory",
                "--levels", "2",
                "--ops", "01,05A",
                "--repetitions", "2",
                "--save", save,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nameLookup" in out
        assert "groupLookup1N" in out
        assert "Database creation, level 2" in out  # section 5.3 phases
        from repro.harness import ResultSet

        assert len(ResultSet.load(save)) == 2


class TestBench:
    """``run --counters`` / ``--trace`` (the flags of the retired
    ``bench`` twin of ``run``)."""

    def test_counters_prints_headline_counter_table(self, capsys):
        code = main(
            [
                "run",
                "--backends", "memory",
                "--levels", "2",
                "--ops", "01,09",
                "--repetitions", "2",
                "--counters",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Counters: memory" in out
        # The headline rows print even when zero on this backend.
        assert "engine.buffer.hit" in out
        assert "engine.buffer.miss" in out
        assert "backend.rpc.round_trips" in out
        # The memory backend's coarse call counters are nonzero.
        assert "backend.op.reads" in out

    def test_clientserver_round_trips_are_nonzero(self, capsys):
        code = main(
            [
                "run",
                "--backends", "clientserver",
                "--levels", "2",
                "--ops", "01",
                "--repetitions", "2",
                "--counters",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        table = out[out.index("Counters: clientserver"):]
        rpc_row = next(
            line for line in table.splitlines()
            if "backend.rpc.round_trips" in line
        )
        values = [tok for tok in rpc_row.split() if tok.replace(".", "").isdigit()]
        assert any(float(v) > 0 for v in values)

    def test_without_counters_prints_no_counter_tables(self, capsys):
        code = main(
            [
                "run",
                "--backends", "memory",
                "--levels", "2",
                "--ops", "01",
                "--repetitions", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Counters:" not in out
        assert "Latency percentiles: memory" in out  # always printed

    def test_counters_and_trace_together(self, capsys, tmp_path):
        import json

        trace = str(tmp_path / "run_trace.json")
        code = main(
            [
                "run",
                "--backends", "clientserver,clientserver-bfs",
                "--levels", "2",
                "--ops", "10",
                "--repetitions", "2",
                "--counters",
                "--trace", trace,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Each preset reports under the registry name it was built from.
        assert "Counters: clientserver," in out
        assert "Counters: clientserver-bfs," in out
        assert f"trace written to {trace}" in out
        with open(trace, encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]

    @pytest.mark.parametrize("command", ["bench", "bench-closure"])
    def test_retired_commands_are_rejected_by_the_parser(
        self, command, capsys
    ):
        # One command runs the grid; the closure micro-benchmark is
        # ``run --ops 10,11,12 --counters``.
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestQuery:
    def test_query_with_index_plan(self, capsys):
        code = main(
            ["query", "--level", "2",
             "find nodes where hundred between 1 and 10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: index-range(hundred in 1..10)" in out
        assert "matched" in out

    def test_query_scan_plan(self, capsys):
        assert main(["query", "--level", "2", "find text where ten = 5"]) == 0
        assert "plan: scan" in capsys.readouterr().out


class TestBenchMultiuser:
    def test_writes_json_and_prints_summary(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "BENCH_multiuser.json")
        code = main(
            ["bench-multiuser", "--clients", "1,4", "--conflict", "0.0,0.5",
             "--transactions", "4", "--out", out_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "multi-user optimistic grid" in out
        assert f"results written to {out_path}" in out
        with open(out_path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["benchmark"] == "multiuser"
        assert set(document["cells"]) == {"clients-1", "clients-4"}
        control = document["cells"]["clients-4"]["conflict-0"]
        assert control["aborted"] == 0
        assert document["wal"]["per_commit"]["fsyncs_per_commit"] == 1.0

    def test_trace_export_has_client_lanes(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "BENCH_multiuser.json")
        trace_path = str(tmp_path / "mp_trace.json")
        code = main(
            ["bench-multiuser", "--clients", "2", "--conflict", "0.0",
             "--transactions", "2", "--out", out_path,
             "--trace", trace_path]
        )
        assert code == 0
        assert "one lane per client" in capsys.readouterr().out
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        lane_names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        assert any("w00" in name for name in lane_names)
        assert any("w01" in name for name in lane_names)


#: The flag surface of the table-generated commands, captured from
#: the hand-written argparse blocks they replaced (PR 12's parser):
#: flag -> (dest, default).
BENCH_COMMAND_SURFACE = {
    "bench-multiuser": {
        "--clients": ("clients", "1,2,4,8"),
        "--conflict": ("conflict", "0.0,0.2"),
        "--level": ("level", 3),
        "--transactions": ("transactions", 8),
        "--reads-per-txn": ("reads_per_txn", 4),
        "--hot-set": ("hot_set", 8),
        "--seed": ("seed", 1989),
        "--group-commit-size": ("group_commit_size", 8),
        "--out": ("out", "BENCH_multiuser.json"),
        "--trace": ("trace", None),
        "--timeline": ("timeline", None),
        "--timeline-cadence": ("timeline_cadence", 0.02),
    },
    "bench-sharded": {
        "--shards": ("shards", "1,2,4"),
        "--placements": ("placements", "hash,affine"),
        "--level": ("level", 4),
        "--closures": ("closures", 12),
        "--updates": ("updates", 24),
        "--seed": ("seed", 1989),
        "--out": ("out", "BENCH_sharded.json"),
        "--timeline": ("timeline", None),
    },
    "bench-replica": {
        "--replicas": ("replicas", "1,2,4"),
        "--write-rates": ("write_rates", "0,40"),
        "--lags": ("lags", "0,0.02"),
        "--level": ("level", 4),
        "--reads-per-reader": ("reads_per_reader", 8),
        "--routing-closures": ("routing_closures", 6),
        "--seed": ("seed", 1989),
        "--out": ("out", "BENCH_replica.json"),
        "--timeline": ("timeline", None),
    },
    "crashtest": {
        "--transactions": ("transactions", 16),
        "--ops-per-txn": ("ops_per_txn", 6),
        "--payload-bytes": ("payload_bytes", 512),
        "--seed": ("seed", 7),
        "--stride": ("stride", 1),
        "--out": ("out", "BENCH_crash.json"),
        "--two-phase": ("two_phase", False),
        "--two-phase-shards": ("two_phase_shards", 3),
        "--two-phase-placement": ("two_phase_placement", "hash"),
        "--two-phase-transactions": ("two_phase_transactions", 4),
        "--two-phase-out": ("two_phase_out", "BENCH_crash2pc.json"),
        "--failover": ("failover", False),
        "--failover-replicas": ("failover_replicas", 2),
        "--failover-transactions": ("failover_transactions", 5),
        "--failover-out": ("failover_out", "BENCH_failover.json"),
        "--failover-trace": ("failover_trace", None),
    },
}

#: Tiny-parameter invocations of the four commands: argv (outputs are
#: appended per test) and output flag -> expected ``benchmark`` key.
BENCH_COMMAND_SMOKES = {
    "bench-multiuser": (
        ["--clients", "2", "--conflict", "0.0", "--transactions", "2"],
        {"--out": "multiuser"},
    ),
    "bench-sharded": (
        ["--shards", "2", "--placements", "hash", "--level", "2",
         "--closures", "2", "--updates", "2"],
        {"--out": "sharded"},
    ),
    "bench-replica": (
        ["--replicas", "1,2", "--write-rates", "0", "--lags", "0",
         "--level", "2", "--reads-per-reader", "2",
         "--routing-closures", "1"],
        {"--out": "replica"},
    ),
    "crashtest": (
        ["--transactions", "1", "--ops-per-txn", "1", "--stride", "16",
         "--two-phase", "--two-phase-shards", "2",
         "--two-phase-transactions", "1",
         "--failover", "--failover-transactions", "1"],
        {
            "--out": "crash-recovery-matrix",
            "--two-phase-out": "two-phase-crash-matrix",
            "--failover-out": "replica-failover",
        },
    ),
}


class TestBenchCommands:
    """The four commands generated from the harness parameter tables."""

    @pytest.mark.parametrize("command", sorted(BENCH_COMMAND_SURFACE))
    def test_flag_surface_matches_the_pinned_table(self, command):
        import argparse

        from repro.cli import _build_parser

        commands = next(
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        surface = {
            action.option_strings[0]: (action.dest, action.default)
            for action in commands.choices[command]._actions
            if action.dest != "help"
        }
        assert surface == BENCH_COMMAND_SURFACE[command]

    @pytest.mark.parametrize("command", sorted(BENCH_COMMAND_SMOKES))
    def test_smoke_writes_self_describing_documents(
        self, command, tmp_path, capsys
    ):
        import json

        argv, outputs = BENCH_COMMAND_SMOKES[command]
        paths = {
            flag: str(tmp_path / f"{flag.strip('-')}.json")
            for flag in outputs
        }
        for flag, path in paths.items():
            argv = argv + [flag, path]
        assert main([command] + argv) == 0
        printed = capsys.readouterr().out
        for flag, benchmark in outputs.items():
            assert f"results written to {paths[flag]}" in printed
            with open(paths[flag], encoding="utf-8") as handle:
                document = json.load(handle)
            assert document["benchmark"] == benchmark
            # One parameter dict feeds both the header and provenance.
            options = document["provenance"]["options"]
            assert options
            header = document.get("workload", document)
            assert {key: header[key] for key in options} == options

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench-diff", "a.json", "b.json", "--refresh-improvement"],
            ["bench-sharded", "--deep-level", "7"],
            ["bench-sharded", "--deep-closures", "2"],
        ],
        ids=lambda argv: argv[-2] if argv[-1].isdigit() else argv[-1],
    )
    def test_retired_options_are_rejected_by_the_parser(self, argv, capsys):
        # The budget ratchet and the advisory level-7 cell are gone.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRubenstein:
    def test_baseline_runs(self, capsys):
        code = main(
            ["rubenstein", "--persons", "50", "--documents", "50",
             "--repetitions", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("nameLookup", "sequentialScan", "databaseOpen"):
            assert name in out

    def test_memory_backend(self, capsys):
        assert main(
            ["rubenstein", "--backend", "memory", "--persons", "30",
             "--documents", "30", "--repetitions", "2"]
        ) == 0
        assert "memory" in capsys.readouterr().out

    def test_sqlite_database_open_reconnects(self):
        """Op 7 (databaseOpen) opens the database anew every time."""
        with mock.patch("sqlite3.connect", wraps=sqlite3.connect) as spy:
            assert main(
                ["rubenstein", "--backend", "sqlite", "--persons", "30",
                 "--documents", "30", "--repetitions", "3"]
            ) == 0
        assert spy.call_count > 3


class TestMaintain:
    @pytest.fixture
    def db_path(self, tmp_path):
        path = str(tmp_path / "m.hmdb")
        assert main(
            ["generate", "--backend", "oodb", "--path", path, "--level", "2"]
        ) == 0
        return path

    def test_vacuum(self, capsys, db_path):
        capsys.readouterr()
        assert main(["maintain", "vacuum", db_path]) == 0
        assert "reclaimed" in capsys.readouterr().out

    def test_backup(self, capsys, db_path, tmp_path):
        target = str(tmp_path / "snap.hmdb")
        assert main(["maintain", "backup", db_path, "--target", target]) == 0
        import os

        assert os.path.exists(target)

    def test_backup_without_target_fails(self, capsys, db_path):
        assert main(["maintain", "backup", db_path]) == 1

    def test_gc_from_the_root(self, capsys, db_path):
        capsys.readouterr()
        assert main(["maintain", "gc", db_path, "--roots", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 collected" in out  # everything reachable from the root
        assert "31 live" in out


class TestR7:
    def test_prints_assessment(self, capsys):
        assert main(["r7"]) == 0
        out = capsys.readouterr().out
        assert "lan-1990" in out
        assert "wan" in out
        assert "needed" in out


class TestQueryExtensionsViaCli:
    def test_count_query(self, capsys):
        assert main(["query", "--level", "2", "count nodes"]) == 0
        assert "matched 31 nodes" in capsys.readouterr().out


class TestParsing:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
