"""The multi-user transaction grid: harness, benchmark, trace lanes."""

import dataclasses
import json

import pytest

from repro.backends.clientserver import ClientServerDatabase
from repro.concurrency.multiuser import MultiUserHarness
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.netsim.config import NetworkConfig, SimConfig
from repro.netsim.faults import FaultModel
from repro.netsim.latency import LatencyModel
from repro.netsim.server import ObjectServer
from repro.obs import Instrumentation


def _build_server(fault_model=None, instrumentation=None):
    server = ObjectServer(
        latency=LatencyModel(),
        fault_model=fault_model,
        instrumentation=instrumentation,
    )
    loader = ClientServerDatabase(server=server)
    loader.open()
    gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=17)).generate(
        loader
    )
    loader.commit()
    loader.close()
    server.stats.reset()
    return server, gen


def _result_key(result):
    data = dataclasses.asdict(result)
    data["latencies_ms"] = [round(v, 9) for v in data["latencies_ms"]]
    return json.dumps(data, sort_keys=True)


class TestTransactionLoad:
    def test_zero_conflict_rate_means_zero_aborts(self):
        server, gen = _build_server()
        harness = MultiUserHarness(server, gen, users=6, seed=11)
        result = harness.run_transactions(
            transactions_per_user=6, conflict_rate=0.0
        )
        assert result.aborted == 0
        assert result.abort_rate == 0.0
        assert result.committed == 36

    def test_hot_set_contention_causes_aborts(self):
        server, gen = _build_server()
        harness = MultiUserHarness(server, gen, users=8, seed=11)
        result = harness.run_transactions(
            transactions_per_user=8, conflict_rate=0.5
        )
        assert result.aborted > 0
        assert result.server_conflicts == result.aborted
        assert 0.0 < result.abort_rate < 1.0
        # Every transaction eventually commits (or is counted as a
        # give-up, which the retry budget makes rare-to-impossible).
        assert result.committed + result.giveups == 64

    def test_every_commit_lands_on_the_server(self):
        server, gen = _build_server()
        harness = MultiUserHarness(server, gen, users=4, seed=5)
        result = harness.run_transactions(
            transactions_per_user=4, conflict_rate=0.3
        )
        assert result.server_commits == result.committed

    def test_deterministic_for_seed(self):
        results = []
        for _ in range(2):
            server, gen = _build_server()
            harness = MultiUserHarness(server, gen, users=5, seed=23)
            results.append(
                harness.run_transactions(
                    transactions_per_user=5, conflict_rate=0.4
                )
            )
        assert _result_key(results[0]) == _result_key(results[1])

    def test_deterministic_under_rpc_faults(self):
        """Drops and timeouts reroll retries, not determinism."""
        results = []
        for _ in range(2):
            server, gen = _build_server(
                fault_model=FaultModel(
                    seed=3, drop_rate=0.02, timeout_rate=0.01
                )
            )
            harness = MultiUserHarness(server, gen, users=4, seed=23)
            results.append(
                harness.run_transactions(
                    transactions_per_user=4, conflict_rate=0.2
                )
            )
        assert _result_key(results[0]) == _result_key(results[1])

    def test_throughput_rises_then_saturates(self):
        tput = {}
        for users in (1, 4, 16):
            server, gen = _build_server()
            harness = MultiUserHarness(server, gen, users=users, seed=7)
            result = harness.run_transactions(
                transactions_per_user=6, conflict_rate=0.0
            )
            tput[users] = result.throughput_per_second
        assert tput[4] > 1.3 * tput[1]  # rising
        # ... then saturating: nowhere near another 4x.
        assert tput[16] < 2.0 * tput[4]
        assert tput[16] > 0.5 * tput[4]

    def test_queueing_appears_with_contention(self):
        server, gen = _build_server()
        harness = MultiUserHarness(server, gen, users=8, seed=7)
        result = harness.run_transactions(transactions_per_user=4)
        assert result.queue_seconds > 0.0
        assert result.busy_seconds > 0.0

    def test_conflict_rate_validated(self):
        server, gen = _build_server()
        harness = MultiUserHarness(server, gen, users=2, seed=1)
        with pytest.raises(ValueError):
            harness.run_transactions(conflict_rate=1.5)

    def test_mp_counters_emitted(self):
        instr = Instrumentation()
        server, gen = _build_server(instrumentation=instr)
        harness = MultiUserHarness(
            server, gen, users=4, seed=11, instrumentation=instr
        )
        harness.run_transactions(transactions_per_user=4, conflict_rate=0.5)
        counters = instr.counters.as_dict()
        assert counters["backend.mp.requests"] > 0
        assert counters["backend.mp.txn.committed"] == 16
        assert counters.get("backend.mp.commit.attempts", 0) >= 16
        assert "backend.mp.busy_ms" in counters


class TestMultiUserBench:
    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        from repro.harness.multiuserbench import run_multiuser_bench

        docs = []
        for run in range(2):
            workdir = tmp_path_factory.mktemp(f"mp-bench-{run}")
            docs.append(
                run_multiuser_bench(
                    clients=(1, 4),
                    conflict_rates=(0.0, 0.5),
                    transactions_per_client=4,
                    workdir=str(workdir),
                )
            )
        return docs

    def test_grid_shape(self, documents):
        document = documents[0]
        assert set(document["cells"]) == {"clients-1", "clients-4"}
        for row in document["cells"].values():
            assert set(row) == {"conflict-0", "conflict-0.5"}
            for cell in row.values():
                assert cell["mode"] == "multiuser"
                assert cell["p50_ms"] > 0
                assert cell["histogram"]["count"] == cell["committed"] + (
                    cell["giveups"]
                )

    def test_cells_byte_identical_across_runs(self, documents):
        first, second = documents
        assert json.dumps(first["cells"], sort_keys=True) == json.dumps(
            second["cells"], sort_keys=True
        )
        assert json.dumps(first["wal"], sort_keys=True) == json.dumps(
            second["wal"], sort_keys=True
        )

    def test_control_column_has_zero_aborts(self, documents):
        for row in documents[0]["cells"].values():
            assert row["conflict-0"]["aborted"] == 0

    def test_wal_group_commit_reduces_fsyncs(self, documents):
        wal = documents[0]["wal"]
        per = wal["per_commit"]["fsyncs_per_commit"]
        grouped = wal["group_commit"]["fsyncs_per_commit"]
        assert per == pytest.approx(1.0)
        assert grouped < per / 2
        assert grouped == pytest.approx(
            wal["group_commit"]["wal_syncs"]
            / wal["group_commit"]["server_commits"]
        )

    def test_bench_diff_compatible(self, documents):
        from repro.harness.benchdiff import diff_documents, extract_cells

        cells = extract_cells(documents[0])
        assert cells[("clients-4", "conflict-0.5", "mode")] == "multiuser"
        assert diff_documents(documents[0], documents[1]) == []

    def test_format_summary(self, documents):
        from repro.harness.multiuserbench import format_summary

        text = format_summary(documents[0])
        assert "clients" in text and "fsyncs/commit" in text

    def test_write_round_trips(self, tmp_path):
        from repro.harness.grid import write_document
        from repro.harness.multiuserbench import run_multiuser_bench

        out = tmp_path / "BENCH_multiuser.json"
        document = run_multiuser_bench(
            clients=(2,),
            conflict_rates=(0.0,),
            transactions_per_client=2,
        )
        write_document(str(out), document)
        loaded = json.loads(out.read_text())
        assert loaded["benchmark"] == "multiuser"
        assert loaded["cells"] == json.loads(
            json.dumps(document["cells"])
        )


class TestPerClientTraceLanes:
    def test_spans_carry_client_tags_and_lanes(self):
        from repro.obs.traceexport import build_trace

        instr = Instrumentation(span_capacity=4096)
        server, gen = _build_server(instrumentation=instr)
        harness = MultiUserHarness(
            server, gen, users=3, seed=9, instrumentation=instr
        )
        harness.run_transactions(transactions_per_user=3)
        tagged = {
            record.client
            for record in instr.spans.records()
            if record.client is not None
        }
        assert tagged == {"w00", "w01", "w02"}

        document = build_trace(instr)
        lanes = {
            (event["pid"], event["tid"], event["args"]["name"])
            for event in document["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        names = {name for _, _, name in lanes}
        assert any("w00" in name for name in names)
        assert any("w02" in name for name in names)
        # Distinct clients map to distinct tids on the client track.
        client_tids = {
            event["tid"]
            for event in document["traceEvents"]
            if event.get("ph") == "X"
            and event["pid"] == 1
            and event["args"].get("client")
        }
        assert len(client_tids) == 3

    def test_untagged_spans_stay_on_anonymous_lane(self):
        from repro.obs.traceexport import build_trace

        instr = Instrumentation(span_capacity=256)
        with instr.span("solo.op"):
            pass
        document = build_trace(instr)
        xs = [
            event
            for event in document["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert all(event["tid"] == 1 for event in xs)
