"""The crash-recovery matrix harness and its CLI surface."""

import json

import pytest

from repro.engine.catalog import FieldDefinition
from repro.engine.store import ObjectStore
from repro.engine.vfs import FaultInjectingVFS, RealVFS, SimulatedCrash
from repro.harness.crashpoints import crash_points
from repro.harness.crashtest import (
    CrashPointResult,
    _verify_cell,
    format_summary,
    run_crash_matrix,
)
from repro.harness.grid import write_document

#: Small but real: ~40-60 crash points, runs in well under a second.
SMALL = dict(transactions=3, ops_per_txn=3, payload_bytes=32, seed=7)


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    out = tmp_path_factory.mktemp("crash") / "BENCH_crash.json"
    doc = run_crash_matrix(**SMALL)
    write_document(str(out), doc)
    return doc, str(out)


class TestMatrix:
    def test_every_crash_point_recovers_cleanly(self, document):
        doc, _path = document
        assert doc["crash_points_tested"] == doc["io_ops_total"]
        assert doc["violation_count"] == 0
        assert doc["violations"] == []

    def test_matrix_covers_every_operation(self, document):
        doc, _path = document
        ops = [cell["op"] for cell in doc["cells"]]
        assert ops == list(range(1, doc["io_ops_total"] + 1))
        # Nearly every point dies mid-flight; the only survivors are
        # crash points landing in the post-checkpoint disposal path
        # (e.g. the redundant header write in PageFile.close), where the
        # store ignores close-time errors by design.  Those runs must
        # have completed all their commits.
        survivors = [c for c in doc["cells"] if not c["crashed"]]
        assert len(survivors) <= 2
        for cell in survivors:
            assert cell["recovered_snapshot"] == SMALL["transactions"]

    def test_alternates_clean_and_torn_crashes(self, document):
        doc, _path = document
        torn = {cell["op"]: cell["torn"] for cell in doc["cells"]}
        assert torn[1] is False and torn[2] is True

    def test_late_crashes_recover_late_snapshots(self, document):
        doc, _path = document
        last = doc["cells"][-1]
        assert last["recovered_snapshot"] == SMALL["transactions"]

    def test_durability_lower_bound_holds_per_cell(self, document):
        doc, _path = document
        for cell in doc["cells"]:
            assert cell["recovered_snapshot"] >= cell["commits_returned"]
            assert cell["recovered_snapshot"] <= cell["commits_returned"] + 1

    def test_json_document_roundtrips(self, document):
        doc, path = document
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == doc

    def test_stride_thins_the_matrix(self):
        doc = run_crash_matrix(**SMALL, stride=7)
        assert doc["crash_points_tested"] < doc["io_ops_total"]
        assert doc["violation_count"] == 0

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError):
            run_crash_matrix(**SMALL, stride=0)

    def test_summary_mentions_counts(self, document):
        doc, _path = document
        text = format_summary(doc)
        assert "crash points tested" in text
        assert "invariant violations: 0" in text


class TestVerifyCell:
    """The invariant checker, exercised with fabricated states."""

    REFERENCE = [
        {},
        {1: {"value": 1}},
        {1: {"value": 1}, 2: {"value": 2}},
    ]

    def test_atomicity_violation_detected(self):
        torn_mix = {1: {"value": 1}, 2: {"value": 999}}
        snapshot, violation = _verify_cell(
            torn_mix, self.REFERENCE, commits_returned=1
        )
        assert violation is not None
        assert "atomicity" in violation
        assert snapshot is None

    def test_durability_violation_detected(self):
        # Two commits returned, but recovery only found snapshot 1.
        _snapshot, violation = _verify_cell(
            {1: {"value": 1}}, self.REFERENCE, commits_returned=2
        )
        assert violation is not None
        assert "durability" in violation

    def test_in_flight_commit_may_round_up(self):
        snapshot, violation = _verify_cell(
            {1: {"value": 1}, 2: {"value": 2}},
            self.REFERENCE,
            commits_returned=1,
        )
        assert violation is None
        assert snapshot == 2

    def test_exact_match_passes(self):
        snapshot, violation = _verify_cell(
            {1: {"value": 1}}, self.REFERENCE, commits_returned=1
        )
        assert violation is None
        assert snapshot == 1

    def test_result_serializes(self):
        cell = CrashPointResult(
            op=3,
            torn=True,
            crashed=True,
            commits_returned=1,
            recovered_snapshot=1,
            violation=None,
        )
        assert cell.to_dict()["op"] == 3


class TestCli:
    def test_crashtest_subcommand_writes_document(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "BENCH_crash.json")
        code = main(
            [
                "crashtest",
                "--transactions",
                "2",
                "--ops-per-txn",
                "2",
                "--payload-bytes",
                "32",
                "--out",
                out,
            ]
        )
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["benchmark"] == "crash-recovery-matrix"
        assert doc["violation_count"] == 0
        captured = capsys.readouterr().out
        assert "crash-recovery matrix" in captured


class TestFreeListCrashes:
    """Records larger than a page, checkpointed, then rewritten or
    freed: every crash point of each script recovers the last
    acknowledged state, and the recovered free list hands out no page
    an acknowledged record still owns."""

    @staticmethod
    def _big(fill, n=0):
        return {"body": fill * 9000, "n": n}  # overflows one 4 KiB page

    @classmethod
    def _rewrite(cls, store, commit):
        oid = store.new("Blob", cls._big("x"))
        commit({oid: cls._big("x")})
        store.checkpoint()
        store.update(oid, {"n": 1})
        commit({oid: cls._big("x", 1)})

    @classmethod
    def _free_then_reuse(cls, store, commit):
        a = store.new("Blob", cls._big("a"))
        commit({a: cls._big("a")})
        store.checkpoint()
        store.delete(a)
        commit({})
        store.checkpoint()
        b = store.new("Blob", cls._big("b"))
        commit({b: cls._big("b")})

    @staticmethod
    def _run(path, vfs, script, snapshots):
        store = ObjectStore(path, sync_commits=True, vfs=vfs)
        try:
            store.open()
            store.define_class(
                "Blob", [FieldDefinition("body", ""), FieldDefinition("n", 0)]
            )
            store.commit()
            snapshots.append({})

            def commit(expected):
                store.commit()
                snapshots.append(expected)

            script(store, commit)
            store.close()
        finally:
            if store.is_open:
                store._dispose_handles()

    @staticmethod
    def _read_all(store):
        return {oid: store.get(oid) for oid in store.scan_class("Blob")}

    @pytest.mark.parametrize("script", ["_rewrite", "_free_then_reuse"])
    def test_every_crash_point_recovers_and_reuses_safely(
        self, tmp_path, script
    ):
        run = getattr(self, script)
        reference = []
        _total, points = crash_points(
            lambda op: FaultInjectingVFS(seed=op),
            lambda counter: self._run(
                str(tmp_path / "pre.hmdb"), counter, run, reference
            ),
        )
        failures = []
        for op, torn, vfs in points:
            path = str(tmp_path / f"cell-{op}.hmdb")
            snapshots = []
            try:
                self._run(path, vfs, run, snapshots)
                acked = len(reference) - 1
            except SimulatedCrash:
                acked = max(0, len(snapshots) - 1)
            store = ObjectStore(path, vfs=RealVFS())
            try:
                store.open()
                defined = "Blob" in store.catalog.class_names()
                recovered = self._read_all(store) if defined else {}
                _snapshot, violation = _verify_cell(
                    recovered, reference, acked
                )
                if violation is None and defined:
                    c = store.new("Blob", self._big("c"))
                    store.commit()
                    expected = {**recovered, c: self._big("c")}
                    if self._read_all(store) != expected:
                        violation = "a reused page clobbered an acked record"
            except Exception as error:
                violation = f"recovery raised {error!r}"
            finally:
                if store.is_open:
                    store._dispose_handles()
            if violation:
                failures.append((op, torn, violation))
        assert failures == []
