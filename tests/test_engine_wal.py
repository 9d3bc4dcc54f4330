"""The write-ahead log: framing, torn tails, redo extraction."""

import os

import pytest

from repro.engine import wal as wal_mod
from repro.engine.wal import (
    ABORT,
    BEGIN,
    COMMIT,
    PAGE,
    PUT,
    ROOTS,
    LogRecord,
    WriteAheadLog,
    page_image,
    page_record,
    put_record,
    roots_record,
)


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(str(tmp_path / "test.wal"), sync_on_commit=False)
    yield log
    if log._file is not None:
        log.close()


class TestFraming:
    def test_records_roundtrip(self, wal):
        wal.append(LogRecord(BEGIN, txid=1))
        wal.append(put_record(1, 7, {"value": 3}))
        wal.append(put_record(1, 8, None))
        wal.append(LogRecord(COMMIT, txid=1))
        wal.sync()
        kinds = [(r.kind, r.txid, r.oid) for r in wal.read_all()]
        assert kinds == [
            (BEGIN, 1, 0), (PUT, 1, 7), (PUT, 1, 8), (COMMIT, 1, 0)
        ]

    def test_page_record_compresses_and_restores(self, wal):
        image = bytes(range(256)) * 16
        record = page_record(1, 9, image)
        wal.append(record)
        wal.sync()
        (loaded,) = wal.read_all()
        assert loaded.kind == PAGE
        assert loaded.oid == 9
        assert page_image(loaded) == image

    def test_roots_record_roundtrip(self, wal):
        wal.append(roots_record(1, {"dir.root": 4, "extent.root": 7}, 5))
        wal.sync()
        (loaded,) = wal.read_all()
        assert loaded.kind == ROOTS
        assert loaded.state == {"dir.root": 4, "extent.root": 7}
        assert loaded.oid == 5  # the free-list head

    def test_torn_tail_ignored(self, wal, tmp_path):
        wal.log_commit(1, [put_record(1, 1, {"a": 1})])
        wal.append(LogRecord(BEGIN, txid=2))
        wal.sync()
        wal.close()
        path = str(tmp_path / "test.wal")
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 3)  # tear the last record
        reopened = WriteAheadLog(path, sync_on_commit=False)
        kinds = [r.kind for r in reopened.read_all()]
        assert kinds == [BEGIN, PUT, COMMIT]  # intact prefix only
        reopened.close()

    def test_corrupt_crc_stops_reading(self, wal, tmp_path):
        wal.log_commit(1, [put_record(1, 1, {"a": 1})])
        size_after_first = os.path.getsize(str(tmp_path / "test.wal"))
        wal.log_commit(2, [put_record(2, 2, {"b": 2})])
        wal.close()
        path = str(tmp_path / "test.wal")
        with open(path, "r+b") as f:
            f.seek(size_after_first + 10)
            f.write(b"\xde\xad")
        reopened = WriteAheadLog(path, sync_on_commit=False)
        committed = reopened.recover()[0]
        assert [txid for txid, _ops in committed] == [1]
        reopened.close()


class TestTornTailEdgeCases:
    """The four tail shapes a crash can leave (see docs/durability.md)."""

    def _commit_one(self, wal):
        wal.log_commit(1, [put_record(1, 1, {"a": 1})])
        return [BEGIN, PUT, COMMIT]

    def test_frame_header_truncated_mid_frame(self, wal, tmp_path):
        intact = self._commit_one(wal)
        size_before = os.path.getsize(str(tmp_path / "test.wal"))
        wal.append(LogRecord(BEGIN, txid=2))
        wal.sync()
        wal.close()
        path = str(tmp_path / "test.wal")
        with open(path, "r+b") as f:
            # Leave only half of the last record's length/crc header.
            f.truncate(size_before + wal_mod._FRAME.size // 2)
        reopened = WriteAheadLog(path, sync_on_commit=False)
        assert [r.kind for r in reopened.read_all()] == intact
        reopened.close()

    def test_crc_mismatch_on_last_record(self, wal, tmp_path):
        intact = self._commit_one(wal)
        size_before = os.path.getsize(str(tmp_path / "test.wal"))
        wal.append(LogRecord(BEGIN, txid=2))
        wal.sync()
        wal.close()
        path = str(tmp_path / "test.wal")
        with open(path, "r+b") as f:
            f.seek(size_before + wal_mod._FRAME.size)  # first payload byte
            f.write(b"\xff")
        reopened = WriteAheadLog(path, sync_on_commit=False)
        assert [r.kind for r in reopened.read_all()] == intact
        assert [t for t, _ in reopened.recover()[0]] == [1]
        reopened.close()

    def test_zero_filled_tail_reads_as_end_of_log(self, wal, tmp_path):
        intact = self._commit_one(wal)
        wal.close()
        path = str(tmp_path / "test.wal")
        with open(path, "ab") as f:
            # A preallocated-but-unwritten tail block: all zeros.  The
            # zero length/crc pair must read as end-of-log, not as an
            # infinite stream of empty records (crc32(b"") is 0).
            f.write(b"\x00" * 64)
        reopened = WriteAheadLog(path, sync_on_commit=False)
        assert [r.kind for r in reopened.read_all()] == intact
        reopened.close()

    def test_valid_record_after_torn_one_is_ignored(self, wal, tmp_path):
        import zlib

        intact = self._commit_one(wal)
        wal.close()
        payload = LogRecord(BEGIN, txid=9).to_payload()
        frame = wal_mod._FRAME.pack(
            len(payload), zlib.crc32(payload) & 0xFFFFFFFF
        )
        path = str(tmp_path / "test.wal")
        with open(path, "ab") as f:
            f.write(frame + payload[:-3])  # torn record ...
            f.write(frame + payload)  # ... then a perfectly valid one
        reopened = WriteAheadLog(path, sync_on_commit=False)
        # Replay must stop at the tear: bytes beyond it are garbage even
        # if they happen to contain a well-formed frame.
        assert [r.kind for r in reopened.read_all()] == intact
        reopened.close()


class TestGroupCommit:
    def _group_wal(self, tmp_path, size=4):
        return WriteAheadLog(
            str(tmp_path / "group.wal"),
            sync_on_commit=True,
            group_commit=True,
            group_commit_size=size,
        )

    def test_batches_commits_into_one_sync(self, tmp_path):
        wal = self._group_wal(tmp_path, size=4)
        results = [
            wal.log_commit(txid, [put_record(txid, txid, {})])
            for txid in range(1, 5)
        ]
        assert results == [False, False, False, True]
        assert wal.syncs == 1  # one durability point for four commits
        assert wal.pending_commits == 0
        wal.close()

    def test_deferred_commits_still_visible(self, tmp_path):
        wal = self._group_wal(tmp_path, size=8)
        wal.log_commit(1, [put_record(1, 1, {"a": 1})])
        assert wal.pending_commits == 1
        assert [t for t, _ in wal.recover()[0]] == [1]
        wal.close()

    def test_close_forces_pending_batch(self, tmp_path):
        wal = self._group_wal(tmp_path, size=8)
        wal.log_commit(1, [put_record(1, 1, {})])
        wal.close()
        reopened = WriteAheadLog(str(tmp_path / "group.wal"))
        assert [t for t, _ in reopened.recover()[0]] == [1]
        reopened.close()

    def test_checkpoint_resets_pending(self, tmp_path):
        wal = self._group_wal(tmp_path, size=8)
        wal.log_commit(1, [put_record(1, 1, {})])
        wal.log_checkpoint()
        assert wal.pending_commits == 0
        wal.close()

    def test_size_one_degenerates_to_per_commit_sync(self, tmp_path):
        wal = self._group_wal(tmp_path, size=1)
        assert wal.log_commit(1, [put_record(1, 1, {})]) is True
        assert wal.syncs == 1
        wal.close()

    def test_invalid_batch_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(
                str(tmp_path / "bad.wal"),
                group_commit=True,
                group_commit_size=0,
            )


class TestRecoverOperations:
    def test_only_committed_transactions_returned(self, wal):
        wal.log_commit(1, [put_record(1, 10, {"x": 1})])
        wal.append(LogRecord(BEGIN, txid=2))
        wal.append(put_record(2, 11, {"y": 2}))  # never commits
        wal.append(LogRecord(BEGIN, txid=3))
        wal.append(put_record(3, 12, {"z": 3}))
        wal.append(LogRecord(ABORT, txid=3))
        wal.sync()
        committed = wal.recover()[0]
        assert [txid for txid, _ in committed] == [1]
        assert committed[0][1][0].oid == 10

    def test_commit_order_preserved(self, wal):
        for txid in (5, 2, 9):
            wal.log_commit(txid, [put_record(txid, txid, {})])
        assert [txid for txid, _ in wal.recover()[0]] == [5, 2, 9]

    def test_checkpoint_discards_earlier_work(self, wal):
        wal.log_commit(1, [put_record(1, 1, {})])
        wal.log_checkpoint()
        wal.log_commit(2, [put_record(2, 2, {})])
        committed = wal.recover()[0]
        assert [txid for txid, _ in committed] == [2]

    def test_checkpoint_truncates_file(self, wal, tmp_path):
        for txid in range(10):
            wal.log_commit(txid, [page_record(txid, 1, b"\x00" * 4096)])
        grown = os.path.getsize(str(tmp_path / "test.wal"))
        wal.log_checkpoint()
        assert os.path.getsize(str(tmp_path / "test.wal")) < grown

    def test_empty_log_recovers_nothing(self, wal):
        assert wal.recover()[0] == []

    def test_counters(self, wal):
        wal.log_commit(1, [put_record(1, 1, {})])
        assert wal.records_written == 3  # BEGIN + PUT + COMMIT
        assert wal.syncs == 1


class TestReadFrom:
    """Offset-resumable tail reads (the log shipper's primitive)."""

    def test_resumes_at_returned_offset(self, wal):
        wal.log_commit(1, [put_record(1, 10, {"a": 1})])
        first = list(wal.read_from(0))
        assert [r.kind for r, _ in first] == [BEGIN, PUT, COMMIT]
        resume = first[-1][1]
        wal.log_commit(2, [put_record(2, 11, {"a": 2})])
        second = list(wal.read_from(resume))
        assert [r.txid for r, _ in second] == [2, 2, 2]
        # Nothing new: resuming at the tail yields nothing.
        assert list(wal.read_from(second[-1][1])) == []

    def test_offset_zero_equals_read_all(self, wal):
        wal.log_commit(1, [put_record(1, 10, {"a": 1})])
        wal.log_commit(2, [put_record(2, 10, None)])
        by_offset = [r.kind for r, _ in wal.read_from(0)]
        assert by_offset == [r.kind for r in wal.read_all()]

    def test_stops_cleanly_at_torn_tail(self, wal, tmp_path):
        wal.log_commit(1, [put_record(1, 10, {"a": 1})])
        intact = list(wal.read_from(0))
        resume = intact[-1][1]
        wal.append(LogRecord(BEGIN, txid=2))
        wal.sync()
        path = str(tmp_path / "test.wal")
        wal.close()
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 3)
        reopened = WriteAheadLog(path, sync_on_commit=False)
        tail = list(reopened.read_from(resume))
        assert tail == []  # torn record never surfaces
        reopened.close()
