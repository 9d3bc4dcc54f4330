"""The sqlite backend's file lifecycle: a reopen is only a reconnect."""

import sqlite3
from unittest import mock

from repro.backends.sqlite_backend import SqliteDatabase


def _open_traced(db):
    """Open ``db`` and return the SQL statements the open ran."""
    statements = []
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    with mock.patch("sqlite3.connect", traced):
        db.open()
    return statements


def test_a_reopen_of_an_existing_file_runs_no_ddl(tmp_path):
    db = SqliteDatabase(str(tmp_path / "s.db"))
    created = _open_traced(db)
    assert any("CREATE TABLE" in sql for sql in created)
    db.close()

    reopened = _open_traced(db)
    assert reopened
    assert not any("CREATE" in sql.upper() for sql in reopened)
    assert not any("JOURNAL_MODE=" in sql.upper() for sql in reopened)
    # WAL mode and the schema persist in the file.
    conn = db._require_open()
    assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
    assert conn.execute("PRAGMA user_version").fetchone()[0] == 1
    db.close()
