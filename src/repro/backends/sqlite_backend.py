"""The relational backend: HyperModel mapped onto SQLite (/BLAH88/).

The paper's section 7 mentions an in-progress relational
implementation "following the methodology outlined in /BLAH88/"
(Blaha, Premerlani & Rumbaugh's OMT-to-relational mapping).  This
backend applies that methodology:

* one ``node`` table for the generalization hierarchy (single-table
  mapping with a ``kind`` discriminator and nullable subtype content
  split into ``text_content`` / ``form_content`` tables);
* the ordered 1-N aggregation as a ``parent`` foreign key plus a
  ``seq`` ordinal on the child (buried-association mapping for the
  one-end);
* the M-N aggregation and the attributed M-N association as join
  tables (``part`` and ``ref``), the latter carrying the offset
  attributes as columns;
* indexes on ``hundred``, ``million``, ``(parent, seq)`` and both join
  tables' traversal directions.

Node references are key values (the ``uid``), so op 02 (OID lookup) is
not applicable — ``supports_object_identity`` is False, exercising the
paper's "if applicable" clause.
"""

from __future__ import annotations

import sqlite3
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.bitmap import Bitmap
from repro.core.interface import HyperModelDatabase, NodeRef
from repro.core.model import LinkAttributes, NodeData, NodeKind
from repro.core.schema import NODE_ATTRIBUTES
from repro.obs import Instrumentation, resolve
from repro.errors import (
    DatabaseClosedError,
    InvalidOperationError,
    NodeNotFoundError,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS node (
    uid INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    ten INTEGER NOT NULL,
    hundred INTEGER NOT NULL,
    million INTEGER NOT NULL,
    struct INTEGER NOT NULL DEFAULT 1,
    parent INTEGER,
    seq INTEGER
);
CREATE INDEX IF NOT EXISTS idx_node_hundred ON node(hundred);
CREATE INDEX IF NOT EXISTS idx_node_million ON node(million);
CREATE INDEX IF NOT EXISTS idx_node_parent ON node(parent, seq);
CREATE INDEX IF NOT EXISTS idx_node_struct ON node(struct);

CREATE TABLE IF NOT EXISTS part (
    whole INTEGER NOT NULL,
    part INTEGER NOT NULL,
    PRIMARY KEY (whole, part)
);
CREATE INDEX IF NOT EXISTS idx_part_part ON part(part);

CREATE TABLE IF NOT EXISTS ref (
    src INTEGER NOT NULL,
    dst INTEGER NOT NULL,
    offset_from INTEGER NOT NULL,
    offset_to INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_ref_src ON ref(src);
CREATE INDEX IF NOT EXISTS idx_ref_dst ON ref(dst);

CREATE TABLE IF NOT EXISTS text_content (
    uid INTEGER PRIMARY KEY,
    body TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS form_content (
    uid INTEGER PRIMARY KEY,
    width INTEGER NOT NULL,
    height INTEGER NOT NULL,
    bits BLOB NOT NULL
);

CREATE TABLE IF NOT EXISTS node_list (
    name TEXT NOT NULL,
    pos INTEGER NOT NULL,
    uid INTEGER NOT NULL,
    PRIMARY KEY (name, pos)
);
"""

#: Column of each node attribute: the key is ``uid``, the rest keep
#: their paper names.
_ATTR_COLUMNS = {name: name for name in NODE_ATTRIBUTES} | {"uniqueId": "uid"}

_KIND_NAMES = {
    NodeKind.NODE: "node",
    NodeKind.TEXT: "text",
    NodeKind.FORM: "form",
}
_NAMES_KIND = {name: kind for kind, name in _KIND_NAMES.items()}


class SqliteDatabase(HyperModelDatabase):
    """A HyperModel database in one SQLite file (or in memory).

    An in-memory database (``path=":memory:"``) survives :meth:`close`
    (the connection is retained) because closing it would destroy the
    data; file databases close their connection fully, which drops
    SQLite's page cache and makes the next open cold at the library
    level.
    """

    def __init__(
        self,
        path: str = ":memory:",
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.path = path
        self.instrumentation = resolve(instrumentation)
        self._instr = self.instrumentation
        self._conn: Optional[sqlite3.Connection] = None
        self._memory_conn: Optional[sqlite3.Connection] = None

    # -- lifecycle -------------------------------------------------------

    def open(self) -> None:
        if self._conn is not None:
            return
        if self.path == ":memory:" and self._memory_conn is not None:
            self._conn = self._memory_conn
            return
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        if not self._conn.execute("PRAGMA user_version").fetchone()[0]:
            # A new file: WAL mode, the schema and the version persist
            # in it, so a reopen runs no DDL.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
            self._conn.execute("PRAGMA user_version = 1")
            self._conn.commit()
        if self.path == ":memory:":
            self._memory_conn = self._conn

    def close(self) -> None:
        if self._conn is None:
            return
        self._conn.commit()
        if self.path != ":memory:":
            self._conn.close()
        self._conn = None

    def commit(self) -> None:
        self._require_open().commit()

    def abort(self) -> None:
        self._require_open().rollback()

    @property
    def is_open(self) -> bool:
        return self._conn is not None

    @property
    def supports_object_identity(self) -> bool:
        return False  # a key value is the only node reference

    def _require_open(self) -> sqlite3.Connection:
        if self._conn is None:
            raise DatabaseClosedError("sqlite database is not open")
        return self._conn

    def _row(self, query: str, params: tuple) -> tuple:
        self._instr.count("backend.op.reads")
        row = self._require_open().execute(query, params).fetchone()
        if row is None:
            raise NodeNotFoundError(params[0] if params else query)
        return row

    # -- creation ---------------------------------------------------------

    def create_node(self, data: NodeData) -> NodeRef:
        conn = self._require_open()
        self._instr.count("backend.op.writes")
        try:
            conn.execute(
                "INSERT INTO node (uid, kind, ten, hundred, million, struct)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    data.unique_id,
                    _KIND_NAMES[data.kind],
                    data.ten,
                    data.hundred,
                    data.million,
                    data.structure_id,
                ),
            )
        except sqlite3.IntegrityError:
            raise InvalidOperationError(
                f"duplicate uniqueId {data.unique_id}"
            ) from None
        if data.kind is NodeKind.TEXT:
            conn.execute(
                "INSERT INTO text_content (uid, body) VALUES (?, ?)",
                (data.unique_id, data.text),
            )
        elif data.kind is NodeKind.FORM:
            conn.execute(
                "INSERT INTO form_content (uid, width, height, bits)"
                " VALUES (?, ?, ?, ?)",
                (
                    data.unique_id,
                    data.bitmap.width,
                    data.bitmap.height,
                    data.bitmap.to_bytes(),
                ),
            )
        return data.unique_id

    def add_child(self, parent: NodeRef, child: NodeRef) -> None:
        conn = self._require_open()
        self._instr.count("backend.op.writes")
        current = self._row(
            "SELECT parent FROM node WHERE uid = ?", (child,)
        )[0]
        if current is not None:
            raise InvalidOperationError(f"node {child} already has a parent")
        (seq,) = conn.execute(
            "SELECT COUNT(*) FROM node WHERE parent = ?", (parent,)
        ).fetchone()
        conn.execute(
            "UPDATE node SET parent = ?, seq = ? WHERE uid = ?",
            (parent, seq, child),
        )

    def add_part(self, whole: NodeRef, part: NodeRef) -> None:
        self._instr.count("backend.op.writes")
        self._require_open().execute(
            "INSERT INTO part (whole, part) VALUES (?, ?)", (whole, part)
        )

    def add_reference(
        self, source: NodeRef, target: NodeRef, attrs: LinkAttributes
    ) -> None:
        self._instr.count("backend.op.writes")
        self._require_open().execute(
            "INSERT INTO ref (src, dst, offset_from, offset_to)"
            " VALUES (?, ?, ?, ?)",
            (source, target, attrs.offset_from, attrs.offset_to),
        )

    # -- identity ---------------------------------------------------------

    def lookup(self, unique_id: int) -> NodeRef:
        self._row("SELECT uid FROM node WHERE uid = ?", (unique_id,))
        return unique_id

    def get_attribute(self, ref: NodeRef, name: str) -> int:
        try:
            column = _ATTR_COLUMNS[name]
        except KeyError:
            raise KeyError(f"unknown node attribute {name!r}") from None
        return self._row(f"SELECT {column} FROM node WHERE uid = ?", (ref,))[0]

    def _set_attribute(self, ref: NodeRef, name: str, value: int) -> None:
        self._instr.count("backend.op.writes")
        cursor = self._require_open().execute(
            f"UPDATE node SET {name} = ? WHERE uid = ?", (value, ref)
        )
        if cursor.rowcount == 0:
            raise NodeNotFoundError(ref)

    def kind_of(self, ref: NodeRef) -> NodeKind:
        return _NAMES_KIND[
            self._row("SELECT kind FROM node WHERE uid = ?", (ref,))[0]
        ]

    def structure_of(self, ref: NodeRef) -> int:
        return self._row("SELECT struct FROM node WHERE uid = ?", (ref,))[0]

    # -- range lookups ----------------------------------------------------

    def range_hundred(self, low: int, high: int) -> List[NodeRef]:
        self._instr.count("backend.op.scans")
        return [
            row[0]
            for row in self._require_open().execute(
                "SELECT uid FROM node WHERE hundred BETWEEN ? AND ?",
                (low, high),
            )
        ]

    def range_million(self, low: int, high: int) -> List[NodeRef]:
        self._instr.count("backend.op.scans")
        return [
            row[0]
            for row in self._require_open().execute(
                "SELECT uid FROM node WHERE million BETWEEN ? AND ?",
                (low, high),
            )
        ]

    # -- navigation --------------------------------------------------------
    #
    # Every navigation verb, per item or batched, is one ``node LEFT
    # JOIN`` query per chunk of keys: a missing node yields no row
    # (NodeNotFoundError, as on every backend), a node with nothing
    # related one row of NULLs.  ORDER BY pins the (semantically
    # unordered) M-N sets, so batch and per-item paths agree.

    _CHILDREN = (
        "SELECT n.uid, c.uid FROM node n LEFT JOIN node c ON c.parent = n.uid"
        " WHERE n.uid IN ({}) ORDER BY n.uid, c.seq"
    )
    _PARTS = (
        "SELECT n.uid, p.part FROM node n LEFT JOIN part p ON p.whole = n.uid"
        " WHERE n.uid IN ({}) ORDER BY n.uid, p.part"
    )
    _REFS_TO = (
        "SELECT n.uid, r.dst, r.offset_from, r.offset_to FROM node n"
        " LEFT JOIN ref r ON r.src = n.uid"
        " WHERE n.uid IN ({}) ORDER BY n.uid, r.rowid"
    )
    _PART_OF = (
        "SELECT n.uid, p.whole FROM node n LEFT JOIN part p ON p.part = n.uid"
        " WHERE n.uid IN ({}) ORDER BY n.uid, p.rowid"
    )
    _REFS_FROM = (
        "SELECT n.uid, r.src FROM node n LEFT JOIN ref r ON r.dst = n.uid"
        " WHERE n.uid IN ({}) ORDER BY n.uid, r.rowid"
    )

    #: Keys per ``IN (...)`` clause; comfortably under SQLite's host
    #: parameter limit (999 in conservative builds).
    _IN_CHUNK = 500

    def _related(self, query: str, refs: Sequence[NodeRef]) -> dict:
        """The rows ``query`` relates to each of ``refs``, keyed by ref.

        Raises:
            NodeNotFoundError: for the first of ``refs`` that is missing.
        """
        conn = self._require_open()
        keys = sorted(set(refs))
        found: dict = {}
        for start in range(0, len(keys), self._IN_CHUNK):
            chunk = tuple(keys[start : start + self._IN_CHUNK])
            self._instr.count("backend.op.reads")
            marks = ",".join("?" * len(chunk))
            for key, *row in conn.execute(query.format(marks), chunk):
                rows = found.setdefault(key, [])
                if row[0] is not None:
                    rows.append(row)
        for ref in refs:
            if ref not in found:
                raise NodeNotFoundError(ref)
        return found

    def _batch(self, query: str, refs: Sequence[NodeRef]) -> dict:
        """:meth:`_related` for a frontier, counted unless it is empty."""
        if refs:
            self._instr.count("backend.batch.calls")
            self._instr.count("backend.batch.items", len(refs))
        return self._related(query, refs)

    def children(self, ref: NodeRef) -> List[NodeRef]:
        return [row[0] for row in self._related(self._CHILDREN, [ref])[ref]]

    def parts(self, ref: NodeRef) -> List[NodeRef]:
        return [row[0] for row in self._related(self._PARTS, [ref])[ref]]

    def refs_to(self, ref: NodeRef) -> List[Tuple[NodeRef, LinkAttributes]]:
        return [
            (dst, LinkAttributes(offset_from, offset_to))
            for dst, offset_from, offset_to in self._related(
                self._REFS_TO, [ref]
            )[ref]
        ]

    def children_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        """All frontier children in one ``IN (...)`` query per chunk."""
        found = self._batch(self._CHILDREN, refs)
        return [[row[0] for row in found[ref]] for ref in refs]

    def parts_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        found = self._batch(self._PARTS, refs)
        return [[row[0] for row in found[ref]] for ref in refs]

    def refs_to_many(
        self, refs: Sequence[NodeRef]
    ) -> List[List[Tuple[NodeRef, LinkAttributes]]]:
        found = self._batch(self._REFS_TO, refs)
        return [
            [
                (dst, LinkAttributes(offset_from, offset_to))
                for dst, offset_from, offset_to in found[ref]
            ]
            for ref in refs
        ]

    def get_attributes_many(
        self, refs: Sequence[NodeRef], name: str
    ) -> List[int]:
        try:
            column = _ATTR_COLUMNS[name]
        except KeyError:
            raise KeyError(f"unknown node attribute {name!r}") from None
        found = self._batch(
            f"SELECT uid, {column} FROM node WHERE uid IN ({{}})", refs
        )
        return [found[ref][0][0] for ref in refs]

    def parent(self, ref: NodeRef) -> Optional[NodeRef]:
        return self._row("SELECT parent FROM node WHERE uid = ?", (ref,))[0]

    def part_of(self, ref: NodeRef) -> List[NodeRef]:
        return [row[0] for row in self._related(self._PART_OF, [ref])[ref]]

    def refs_from(self, ref: NodeRef) -> List[NodeRef]:
        return [row[0] for row in self._related(self._REFS_FROM, [ref])[ref]]

    # -- scan ------------------------------------------------------------------

    def scan_ten(self, structure_id: int = 1) -> int:
        self._instr.count("backend.op.scans")
        count = 0
        for (_ten,) in self._require_open().execute(
            "SELECT ten FROM node WHERE struct = ?", (structure_id,)
        ):
            count += 1
        return count

    def iter_nodes(self, structure_id: int = 1) -> Iterator[NodeRef]:
        for (uid,) in self._require_open().execute(
            "SELECT uid FROM node WHERE struct = ?", (structure_id,)
        ):
            yield uid

    # -- content -----------------------------------------------------------------

    def get_text(self, ref: NodeRef) -> str:
        self._instr.count("backend.op.reads")
        row = self._require_open().execute(
            "SELECT body FROM text_content WHERE uid = ?", (ref,)
        ).fetchone()
        if row is None:
            raise InvalidOperationError(f"node {ref} is not a text node")
        return row[0]

    def set_text(self, ref: NodeRef, text: str) -> None:
        self._instr.count("backend.op.writes")
        cursor = self._require_open().execute(
            "UPDATE text_content SET body = ? WHERE uid = ?", (text, ref)
        )
        if cursor.rowcount == 0:
            raise InvalidOperationError(f"node {ref} is not a text node")

    def get_bitmap(self, ref: NodeRef) -> Bitmap:
        self._instr.count("backend.op.reads")
        row = self._require_open().execute(
            "SELECT width, height, bits FROM form_content WHERE uid = ?",
            (ref,),
        ).fetchone()
        if row is None:
            raise InvalidOperationError(f"node {ref} is not a form node")
        return Bitmap.from_bytes(row[0], row[1], row[2])

    def set_bitmap(self, ref: NodeRef, bitmap: Bitmap) -> None:
        self._instr.count("backend.op.writes")
        cursor = self._require_open().execute(
            "UPDATE form_content SET width = ?, height = ?, bits = ?"
            " WHERE uid = ?",
            (bitmap.width, bitmap.height, bitmap.to_bytes(), ref),
        )
        if cursor.rowcount == 0:
            raise InvalidOperationError(f"node {ref} is not a form node")

    # -- result lists ----------------------------------------------------------------

    #: ``pos`` of the row that marks a stored list as existing, so an
    #: empty list is stored too; entries take ``pos`` 0, 1, ...
    _LIST_HEADER = -1

    def store_node_list(self, name: str, refs: Sequence[NodeRef]) -> None:
        conn = self._require_open()
        self._instr.count("backend.op.writes")
        conn.execute("DELETE FROM node_list WHERE name = ?", (name,))
        conn.executemany(
            "INSERT INTO node_list (name, pos, uid) VALUES (?, ?, ?)",
            [(name, self._LIST_HEADER, len(refs))]
            + [(name, pos, ref) for pos, ref in enumerate(refs)],
        )

    def load_node_list(self, name: str) -> List[NodeRef]:
        self._instr.count("backend.op.reads")
        rows = self._require_open().execute(
            "SELECT pos, uid FROM node_list WHERE name = ? ORDER BY pos",
            (name,),
        ).fetchall()
        if not rows:
            raise NodeNotFoundError(name)
        return [uid for pos, uid in rows if pos != self._LIST_HEADER]

    # -- introspection ------------------------------------------------------------------

    def node_count(self, structure_id: int = 1) -> int:
        return self._require_open().execute(
            "SELECT COUNT(*) FROM node WHERE struct = ?", (structure_id,)
        ).fetchone()[0]

    backend_name = "sqlite"
