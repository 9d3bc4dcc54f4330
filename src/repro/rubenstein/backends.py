"""In-memory and SQLite implementations of the /RUBE87/ model."""

from __future__ import annotations

import sqlite3
from typing import Dict, Iterator, List, Optional

from repro.errors import DatabaseClosedError, NodeNotFoundError
from repro.rubenstein.model import Document, Person, SimpleDatabase


class MemorySimpleDatabase(SimpleDatabase):
    """Dictionaries and inverted maps; the no-I/O baseline."""

    def __init__(self) -> None:
        self._open = False
        self._persons: Dict[int, Person] = {}
        self._documents: Dict[int, Document] = {}
        self._docs_of: Dict[int, List[int]] = {}
        self._authors_of: Dict[int, List[int]] = {}

    def open(self) -> None:
        self._open = True

    def close(self) -> None:
        self._open = False

    def commit(self) -> None:
        self._require_open()

    @property
    def is_open(self) -> bool:
        return self._open

    def _require_open(self) -> None:
        if not self._open:
            raise DatabaseClosedError("simple database is not open")

    def insert_person(self, person: Person) -> None:
        self._require_open()
        self._persons[person.person_id] = person
        self._docs_of.setdefault(person.person_id, [])

    def insert_document(self, document: Document) -> None:
        self._require_open()
        self._documents[document.document_id] = document
        self._authors_of.setdefault(document.document_id, [])

    def add_authorship(self, person_id: int, document_id: int) -> None:
        self._require_open()
        self._docs_of[person_id].append(document_id)
        self._authors_of[document_id].append(person_id)

    def delete_person(self, person_id: int) -> None:
        self._require_open()
        self._persons.pop(person_id, None)
        for document_id in self._docs_of.pop(person_id, []):
            self._authors_of[document_id] = [
                p for p in self._authors_of[document_id] if p != person_id
            ]

    def person_by_id(self, person_id: int) -> Person:
        self._require_open()
        try:
            return self._persons[person_id]
        except KeyError:
            raise NodeNotFoundError(person_id) from None

    def persons_by_birth_range(self, low: int, high: int) -> List[Person]:
        self._require_open()
        return [p for p in self._persons.values() if low <= p.birth <= high]

    def documents_of(self, person_id: int) -> List[Document]:
        self._require_open()
        return [self._documents[d] for d in self._docs_of.get(person_id, [])]

    def authors_of(self, document_id: int) -> List[Person]:
        self._require_open()
        return [self._persons[p] for p in self._authors_of.get(document_id, [])]

    def scan_persons(self) -> Iterator[Person]:
        self._require_open()
        return iter(list(self._persons.values()))

    def person_count(self) -> int:
        self._require_open()
        return len(self._persons)

    @property
    def backend_name(self) -> str:
        return "memory"


_SCHEMA = """
CREATE TABLE IF NOT EXISTS person (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    birth INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_person_birth ON person(birth);
CREATE TABLE IF NOT EXISTS document (
    id INTEGER PRIMARY KEY,
    title TEXT NOT NULL,
    pages INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS authorship (
    person INTEGER NOT NULL,
    document INTEGER NOT NULL,
    PRIMARY KEY (person, document)
);
CREATE INDEX IF NOT EXISTS idx_auth_document ON authorship(document);
"""


class SqliteSimpleDatabase(SimpleDatabase):
    """The relational implementation, mirroring /RUBE87/'s tables."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._conn: Optional[sqlite3.Connection] = None

    def open(self) -> None:
        if self._conn is not None:
            return
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        if self._conn is None:
            return
        self._conn.commit()
        self._conn.close()
        self._conn = None

    def commit(self) -> None:
        self._require_open().commit()

    @property
    def is_open(self) -> bool:
        return self._conn is not None

    def _require_open(self) -> sqlite3.Connection:
        if self._conn is None:
            raise DatabaseClosedError("simple database is not open")
        return self._conn

    def insert_person(self, person: Person) -> None:
        self._require_open().execute(
            "INSERT INTO person (id, name, birth) VALUES (?, ?, ?)",
            (person.person_id, person.name, person.birth),
        )

    def insert_document(self, document: Document) -> None:
        self._require_open().execute(
            "INSERT INTO document (id, title, pages) VALUES (?, ?, ?)",
            (document.document_id, document.title, document.pages),
        )

    def add_authorship(self, person_id: int, document_id: int) -> None:
        self._require_open().execute(
            "INSERT INTO authorship (person, document) VALUES (?, ?)",
            (person_id, document_id),
        )

    def delete_person(self, person_id: int) -> None:
        conn = self._require_open()
        conn.execute("DELETE FROM authorship WHERE person = ?", (person_id,))
        conn.execute("DELETE FROM person WHERE id = ?", (person_id,))

    def person_by_id(self, person_id: int) -> Person:
        row = self._require_open().execute(
            "SELECT id, name, birth FROM person WHERE id = ?", (person_id,)
        ).fetchone()
        if row is None:
            raise NodeNotFoundError(person_id)
        return Person(*row)

    def persons_by_birth_range(self, low: int, high: int) -> List[Person]:
        return [
            Person(*row)
            for row in self._require_open().execute(
                "SELECT id, name, birth FROM person WHERE birth BETWEEN ? AND ?",
                (low, high),
            )
        ]

    def documents_of(self, person_id: int) -> List[Document]:
        return [
            Document(*row)
            for row in self._require_open().execute(
                "SELECT d.id, d.title, d.pages FROM document d"
                " JOIN authorship a ON a.document = d.id WHERE a.person = ?",
                (person_id,),
            )
        ]

    def authors_of(self, document_id: int) -> List[Person]:
        return [
            Person(*row)
            for row in self._require_open().execute(
                "SELECT p.id, p.name, p.birth FROM person p"
                " JOIN authorship a ON a.person = p.id WHERE a.document = ?",
                (document_id,),
            )
        ]

    def scan_persons(self) -> Iterator[Person]:
        for row in self._require_open().execute(
            "SELECT id, name, birth FROM person"
        ):
            yield Person(*row)

    def person_count(self) -> int:
        return self._require_open().execute(
            "SELECT COUNT(*) FROM person"
        ).fetchone()[0]

    @property
    def backend_name(self) -> str:
        return "sqlite"
