"""The /RUBE87/ "simple database operations" baseline benchmark.

Section 4 of the paper positions the HyperModel as an extension of
Rubenstein, Kubicar & Cattell's SIGMOD-87 benchmark: a Person/Document
model with a many-to-many *authorship* relationship, exercised by seven
simple operations.  The HyperModel keeps those operations, and its M-N
aggregation already expresses authorship, so the baseline runs on any
registered :class:`~repro.core.interface.HyperModelDatabase`:

* a **person** is a TextNode in structure 1 — ``uniqueId`` is the person
  id, ``text`` the name, ``million`` the birth (uniform over
  :data:`BIRTH_RANGE`, so a width-W range lookup has selectivity
  W / 100 000);
* a **document** is a TextNode in structure 2 — ``uniqueId`` is the
  number of persons plus the document id, ``text`` the title,
  ``hundred`` the pages, and ``million`` 0, outside the birth range, so
  op 2 returns persons only;
* an **authorship** is ``add_part(person, document)``.

The seven operations, in the order /RUBE87/ lists them:

1. nameLookup — ``get_text(lookup(id))``;
2. rangeLookup — ``range_million(low, low + 9 999)``;
3. groupLookup — ``parts(lookup(id))``, the documents of a person;
4. referenceLookup — ``part_of(lookup(id))``, the authors of a document;
5. recordInsert — ``create_node`` + ``commit`` of a TextNode in
   structure 3 with ``million`` 0, which ops 2 and 6 never see;
6. sequentialScan — ``scan_ten(1)``, every person;
7. databaseOpen — ``close`` + ``open``.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import string
from typing import Callable, Dict, List

from repro.core.interface import HyperModelDatabase, NodeRef
from repro.core.model import NodeData, NodeKind
from repro.harness.timing import Stats, Timer

#: Operation names in the order /RUBE87/ lists them.
SIMPLE_OP_NAMES = (
    "nameLookup",
    "rangeLookup",
    "groupLookup",
    "referenceLookup",
    "recordInsert",
    "sequentialScan",
    "databaseOpen",
)

#: Inclusive domain of a person's birth (range-lookup selectivity).
BIRTH_RANGE = (1, 100_000)

#: Width of the birth range probe (10 % selectivity).
RANGE_WIDTH = 10_000

#: The structures persons, documents and op 5's inserts live in.
PERSONS, DOCUMENTS, INSERTS = 1, 2, 3

_LETTERS = string.ascii_lowercase


@dataclasses.dataclass(frozen=True)
class Dataset:
    """Shape of a generated Person/Document dataset."""

    persons: int
    documents: int
    authorships: int

    def document_uid(self, document_id: int) -> int:
        """The ``uniqueId`` of document ``document_id``."""
        return self.persons + document_id


def _text_node(uid: int, text: str, hundred: int, million: int,
               structure_id: int) -> NodeData:
    return NodeData(uid, 1, hundred, million, NodeKind.TEXT, text,
                    structure_id=structure_id)


def generate(
    db: HyperModelDatabase,
    persons: int = 1000,
    documents: int = 1000,
    seed: int = 19870501,
) -> Dataset:
    """Fill the open ``db`` and commit; each document gets 1-3 authors."""
    rng = random.Random(seed)

    def name() -> str:
        return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(4, 12)))

    person_refs = [None]  # person id -> ref
    for person_id in range(1, persons + 1):
        text = name()
        person_refs.append(db.create_node(_text_node(
            person_id, text, 0, rng.randint(*BIRTH_RANGE), PERSONS)))
    document_refs = [None]
    for document_id in range(1, documents + 1):
        text = name()
        document_refs.append(db.create_node(_text_node(
            persons + document_id, text, rng.randint(1, 500), 0, DOCUMENTS)))
    authorships = 0
    for document_id in range(1, documents + 1):
        for person_id in rng.sample(range(1, persons + 1), rng.randint(1, 3)):
            db.add_part(person_refs[person_id], document_refs[document_id])
            authorships += 1
    db.commit()
    return Dataset(persons, documents, authorships)


def name_lookup(db: HyperModelDatabase, person_id: int) -> str:
    """Op 1: one person's name, by key."""
    return db.get_text(db.lookup(person_id))


def range_lookup(db: HyperModelDatabase, low: int) -> List[NodeRef]:
    """Op 2: the persons born within a 10 %-selectivity window."""
    return db.range_million(low, low + RANGE_WIDTH - 1)


def group_lookup(db: HyperModelDatabase, person_id: int) -> List[NodeRef]:
    """Op 3: the documents of a person (M-N forward)."""
    return db.parts(db.lookup(person_id))


def reference_lookup(
    db: HyperModelDatabase, dataset: Dataset, document_id: int
) -> List[NodeRef]:
    """Op 4: the authors of a document (M-N inverse)."""
    return db.part_of(db.lookup(dataset.document_uid(document_id)))


def record_insert(db: HyperModelDatabase, unique_id: int) -> None:
    """Op 5: create one node (indexes included) and commit."""
    db.create_node(_text_node(unique_id, "inserted", 0, 0, INSERTS))
    db.commit()


def sequential_scan(db: HyperModelDatabase) -> int:
    """Op 6: visit every person; returns how many."""
    return db.scan_ten(PERSONS)


def database_open(db: HyperModelDatabase) -> None:
    """Op 7: close and reopen the database."""
    db.close()
    db.open()


def run_all(
    db: HyperModelDatabase,
    dataset: Dataset,
    repetitions: int = 50,
    seed: int = 1987,
) -> Dict[str, Stats]:
    """Time every operation; returns name -> per-call ms stats.

    Each repetition is timed with :class:`~repro.harness.timing.Timer`,
    so a simulated network's time is part of the figure.  Op 7 runs at
    most ten times; op 5's nodes stay in structure 3.
    """
    rng = random.Random(seed)
    insert_uids = itertools.count(10_000_001)  # disjoint from the dataset
    runners: Dict[str, Callable[[], object]] = {
        "nameLookup": lambda: name_lookup(
            db, rng.randint(1, dataset.persons)),
        "rangeLookup": lambda: range_lookup(
            db, rng.randint(BIRTH_RANGE[0], BIRTH_RANGE[1] - RANGE_WIDTH + 1)),
        "groupLookup": lambda: group_lookup(
            db, rng.randint(1, dataset.persons)),
        "referenceLookup": lambda: reference_lookup(
            db, dataset, rng.randint(1, dataset.documents)),
        "recordInsert": lambda: record_insert(db, next(insert_uids)),
        "sequentialScan": lambda: sequential_scan(db),
        "databaseOpen": lambda: database_open(db),
    }
    results: Dict[str, Stats] = {}
    for name in SIMPLE_OP_NAMES:
        samples: List[float] = []
        for _ in range(repetitions if name != "databaseOpen"
                       else min(repetitions, 10)):
            timer = Timer(getattr(db, "simulated_clock", None))
            with timer:
                runners[name]()
            samples.append(timer.elapsed * 1000.0)
        results[name] = Stats.from_samples(samples)
    return results
