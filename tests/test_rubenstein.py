"""The /RUBE87/ baseline on the registered backends: dataset, the seven
operations and the timing runner."""

import random

import pytest

from repro import rubenstein
from repro.backends import create_backend
from repro.cli import main
from repro.errors import NodeNotFoundError
from repro.rubenstein import BIRTH_RANGE, PERSONS, SIMPLE_OP_NAMES

BACKENDS = ["memory", "sqlite", "oodb", "clientserver"]


@pytest.fixture(params=BACKENDS)
def simple_db(request, tmp_path):
    db = create_backend(request.param, str(tmp_path / "rube87.db"))
    db.open()
    dataset = rubenstein.generate(db, persons=150, documents=120, seed=3)
    yield db, dataset
    if db.is_open:
        db.close()


def uids(db, refs):
    return {db.get_attribute(ref, "uniqueId") for ref in refs}


class TestGenerator:
    def test_counts(self, simple_db):
        db, dataset = simple_db
        assert db.node_count(PERSONS) == 150
        assert db.node_count(rubenstein.DOCUMENTS) == 120
        assert (dataset.persons, dataset.documents) == (150, 120)
        assert 120 <= dataset.authorships <= 360  # 1-3 authors per document

    def test_birth_in_domain(self, simple_db):
        db, _dataset = simple_db
        for ref in db.iter_nodes(PERSONS):
            birth = db.get_attribute(ref, "million")
            assert BIRTH_RANGE[0] <= birth <= BIRTH_RANGE[1]

    def test_seed_3_dataset_is_pinned(self, simple_db):
        """Names, births, titles, pages and authorships are drawn in one
        fixed RNG order, so seed 3 always gives this dataset."""
        db, dataset = simple_db
        assert dataset.authorships == 237
        person = db.lookup(7)
        assert db.get_text(person) == "dbepgivny"
        assert db.get_attribute(person, "million") == 82137
        documents = rubenstein.group_lookup(db, 7)
        assert uids(db, documents) == {
            dataset.document_uid(d) for d in (102, 107, 114)
        }

    def test_deterministic(self):
        a, b = create_backend("memory"), create_backend("memory")
        a.open(), b.open()
        rubenstein.generate(a, 50, 50, seed=9)
        rubenstein.generate(b, 50, 50, seed=9)
        assert rubenstein.name_lookup(a, 10) == rubenstein.name_lookup(b, 10)
        assert uids(a, rubenstein.group_lookup(a, 10)) == uids(
            b, rubenstein.group_lookup(b, 10)
        )


class TestOperations:
    def test_name_lookup(self, simple_db):
        db, _dataset = simple_db
        assert rubenstein.name_lookup(db, 7) == "dbepgivny"
        with pytest.raises(NodeNotFoundError):
            rubenstein.name_lookup(db, 99999)

    def test_range_lookup_matches_brute_force(self, simple_db):
        db, _dataset = simple_db
        expected = {
            db.get_attribute(ref, "uniqueId")
            for ref in db.iter_nodes(PERSONS)
            if 20_000 <= db.get_attribute(ref, "million") <= 29_999
        }
        assert expected
        assert uids(db, rubenstein.range_lookup(db, 20_000)) == expected

    def test_group_and_reference_are_inverses(self, simple_db):
        db, dataset = simple_db
        rng = random.Random(5)
        for _ in range(10):
            document_id = rng.randint(1, dataset.documents)
            authors = uids(
                db, rubenstein.reference_lookup(db, dataset, document_id)
            )
            assert authors and authors <= set(range(1, dataset.persons + 1))
            for person_id in authors:
                documents = uids(db, rubenstein.group_lookup(db, person_id))
                assert dataset.document_uid(document_id) in documents

    def test_record_insert_is_outside_persons(self, simple_db):
        db, _dataset = simple_db
        rubenstein.record_insert(db, 10_000_001)
        assert db.node_count(rubenstein.INSERTS) == 1
        assert rubenstein.sequential_scan(db) == 150
        assert rubenstein.name_lookup(db, 10_000_001) == "inserted"
        persons = uids(db, db.range_million(*BIRTH_RANGE))
        assert persons == set(range(1, 151))

    def test_sequential_scan_counts_all(self, simple_db):
        db, _dataset = simple_db
        assert rubenstein.sequential_scan(db) == 150

    def test_database_open_cycle(self, simple_db):
        db, _dataset = simple_db
        rubenstein.database_open(db)
        assert db.is_open
        assert rubenstein.sequential_scan(db) == 150
        assert rubenstein.name_lookup(db, 7) == "dbepgivny"


class TestRunner:
    def test_run_all_times_all_seven(self, simple_db):
        db, dataset = simple_db
        results = rubenstein.run_all(db, dataset, repetitions=5)
        assert list(results) == list(SIMPLE_OP_NAMES)
        for name, stats in results.items():
            assert stats.mean >= 0
            assert stats.count == 5
        # Op 5's nodes live in their own structure.
        assert db.node_count(PERSONS) == 150
        assert db.node_count(rubenstein.INSERTS) == 5


@pytest.mark.parametrize("backend", BACKENDS)
def test_cli_runs_on_registered_backend(backend, capsys):
    assert main(
        ["rubenstein", "--backend", backend, "--persons", "30",
         "--documents", "30", "--repetitions", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert f"RUBE87 baseline on {backend}: 30 persons" in out
    for name in SIMPLE_OP_NAMES:
        assert name in out
