"""Shared fixtures: configurations, backends and generated databases.

The parametrized ``any_backend`` fixture runs conformance-style tests
against every backend; ``small_config`` keeps the structures tiny
(level 2, 31 nodes) so the full suite stays fast, while dedicated tests
exercise the paper's real levels.
"""

from __future__ import annotations

import os

import pytest

from repro.backends.memory import MemoryDatabase
from repro.backends.registry import (
    available_backends,
    create_backend,
    get_backend_spec,
)
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator

#: Every registered preset: a newly registered backend joins the
#: conformance matrix by itself.
BACKEND_NAMES = available_backends()


def make_backend(name: str, tmp_path, suffix: str = "db", **options):
    """Construct a closed backend of the given preset through the
    registry, on a file under ``tmp_path`` when the preset needs one."""
    path = None
    if get_backend_spec(name).needs_path:
        path = os.path.join(str(tmp_path), f"{suffix}-{name}")
    return create_backend(name, path, **options)


@pytest.fixture
def small_config() -> HyperModelConfig:
    """A level-2 configuration: 31 nodes, fast everywhere."""
    return HyperModelConfig(levels=2, seed=42)


@pytest.fixture
def level3_config() -> HyperModelConfig:
    """A level-3 configuration: 156 nodes, closures have depth."""
    return HyperModelConfig(levels=3, seed=42)


@pytest.fixture(params=BACKEND_NAMES)
def any_backend(request, tmp_path):
    """An open, empty backend of every kind (parametrized)."""
    db = make_backend(request.param, tmp_path)
    db.open()
    yield db
    if db.is_open:
        db.close()


@pytest.fixture(params=BACKEND_NAMES)
def populated(request, tmp_path, level3_config):
    """(db, gen) for a generated level-3 structure on every backend."""
    db = make_backend(request.param, tmp_path)
    db.open()
    gen = DatabaseGenerator(level3_config).generate(db)
    db.commit()
    yield db, gen
    if db.is_open:
        db.close()


@pytest.fixture
def memory_populated(level3_config):
    """(db, gen) on the in-memory backend only (fast semantic tests)."""
    db = MemoryDatabase()
    db.open()
    gen = DatabaseGenerator(level3_config).generate(db)
    yield db, gen
    db.close()
