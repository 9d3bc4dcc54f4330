"""The grid driver: backends x levels x operations in one call.

:class:`BenchmarkRunner` generates one test database per
(backend, level) pair — measuring creation while at it — then runs the
cold/warm sequence for every requested operation, collecting a
:class:`~repro.harness.results.ResultSet` plus the creation-phase
timings.  File-backed backends build their databases under a work
directory so repeated runs in one process reuse nothing by accident.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.backends.registry import create_backend, get_backend_spec
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator, GeneratedDatabase
from repro.core.interface import HyperModelDatabase
from repro.core.operations import CATALOG, OperationCatalog
from repro.harness.protocol import (
    DEFAULT_REPETITIONS,
    ColdWarmResult,
    run_operation_sequence,
)
from repro.harness.results import ResultSet
from repro.obs import Instrumentation


@dataclasses.dataclass
class RunnerConfig:
    """What to run.

    Attributes:
        backends: registry names to benchmark.
        levels: leaf levels of the test databases (paper: 4, 5, 6).
        op_ids: operations to run (default: the whole catalog).
        repetitions: per cold/warm run (paper: 50).
        seed: base seed for generation and input picking.
        workdir: where file-backed databases are created (a temporary
            directory if omitted).
        instrumentation: a live :class:`~repro.obs.Instrumentation`
            handle passed to every backend the runner builds, so the
            results carry per-run counter deltas; ``None`` leaves the
            process default (usually the no-op singleton) in charge.
    """

    backends: List[str] = dataclasses.field(
        default_factory=lambda: ["memory", "sqlite", "oodb", "clientserver"]
    )
    levels: List[int] = dataclasses.field(default_factory=lambda: [4])
    op_ids: Optional[List[str]] = None
    repetitions: int = DEFAULT_REPETITIONS
    seed: int = 19880301
    workdir: Optional[str] = None
    instrumentation: Optional[Instrumentation] = None


def creation_phases(gen: GeneratedDatabase) -> Dict[str, float]:
    """The section 5.3 creation phases of one generated structure:
    ``node-*`` ms per node and ``rel-*`` ms per relationship."""
    return {
        **{f"node-{k}": v for k, v in gen.stats.per_node_ms().items()},
        **{f"rel-{k}": v for k, v in gen.stats.per_relationship_ms().items()},
    }


@dataclasses.dataclass
class GridCell:
    """One populated database of the grid, ready for operations."""

    backend_name: str
    level: int
    db: HyperModelDatabase
    gen: GeneratedDatabase
    creation_phases: Dict[str, float]


class BenchmarkRunner:
    """Builds the database grid and runs the operation sequences."""

    def __init__(
        self,
        config: Optional[RunnerConfig] = None,
        catalog: Optional[OperationCatalog] = None,
    ) -> None:
        self.config = config or RunnerConfig()
        self.catalog = catalog or CATALOG
        self._workdir = self.config.workdir or tempfile.mkdtemp(
            prefix="hypermodel-"
        )
        self._cells: Dict[Tuple[str, int], GridCell] = {}

    @property
    def workdir(self) -> str:
        """Where file-backed databases live."""
        return self._workdir

    @property
    def instrumentation(self) -> Optional[Instrumentation]:
        """The live handle every backend the runner builds shares.

        ``None`` when the runner was configured without one (backends
        then resolve the process-global default).  The CLI's
        ``run --trace`` exports this handle's span ring after the
        grid finishes.
        """
        return self.config.instrumentation

    # ------------------------------------------------------------------
    # Database construction
    # ------------------------------------------------------------------

    def _backend_path(self, backend: str, level: int) -> Optional[str]:
        if not get_backend_spec(backend).needs_path:
            return None
        suffix = "db" if backend == "sqlite-file" else "hmdb"
        return os.path.join(self._workdir, f"{backend}-L{level}.{suffix}")

    def build_cell(self, backend: str, level: int) -> GridCell:
        """Create and populate one (backend, level) database.

        Cells are cached: asking again returns the already-built one.
        """
        key = (backend, level)
        if key in self._cells:
            return self._cells[key]
        hm_config = HyperModelConfig(levels=level, seed=self.config.seed)
        db = create_backend(
            backend,
            self._backend_path(backend, level),
            instrumentation=self.config.instrumentation,
        )
        db.open()
        gen = DatabaseGenerator(hm_config).generate(db)
        db.commit()
        cell = GridCell(backend, level, db, gen, creation_phases(gen))
        self._cells[key] = cell
        return cell

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run_cell(
        self, cell: GridCell, op_ids: Optional[List[str]] = None
    ) -> List[ColdWarmResult]:
        """Run the requested operations against one populated cell."""
        requested = op_ids or self.config.op_ids or self.catalog.op_ids
        results = []
        for op_id in requested:
            spec = self.catalog.get(op_id)
            if (
                spec.op_id == "02"
                and not cell.db.supports_object_identity
            ):
                continue  # the paper's "if applicable" clause
            if spec.op_id == "16" and not cell.gen.text_uids:
                continue  # no text nodes at this configuration
            if spec.op_id == "17" and not cell.gen.form_uids:
                continue  # no form nodes at this configuration
            results.append(
                run_operation_sequence(
                    cell.db,
                    spec,
                    cell.gen,
                    repetitions=self.config.repetitions,
                    seed=self.config.seed,
                )
            )
        return results

    def run(self) -> Tuple[ResultSet, Dict[Tuple[str, int], Dict[str, float]]]:
        """Run the full grid.

        Returns:
            (results, creation) where ``creation`` maps
            (backend, level) to its creation-phase milliseconds.
        """
        results = ResultSet()
        creation: Dict[Tuple[str, int], Dict[str, float]] = {}
        for level in self.config.levels:
            for backend in self.config.backends:
                cell = self.build_cell(backend, level)
                creation[(backend, level)] = cell.creation_phases
                results.extend(self.run_cell(cell))
        return results, creation

    def close(self) -> None:
        """Close every database the runner built."""
        for cell in self._cells.values():
            if cell.db.is_open:
                cell.db.close()
        self._cells.clear()

    def __enter__(self) -> "BenchmarkRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
