"""Result collection and JSON persistence.

A :class:`ResultSet` accumulates :class:`~repro.harness.protocol.ColdWarmResult`
records across backends, levels and operations, supports selection and
grouping for the report tables, and round-trips to JSON so EXPERIMENTS.md
tables can be regenerated from saved runs.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Optional

from repro.harness.protocol import ColdWarmResult


class ResultSet:
    """An ordered collection of benchmark results."""

    def __init__(self, results: Optional[Iterable[ColdWarmResult]] = None) -> None:
        self._results: List[ColdWarmResult] = list(results or [])

    def add(self, result: ColdWarmResult) -> None:
        """Append one result."""
        self._results.append(result)

    def extend(self, results: Iterable[ColdWarmResult]) -> None:
        """Append many results."""
        self._results.extend(results)

    def __iter__(self) -> Iterator[ColdWarmResult]:
        return iter(self._results)

    def __len__(self) -> int:
        return len(self._results)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select(
        self,
        backend: Optional[str] = None,
        level: Optional[int] = None,
        op_id: Optional[str] = None,
        category: Optional[str] = None,
    ) -> "ResultSet":
        """Filter by any combination of backend, level, op and category."""
        selected = [
            r
            for r in self._results
            if (backend is None or r.backend == backend)
            and (level is None or r.level == level)
            and (op_id is None or r.op_id == op_id)
            and (category is None or r.category == category)
        ]
        return ResultSet(selected)

    def one(self, backend: str, level: int, op_id: str) -> ColdWarmResult:
        """The unique result for one cell of the grid.

        Raises:
            KeyError: if the cell is missing or ambiguous.
        """
        matches = list(self.select(backend=backend, level=level, op_id=op_id))
        if len(matches) != 1:
            raise KeyError(
                f"expected one result for ({backend}, {level}, {op_id}), "
                f"found {len(matches)}"
            )
        return matches[0]

    @property
    def backends(self) -> List[str]:
        """Distinct backends in first-seen order."""
        return self._distinct(lambda r: r.backend)

    @property
    def levels(self) -> List[int]:
        """Distinct levels, ascending."""
        return sorted(set(r.level for r in self._results))

    @property
    def op_ids(self) -> List[str]:
        """Distinct operation ids in first-seen order."""
        return self._distinct(lambda r: r.op_id)

    @property
    def categories(self) -> List[str]:
        """Distinct categories in first-seen order."""
        return self._distinct(lambda r: r.category)

    def _distinct(self, key) -> list:
        seen: Dict = {}
        for result in self._results:
            seen.setdefault(key(result), None)
        return list(seen)

    def counter_names(self) -> List[str]:
        """Every instrumentation counter observed in any result, sorted.

        Empty when the runs were made with the no-op instrumentation.
        """
        names = set()
        for result in self._results:
            names.update(result.cold_counters)
            names.update(result.warm_counters)
        return sorted(names)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize all results to a JSON document.

        The document carries a :func:`~repro.harness.provenance.provenance`
        header (git SHA, python, platform, timestamp, grid shape) so a
        saved run is attributable; :meth:`from_json` ignores it.
        """
        from repro.harness.provenance import provenance

        return json.dumps(
            {
                "provenance": provenance(
                    backends=self.backends,
                    levels=self.levels,
                    op_ids=self.op_ids,
                ),
                "results": [r.to_dict() for r in self._results],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Load a result set from :meth:`to_json` output."""
        raw = json.loads(text)
        return cls(ColdWarmResult.from_dict(r) for r in raw["results"])

    def save(self, path: str) -> None:
        """Write the result set to a JSON file."""
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ResultSet":
        """Read a result set from a JSON file."""
        with open(path) as f:
            return cls.from_json(f.read())
