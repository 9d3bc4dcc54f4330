"""T-01 … T-18 — every ``CATALOG`` operation (sections 6.1-6.7).

One pytest-benchmark target per operation and backend: a cycling
:class:`~benchmarks.conftest.OperationDriver` over 50 pre-drawn random
inputs, the result checked by the operation's row of :data:`CHECKS`.
The cold/warm protocol itself (section 5.3: open, 50 cold, commit, 50
warm, close — formerly T-coldwarm) is ``repro run`` in virtual-plus-wall
time and ``bench/run.py`` on the wall clock; this file times the warm
steady state pytest-benchmark is good at.

Closures (10-15, 18) start at a random level-3 node and touch the
paper's 6/31/156 nodes depending on the level.
"""

import pytest

from benchmarks.conftest import OperationDriver
from repro.core.operations import CATALOG


def _closure_size(cell):
    config = cell.gen.config
    return config.closure_1n_size(min(3, config.levels - 1))


def _is_hundred(result, cell):
    return 1 <= result <= 100  # a hundred-attribute value


def _depth_long(result, cell):
    return len(result) == cell.gen.config.closure_depth


#: op_id -> (result check or None, extra_info beyond the backend name).
#: DESIGN.md section 4 indexes the same rows; the comment on each is
#: the shape the paper leads one to expect.
CHECKS = {
    # 6.1 Name Lookup: memory fastest; OID lookup no slower than key
    # lookup; client/server pays a round trip on cache misses.
    "01": (_is_hundred, lambda cell: {"level": cell.level}),
    "02": (_is_hundred, None),
    # 6.2 Range Lookup: the 1% query returns ~10x fewer nodes but is
    # not 10x cheaper (per-query overhead); indexed backends beat the
    # memory backend's linear scan per examined node at scale.
    "03": (lambda r, cell: bool(r), lambda cell: {"selectivity": "10%"}),
    "04": (None, lambda cell: {"selectivity": "1%"}),
    # 6.3 Group Lookup: one-object-fault operations; 05A vs 05B shows
    # any ordered vs unordered representation gap.
    "05A": (lambda r, cell: len(r) == cell.gen.config.fanout, None),
    "05B": (lambda r, cell: len(r) == cell.gen.config.parts_per_node, None),
    "06": (lambda r, cell: len(r) == 1, None),
    # 6.4 Reference Lookup: comparable to the forward direction where
    # both ends are materialized; the relational backend answers
    # 07B/08 from the join table's secondary index.
    "07A": (lambda r, cell: len(r) == 1, None),  # inputs exclude the root
    "07B": (None, None),
    "08": (None, None),  # possibly empty, per the paper
    # 6.4.1 Sequential Scan: cheapest per node of all operations; the
    # relational single-cursor scan wins, the OODB pays per-object
    # decode, client/server one fetch per uncached node.
    "09": (
        lambda r, cell: r == cell.gen.total_nodes,
        lambda cell: {"nodes": cell.gen.total_nodes},
    ),
    # 6.5 Closure Traversals: with clustering along 1-N, closure1N is
    # at least as fast as closureMN on the paged backend.
    "10": (
        lambda r, cell: len(r) == _closure_size(cell),
        lambda cell: {"nodes_per_closure": _closure_size(cell)},
    ),
    "14": (lambda r, cell: len(r) == _closure_size(cell), None),
    "15": (
        _depth_long,
        lambda cell: {"depth": cell.gen.config.closure_depth},
    ),
    # 6.6 Other Closure Operations: 12 is the most expensive (it
    # writes and maintains the hundred index; 99-v is self-inverse, so
    # repetition restores the database); 11 and 13 cost a read per
    # node; 18 tracks op 15 plus arithmetic.
    "11": (lambda r, cell: r > 0, None),
    "12": (lambda r, cell: r >= 1, lambda cell: {"mutates": True}),
    "13": (None, None),
    "18": (
        lambda r, cell: _depth_long(r, cell)
        and all(distance >= 0 for _node, distance in r),
        None,
    ),
    # 6.7 Editing: 17 costs more than 16 (kilobytes of bitmap vs a few
    # hundred bytes of text); both dwarf pure lookups because they
    # retrieve *and* store.  17 reuses one form node (the paper's N.B.).
    "16": (None, lambda cell: {"mutates": True}),
    "17": (None, lambda cell: {"same_node_every_repetition": True}),
}


@pytest.mark.parametrize("op_id", CATALOG.op_ids)
def test_operation(benchmark, cell, op_id):
    spec = CATALOG.get(op_id)
    if op_id == "02" and not cell.db.supports_object_identity:
        pytest.skip(
            f"{cell.backend_name}: object-identity lookup not applicable"
        )
    check, extra_info = CHECKS[op_id]
    benchmark.group = f"op{op_id} {spec.name}"
    benchmark.extra_info["backend"] = cell.backend_name
    if extra_info is not None:
        benchmark.extra_info.update(extra_info(cell))
    result = benchmark(OperationDriver(cell, op_id))
    if check is not None:
        assert check(result, cell)
    if spec.mutates:
        cell.db.commit()
