"""Result digests, compared between the backend under test and an oracle.

The oracle is the ``memory`` backend generated from the same
configuration and driven through the same checked round, so the two
lists of digests must be equal element by element.  Node references
differ between backends, so results are reduced to uniqueIds first.
"""

from __future__ import annotations

import hashlib
from typing import Any

#: Operations whose result order is part of their contract: ordered
#: children, pre-order closures, and the reference chains of ops 15/18.
ORDERED = frozenset({"05A", "10", "13", "15", "18"})


def _state_after_edit(handle: Any, op_id: str, ref: Any) -> Any:
    """What an edit left behind, read back through the backend."""
    db = handle.db
    if op_id == "12":
        return handle.ops.closure_1n_att_sum(ref)
    if op_id == "16":
        return db.get_text(ref)
    return db.get_bitmap(ref).to_bytes()


def digest(handle: Any, spec: Any, args: tuple, result: Any) -> str:
    """A backend-independent digest of one repetition's outcome.

    Read operations digest what they returned; the editing operations
    return nothing useful, so they digest the state they left.
    """
    db = handle.db
    if spec.mutates:
        value = (result, _state_after_edit(handle, spec.op_id, args[0]))
    elif isinstance(result, list):
        value = [
            (db.get_attribute(item[0], "uniqueId"), item[1])
            if isinstance(item, tuple)
            else db.get_attribute(item, "uniqueId")
            for item in result
        ]
        if spec.op_id not in ORDERED:
            value.sort()
    else:
        value = result
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]
