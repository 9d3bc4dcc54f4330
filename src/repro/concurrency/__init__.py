"""Multi-user support: cooperation and concurrency control (R8/R9).

Two modules reproduce the paper's section 7 multi-user experiments:

* :mod:`repro.concurrency.workspace` — **long transactions as
  cooperative workspaces**: users check nodes out of a shared database
  into private workspaces, edit locally, and check back in to make
  their updates shareable (requirement R9's scenario verbatim);
* :mod:`repro.concurrency.multiuser` — the **section 7 driver**: N
  simulated workstations on one :class:`~repro.netsim.server.ObjectServer`,
  running the read mix, disjoint updates (R9's "two users update
  different nodes") or optimistic transactions.

Optimistic validation itself (R8, first-committer-wins) is not here: it
is decided in one place, the server's ``commit_batch``/``prepare_batch``
(``ObjectServer._validate``), which clients reach through
``NetworkConfig(concurrency="optimistic")``.
"""

from repro.concurrency.workspace import SharedStore, Workspace
from repro.concurrency.multiuser import (
    MultiUserHarness,
    ParallelLoadResult,
    TransactionLoadResult,
    UpdateLoadResult,
)

__all__ = [
    "SharedStore",
    "Workspace",
    "MultiUserHarness",
    "ParallelLoadResult",
    "TransactionLoadResult",
    "UpdateLoadResult",
]
