"""Exception hierarchy shared by every subsystem in the reproduction.

All library errors derive from :class:`HyperModelError` so applications
can catch one base class.  Subsystems refine it: the storage engine
raises :class:`StorageError` subclasses, the query language raises
:class:`QueryError` subclasses, and so on.
"""


class HyperModelError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(HyperModelError):
    """An invalid benchmark or engine configuration was supplied."""


class DatabaseClosedError(HyperModelError):
    """An operation was attempted on a database that is not open."""


class NodeNotFoundError(HyperModelError):
    """A node reference or uniqueId did not resolve to a node."""

    def __init__(self, ref: object) -> None:
        super().__init__(f"no such node: {ref!r}")
        self.ref = ref


class InvalidOperationError(HyperModelError):
    """The operation is not valid for the given node kind or state."""


class StorageError(HyperModelError):
    """Base class for errors raised by the object storage engine."""


class PageError(StorageError):
    """A page-level invariant was violated (bad id, overflow, corruption)."""


class RecordNotFoundError(StorageError):
    """A record id (RID) or object id (OID) did not resolve."""

    def __init__(self, ref: object) -> None:
        super().__init__(f"no such record: {ref!r}")
        self.ref = ref


class TransactionError(StorageError):
    """A transaction was used incorrectly (not active, already ended)."""


class ConflictError(TransactionError):
    """Optimistic validation failed: another transaction committed first."""


class CommitConflictError(ConflictError):
    """A server-side optimistic commit was rejected: stale reads.

    Carries the conflicting uids so the client can invalidate exactly
    the cached copies that went stale before retrying.
    """

    def __init__(self, conflicts):
        uids = sorted(conflicts)
        shown = ", ".join(str(uid) for uid in uids[:8])
        if len(uids) > 8:
            shown += ", ..."
        super().__init__(
            f"optimistic commit rejected: {len(uids)} stale read(s)"
            f" [{shown}]"
        )
        self.conflicts = uids


class RecoveryError(StorageError):
    """The write-ahead log could not be replayed cleanly."""


class SchemaError(StorageError):
    """A catalog/schema operation failed (unknown class, duplicate field)."""


class NetworkError(HyperModelError):
    """Base class for simulated network failures (see repro.netsim.faults)."""


class RpcDroppedError(NetworkError):
    """A simulated RPC was dropped on the wire (request or response lost)."""


class RpcTimeoutError(NetworkError):
    """A simulated RPC timed out waiting for the server's response."""


class RpcExhaustedError(NetworkError):
    """An RPC kept failing after the client's bounded retries ran out."""


class QueryError(HyperModelError):
    """Base class for ad-hoc query language errors."""


class QuerySyntaxError(QueryError):
    """The query text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QueryExecutionError(QueryError):
    """The query referenced an unknown attribute or mis-typed a value."""


class AccessDeniedError(HyperModelError):
    """An access-control policy forbids the attempted operation (R11)."""

    def __init__(self, principal: str, action: str, target: object) -> None:
        super().__init__(f"{principal!r} may not {action} {target!r}")
        self.principal = principal
        self.action = action
        self.target = target


class WorkspaceError(HyperModelError):
    """A cooperative-workspace operation failed (R9)."""


class CheckOutConflictError(WorkspaceError):
    """A node is already checked out to a different workspace."""
