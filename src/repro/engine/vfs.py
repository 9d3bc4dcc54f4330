"""The virtual file system: every engine byte crosses this seam.

The storage engine used to call ``open()`` / ``os.fsync`` directly from
:mod:`repro.engine.pages`, :mod:`repro.engine.wal` and
:mod:`repro.engine.store`, which made the R10 recoverability story an
*assertion*: nothing could crash the store mid-commit and watch it come
back.  This module funnels all of that through two small protocols —
:class:`VFS` (path-level operations) and :class:`VFSFile` (handle-level
operations) — with three implementations:

* :class:`RealVFS` — the default; thin wrappers over the standard
  library, behaviourally identical to the old direct calls.
* :class:`CountingVFS` — a decorator feeding the ``engine.io.*``
  counter namespace of :mod:`repro.obs` (opens, reads, writes, syncs,
  bytes in either direction), so the harness can report physical I/O
  next to buffer-pool hit rates.
* :class:`FaultInjectingVFS` — a decorator that deterministically
  (seeded) injects faults at the Nth *mutating* I/O operation: raise,
  short-write, torn-write-then-crash, drop-fsync, or full simulated
  crash after which every further mutation raises
  :class:`SimulatedCrash`.  The crash matrix in
  :mod:`repro.harness.crashtest` is built on this.

The injected VFS is threaded through :class:`~repro.engine.pages.PageFile`,
:class:`~repro.engine.wal.WriteAheadLog` and
:class:`~repro.engine.store.ObjectStore` (and from there through the
``oodb`` backend and ``create_backend(..., vfs=...)``), so a single
decorator instance observes the complete I/O stream of one database in
deterministic order.
"""

from __future__ import annotations

import os
import random
import shutil
from typing import BinaryIO, List, Optional, Tuple

from repro.errors import StorageError
from repro.obs import Instrumentation, resolve

__all__ = [
    "VFS",
    "VFSFile",
    "RealVFS",
    "RealVFSFile",
    "MemoryVFS",
    "MemoryVFSFile",
    "CountingVFS",
    "FaultInjectingVFS",
    "FaultInjectedError",
    "SimulatedCrash",
    "FAULT_KINDS",
]


class SimulatedCrash(StorageError):
    """The process 'died' at an injected crash point.

    Raised by :class:`FaultInjectingVFS` at the scheduled operation and
    by every *mutating* operation thereafter: a crashed process cannot
    write.  Reads keep working so post-mortem inspection is possible,
    but the crash-matrix harness reopens the files through a fresh
    :class:`RealVFS` instead.
    """


class FaultInjectedError(StorageError):
    """A transient injected I/O failure (the ``fail`` fault kind)."""


#: The supported one-shot fault kinds of :meth:`FaultInjectingVFS.fail_at`.
FAULT_KINDS = ("fail", "short_write", "torn_write", "drop_fsync", "crash")


class VFSFile:
    """Protocol for one open file handle.

    Concrete implementations wrap (or decorate) a binary file object.
    ``sync`` is the durability point — flush to the OS *and* force the
    OS to stable storage — kept distinct from ``flush`` so fault
    injection can drop exactly the fsync semantics.
    """

    path: str

    def read(self, size: int = -1) -> bytes:
        raise NotImplementedError

    def write(self, data: bytes) -> int:
        raise NotImplementedError

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        raise NotImplementedError

    def tell(self) -> int:
        raise NotImplementedError

    def truncate(self, size: int) -> int:
        raise NotImplementedError

    def flush(self) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        """Flush and fsync: force the file to stable storage."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    def __enter__(self) -> "VFSFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class VFS:
    """Protocol for path-level filesystem operations.

    Everything the engine does to the filesystem — opening page files
    and logs, probing sizes, and the vacuum/backup/restore file shuffles
    — goes through one of these.
    """

    def open(self, path: str, mode: str) -> VFSFile:
        """Open ``path`` in binary ``mode`` (``rb``/``r+b``/``w+b``/``ab+``)."""
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def size(self, path: str) -> int:
        """File size in bytes; 0 for a missing file."""
        raise NotImplementedError

    def remove(self, path: str) -> None:
        """Delete a file (missing files are tolerated)."""
        raise NotImplementedError

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst``."""
        raise NotImplementedError

    def copy(self, src: str, dst: str) -> None:
        """Copy a file's contents (the backup primitive)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# The real thing
# ----------------------------------------------------------------------


class RealVFSFile(VFSFile):
    """A :class:`VFSFile` over a standard binary file object."""

    def __init__(self, path: str, handle: BinaryIO) -> None:
        self.path = path
        self._handle = handle

    def read(self, size: int = -1) -> bytes:
        return self._handle.read(size)

    def write(self, data: bytes) -> int:
        return self._handle.write(data)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._handle.seek(offset, whence)

    def tell(self) -> int:
        return self._handle.tell()

    def truncate(self, size: int) -> int:
        return self._handle.truncate(size)

    def flush(self) -> None:
        self._handle.flush()

    def sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<RealVFSFile {self.path!r} {state}>"


class RealVFS(VFS):
    """The default VFS: plain standard-library filesystem access."""

    def open(self, path: str, mode: str) -> VFSFile:
        return RealVFSFile(path, open(path, mode))

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def size(self, path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def remove(self, path: str) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def copy(self, src: str, dst: str) -> None:
        shutil.copyfile(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<RealVFS>"


# ----------------------------------------------------------------------
# In-memory filesystem
# ----------------------------------------------------------------------


class MemoryVFSFile(VFSFile):
    """A :class:`VFSFile` over a shared in-memory buffer.

    The buffer is the ``bytearray`` held in the owning
    :class:`MemoryVFS`'s file table; like a POSIX descriptor, a handle
    keeps its buffer alive even if the path is removed or replaced
    underneath it.
    """

    def __init__(self, path: str, buffer: bytearray, append: bool) -> None:
        self.path = path
        self._buffer = buffer
        self._append = append
        self._pos = 0
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"I/O operation on closed file {self.path!r}")

    def read(self, size: int = -1) -> bytes:
        self._check_open()
        if size is None or size < 0:
            data = bytes(self._buffer[self._pos:])
        else:
            data = bytes(self._buffer[self._pos:self._pos + size])
        self._pos += len(data)
        return data

    def write(self, data: bytes) -> int:
        self._check_open()
        if self._append:
            self._pos = len(self._buffer)
        end = self._pos + len(data)
        if self._pos > len(self._buffer):
            # Sparse write past EOF: zero-fill the gap, like a real file.
            self._buffer.extend(b"\0" * (self._pos - len(self._buffer)))
        self._buffer[self._pos:end] = data
        self._pos = end
        return len(data)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        self._check_open()
        if whence == os.SEEK_SET:
            self._pos = offset
        elif whence == os.SEEK_CUR:
            self._pos += offset
        elif whence == os.SEEK_END:
            self._pos = len(self._buffer) + offset
        else:
            raise ValueError(f"invalid whence {whence!r}")
        if self._pos < 0:
            raise OSError("negative seek position")
        return self._pos

    def tell(self) -> int:
        self._check_open()
        return self._pos

    def truncate(self, size: int) -> int:
        self._check_open()
        if size < len(self._buffer):
            del self._buffer[size:]
        else:
            self._buffer.extend(b"\0" * (size - len(self._buffer)))
        return size

    def flush(self) -> None:
        self._check_open()

    def sync(self) -> None:
        self._check_open()

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<MemoryVFSFile {self.path!r} {state}>"


class MemoryVFS(VFS):
    """A fully in-memory VFS: one ``bytearray`` per path.

    Backs components that want real file semantics — append, seek,
    truncate, torn tails — without touching the filesystem, such as the
    replication layer's primary WAL (see :mod:`repro.replication`).
    ``sync`` is a no-op (memory *is* the stable storage here), so
    durability faults are modelled by wrapping a :class:`MemoryVFS` in
    a :class:`FaultInjectingVFS`, whose decisions fire before the bytes
    reach the buffer.
    """

    def __init__(self) -> None:
        self._files: dict = {}

    def open(self, path: str, mode: str) -> VFSFile:
        if "w" in mode:
            self._files[path] = bytearray()
        elif path not in self._files:
            if "a" not in mode:
                # "rb" / "r+b" require the file to exist, like open().
                raise FileNotFoundError(f"no such in-memory file: {path!r}")
            self._files[path] = bytearray()
        return MemoryVFSFile(path, self._files[path], append="a" in mode)

    def exists(self, path: str) -> bool:
        return path in self._files

    def size(self, path: str) -> int:
        buffer = self._files.get(path)
        return 0 if buffer is None else len(buffer)

    def remove(self, path: str) -> None:
        self._files.pop(path, None)

    def replace(self, src: str, dst: str) -> None:
        if src not in self._files:
            raise FileNotFoundError(f"no such in-memory file: {src!r}")
        self._files[dst] = self._files.pop(src)

    def copy(self, src: str, dst: str) -> None:
        if src not in self._files:
            raise FileNotFoundError(f"no such in-memory file: {src!r}")
        self._files[dst] = bytearray(self._files[src])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryVFS {len(self._files)} files>"


# ----------------------------------------------------------------------
# Counting decorator (engine.io.* namespace)
# ----------------------------------------------------------------------


class _CountingFile(VFSFile):
    def __init__(self, inner: VFSFile, instr: Instrumentation) -> None:
        self.path = inner.path
        self._inner = inner
        self._instr = instr

    def read(self, size: int = -1) -> bytes:
        data = self._inner.read(size)
        self._instr.count("engine.io.reads")
        self._instr.count("engine.io.bytes_read", len(data))
        return data

    def write(self, data: bytes) -> int:
        written = self._inner.write(data)
        self._instr.count("engine.io.writes")
        self._instr.count("engine.io.bytes_written", written)
        return written

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def truncate(self, size: int) -> int:
        self._instr.count("engine.io.truncates")
        return self._inner.truncate(size)

    def flush(self) -> None:
        self._inner.flush()

    def sync(self) -> None:
        self._instr.count("engine.io.syncs")
        self._inner.sync()

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class CountingVFS(VFS):
    """Decorator that counts every I/O operation into ``engine.io.*``.

    Counters: ``engine.io.opens``, ``engine.io.reads``,
    ``engine.io.writes``, ``engine.io.syncs``, ``engine.io.truncates``,
    ``engine.io.bytes_read``, ``engine.io.bytes_written``.  The store
    wraps its injected VFS in one of these automatically so physical
    I/O shows up in every counter report without further wiring.
    """

    def __init__(
        self,
        base: Optional[VFS] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.base = base or RealVFS()
        self._instr = resolve(instrumentation)

    def open(self, path: str, mode: str) -> VFSFile:
        self._instr.count("engine.io.opens")
        return _CountingFile(self.base.open(path, mode), self._instr)

    def exists(self, path: str) -> bool:
        return self.base.exists(path)

    def size(self, path: str) -> int:
        return self.base.size(path)

    def remove(self, path: str) -> None:
        self.base.remove(path)

    def replace(self, src: str, dst: str) -> None:
        self.base.replace(src, dst)

    def copy(self, src: str, dst: str) -> None:
        self.base.copy(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CountingVFS over {self.base!r}>"


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------


class _FaultingFile(VFSFile):
    """File decorator that consults the owning VFS before mutating."""

    def __init__(self, inner: VFSFile, owner: "FaultInjectingVFS") -> None:
        self.path = inner.path
        self._inner = inner
        self._owner = owner

    def read(self, size: int = -1) -> bytes:
        return self._inner.read(size)

    def write(self, data: bytes) -> int:
        action = self._owner._before_mutation("write", self.path)
        if action == "short_write":
            keep = self._owner._partial_length(len(data))
            self._inner.write(data[:keep])
            return len(data)  # the caller believes the write completed
        if action == "torn_write":
            keep = self._owner._partial_length(len(data))
            if keep:
                self._inner.write(data[:keep])
                self._inner.flush()
            raise SimulatedCrash(
                f"torn write ({keep}/{len(data)} bytes) on {self.path}"
            )
        return self._inner.write(data)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def truncate(self, size: int) -> int:
        self._owner._before_mutation("truncate", self.path)
        return self._inner.truncate(size)

    def flush(self) -> None:
        self._inner.flush()

    def sync(self) -> None:
        action = self._owner._before_mutation("sync", self.path)
        if action == "drop_fsync":
            self._inner.flush()  # data reaches the OS but not the platter
            return
        self._inner.sync()

    def close(self) -> None:
        # Closing is always allowed: the crashed harness must be able to
        # release OS handles without writing anything further.
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class FaultInjectingVFS(VFS):
    """A VFS decorator with deterministic, seeded fault injection.

    The decorator numbers every *mutating* operation (write, sync,
    truncate, remove, replace, copy) 1, 2, 3, ... in call order — the
    sequence is deterministic because the engine above it is — and
    triggers scheduled faults when their operation number comes up:

    * ``fail``        — raise :class:`FaultInjectedError` once (a
      transient error the caller may surface or retry);
    * ``short_write`` — persist only a seeded prefix of the buffer but
      report success (silent partial write);
    * ``torn_write``  — persist a seeded prefix, then die with
      :class:`SimulatedCrash` (the classic torn tail);
    * ``drop_fsync``  — turn that one ``sync`` into a flush (the
      battery-less disk cache lying about durability);
    * ``crash``       — die with :class:`SimulatedCrash` *before* the
      operation touches the file; every later mutation also raises.

    ``seed`` drives the partial-write lengths so a given schedule
    replays byte-identically.  :attr:`mutation_ops` exposes the running
    operation count; a counting pre-pass uses it to size a crash
    matrix (see :mod:`repro.harness.crashtest`).
    """

    def __init__(self, base: Optional[VFS] = None, seed: int = 0) -> None:
        self.base = base or RealVFS()
        self.seed = seed
        self._rng = random.Random(seed)
        self.mutation_ops = 0
        self.crashed = False
        self._schedule: List[Tuple[int, str]] = []
        #: (op number, action, kind, path) log of every fired fault.
        self.fired: List[Tuple[int, str, str]] = []

    # -- scheduling ------------------------------------------------------

    def fail_at(self, op: int, kind: str = "fail") -> "FaultInjectingVFS":
        """Schedule fault ``kind`` for the Nth mutating operation.

        Returns ``self`` so schedules chain fluently.
        """
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        if op < 1:
            raise ValueError("operation numbers start at 1")
        self._schedule.append((op, kind))
        return self

    def crash_at(self, op: int, torn: bool = False) -> "FaultInjectingVFS":
        """Schedule a simulated crash at the Nth mutating operation.

        With ``torn=True`` a write at the crash point persists a seeded
        prefix first — the torn-tail crash mode.
        """
        return self.fail_at(op, "torn_write" if torn else "crash")

    # -- the injection point ---------------------------------------------

    def _before_mutation(self, op: str, path: str) -> Optional[str]:
        """Advance the op counter; return the action for this op."""
        if self.crashed:
            raise SimulatedCrash(
                f"{op} on {path} after simulated crash (op {self.mutation_ops})"
            )
        self.mutation_ops += 1
        action: Optional[str] = None
        for index, (at, kind) in enumerate(self._schedule):
            if at == self.mutation_ops:
                action = kind
                del self._schedule[index]
                break
        if action is None:
            return None
        self.fired.append((self.mutation_ops, action, path))
        if action == "crash":
            self.crashed = True
            raise SimulatedCrash(
                f"simulated crash before {op} on {path} "
                f"(mutating op {self.mutation_ops})"
            )
        if action == "torn_write":
            if op == "write":
                self.crashed = True
                return action  # the file wrapper tears, then dies
            # Torn semantics degrade to a clean crash for non-writes.
            self.crashed = True
            raise SimulatedCrash(
                f"simulated crash before {op} on {path} "
                f"(mutating op {self.mutation_ops})"
            )
        if action == "fail":
            raise FaultInjectedError(
                f"injected {op} failure on {path} "
                f"(mutating op {self.mutation_ops})"
            )
        if action == "short_write" and op != "write":
            return None  # nothing to shorten; the op proceeds
        if action == "drop_fsync" and op != "sync":
            return None
        return action

    def _partial_length(self, total: int) -> int:
        """Seeded prefix length for short/torn writes (never the whole)."""
        if total <= 1:
            return 0
        return self._rng.randrange(0, total)

    # -- VFS surface -----------------------------------------------------

    def open(self, path: str, mode: str) -> VFSFile:
        # Opening for write ("w+b") truncates: that is a mutation.
        if self.crashed and any(flag in mode for flag in ("w", "a", "+")):
            raise SimulatedCrash(
                f"open({mode!r}) on {path} after simulated crash"
            )
        return _FaultingFile(self.base.open(path, mode), self)

    def exists(self, path: str) -> bool:
        return self.base.exists(path)

    def size(self, path: str) -> int:
        return self.base.size(path)

    def remove(self, path: str) -> None:
        self._before_mutation("remove", path)
        self.base.remove(path)

    def replace(self, src: str, dst: str) -> None:
        self._before_mutation("replace", src)
        self.base.replace(src, dst)

    def copy(self, src: str, dst: str) -> None:
        self._before_mutation("copy", src)
        self.base.copy(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else f"{self.mutation_ops} ops"
        return f"<FaultInjectingVFS seed={self.seed} {state}>"
