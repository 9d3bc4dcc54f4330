"""A from-scratch object database engine (the OODB substrate).

The paper benchmarked commercial object-oriented DBMSs (GemStone,
Vbase).  This package is the reproduction's stand-in: a single-file
object store built from first principles —

* fixed-size **pages** with a **slotted record layout**
  (:mod:`repro.engine.pages`, :mod:`repro.engine.slotted`);
* an LRU **buffer pool** with pin counts and hit/miss statistics
  (:mod:`repro.engine.buffer`);
* a **heap file** with free-space tracking and placement hints for
  clustering (:mod:`repro.engine.heap`);
* **B+tree** indexes with duplicate support and range scans
  (:mod:`repro.engine.btree`);
* a tag-based binary **serializer** for object state
  (:mod:`repro.engine.serializer`);
* a redo-only **write-ahead log** with checkpoints, recovery and
  the network server's optional group commit (:mod:`repro.engine.wal`);
* a pluggable **virtual file system** seam with I/O counting and
  deterministic fault injection (:mod:`repro.engine.vfs`);
* one implicit **transaction** per store handle, a deferred write set
  that commits whole or not at all (:mod:`repro.engine.txn`);
* a persistent **class catalog** with dynamic schema evolution
  (:mod:`repro.engine.catalog`);
* **version chains** for temporal access (:mod:`repro.engine.versioning`);
* the :class:`~repro.engine.store.ObjectStore` facade tying it together,
  with a 1-N **clustering policy** (:mod:`repro.engine.clustering`).

The engine deliberately exhibits the performance axes the HyperModel
probes: object faulting through a cache, index-assisted lookups,
clustering along the aggregation hierarchy, and commit cost.
"""

from repro.engine.store import ObjectStore, StoreStats
from repro.engine.catalog import ClassDefinition, FieldDefinition
from repro.engine.vfs import (
    VFS,
    VFSFile,
    RealVFS,
    CountingVFS,
    FaultInjectingVFS,
    SimulatedCrash,
)

__all__ = [
    "ObjectStore",
    "StoreStats",
    "ClassDefinition",
    "FieldDefinition",
    "VFS",
    "VFSFile",
    "RealVFS",
    "CountingVFS",
    "FaultInjectingVFS",
    "SimulatedCrash",
]
