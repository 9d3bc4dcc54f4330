"""repro — a reproduction of the HyperModel benchmark (EDBT 1990).

The package implements the benchmark of Berre, Anderson and Mallison
end to end: the conceptual schema and test-database generator of
section 5, the twenty operations of section 6, the cold/warm
measurement protocol of section 5.3, four storage backends spanning the
architectural spectrum the paper compares, and the surrounding
requirements (schema evolution, versioning, access control, ad-hoc
queries, cooperative multi-user editing) of section 3.

Quickstart::

    from repro import HyperModelConfig, DatabaseGenerator, Operations
    from repro.backends import create_backend

    db = create_backend("memory")
    db.open()
    gen = DatabaseGenerator(HyperModelConfig(levels=4)).generate(db)
    ops = Operations(db)
    print(ops.name_lookup(42))
"""

from repro.core.config import HyperModelConfig, LEVEL_NODE_COUNTS
from repro.core.model import LinkAttributes, NodeData, NodeKind
from repro.core.bitmap import Bitmap
from repro.core.interface import HyperModelDatabase
from repro.core.generator import DatabaseGenerator, GeneratedDatabase, GenerationStats
from repro.core.operations import CATALOG, OperationCatalog, Operations
from repro.core.verification import verify_database
from repro.errors import HyperModelError

__version__ = "1.0.0"

__all__ = [
    "HyperModelConfig",
    "LEVEL_NODE_COUNTS",
    "LinkAttributes",
    "NodeData",
    "NodeKind",
    "Bitmap",
    "HyperModelDatabase",
    "DatabaseGenerator",
    "GeneratedDatabase",
    "GenerationStats",
    "Operations",
    "OperationCatalog",
    "CATALOG",
    "verify_database",
    "HyperModelError",
    "__version__",
]
