"""The persistent class catalog with dynamic schema evolution (R4).

The catalog maps class names to class ids, field definitions (with
defaults) and base classes.  It is stored as one serialized record in a
dedicated heap whose RID is a named root of the page file, so it
survives restarts and is loaded with a single record read.

Each class has a **layout**: the field names its records store, in
order.  It is the inherited and own fields at definition time, and it
only grows: adding a field to a class appends it to the layout of the
class and of every subclass, and bumps each one's schema version.  A
record written under an older version is therefore a prefix of the
current layout, and reading it fills the tail with the defaults.
Nothing is rewritten eagerly — exactly how engines avoid O(extent)
schema changes, and what makes the paper's "add a DrawNode type / add
an attribute" extension cheap to measure.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.heap import HeapFile
from repro.engine import serializer
from repro.errors import SchemaError


@dataclasses.dataclass
class FieldDefinition:
    """One field of a class: its name, and the default a new object
    takes when it leaves the field out and a record written before the
    field existed reads."""

    name: str
    default: Any = None


@dataclasses.dataclass
class ClassDefinition:
    """One class: id, name, optional base, own fields, schema version
    and record layout (see the module docstring)."""

    class_id: int
    name: str
    base: Optional[str]
    fields: List[FieldDefinition]
    version: int = 1
    layout: List[str] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        """Serializable form."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ClassDefinition":
        """Rebuild from :meth:`to_dict` output."""
        fields = [FieldDefinition(**field) for field in raw["fields"]]
        return cls(**{**raw, "fields": fields})


class Catalog:
    """The schema catalog of one object store."""

    _ROOT = "catalog.rid"

    def __init__(self, heap: HeapFile) -> None:
        self._heap = heap
        self._file = heap._pool._file
        self._classes: Dict[str, ClassDefinition] = {}
        self._by_id: Dict[int, ClassDefinition] = {}
        #: class id -> (layout, defaults), dropped by every change.
        self._compiled: Dict[int, Tuple[Tuple[str, ...], Tuple[Any, ...]]] = {}
        self._next_class_id = 1
        rid = self._file.get_root(self._ROOT, 0)
        if rid:
            self._rid: Optional[int] = rid
            self._load(rid)
        else:
            self._rid = None
            self.save()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _load(self, rid: int) -> None:
        raw = serializer.decode(self._heap.read(rid))
        self._next_class_id = raw["next_id"]
        for entry in raw["classes"]:
            definition = ClassDefinition.from_dict(entry)
            self._classes[definition.name] = definition
            self._by_id[definition.class_id] = definition

    def save(self) -> None:
        """Write the catalog record and update its root pointer."""
        self._compiled.clear()
        payload = serializer.encode(
            {
                "next_id": self._next_class_id,
                "classes": [c.to_dict() for c in self._classes.values()],
            }
        )
        if self._rid is None:
            self._rid = self._heap.insert(payload)
        else:
            self._rid = self._heap.update(self._rid, payload)
        self._file.set_root(self._ROOT, self._rid)

    # ------------------------------------------------------------------
    # Class management
    # ------------------------------------------------------------------

    def define_class(
        self,
        name: str,
        fields: List[FieldDefinition],
        base: Optional[str] = None,
    ) -> ClassDefinition:
        """Register a new class; returns its definition.

        Raises:
            SchemaError: on duplicate names, unknown bases, or field
                name collisions with inherited fields.
        """
        if name in self._classes:
            raise SchemaError(f"class {name!r} already defined")
        if base is not None and base not in self._classes:
            raise SchemaError(f"unknown base class {base!r}")
        layout = self.all_field_names(base)
        seen = set(layout)
        for field in fields:
            if field.name in seen:
                raise SchemaError(
                    f"duplicate field {field.name!r} in class {name!r}"
                )
            seen.add(field.name)
            layout.append(field.name)
        definition = ClassDefinition(
            self._next_class_id, name, base, list(fields), layout=layout
        )
        self._next_class_id += 1
        self._classes[name] = definition
        self._by_id[definition.class_id] = definition
        self.save()
        return definition

    def add_field(self, class_name: str, field: FieldDefinition) -> None:
        """Add a field to an existing class (lazy upgrade on read): it
        ends the layout of the class and of every subclass, each of
        which moves to a new version."""
        definition = self.get(class_name)
        affected = [
            c for c in self._classes.values() if self.is_subclass(c.name, class_name)
        ]
        if any(field.name in c.layout for c in affected):
            raise SchemaError(
                f"class {class_name!r} already has field {field.name!r}"
            )
        definition.fields.append(field)
        for other in affected:
            other.layout.append(field.name)
            other.version += 1
        self.save()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> ClassDefinition:
        """Class definition by name."""
        try:
            return self._classes[name]
        except KeyError:
            raise SchemaError(f"unknown class {name!r}") from None

    def get_by_id(self, class_id: int) -> ClassDefinition:
        """Class definition by id."""
        try:
            return self._by_id[class_id]
        except KeyError:
            raise SchemaError(f"unknown class id {class_id}") from None

    def has_class(self, name: str) -> bool:
        """Whether a class exists."""
        return name in self._classes

    def class_names(self) -> List[str]:
        """All class names in definition order."""
        return list(self._classes)

    def is_subclass(self, name: str, ancestor: str) -> bool:
        """Whether ``name`` equals or transitively specializes ``ancestor``."""
        current: Optional[str] = name
        while current is not None:
            if current == ancestor:
                return True
            current = self.get(current).base
        return False

    def all_fields(self, name: str) -> List[FieldDefinition]:
        """Fields including inherited ones, bases first."""
        definition = self.get(name)
        inherited = self.all_fields(definition.base) if definition.base else []
        return inherited + list(definition.fields)

    def all_field_names(self, name: Optional[str]) -> List[str]:
        """Field names including inherited ones; [] for ``None``."""
        if name is None:
            return []
        return [f.name for f in self.all_fields(name)]

    def layout(self, class_id: int) -> Tuple[Tuple[str, ...], Tuple[Any, ...]]:
        """The field names a record of the class stores, in order, and
        the default of each (what a shorter, older record reads)."""
        compiled = self._compiled.get(class_id)
        if compiled is None:
            definition = self.get_by_id(class_id)
            defaults = {f.name: f.default for f in self.all_fields(definition.name)}
            # Interned: a read by a literal field name matches by identity.
            names = tuple(sys.intern(name) for name in definition.layout)
            compiled = names, tuple(defaults[name] for name in names)
            self._compiled[class_id] = compiled
        return compiled
