#!/usr/bin/env python
"""Lint: the server verb surface and its invariants are stated once.

Fails if

* ``netsim/server.py`` assigns ``self._records[...]`` or
  ``self._versions[...]`` outside ``_install``, appends to the WAL
  (``.log_commit`` / ``.log_prepare`` / ``.log_decision``) outside
  ``_commit`` / ``prepare_batch`` / ``abort_prepared``, walks a
  ``frontier`` outside ``_scatter_bfs``, stamps reply versions
  outside ``fetch`` / ``_ship``, or touches the reply-size memo
  ``self._sizes`` outside ``__init__``, its two invalidation sites
  (``_install``, ``load_records``) and the one sizing helper
  ``_reply_size``;
* anything under ``netsim/`` calls ``serializer.encode(`` (wire sizes
  come from ``serializer.encoded_size``; nothing is encoded to be
  measured);
* a router or the replication group appends to a WAL at all (the shard
  coordinator's own ``decision_log`` excepted);
* ``accept_trace_context`` / ``take_reply_versions`` are defined
  anywhere but ``netsim/server.py`` and ``netsim/verbs.py``, or a
  router defines its own ``_call`` / ``stats`` / ``use_transport``;
* a ``VerbRouter`` subclass defines a public method that is neither in
  the ``netsim/verbs.py`` table nor one of its documented extras,
  lists a verb in ``forwards`` that it also defines, or spells out a
  passthrough (a body that is only ``return self._call(...)``);
* ``stale_reads(`` is called outside ``netsim/server.py``
  (first-committer-wins is decided by ``ObjectServer._validate``
  alone), or a module under ``concurrency/`` imports ``repro.engine``
  (multi-user code runs on the server stack, not beside it);
* a ``HyperModelDatabase`` subclass defines ``set_attribute`` (the
  attribute-write check is made once, by the base class; a backend
  implements ``_set_attribute``);
* a verb in ``SERVED_VERBS`` has no caller: it is referenced, as
  ``.verb`` or ``"verb"``, nowhere under ``src/repro/`` outside
  ``netsim/server.py``, ``netsim/verbs.py`` and functions themselves
  named ``verb`` (a served verb nobody sends is dead surface).

Exit status: 0 when clean, 1 otherwise.  Run from the repository root:
``python scripts/lint_verb_surface.py``.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(_SRC))

from repro.netsim import verbs  # noqa: E402

_SERVER = "netsim/server.py"
_VERBS = "netsim/verbs.py"
#: server.py pattern -> the functions allowed to contain it.
_SERVER_OWNERS = {
    "self._records[...] =": {"_install"},
    "self._versions[...] =": {"_install"},
    ".log_commit": {"_commit"},
    ".log_decision": {"_commit", "abort_prepared"},
    ".log_prepare": {"prepare_batch"},
    "while frontier": {"_scatter_bfs"},
    "._stamp_reply_versions": {"fetch", "_ship"},
    "self._sizes": {"__init__", "_install", "load_records", "_reply_size"},
}
#: The call no netsim module makes (sizes are computed, not encoded).
_ENCODE = "serializer.encode"
_WAL_APPENDS = (".log_commit", ".log_decision", ".log_prepare")
#: Files that route or replicate and therefore never write a server WAL.
_WAL_FREE = (
    _VERBS,
    "sharding/router.py",
    "replication/router.py",
    "replication/group.py",
    "backends/clientserver.py",
)
#: Names only the server and the VerbRouter base may define.
_ENVELOPE = ("accept_trace_context", "take_reply_versions")
_BASE_ONLY = ("_call", "stats", "use_transport")
#: The one validation kernel (called by the server alone) and the
#: package nothing under ``concurrency/`` may import.
_STALE_READS = "stale_reads"
_ENGINE = "repro.engine"
#: Public router members beyond the verb table, by class.
_EXTRAS = {
    "ShardRouter": {"trace_lane_metadata", "resolve_in_doubt", "wal"},
    "ReplicaRouter": {"trace_lane_metadata", "clock", "latency", "wal"},
}
_TABLE = set(verbs.SERVED_VERBS + verbs.ADMIN_VERBS + verbs.PLUMBING)
#: The backend base class and the verb only it may define.
_BACKEND_BASE = "HyperModelDatabase"
_CHECKED_VERB = "set_attribute"
#: The verbs that need a caller, and the files that define rather
#: than send them.
_SERVED = set(verbs.SERVED_VERBS)
_VERB_HOMES = (_SERVER, _VERBS)


def _patterns(node: ast.AST):
    """The guarded patterns one AST node exhibits."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            value = getattr(target, "value", None)
            if (
                isinstance(target, ast.Subscript)
                and isinstance(value, ast.Attribute)
                and getattr(value.value, "id", "") == "self"
                and value.attr in ("_records", "_versions")
            ):
                yield f"self.{value.attr}[...] ="
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        yield "." + node.func.attr
        if ast.unparse(node.func) == _ENCODE:
            yield _ENCODE
    elif isinstance(node, ast.Attribute):
        if node.attr == "_sizes" and getattr(node.value, "id", "") == "self":
            yield "self._sizes"
    elif isinstance(node, ast.While) and "frontier" in ast.dump(node.test):
        yield "while frontier"


def _functions(tree: ast.AST):
    """(function name, node inside it) for every node of a module."""
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                yield func, node


def _is_passthrough(func: ast.FunctionDef) -> bool:
    body = [
        stmt
        for stmt in func.body
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and isinstance(body[0].value, ast.Call)
        and ast.unparse(body[0].value.func) == "self._call"
    )


def _lint_validation(rel: str, tree: ast.AST, errors: list) -> None:
    """One validator: ``stale_reads`` in the server, no engine in
    ``concurrency/``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == _STALE_READS
            and rel != _SERVER
        ):
            errors.append(
                f"{rel}:{node.lineno}: {_STALE_READS}(...) outside"
                f" {_SERVER}; only ObjectServer._validate may validate"
            )
        if rel.startswith("concurrency/") and isinstance(
            node, (ast.Import, ast.ImportFrom)
        ):
            names = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.Import)
                else [f"{node.module}.{alias.name}" for alias in node.names]
            )
            if any((name + ".").startswith(_ENGINE + ".") for name in names):
                errors.append(
                    f"{rel}:{node.lineno}: concurrency/ imports {_ENGINE};"
                    f" multi-user code runs on the server stack"
                )


def _lint_router(rel: str, cls: ast.ClassDef, errors: list) -> None:
    module = importlib.import_module("repro." + rel[:-3].replace("/", "."))
    forwards = getattr(module, cls.name).forwards
    defined = {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
    }
    for name, func in defined.items():
        where = f"{rel}:{func.lineno}: {cls.name}.{name}"
        if name in _BASE_ONLY:
            errors.append(f"{where} belongs to VerbRouter alone")
        if name in forwards:
            errors.append(f"{where} is also listed in forwards")
        public = not name.startswith("_")
        if public and name not in _TABLE | _EXTRAS.get(cls.name, set()):
            errors.append(
                f"{where} is not in the netsim/verbs.py table (document"
                f" it in _EXTRAS if it is a genuine extra)"
            )
        if public and _is_passthrough(func):
            errors.append(f"{where} is a passthrough; list it in forwards")
    for verb in forwards:
        if verb not in _TABLE:
            errors.append(f"{rel}: {cls.name}.forwards names unknown {verb!r}")


def _verb_references(node: ast.AST, inside: frozenset = frozenset()):
    """Served verbs referenced under ``node`` as ``.verb`` or
    ``"verb"``, except inside a function named after the verb."""
    if isinstance(node, ast.FunctionDef):
        inside = inside | {node.name}
    name = getattr(node, "attr", None)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    if name in _SERVED and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _verb_references(child, inside)


def _lint_checked_verb(classes: list, errors: list) -> None:
    """No (transitive) subclass of the backend base defines the verb."""
    backends = {_BACKEND_BASE}
    grew = True
    while grew:
        size = len(backends)
        backends |= {
            cls.name
            for _rel, cls in classes
            if any(getattr(b, "id", getattr(b, "attr", "")) in backends
                   for b in cls.bases)
        }
        grew = len(backends) > size
    for rel, cls in classes:
        if cls.name == _BACKEND_BASE or cls.name not in backends:
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == _CHECKED_VERB:
                errors.append(
                    f"{rel}:{stmt.lineno}: {cls.name}.{_CHECKED_VERB}"
                    f" bypasses the one write check in {_BACKEND_BASE};"
                    f" implement _{_CHECKED_VERB}"
                )


def main() -> int:
    errors: list = []
    classes: list = []
    referenced: set = set()
    for path in sorted((_SRC / "repro").rglob("*.py")):
        rel = path.relative_to(_SRC / "repro").as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _lint_validation(rel, tree, errors)
        if rel not in _VERB_HOMES:
            referenced.update(_verb_references(tree))
        for func, node in _functions(tree):
            if node is func and func.name in _ENVELOPE:
                if rel not in (_SERVER, _VERBS):
                    errors.append(
                        f"{rel}:{func.lineno}: {func.name} is defined by"
                        f" ObjectServer and VerbRouter only"
                    )
            for pattern in _patterns(node):
                owners = _SERVER_OWNERS.get(pattern) if rel == _SERVER else None
                if owners is not None and func.name not in owners:
                    errors.append(
                        f"{rel}:{node.lineno}: {pattern} in {func.name};"
                        f" only {sorted(owners)} may"
                    )
                if pattern == _ENCODE and rel.startswith("netsim/"):
                    errors.append(
                        f"{rel}:{node.lineno}: {_ENCODE}(...) in netsim;"
                        f" size with serializer.encoded_size"
                    )
                if (
                    rel in _WAL_FREE
                    and pattern in _WAL_APPENDS
                    and "decision_log" not in ast.unparse(node.func.value)
                ):
                    errors.append(
                        f"{rel}:{node.lineno}: {pattern}(...) outside the"
                        f" server's commit kernels"
                    )
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            classes.append((rel, cls))
            if any(getattr(base, "id", "") == "VerbRouter" for base in cls.bases):
                _lint_router(rel, cls, errors)
    _lint_checked_verb(classes, errors)
    for verb in sorted(_SERVED - referenced):
        errors.append(
            f"{_VERBS}: served verb {verb!r} has no caller under"
            f" src/repro/; delete it or send it"
        )
    print("\n".join(sorted(set(errors))) or "verb surface: clean")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
