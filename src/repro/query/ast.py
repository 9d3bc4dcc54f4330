"""Abstract syntax of the ad-hoc query language.

A query selects a node kind (``nodes`` / ``text`` / ``form``) and an
optional boolean predicate over the four integer node attributes.
Expression nodes are immutable dataclasses; :func:`attributes_used`
and the executor's planner walk them structurally.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Optional, Set, Union

from repro.core.schema import NODE_ATTRIBUTES

#: Attribute names a predicate may reference.
ATTRIBUTES = frozenset(NODE_ATTRIBUTES)

#: Comparison operators.
OPERATORS = frozenset({"=", "!=", "<", "<=", ">", ">="})


@dataclasses.dataclass(frozen=True)
class Comparison:
    """``attribute op value`` (e.g. ``hundred >= 10``)."""

    attribute: str
    operator: str
    value: int


@dataclasses.dataclass(frozen=True)
class Between:
    """``attribute between low and high`` (inclusive both ends)."""

    attribute: str
    low: int
    high: int


@dataclasses.dataclass(frozen=True)
class And:
    """Conjunction of two predicates."""

    left: "Expr"
    right: "Expr"


@dataclasses.dataclass(frozen=True)
class Or:
    """Disjunction of two predicates."""

    left: "Expr"
    right: "Expr"


@dataclasses.dataclass(frozen=True)
class Not:
    """Negation of a predicate."""

    operand: "Expr"


Expr = Union[Comparison, Between, And, Or, Not]


@dataclasses.dataclass(frozen=True)
class OrderBy:
    """Result ordering: an attribute plus direction."""

    attribute: str
    descending: bool = False


@dataclasses.dataclass(frozen=True)
class Query:
    """A full query.

    Attributes:
        kind: "nodes", "text" or "form" (the class selector).
        predicate: optional boolean filter.
        aggregate: ``"count"`` for ``count ...`` queries, else None.
        order_by: optional result ordering (ignored for aggregates).
        limit: optional result-count cap (applied after ordering).
    """

    kind: str
    predicate: Optional[Expr]
    aggregate: Optional[str] = None
    order_by: Optional[OrderBy] = None
    limit: Optional[int] = None


def attributes_used(expr: Optional[Expr]) -> FrozenSet[str]:
    """The set of attribute names a predicate references."""
    found: Set[str] = set()

    def walk(node: Optional[Expr]) -> None:
        if node is None:
            return
        if isinstance(node, (Comparison, Between)):
            found.add(node.attribute)
        elif isinstance(node, (And, Or)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Not):
            walk(node.operand)

    walk(expr)
    return frozenset(found)


def unparse(query: "Query") -> str:
    """Render a query back to canonical source text.

    ``parse(unparse(q))`` is the identity for any well-formed query
    (the property tests pin this); the output uses minimal parentheses
    driven by operator precedence.
    """
    head = "count" if query.aggregate == "count" else "find"
    parts = [head, query.kind]
    if query.predicate is not None:
        parts += ["where", _unparse_expr(query.predicate, parent_level=0)]
    if query.order_by is not None:
        parts += ["order", "by", query.order_by.attribute]
        if query.order_by.descending:
            parts.append("desc")
    if query.limit is not None:
        parts += ["limit", str(query.limit)]
    return " ".join(parts)


#: Precedence levels: or < and < not < atoms.
_LEVEL_OR, _LEVEL_AND, _LEVEL_NOT, _LEVEL_ATOM = 0, 1, 2, 3


def _unparse_expr(expr: Expr, parent_level: int) -> str:
    if isinstance(expr, Comparison):
        return f"{expr.attribute} {expr.operator} {expr.value}"
    if isinstance(expr, Between):
        return f"{expr.attribute} between {expr.low} and {expr.high}"
    if isinstance(expr, Or):
        # The parser is left-associative; parenthesizing the right
        # operand one level tighter preserves right-nested trees.
        text = (
            f"{_unparse_expr(expr.left, _LEVEL_OR)} or "
            f"{_unparse_expr(expr.right, _LEVEL_OR + 1)}"
        )
        return f"({text})" if parent_level > _LEVEL_OR else text
    if isinstance(expr, And):
        text = (
            f"{_unparse_expr(expr.left, _LEVEL_AND)} and "
            f"{_unparse_expr(expr.right, _LEVEL_AND + 1)}"
        )
        return f"({text})" if parent_level > _LEVEL_AND else text
    if isinstance(expr, Not):
        return f"not {_unparse_expr(expr.operand, _LEVEL_NOT)}"
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate(expr: Optional[Expr], attributes: dict) -> bool:
    """Evaluate a predicate against one node's attribute values."""
    if expr is None:
        return True
    if isinstance(expr, Comparison):
        value = attributes[expr.attribute]
        return {
            "=": value == expr.value,
            "!=": value != expr.value,
            "<": value < expr.value,
            "<=": value <= expr.value,
            ">": value > expr.value,
            ">=": value >= expr.value,
        }[expr.operator]
    if isinstance(expr, Between):
        return expr.low <= attributes[expr.attribute] <= expr.high
    if isinstance(expr, And):
        return evaluate(expr.left, attributes) and evaluate(expr.right, attributes)
    if isinstance(expr, Or):
        return evaluate(expr.left, attributes) or evaluate(expr.right, attributes)
    if isinstance(expr, Not):
        return not evaluate(expr.operand, attributes)
    raise TypeError(f"not an expression node: {expr!r}")
