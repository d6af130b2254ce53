"""Compact-syntax schema parser, JSON (de)serialization, and emitter.

The concrete syntax covers shape declarations with CLOSED / ^CLOSED / EXTRA
modifiers, grouping with ',', choice with '|', cardinalities ('*', '+', '?',
'[m;n]', '[m;*]'), and value classes built from datatype IRIs, node kinds,
explicit value sets, and (negated) shape references joined with AND.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .errors import (
    DuplicateShapeLabelError,
    ParseError,
    SchemaJsonError,
    UnknownPrefixError,
)
from .rdf_graph import BLANK, XSD_INTEGER, XSD_STRING, BlankValue, DirectedProperty, Iri, Literal, Token, Value, escape_string, tokenize, unescape_string
from .schema_model import (
    AtomicConstr,
    DatatypeSet,
    Empty,
    ExplicitSet,
    Group,
    NodeKind,
    Repetition,
    Schema,
    ShapeDefinition,
    ShapeExpr,
    ShapeRef,
    SomeOf,
    TripleConstraint,
    validate_references,
)

_NODE_KINDS = ("IRI", "BNode", "Literal", "NonLiteral")

_SCHEMA_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<iriref><[^<>"{}|^`\\\s]*>)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<atprefix>@prefix\b)
    | (?P<integer>[+-]?[0-9]+)
    | (?P<pname>[A-Za-z_][A-Za-z0-9_-]*?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?|[A-Za-z_][A-Za-z0-9_-]*?:)
    | (?P<name>[A-Za-z_][A-Za-z0-9_-]*)
    | (?P<dcarets>\^\^)
    | (?P<symbol>[{}()\[\];,|*+?!@^.])
    """,
    re.VERBOSE,
)


class _SchemaParser:
    def __init__(self, text: str):
        self.tokens = tokenize(text, _SCHEMA_TOKEN_RE)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.next_tc_id = 1

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column)

    def at_symbol(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.text == text

    def expect_symbol(self, text: str) -> None:
        tok = self.take()
        if tok.kind != "symbol" or tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}", tok)

    def at_name(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == text

    # -- leaf productions --

    def parse_iri(self) -> str:
        tok = self.take()
        if tok.kind == "iriref":
            return tok.text[1:-1]
        if tok.kind == "pname":
            prefix, _, local = tok.text.partition(":")
            if prefix not in self.prefixes:
                raise UnknownPrefixError(f"undeclared prefix {prefix!r}", tok.line, tok.column)
            return self.prefixes[prefix] + local
        raise self.error(f"expected an IRI, found {tok.text!r}", tok)

    def parse_dprop(self) -> DirectedProperty:
        if self.at_symbol("^"):
            self.take()
            return DirectedProperty(self.parse_iri(), inverse=True)
        return DirectedProperty(self.parse_iri())

    def parse_shape_label(self) -> str:
        tok = self.take()
        if tok.kind != "iriref":
            raise self.error(f"expected a shape label, found {tok.text!r}", tok)
        return tok.text[1:-1]

    # -- schema structure --

    def parse(self) -> Schema:
        shapes: dict[str, ShapeDefinition] = {}
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "atprefix" or (tok.kind == "name" and tok.text == "PREFIX"):
                self.take()
                name = self.take()
                if name.kind != "pname" or not name.text.endswith(":"):
                    raise self.error("malformed prefix declaration", name)
                iri = self.take()
                if iri.kind != "iriref":
                    raise self.error("prefix declaration needs an <IRI>", iri)
                self.prefixes[name.text[:-1]] = iri.text[1:-1]
                if self.at_symbol("."):
                    self.take()
                continue
            label = self.parse_shape_label()
            if label in shapes:
                raise DuplicateShapeLabelError(f"shape <{label}> defined twice")
            shapes[label] = self.parse_shape_definition()
        schema = Schema(shapes, dict(self.prefixes))
        validate_references(schema)
        return schema

    def parse_shape_definition(self) -> ShapeDefinition:
        self.next_tc_id = 1
        closed_fwd = closed_inv = False
        extra: list[DirectedProperty] = []
        while True:
            if self.at_name("CLOSED"):
                self.take()
                closed_fwd = True
            elif self.at_symbol("^") and self.peek(1).kind == "name" and self.peek(1).text == "CLOSED":
                self.take()
                self.take()
                closed_inv = True
            elif self.at_name("EXTRA"):
                self.take()
                while not self.at_symbol("{") and not self.at_name("CLOSED"):
                    if self.at_symbol("^") and self.peek(1).kind == "name" and self.peek(1).text == "CLOSED":
                        break
                    extra.append(self.parse_dprop())
                if not extra:
                    raise self.error("EXTRA needs at least one property")
            else:
                break
        self.expect_symbol("{")
        expr: ShapeExpr = Empty() if self.at_symbol("}") else self.parse_some_of()
        self.expect_symbol("}")
        return ShapeDefinition(closed_fwd, closed_inv, tuple(extra), expr)

    # -- expressions ('|' binds looser than ',') --

    def parse_some_of(self) -> ShapeExpr:
        children = [self.parse_group()]
        while self.at_symbol("|"):
            self.take()
            children.append(self.parse_group())
        return children[0] if len(children) == 1 else SomeOf(tuple(children))

    def parse_group(self) -> ShapeExpr:
        children = [self.parse_unary()]
        while self.at_symbol(","):
            self.take()
            children.append(self.parse_unary())
        return children[0] if len(children) == 1 else Group(tuple(children))

    def parse_unary(self) -> ShapeExpr:
        expr = self.parse_primary()
        card = self.parse_cardinality()
        if card is None:
            return expr
        return Repetition(expr, *card)

    def parse_cardinality(self) -> tuple[int, int | None] | None:
        tok = self.peek()
        if tok.kind != "symbol":
            return None
        if tok.text == "*":
            self.take()
            return (0, None)
        if tok.text == "+":
            self.take()
            return (1, None)
        if tok.text == "?":
            self.take()
            return (0, 1)
        if tok.text == "[":
            self.take()
            lo_tok = self.take()
            if lo_tok.kind != "integer":
                raise self.error("expected a minimum cardinality", lo_tok)
            self.expect_symbol(";")
            hi_tok = self.take()
            if hi_tok.kind == "symbol" and hi_tok.text == "*":
                hi: int | None = None
            elif hi_tok.kind == "integer":
                hi = int(hi_tok.text)
            else:
                raise self.error("expected a maximum cardinality or '*'", hi_tok)
            self.expect_symbol("]")
            lo = int(lo_tok.text)
            if lo < 0 or (hi is not None and hi < 0):
                raise self.error("cardinalities must be natural numbers", lo_tok)
            if hi is not None and lo > hi:
                raise self.error(f"cardinality [{lo};{hi}] has min > max", lo_tok)
            return (lo, hi)
        return None

    def parse_primary(self) -> ShapeExpr:
        if self.at_symbol("("):
            self.take()
            inner = self.parse_some_of()
            self.expect_symbol(")")
            return inner
        if self.at_name("EmptyShape"):
            self.take()
            return Empty()
        dprop = self.parse_dprop()
        value_class = self.parse_value_class()
        tc = TripleConstraint(self.next_tc_id, dprop, value_class)
        self.next_tc_id += 1
        return tc

    def parse_value_class(self) -> tuple[AtomicConstr, ...]:
        atomics = [self.parse_atomic()]
        while self.at_name("AND"):
            self.take()
            atomics.append(self.parse_atomic())
        return tuple(atomics)

    def parse_atomic(self) -> AtomicConstr:
        tok = self.peek()
        if tok.kind == "symbol" and tok.text in ("!", "@"):
            negated = tok.text == "!"
            self.take()
            if negated:
                self.expect_symbol("@")
            return ShapeRef(self.parse_shape_label(), negated)
        if tok.kind == "name":
            if tok.text in _NODE_KINDS:
                self.take()
                return NodeKind(tok.text)
            raise self.error(f"unexpected keyword {tok.text!r} in value class", tok)
        if tok.kind == "symbol" and tok.text == "(":
            self.take()
            values: list[Value] = []
            while not self.at_symbol(")"):
                values.append(self.parse_value())
            self.take()
            if not values:
                raise self.error("empty value set")
            return ExplicitSet(tuple(values))
        return DatatypeSet(self.parse_iri())

    def parse_value(self) -> Value:
        tok = self.peek()
        if tok.kind == "name" and tok.text == "_b":
            self.take()
            return BLANK
        if tok.kind == "string":
            self.take()
            lexical = unescape_string(tok.text[1:-1])
            if self.peek().kind == "dcarets":
                self.take()
                return Literal(lexical, self.parse_iri())
            return Literal(lexical)
        if tok.kind == "integer":
            self.take()
            return Literal(tok.text, XSD_INTEGER)
        return Iri(self.parse_iri())


def parse_schema(text: str) -> Schema:
    """Parse compact-syntax schema text into a :class:`Schema`."""
    return _SchemaParser(text).parse()


# --- compact-syntax emission ------------------------------------------------

def _value_to_shexc(value: Value) -> str:
    if isinstance(value, BlankValue):
        return "_b"
    if isinstance(value, Iri):
        return f"<{value.text}>"
    if value.datatype == XSD_STRING and value.lang is None:
        return f'"{escape_string(value.lexical)}"'
    if value.datatype == XSD_INTEGER and re.fullmatch(r"[+-]?[0-9]+", value.lexical):
        return value.lexical
    return f'"{escape_string(value.lexical)}"^^<{value.datatype}>'


def _atomic_to_shexc(atomic: AtomicConstr) -> str:
    if isinstance(atomic, ShapeRef):
        return ("!" if atomic.negated else "") + f"@<{atomic.label}>"
    if isinstance(atomic, NodeKind):
        return atomic.kind
    if isinstance(atomic, DatatypeSet):
        return f"<{atomic.datatype}>"
    return "(" + " ".join(_value_to_shexc(v) for v in atomic.values) + ")"


def _dprop_to_shexc(dprop: DirectedProperty) -> str:
    return ("^" if dprop.inverse else "") + f"<{dprop.prop}>"


def _cardinality_to_shexc(lo: int, hi: int | None) -> str:
    if (lo, hi) == (0, None):
        return "*"
    if (lo, hi) == (1, None):
        return "+"
    if (lo, hi) == (0, 1):
        return "?"
    return f"[{lo};{'*' if hi is None else hi}]"


def _expr_to_shexc(expr: ShapeExpr) -> str:
    if isinstance(expr, Empty):
        return "EmptyShape"
    if isinstance(expr, TripleConstraint):
        vc = " AND ".join(_atomic_to_shexc(a) for a in expr.value_class)
        return f"{_dprop_to_shexc(expr.dprop)} {vc}"
    if isinstance(expr, SomeOf):
        return " | ".join(
            f"({_expr_to_shexc(c)})" if isinstance(c, SomeOf) else _expr_to_shexc(c)
            for c in expr.children
        )
    if isinstance(expr, Group):
        return ", ".join(
            f"({_expr_to_shexc(c)})" if isinstance(c, (SomeOf, Group)) else _expr_to_shexc(c)
            for c in expr.children
        )
    if isinstance(expr, Repetition):
        body = _expr_to_shexc(expr.child)
        if not isinstance(expr.child, TripleConstraint):
            body = f"({body})"
        return f"{body} {_cardinality_to_shexc(expr.lo, expr.hi)}"
    raise TypeError(f"not a shape expression: {expr!r}")


def schema_to_shexc(schema: Schema) -> str:
    """Emit a schema back to compact syntax with fully written IRIs."""
    parts = []
    for label, sd in schema.shapes.items():
        mods = ""
        if sd.closed_fwd:
            mods += "CLOSED "
        if sd.closed_inv:
            mods += "^CLOSED "
        if sd.extra:
            mods += "EXTRA " + " ".join(_dprop_to_shexc(p) for p in sd.extra) + " "
        if isinstance(sd.expr, Empty):
            parts.append(f"<{label}> {mods}{{ }}")
        else:
            parts.append(f"<{label}> {mods}{{ {_expr_to_shexc(sd.expr)} }}")
    return "\n".join(parts) + "\n"


# --- project JSON form ------------------------------------------------------

def _value_to_json(value: Value) -> dict[str, Any]:
    if isinstance(value, BlankValue):
        return {"type": "blank"}
    if isinstance(value, Iri):
        return {"type": "iri", "value": value.text}
    return {
        "type": "literal",
        "lexical": value.lexical,
        "datatype": value.datatype,
        "lang": value.lang,
    }


def _atomic_to_json(atomic: AtomicConstr) -> dict[str, Any]:
    if isinstance(atomic, NodeKind):
        return {"type": "nodekind", "kind": atomic.kind}
    if isinstance(atomic, DatatypeSet):
        return {"type": "datatype", "datatype": atomic.datatype}
    if isinstance(atomic, ExplicitSet):
        return {"type": "values", "values": [_value_to_json(v) for v in atomic.values]}
    return {"type": "shape", "label": atomic.label, "negated": atomic.negated}


def _expr_to_json(expr: ShapeExpr) -> dict[str, Any]:
    if isinstance(expr, Empty):
        return {"kind": "empty"}
    if isinstance(expr, TripleConstraint):
        return {
            "kind": "tc",
            "id": expr.tc_id,
            "inverse": expr.dprop.inverse,
            "property": expr.dprop.prop,
            "valueClass": [_atomic_to_json(a) for a in expr.value_class],
        }
    if isinstance(expr, SomeOf):
        return {"kind": "someOf", "exprs": [_expr_to_json(c) for c in expr.children]}
    if isinstance(expr, Group):
        return {"kind": "group", "exprs": [_expr_to_json(c) for c in expr.children]}
    if isinstance(expr, Repetition):
        return {
            "kind": "repeat",
            "expr": _expr_to_json(expr.child),
            "min": expr.lo,
            "max": "*" if expr.hi is None else expr.hi,
        }
    raise TypeError(f"not a shape expression: {expr!r}")


def schema_to_json(schema: Schema) -> str:
    doc = {
        "shapes": {
            label: {
                "closed": sd.closed_fwd,
                "closedInv": sd.closed_inv,
                "extra": [p.display() for p in sd.extra],
                "expr": _expr_to_json(sd.expr),
            }
            for label, sd in schema.shapes.items()
        }
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _need(doc: Any, key: str, path: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaJsonError(f"missing key {key!r}", path)
    return doc[key]


def _value_from_json(doc: Any, path: str) -> Value:
    kind = _need(doc, "type", path)
    if kind == "blank":
        return BLANK
    if kind == "iri":
        return Iri(_need(doc, "value", path))
    if kind == "literal":
        return Literal(
            _need(doc, "lexical", path), _need(doc, "datatype", path), doc.get("lang")
        )
    raise SchemaJsonError(f"unknown value type {kind!r}", path)


def _atomic_from_json(doc: Any, path: str) -> AtomicConstr:
    kind = _need(doc, "type", path)
    if kind == "nodekind":
        name = _need(doc, "kind", path)
        if name not in _NODE_KINDS:
            raise SchemaJsonError(f"unknown node kind {name!r}", path)
        return NodeKind(name)
    if kind == "datatype":
        return DatatypeSet(_need(doc, "datatype", path))
    if kind == "values":
        values = _need(doc, "values", path)
        if not isinstance(values, list) or not values:
            raise SchemaJsonError("value set needs a non-empty list", path)
        return ExplicitSet(
            tuple(_value_from_json(v, f"{path}.values[{i}]") for i, v in enumerate(values))
        )
    if kind == "shape":
        return ShapeRef(_need(doc, "label", path), bool(doc.get("negated", False)))
    raise SchemaJsonError(f"unknown constraint type {kind!r}", path)


def _parse_dprop_display(text: Any, path: str) -> DirectedProperty:
    if not isinstance(text, str) or not text:
        raise SchemaJsonError("expected a property string", path)
    if text.startswith("^"):
        return DirectedProperty(text[1:], inverse=True)
    return DirectedProperty(text)


def _expr_from_json(doc: Any, path: str) -> ShapeExpr:
    kind = _need(doc, "kind", path)
    if kind == "empty":
        return Empty()
    if kind == "tc":
        vc = _need(doc, "valueClass", path)
        if not isinstance(vc, list) or not vc:
            raise SchemaJsonError("valueClass must be a non-empty list", path)
        tc_id = _need(doc, "id", path)
        if not isinstance(tc_id, int) or tc_id < 1:
            raise SchemaJsonError("tc id must be a positive integer", path)
        return TripleConstraint(
            tc_id,
            DirectedProperty(_need(doc, "property", path), bool(doc.get("inverse", False))),
            tuple(
                _atomic_from_json(a, f"{path}.valueClass[{i}]") for i, a in enumerate(vc)
            ),
        )
    if kind in ("someOf", "group"):
        exprs = _need(doc, "exprs", path)
        if not isinstance(exprs, list) or not exprs:
            raise SchemaJsonError("exprs must be a non-empty list", path)
        children = tuple(
            _expr_from_json(e, f"{path}.exprs[{i}]") for i, e in enumerate(exprs)
        )
        return SomeOf(children) if kind == "someOf" else Group(children)
    if kind == "repeat":
        raw_max = _need(doc, "max", path)
        hi = None if raw_max == "*" else raw_max
        lo = _need(doc, "min", path)
        if not isinstance(lo, int) or (hi is not None and not isinstance(hi, int)):
            raise SchemaJsonError("cardinalities must be integers or '*'", path)
        if hi is not None and lo > hi:
            raise SchemaJsonError(f"cardinality [{lo};{hi}] has min > max", path)
        return Repetition(_expr_from_json(_need(doc, "expr", path), f"{path}.expr"), lo, hi)
    raise SchemaJsonError(f"unknown expression kind {kind!r}", path)


def json_to_schema(text: str) -> Schema:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaJsonError(f"not valid JSON: {exc}") from exc
    shapes_doc = _need(doc, "shapes", "$")
    if not isinstance(shapes_doc, dict):
        raise SchemaJsonError("shapes must be an object", "$.shapes")
    shapes: dict[str, ShapeDefinition] = {}
    for label, sd in shapes_doc.items():
        path = f"$.shapes.{label}"
        extra = _need(sd, "extra", path)
        if not isinstance(extra, list):
            raise SchemaJsonError("extra must be a list", path)
        shapes[label] = ShapeDefinition(
            bool(_need(sd, "closed", path)),
            bool(_need(sd, "closedInv", path)),
            tuple(_parse_dprop_display(p, f"{path}.extra[{i}]") for i, p in enumerate(extra)),
            _expr_from_json(_need(sd, "expr", path), f"{path}.expr"),
        )
    schema = Schema(shapes)
    validate_references(schema)
    return schema
