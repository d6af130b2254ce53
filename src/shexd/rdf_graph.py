"""Triple ingestion and the directed-edge graph view used by validation.

Every source triple (s, p, o) contributes two edges: the forward edge
(s, p, o) and the inverse edge (o, ^p, s), so that constraints on incoming
and outgoing arcs can be treated uniformly. A node's neighbourhood is the
set of edges leaving it in this doubled view.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, UnknownNodeError, UnknownPrefixError

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DATE = XSD + "date"
RDF_LANG_STRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"


@dataclass(frozen=True)
class Iri:
    text: str


@dataclass(frozen=True)
class BlankRef:
    """A blank node occurrence in a triple, identified by its document label."""

    label: str


@dataclass(frozen=True)
class Literal:
    lexical: str
    datatype: str = XSD_STRING
    lang: str | None = None

    def __post_init__(self):
        if self.lang is not None and self.datatype != RDF_LANG_STRING:
            object.__setattr__(self, "datatype", RDF_LANG_STRING)


@dataclass(frozen=True)
class BlankValue:
    """The anonymous value shared by every blank node."""


BLANK = BlankValue()

# Value of a node: an IRI, a literal, or the blank constant.
Value = Iri | Literal | BlankValue
# Term of a triple: blank nodes keep their label at this level.
Term = Iri | BlankRef | Literal


def escape_string(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def unescape_string(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            mapped = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}.get(nxt)
            if mapped is not None:
                out.append(mapped)
                i += 2
                continue
        out.append(c)
        i += 1
    return "".join(out)


def term_key(term: Term) -> str:
    """Canonical text key for a term; doubles as the node id in graphs."""
    if isinstance(term, Iri):
        return term.text
    if isinstance(term, BlankRef):
        return "_:" + term.label
    if isinstance(term, Literal):
        body = f'"{escape_string(term.lexical)}"'
        if term.lang is not None:
            return f"{body}@{term.lang}"
        if term.datatype == XSD_STRING:
            return body
        return f"{body}^^<{term.datatype}>"
    raise TypeError(f"not a term: {term!r}")


def term_to_value(term: Term) -> Value:
    return BLANK if isinstance(term, BlankRef) else term


@dataclass(frozen=True)
class Triple:
    subject: Iri | BlankRef
    prop: str
    obj: Term

    def key(self) -> tuple[str, str, str]:
        return (term_key(self.subject), self.prop, term_key(self.obj))


@dataclass(frozen=True)
class DirectedProperty:
    prop: str
    inverse: bool = False

    def display(self) -> str:
        return ("^" + self.prop) if self.inverse else self.prop

    def flipped(self) -> "DirectedProperty":
        return DirectedProperty(self.prop, not self.inverse)


@dataclass(frozen=True)
class Edge:
    source: str
    dprop: DirectedProperty
    target: str
    id: str

    @staticmethod
    def make(source: str, dprop: DirectedProperty, target: str) -> "Edge":
        arrow = "<" if dprop.inverse else ">"
        return Edge(source, dprop, target, f"{source}|{arrow}|{dprop.prop}|{target}")

    def inverse_edge(self) -> "Edge":
        return Edge.make(self.target, self.dprop.flipped(), self.source)


@dataclass(frozen=True)
class TripleSet:
    """Deduplicated triples in source order, plus the prefixes seen."""

    triples: tuple[Triple, ...]
    prefixes: dict[str, str]


def _edge_pair(s: str, prop: str, o: str) -> tuple[Edge, Edge]:
    """The forward and the inverse edge of the triple with keys (s, prop, o)."""
    fwd = Edge.make(s, DirectedProperty(prop), o)
    return fwd, fwd.inverse_edge()


def _by_id(edges) -> tuple[Edge, ...]:
    return tuple(sorted(edges, key=lambda e: e.id))


class Graph:
    """Immutable doubled-edge view of a triple set.

    A node id names one term: triples that give one key to terms of two
    kinds (the IRI ``<_:b>`` and the blank node ``_:b``) raise ``ValueError``.
    The tables are built once and never copied: a repair search reads each
    edited graph as a ``shexd.incremental.GraphPatch`` over them.
    """

    def __init__(self, triples: tuple[Triple, ...], prefixes: dict[str, str] | None = None):
        self.prefixes = dict(prefixes or {})
        self.triples = tuple(triples)
        keys, values, edge_by_id = [], {}, {}
        adjacency: dict[str, list[Edge]] = {}
        for t in self.triples:
            s, o = term_key(t.subject), term_key(t.obj)
            keys.append((s, t.prop, o))
            for node, term in zip((s, o), (t.subject, t.obj)):
                value = term_to_value(term)
                if type(values.setdefault(node, value)) is not type(value):
                    raise ValueError(f"data key {node!r} names two kinds of term")
            for e in _edge_pair(s, t.prop, o):
                if e.id not in edge_by_id:
                    edge_by_id[e.id] = e
                    adjacency.setdefault(e.source, []).append(e)
        self._keys = tuple(keys)  # each triple's key, beside it
        self._values, self.edge_by_id = values, edge_by_id
        self._adjacency = {node: _by_id(edges) for node, edges in adjacency.items()}

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._values))

    @property
    def node_count(self) -> int:
        return len(self._values)

    def has_node(self, node: str) -> bool:
        return node in self._values

    def val(self, node: str) -> Value:
        try:
            return self._values[node]
        except KeyError:
            raise UnknownNodeError(f"no node {node!r} in graph") from None

    def neighbourhood(self, node: str) -> tuple[Edge, ...]:
        """Edges leaving ``node``, in canonical (edge id) order."""
        try:
            return self._adjacency[node]
        except KeyError:
            raise UnknownNodeError(f"no node {node!r} in graph") from None

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edge_by_id.values(), key=lambda e: e.id))


def build_graph(data: TripleSet | tuple[Triple, ...] | list[Triple]) -> Graph:
    if isinstance(data, TripleSet):
        return Graph(tuple(data.triples), data.prefixes)
    return Graph(tuple(data))


# --- tokenizing -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<iriref><[^<>"{}|^`\\\s]*>)
    | (?P<blank>_:[A-Za-z0-9][A-Za-z0-9_.-]*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<dcarets>\^\^)
    | (?P<langtag>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
    | (?P<integer>[+-]?[0-9]+)
    | (?P<pname>[A-Za-z_][A-Za-z0-9_-]*?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?|[A-Za-z_][A-Za-z0-9_-]*?:)
    | (?P<punct>[.;,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str, token_re: re.Pattern) -> list[Token]:
    """Split ``text`` with a pattern of named alternatives, dropping the
    ``ws`` and ``comment`` ones; the list ends with an ``eof`` token."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        tok_text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, tok_text, line, pos - line_start + 1))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + tok_text.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class _DataParser:
    """Recursive-descent parser for N-Triples and the Turtle subset."""

    def __init__(self, text: str, fmt: str):
        self.tokens = tokenize(text, _TOKEN_RE)
        self.pos = 0
        self.fmt = fmt
        self.prefixes: dict[str, str] = {}
        self.triples: list[Triple] = []
        self.seen: set[tuple[str, str, str]] = set()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def expect_punct(self, text: str) -> None:
        tok = self.take()
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)

    def resolve_pname(self, tok: Token) -> str:
        prefix, _, local = tok.text.partition(":")
        if prefix not in self.prefixes:
            raise UnknownPrefixError(f"undeclared prefix {prefix!r}", tok.line, tok.column)
        return self.prefixes[prefix] + local

    def parse_iri(self) -> str:
        tok = self.take()
        if tok.kind == "iriref":
            return tok.text[1:-1]
        if tok.kind == "pname":
            if self.fmt == "nt":
                raise ParseError("prefixed names are not N-Triples", tok.line, tok.column)
            return self.resolve_pname(tok)
        raise ParseError(f"expected an IRI, found {tok.text!r}", tok.line, tok.column)

    def parse_subject(self) -> Iri | BlankRef:
        tok = self.peek()
        if tok.kind == "blank":
            self.take()
            return BlankRef(tok.text[2:])
        return Iri(self.parse_iri())

    def parse_object(self) -> Term:
        tok = self.peek()
        if tok.kind == "blank":
            self.take()
            return BlankRef(tok.text[2:])
        if tok.kind == "string":
            self.take()
            lexical = unescape_string(tok.text[1:-1])
            nxt = self.peek()
            if nxt.kind == "dcarets":
                self.take()
                return Literal(lexical, self.parse_iri())
            if nxt.kind == "langtag":
                self.take()
                return Literal(lexical, RDF_LANG_STRING, nxt.text[1:])
            return Literal(lexical)
        if tok.kind == "integer":
            if self.fmt == "nt":
                raise ParseError("bare integers are not N-Triples", tok.line, tok.column)
            self.take()
            return Literal(tok.text, XSD_INTEGER)
        return Iri(self.parse_iri())

    def add(self, subject: Iri | BlankRef, prop: str, obj: Term) -> None:
        triple = Triple(subject, prop, obj)
        key = triple.key()
        if key not in self.seen:
            self.seen.add(key)
            self.triples.append(triple)

    def parse(self) -> TripleSet:
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.fmt == "ttl-lite" and tok.kind == "langtag" and tok.text == "@prefix":
                self.take()
                name = self.take("pname")
                if not name.text.endswith(":"):
                    raise ParseError("malformed prefix declaration", name.line, name.column)
                iri = self.take("iriref")
                self.prefixes[name.text[:-1]] = iri.text[1:-1]
                self.expect_punct(".")
                continue
            subject = self.parse_subject()
            while True:
                prop = self.parse_iri()
                while True:
                    self.add(subject, prop, self.parse_object())
                    if self.peek().kind == "punct" and self.peek().text == ",":
                        if self.fmt == "nt":
                            break
                        self.take()
                        continue
                    break
                tok = self.take("punct")
                if tok.text == ".":
                    break
                if tok.text == ";" and self.fmt == "ttl-lite":
                    if self.peek().kind == "punct" and self.peek().text == ".":
                        self.take()
                        break
                    continue
                raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return TripleSet(tuple(self.triples), self.prefixes)


def parse_data(text: str, fmt: str = "ttl-lite") -> TripleSet:
    """Parse N-Triples (``nt``) or the Turtle subset (``ttl-lite``)."""
    if fmt not in ("nt", "ttl-lite"):
        raise ValueError(f"unknown data format {fmt!r}")
    return _DataParser(text, fmt).parse()


def to_ntriples(triples: tuple[Triple, ...] | list[Triple]) -> str:
    """Canonical N-Triples serialization (sorted, forward triples only)."""

    def term_nt(term: Term) -> str:
        return f"<{term.text}>" if isinstance(term, Iri) else term_key(term)

    lines = [
        f"{term_nt(t.subject)} <{t.prop}> {term_nt(t.obj)} ."
        for t in sorted(triples, key=Triple.key)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
