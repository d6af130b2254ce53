"""Command-line front end: check-schema, validate, and repair."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .engine import (
    CertainTyping,
    GlobalTypingWitness,
    TypingEntry,
    check_request,
    flooding_validation,
    verify_global_typing_witness,
    witness_to_json,
)
from .errors import (
    BagTooLargeError,
    CertificateError,
    ParseError,
    SearchBudgetExceededError,
    ShexdError,
    UnknownNodeError,
    ValidationError,
    WellDefinednessError,
)
from .matching import DEFAULT_BAG_BOUND
from .rdf_graph import BlankRef, Graph, Triple, parse_data
from .schema_model import (
    Schema,
    check_well_defined,
    consumer_key,
    lint_schema,
    negated_shapes,
)
from .shexc import parse_schema

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_WELL_DEFINED = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4


def _load_schema(path: str) -> Schema:
    return parse_schema(Path(path).read_text(encoding="utf-8"))


def _load_graph(paths: list[str], fmt: str) -> Graph:
    triples: list[Triple] = []
    prefixes: dict[str, str] = {}
    multiple = len(paths) > 1
    for index, path in enumerate(paths):
        data = parse_data(Path(path).read_text(encoding="utf-8"), fmt)
        prefixes.update(data.prefixes)
        for t in data.triples:
            if multiple:
                t = _namespace_blanks(t, index)
            triples.append(t)
    deduped = []
    seen = set()
    for t in triples:
        if t.key() not in seen:
            seen.add(t.key())
            deduped.append(t)
    return Graph(tuple(deduped), prefixes)


def _namespace_blanks(triple: Triple, index: int) -> Triple:
    def fix(term):
        if isinstance(term, BlankRef):
            return BlankRef(f"f{index}.{term.label}")
        return term

    return Triple(fix(triple.subject), triple.prop, fix(triple.obj))


def _resolve_node(name: str, graph: Graph, schema: Schema) -> str:
    """Accept node ids verbatim, <iri> syntax, or prefixed names."""
    if graph.has_node(name):
        return name
    if name.startswith("<") and name.endswith(">"):
        return name[1:-1]
    prefix, sep, local = name.partition(":")
    if sep:
        for table in (graph.prefixes, schema.prefixes):
            if prefix in table:
                expanded = table[prefix] + local
                if graph.has_node(expanded):
                    return expanded
    return name


def _gather_typing0(args, graph: Graph, schema: Schema) -> list[TypingEntry]:
    nodes = args.node or []
    shapes = args.shape or []
    if len(nodes) != len(shapes):
        raise ValueError("--node and --shape must be given the same number of times")
    negated_positions = set(args.negate or [])
    for position in sorted(negated_positions):
        if not 1 <= position <= len(nodes):
            raise ValueError(
                f"--negate {position} names no pair: there are {len(nodes)}"
                " --node/--shape pairs"
            )
    out: list[TypingEntry] = []
    for position, (node, shape) in enumerate(zip(nodes, shapes), start=1):
        sign = "-" if position in negated_positions else "+"
        out.append((_resolve_node(node, graph, schema), shape, sign))
    if args.typing_file:
        doc = json.loads(Path(args.typing_file).read_text(encoding="utf-8"))
        if not isinstance(doc, list):
            raise ValueError("typing file must hold a JSON list of entries")
        for i, entry in enumerate(doc):
            if not isinstance(entry, dict) or not {"node", "shape"} <= set(entry):
                raise ValueError(f"typing file entry {i} needs 'node' and 'shape'")
            fields = (entry["node"], entry["shape"], entry.get("sign", "+"))
            if not all(isinstance(field, str) for field in fields):
                raise ValueError(
                    f"typing file entry {i}: 'node', 'shape' and 'sign' must be strings"
                )
            out.append((_resolve_node(fields[0], graph, schema), fields[1], fields[2]))
    if not out:
        raise ValueError("no typing requested; pass --node/--shape or --typing-file")
    return out


def _check_limits(args) -> None:
    for flag in ("bag_bound", "max_edits"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must not be negative, got {value}")


def cmd_check_schema(args) -> int:
    try:
        schema = _load_schema(args.schema)
    except (OSError, UnicodeDecodeError, ShexdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = check_well_defined(schema)
    if report is not None:
        print(
            f"not well-defined: negated shape <{report.label}> reaches the cycle "
            + " -> ".join(f"<{x}>" for x in report.cycle)
        )
        return EXIT_NOT_WELL_DEFINED
    print(f"well-defined: {len(schema.shapes)} shapes")
    if args.verbose:
        for label in sorted(schema.shapes):
            negs = sorted(negated_shapes(schema, label))
            rendered = ", ".join(f"<{x}>" for x in negs) if negs else "(none)"
            print(f"  <{label}> negates: {rendered}")
        for warning in lint_schema(schema):
            print(f"  lint: {warning}")
    return EXIT_OK


def _print_witness(gtw: GlobalTypingWitness) -> None:
    print("typing:")
    for n, s, sign in sorted(gtw.typing):
        print(f"  {sign} {n} : <{s}>")
    print("witnesses:")
    for (n, s), lw in sorted(gtw.lw.items()):
        print(f"  {n} : <{s}>")
        for edge_id, consumer in sorted(lw.items()):
            print(f"    {edge_id} -> {consumer_key(consumer)}")


def cmd_validate(args) -> int:
    try:
        _check_limits(args)
        schema = _load_schema(args.schema)
        graph = _load_graph(args.data, args.format)
        typing0 = _gather_typing0(args, graph, schema)
    except (OSError, ValueError, json.JSONDecodeError, ParseError, ShexdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        certain = CertainTyping(schema, graph, bag_bound=args.bag_bound)
        gtw = flooding_validation(
            schema, graph, typing0, certain=certain, bag_bound=args.bag_bound
        )
    except WellDefinednessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_WELL_DEFINED
    except (BagTooLargeError, SearchBudgetExceededError) as exc:
        print(f"resource bound hit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValidationError as exc:
        print("invalid: " + str(exc))
        for n, s, sign in exc.failed:
            print(f"  could not establish: {sign} {n} : <{s}>")
        for n, s, tried in exc.exhausted:
            print(f"  exhausted after {tried} candidates: {n} : <{s}>")
        return EXIT_INVALID
    except (UnknownNodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if not verify_global_typing_witness(gtw, graph, schema, certain, bag_bound=args.bag_bound):
        print("internal error: produced witness failed verification", file=sys.stderr)
        return EXIT_RESOURCE
    rendered = witness_to_json(gtw)
    if args.witness_out:
        try:
            Path(args.witness_out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    if args.json:
        sys.stdout.write(rendered)
    else:
        print("valid")
        _print_witness(gtw)
    return EXIT_OK


def enumerate_repairs(*args, **kwargs):
    """:func:`shexd.repair.enumerate_repairs`, imported on the first call,
    so that validate and check-schema start without compiling the search."""
    from .repair import enumerate_repairs

    return enumerate_repairs(*args, **kwargs)


def cmd_repair(args) -> int:
    from .repair import repairs_to_json

    try:
        _check_limits(args)
        schema = _load_schema(args.schema)
        graph = _load_graph(args.data, args.format)
        # Rejected as validate rejects it, before the search: the checks
        # would otherwise answer "no repair" or hit a resource bound first.
        typing0 = check_request(_gather_typing0(args, graph, schema), graph, schema)
    except (OSError, ValueError, json.JSONDecodeError, ParseError, ShexdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        result = enumerate_repairs(
            graph, schema, typing0, max_edits=args.max_edits, bag_bound=args.bag_bound
        )
    except WellDefinednessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_WELL_DEFINED
    except (BagTooLargeError, SearchBudgetExceededError) as exc:
        print(f"resource bound hit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (UnknownNodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    rendered = repairs_to_json(result)
    if args.json:
        sys.stdout.write(rendered)
    else:
        if result.found:
            print(f"minimal repairs of size {result.min_size}: {len(result.repairs)}")
            for i, edits in enumerate(result.repairs):
                print(f"  repair {i + 1}:")
                for t in sorted(edits.deletions, key=Triple.key):
                    print(f"    - {t.key()}")
                for t in sorted(edits.insertions, key=Triple.key):
                    print(f"    + {t.key()}")
        else:
            print(f"no repair within {args.max_edits} edits")
    return EXIT_OK if result.found else EXIT_INVALID


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit 3, as other configuration errors;
    exit 2 stays reserved for a schema that is not well-defined."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shexd",
        description="Validate nodes of an RDF graph against shape expressions,"
        " export typing witnesses, and search for minimal repairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_data=True):
        p.add_argument("--schema", required=True, help="schema file (compact syntax)")
        if with_data:
            p.add_argument(
                "--data", action="append", required=True, help="data file (repeatable)"
            )
            p.add_argument(
                "--format", choices=["nt", "ttl-lite"], default="ttl-lite",
                help="data format (default ttl-lite)",
            )
            p.add_argument("--node", action="append", help="focus node (repeatable)")
            p.add_argument("--shape", action="append", help="shape label (repeatable)")
            p.add_argument(
                "--negate", action="append", type=int, metavar="K",
                help="negate the K-th --node/--shape pair (1-based, repeatable)",
            )
            p.add_argument("--typing-file", help="JSON file with bulk typing assertions")
            p.add_argument(
                "--bag-bound", type=int, default=DEFAULT_BAG_BOUND,
                help="exhaustive bag-matching bound",
            )
            p.add_argument("--json", action="store_true", help="machine-readable output")

    p_check = sub.add_parser("check-schema", help="parse a schema and check well-definedness")
    common(p_check, with_data=False)
    p_check.add_argument("--verbose", action="store_true", help="list negated shapes and lints")

    p_validate = sub.add_parser("validate", help="validate nodes against shapes")
    common(p_validate)
    p_validate.add_argument("--witness-out", help="write the witness JSON to this file")

    p_repair = sub.add_parser("repair", help="search for minimal repairs")
    common(p_repair)
    p_repair.add_argument(
        "--max-edits", type=int, default=2, help="largest edit-set size to try"
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name on each call, so a replaced cmd_* function is the one run
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
