"""Seeded input generators, request lists and known answers for the benchmark.

Every generator is a pure function of its arguments: the same seed writes
byte-identical files. Each request carries the answer the CLI must give, so
the harness can check every response without consulting the engine.

Families:

* ``knows`` -- a social graph of persons with ``ex:knows`` out-degree 2 (one
  edge of a seeded ring through all persons, one random), an optional employer (``ex:worksFor @<Org> ?``) and rivals that must not be
  organisations (``ex:rival !@<Org> *``). Every person is valid by
  construction; the witness holds one positive fact per person reachable
  over ``ex:knows`` and per organisation those persons work for, and one
  negative fact per rival of a reachable person.
* chains -- ``<P> { ex:name xsd:string, ex:next @<P> ? }`` over a chain whose
  last node lacks its name (invalid) or has it (valid twin).
* fan-outs -- ``<F> { ex:p xsd:string *, ex:p Literal *, ex:must xsd:string }``
  over a node with ``degree`` string-valued ``ex:p`` edges that lacks
  ``ex:must`` (invalid) or has it (valid twin).
* corpus repairs -- the bundled issue-tracker and boolean-formula repairs,
  with their answers pinned in ``data/repairs.json``.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

EX = "http://example.org/"
EXIT_OK = 0
EXIT_INVALID = 1

WORKLOADS = ("knows", "hard-invalid", "repair")

KNOWS_SCHEMA = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Person> {
  ex:name xsd:string,
  ex:knows @<Person> *,
  ex:worksFor @<Org> ?,
  ex:rival !@<Org> * }

<Org> { ex:legalName xsd:string }
"""

CHAIN_SCHEMA = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<P> { ex:name xsd:string, ex:next @<P> ? }
"""

FANOUT_SCHEMA = """PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<F> { ex:p xsd:string *, ex:p Literal *, ex:must xsd:string }
"""

_TTL_HEADER = "@prefix ex: <http://example.org/> .\n\n"

# Sizes of the gated workloads. Chains of 14-18 nodes and fan-outs of degree
# 9-12 are where the seed engine's exponential searches take 5 ms to 1 s.
KNOWS_PERSONS = 1600
KNOWS_REQUESTS = 10
CHAIN_LENGTHS = (14, 15, 16, 17, 18)
FANOUT_DEGREES = (9, 10, 11, 12)
# Per chain length and fan-out degree, TWINS valid instances and twice as many
# invalid ones, except for the kinds in INVALID_COUNTS. At the seed commit the
# 16-node invalid chains sit in the middle of the latency order, with 45
# requests faster and 45 slower, so the median falls in the middle of their
# 18; the tail (10 samples beyond) falls in the middle of the 21 degree-12
# invalid fan-outs, the slowest kind. Each statistic is then taken within
# one kind of request, over enough of its samples, rather than in the gap
# between two kinds, where a run-to-run wobble would move it from one kind
# to the other.
TWINS = 3
INVALID_PER_TWIN = 2
INVALID_COUNTS = {("chain", 16): 18, ("fanout", 12): 21}


@dataclass(frozen=True)
class Request:
    """One ``shexd.cli.main`` invocation and the answer it must give.

    For a valid ``validate`` answer, ``positives`` and ``negatives`` count
    the witness's signed facts. For a ``repair``, ``repairs`` is the whole
    expected JSON document.
    """

    name: str
    argv: tuple[str, ...]
    exit_code: int
    focus: tuple[str, str] | None = None
    positives: int | None = None
    negatives: int | None = None
    repairs: dict | None = None


def rng_for(family: str, seed: int) -> random.Random:
    return random.Random(f"{family}:{seed}")


def _token(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))


def _literal(rng: random.Random) -> str:
    return '"' + _token(rng) + '"'


# --- knows ---------------------------------------------------------------------


@dataclass(frozen=True)
class KnowsGraph:
    ttl: str
    persons: tuple[str, ...]
    knows: dict[str, tuple[str, ...]]
    works_for: dict[str, str]
    rivals: dict[str, tuple[str, ...]]

    def expected_facts(self, focus: str) -> tuple[int, int]:
        """(positive, negative) fact counts of the witness for ``focus``."""
        seen = {focus}
        queue = deque([focus])
        while queue:
            for other in self.knows[queue.popleft()]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        orgs = {self.works_for[p] for p in seen if p in self.works_for}
        rivals = {r for p in seen for r in self.rivals[p]}
        return len(seen) + len(orgs), len(rivals)


def knows_graph(rng: random.Random, persons: int) -> KnowsGraph:
    """Persons ``ex:p<i>`` with two distinct acquaintances each: the next
    person on a seeded ring through everybody, so every person reaches all
    others and every request does the same work, and one random other. About
    half work for one of ``persons // 20`` organisations and about half have
    a rival, who is another person and so never an organisation."""
    tag = _token(rng)
    names = tuple(f"{EX}{tag}p{i}" for i in range(persons))
    orgs = [f"{EX}{tag}org{i}" for i in range(max(1, persons // 20))]
    ring = list(range(persons))
    rng.shuffle(ring)
    successor = {ring[k]: ring[(k + 1) % persons] for k in range(persons)}
    knows: dict[str, tuple[str, ...]] = {}
    works_for: dict[str, str] = {}
    rivals: dict[str, tuple[str, ...]] = {}
    lines = [_TTL_HEADER]
    for i, person in enumerate(names):
        other = rng.randrange(persons)
        while other in (i, successor[i]):
            other = rng.randrange(persons)
        knows[person] = (names[successor[i]], names[other])
        rivals[person] = ()
        local = person.removeprefix(EX)
        parts = [f"ex:name {_literal(rng)}"]
        parts += [f"ex:knows ex:{k.removeprefix(EX)}" for k in knows[person]]
        if rng.random() < 0.5:
            works_for[person] = rng.choice(orgs)
            parts.append(f"ex:worksFor ex:{works_for[person].removeprefix(EX)}")
        if rng.random() < 0.5:
            rival = names[rng.randrange(persons)]
            rivals[person] = (rival,)
            parts.append(f"ex:rival ex:{rival.removeprefix(EX)}")
        lines.append(f"ex:{local} " + " ;\n  ".join(parts) + " .\n")
    for org in orgs:
        lines.append(f"ex:{org.removeprefix(EX)} ex:legalName {_literal(rng)} .\n")
    return KnowsGraph("".join(lines), names, knows, works_for, rivals)


# --- chains and fan-outs -------------------------------------------------------------


def chain(rng: random.Random, length: int, valid: bool) -> tuple[str, str]:
    """(ttl, first node) of an ``ex:next`` chain; only a valid chain names
    its last node."""
    tag = _token(rng)
    nodes = [f"ex:{tag}n{i}" for i in range(length)]
    lines = [_TTL_HEADER]
    for i, node in enumerate(nodes):
        parts = []
        if valid or i < length - 1:
            parts.append(f"ex:name {_literal(rng)}")
        if i < length - 1:
            parts.append(f"ex:next {nodes[i + 1]}")
        if parts:
            lines.append(f"{node} " + " ;\n  ".join(parts) + " .\n")
    return "".join(lines), EX + nodes[0].removeprefix("ex:")


def fanout(rng: random.Random, degree: int, valid: bool) -> tuple[str, str]:
    """(ttl, hub node) of a node with ``degree`` distinct ``ex:p`` strings;
    only a valid hub carries ``ex:must``."""
    hub = f"ex:{_token(rng)}hub"
    values = sorted({_token(rng) for _ in range(degree * 2)})[:degree]
    parts = [f'ex:p "{v}"' for v in values]
    if valid:
        parts.append(f"ex:must {_literal(rng)}")
    return _TTL_HEADER + f"{hub} " + " ;\n  ".join(parts) + " .\n", EX + hub.removeprefix("ex:")


# --- request lists ---------------------------------------------------------------


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _validate_argv(schema: str, data: str, node: str, shape: str) -> tuple[str, ...]:
    return ("validate", "--schema", schema, "--data", data,
            "--node", node, "--shape", shape, "--json")


def knows_requests(seed: int, workdir: Path, persons: int = KNOWS_PERSONS,
                   count: int = KNOWS_REQUESTS) -> list[Request]:
    rng = rng_for("knows", seed)
    graph = knows_graph(rng, persons)
    schema = _write(workdir / "knows.shex", KNOWS_SCHEMA)
    data = _write(workdir / f"knows-{persons}.ttl", graph.ttl)
    out = []
    for focus in rng.sample(graph.persons, count):
        pos, neg = graph.expected_facts(focus)
        out.append(Request(
            f"knows-{persons}", _validate_argv(schema, data, focus, "Person"), EXIT_OK,
            focus=(focus, "Person"), positives=pos, negatives=neg,
        ))
    return out


def chain_request(rng: random.Random, workdir: Path, length: int, valid: bool,
                  copy: int = 0) -> Request:
    kind = "valid" if valid else "invalid"
    ttl, first = chain(rng, length, valid)
    schema = _write(workdir / "chain.shex", CHAIN_SCHEMA)
    data = _write(workdir / f"chain-{kind}-{length}-{copy}.ttl", ttl)
    return Request(
        f"chain-{kind}-{length}", _validate_argv(schema, data, first, "P"),
        EXIT_OK if valid else EXIT_INVALID, focus=(first, "P"),
        positives=length if valid else None, negatives=0 if valid else None,
    )


def fanout_request(rng: random.Random, workdir: Path, degree: int, valid: bool,
                   copy: int = 0) -> Request:
    kind = "valid" if valid else "invalid"
    ttl, hub = fanout(rng, degree, valid)
    schema = _write(workdir / "fanout.shex", FANOUT_SCHEMA)
    data = _write(workdir / f"fanout-{kind}-{degree}-{copy}.ttl", ttl)
    return Request(
        f"fanout-{kind}-{degree}", _validate_argv(schema, data, hub, "F"),
        EXIT_OK if valid else EXIT_INVALID, focus=(hub, "F"),
        positives=1 if valid else None, negatives=0 if valid else None,
    )


def hard_invalid_requests(seed: int, workdir: Path) -> list[Request]:
    """Distinct seeded instances of every chain length and fan-out degree,
    ``TWINS`` valid and ``INVALID_PER_TWIN`` times as many invalid (or as
    ``INVALID_COUNTS`` says), in a seeded order. The seed picks
    names, literals and order, not sizes, so every seed asks for the same
    amount of work."""
    rng = rng_for("hard-invalid", seed)
    out = []
    for family, make, sizes in (("chain", chain_request, CHAIN_LENGTHS),
                                ("fanout", fanout_request, FANOUT_DEGREES)):
        for size in sizes:
            invalid = INVALID_COUNTS.get((family, size), TWINS * INVALID_PER_TWIN)
            out += [make(rng, workdir, size, True, copy) for copy in range(TWINS)]
            out += [make(rng, workdir, size, False, copy) for copy in range(invalid)]
    rng.shuffle(out)
    return out


def repair_request(case: dict, max_edits: int) -> Request:
    answer = case["answers"][str(max_edits)]
    argv = ("repair", "--schema", str(DATA / case["schema"]), "--data", str(DATA / case["data"]),
            "--node", case["node"], "--shape", case["shape"],
            "--max-edits", str(max_edits), "--json")
    found = answer["minSize"] is not None
    return Request(
        f"repair-{case['name']}-{max_edits}", argv, EXIT_OK if found else EXIT_INVALID,
        repairs=answer,
    )


def repair_cases() -> dict[str, dict]:
    return {case["name"]: case for case in json.loads((DATA / "repairs.json").read_text())}


def repair_requests(seed: int) -> list[Request]:
    """The three pinned corpus repairs, each twice, so that one list takes
    longer than half a run and every run makes exactly one pass over it. The
    seed only orders them."""
    cases = repair_cases()
    out = [
        repair_request(cases["repairing"], 1),
        repair_request(cases["boolean"], 1),
        repair_request(cases["boolean"], 2),
    ] * 2
    rng_for("repair", seed).shuffle(out)
    return out


def build(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Write the workload's input files under ``workdir``; return its requests."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "knows":
        return knows_requests(seed, workdir)
    if workload == "hard-invalid":
        return hard_invalid_requests(seed, workdir)
    if workload == "repair":
        return repair_requests(seed)
    raise ValueError(f"unknown workload {workload!r}")


def schema_paths(requests: list[Request]) -> list[str]:
    """The distinct schema files of a request list, in first-use order."""
    paths = [r.argv[r.argv.index("--schema") + 1] for r in requests]
    return list(dict.fromkeys(paths))


# The smallest instance of each generated family that fits the reference
# validator's 12-node bound (literals count as nodes).
SMALLEST_PERSONS = 4
SMALLEST_CHAIN = 5
SMALLEST_DEGREE = 4


def smallest_instances(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Valid and invalid instances of the workload's generated families at
    their smallest size; the corpus repairs have none."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "knows":
        return knows_requests(seed, workdir, persons=SMALLEST_PERSONS, count=1)
    if workload == "hard-invalid":
        rng = rng_for("hard-invalid-small", seed)
        return [
            make(rng, workdir, size, valid)
            for make, size in ((chain_request, SMALLEST_CHAIN), (fanout_request, SMALLEST_DEGREE))
            for valid in (False, True)
        ]
    return []
