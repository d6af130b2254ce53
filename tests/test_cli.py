from __future__ import annotations

import json

import pytest

from shexd.cli import main

from conftest import DATA, EX

SCHEMA = str(DATA / "issues.shex")
ISSUES = str(DATA / "issues.ttl")


def test_check_schema_ok(capsys):
    assert main(["check-schema", "--schema", SCHEMA]) == 0
    assert "well-defined" in capsys.readouterr().out


def test_check_schema_verbose_lists_negated(capsys):
    assert main(["check-schema", "--schema", SCHEMA, "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "<IssueShape> negates: <ProgrammerShape>, <TesterShape>" in out


def test_check_schema_cycle_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.shex"
    bad.write_text("PREFIX e: <http://e/>\n<S> { e:p !@<S> }")
    assert main(["check-schema", "--schema", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "<S>" in out and "cycle" in out


def test_check_schema_unreadable_exit_3(tmp_path):
    assert main(["check-schema", "--schema", str(tmp_path / "missing.shex")]) == 3


def test_check_schema_parse_error_exit_3(tmp_path):
    bad = tmp_path / "bad.shex"
    bad.write_text("PREFIX e: <http://e/>\n<S> { e:p }")
    assert main(["check-schema", "--schema", str(bad)]) == 3


def test_validate_issue1_success(tmp_path, capsys):
    out_file = tmp_path / "witness.json"
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--node", "ex:issue1",
            "--shape", "IssueShape",
            "--witness-out", str(out_file),
        ]
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    issue1 = EX + "issue1"
    lw = doc["witnesses"][f"{issue1}|IssueShape"]
    reproduced_emin = [k for k in lw if "reproducedBy" in k and k.endswith("emin")]
    due_date = [k for k in lw if "dueDate" in k]
    assert lw[reproduced_emin[0]].startswith("extra:")
    assert lw[due_date[0]] == "open"
    assert {"node": issue1, "shape": "IssueShape", "sign": "+"} in doc["typing"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_validate_unwritable_witness_out_exit_3(tmp_path, capsys, json_flag):
    out_file = tmp_path / "missing" / "witness.json"
    code = main(["validate", "--schema", SCHEMA, "--data", ISSUES, "--node", "ex:issue1",
                 "--shape", "IssueShape", "--witness-out", str(out_file), *json_flag])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out_file) in captured.err
    assert not out_file.exists()


def test_validate_emin_programmer_exit_1(capsys):
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--node", "ex:emin",
            "--shape", "ProgrammerShape",
        ]
    )
    assert code == 1
    assert "could not establish" in capsys.readouterr().out


def test_validate_low_impact_exit_1(capsys):
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--node", "ex:issue1",
            "--shape", "LowImpactIssueShape",
        ]
    )
    assert code == 1


def test_validate_parse_error_exit_3(tmp_path):
    bad = tmp_path / "bad.ttl"
    bad.write_text("ex:a ex:p ex:b .")  # prefix never declared
    code = main(
        ["validate", "--schema", SCHEMA, "--data", str(bad), "--node", "x", "--shape", "IssueShape"]
    )
    assert code == 3


@pytest.mark.parametrize("swapped", [False, True])
def test_validate_key_naming_an_iri_and_a_blank_exit_3(tmp_path, capsys, swapped):
    # <_:b> is an IRI and _:b a blank node: one node id cannot name both
    lines = ["<http://e/a> <http://e/p> <_:b> .", "_:b <http://e/q> <http://e/a> ."]
    data = tmp_path / "mixed.nt"
    data.write_text("\n".join(lines[::-1] if swapped else lines) + "\n")
    schema = tmp_path / "iri.shex"
    schema.write_text("PREFIX ex: <http://e/>\n<S> { ex:p IRI * }\n")
    code = main([
        "validate", "--schema", str(schema), "--data", str(data), "--format", "nt",
        "--node", "<http://e/a>", "--shape", "S",
    ])
    assert code == 3
    assert "'_:b'" in capsys.readouterr().err


def test_validate_multiple_data_files(capsys):
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--data", str(DATA / "shristi_role.ttl"),
            "--node", "ex:shristi",
            "--shape", "TesterShape",
        ]
    )
    assert code == 0


def test_validate_negate_flag(capsys):
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--node", "ex:emin",
            "--shape", "ProgrammerShape",
            "--negate", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "- http://example.org/emin : <ProgrammerShape>" in out


def test_validate_typing_file(tmp_path):
    typing_file = tmp_path / "typing.json"
    typing_file.write_text(
        json.dumps(
            [
                {"node": "ex:issue1", "shape": "IssueShape"},
                {"node": "ex:issue2", "shape": "IssueShape", "sign": "+"},
            ]
        )
    )
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--typing-file", str(typing_file),
        ]
    )
    assert code == 0


@pytest.mark.parametrize(
    "doc", [5, None, [{"node": 3, "shape": "IssueShape"}]], ids=["number", "null", "int-node"]
)
def test_validate_malformed_typing_file_exit_3(tmp_path, capsys, doc):
    typing_file = tmp_path / "typing.json"
    typing_file.write_text(json.dumps(doc))
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--typing-file", str(typing_file),
        ]
    )
    assert code == 3
    assert capsys.readouterr().err.startswith("error: typing file")


def test_check_schema_non_utf8_exit_3(tmp_path, capsys):
    bad = tmp_path / "latin1.shex"
    bad.write_bytes("PREFIX e: <http://e/>\n<S> { e:p \"caf\u00e9\" }".encode("latin-1"))
    assert main(["check-schema", "--schema", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err
    code = main(
        [
            "validate",
            "--schema", str(bad),
            "--data", ISSUES,
            "--node", "ex:issue1",
            "--shape", "S",
        ]
    )
    assert code == 3


def test_validate_json_outputs_are_byte_identical(tmp_path):
    args = [
        "validate",
        "--schema", SCHEMA,
        "--data", ISSUES,
        "--node", "ex:issue1",
        "--shape", "IssueShape",
        "--node", "ex:issue2",
        "--shape", "IssueShape",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--witness-out", str(first)]) == 0
    assert main(args + ["--witness-out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_validate_nt_format(tmp_path):
    nt = tmp_path / "mini.nt"
    nt.write_text(
        "<http://example.org/a> <http://xmlns.com/foaf/0.1/name> \"Ann\" .\n"
        "<http://example.org/a> <http://issuetracker.example/ns#role> <http://example.org/r> .\n"
    )
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", str(nt),
            "--format", "nt",
            "--node", "<http://example.org/a>",
            "--shape", "TesterShape",
        ]
    )
    assert code == 0


def test_validate_lookahead_flag(capsys):
    """--lookahead still parses and changes nothing, valid or invalid."""
    for schema, expected in ((SCHEMA, 0), (str(DATA / "issues_noextra.shex"), 1)):
        args = [
            "validate",
            "--schema", schema,
            "--data", ISSUES,
            "--node", "ex:issue1",
            "--shape", "IssueShape",
            "--json",
        ]
        plain = main(args)
        out_plain = capsys.readouterr()
        flagged = main(args + ["--lookahead"])
        out_flagged = capsys.readouterr()
        assert plain == flagged == expected
        assert out_plain == out_flagged


def test_repair_boolean_json(capsys):
    code = main(
        [
            "repair",
            "--schema", str(DATA / "boolean.shex"),
            "--data", str(DATA / "boolean.ttl"),
            "--node", "ex:term",
            "--shape", "Term",
            "--max-edits", "2",
            "--json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["minSize"] == 2
    assert len(doc["repairs"]) >= 4


def test_repair_already_valid(capsys):
    code = main(
        [
            "repair",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--node", "ex:issue1",
            "--shape", "IssueShape",
            "--max-edits", "1",
            "--json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["minSize"] == 0
    assert doc["repairs"] == [{"delete": [], "insert": []}]


def test_repair_budget_zero_exit_1(capsys):
    code = main(
        [
            "repair",
            "--schema", SCHEMA,
            "--data", str(DATA / "repairing.ttl"),
            "--node", "ex:issue",
            "--shape", "IssueShape",
            "--max-edits", "0",
        ]
    )
    assert code == 1
    assert "no repair within 0 edits" in capsys.readouterr().out


def test_mismatched_node_shape_counts_exit_3():
    code = main(
        ["validate", "--schema", SCHEMA, "--data", ISSUES, "--node", "ex:issue1"]
    )
    assert code == 3


@pytest.mark.parametrize("position", ["0", "2", "5", "-1"])
def test_negate_outside_the_pairs_exit_3(position, capsys):
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--node", "ex:emin",
            "--shape", "ProgrammerShape",
            "--negate", position,
        ]
    )
    assert code == 3
    assert f"--negate {position} names no pair" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [("validate", "--bag-bound"), ("repair", "--bag-bound"), ("repair", "--max-edits")],
)
def test_negative_limit_exit_3(command, flag, capsys):
    code = main(
        [
            command,
            "--schema", SCHEMA,
            "--data", str(DATA / "repairing.ttl"),
            "--node", "ex:issue",
            "--shape", "IssueShape",
            flag, "-3",
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert f"{flag} must not be negative" in captured.err
    assert "no repair" not in captured.out


def test_validate_unknown_node_exit_3(capsys):
    code = main(
        ["validate", "--schema", SCHEMA, "--data", ISSUES, "--node", "ex:ghost", "--shape", "IssueShape"]
    )
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_repair_unknown_node_exit_3(monkeypatch, capsys):
    import shexd.repair

    checks = []
    real = shexd.repair.is_valid_after
    monkeypatch.setattr(
        shexd.repair, "is_valid_after", lambda *a, **k: checks.append(a) or real(*a, **k)
    )
    argv = ["--schema", SCHEMA, "--data", str(DATA / "repairing.ttl"),
            "--node", "ex:nobody", "--shape", "IssueShape"]
    assert main(["validate", *argv]) == 3
    validate_err = capsys.readouterr().err
    assert main(["repair", *argv, "--max-edits", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == validate_err == "error: requested node 'ex:nobody' is not in the graph\n"
    assert captured.out == ""
    assert checks == []


def test_repair_unknown_shape_exit_3(capsys):
    code = main(["repair", "--schema", SCHEMA, "--data", str(DATA / "repairing.ttl"),
                 "--node", "ex:issue", "--shape", "NoShape", "--max-edits", "1"])
    assert code == 3
    assert capsys.readouterr().err == "error: requested shape <NoShape> is not in the schema\n"


def _chain_files(tmp_path, links):
    """A chain of ``links`` ex:next links, each node but the last with an
    ex:v literal: 2 * links + 1 nodes."""
    schema = tmp_path / "chain.shex"
    schema.write_text(
        "PREFIX ex: <http://example.org/>\n"
        "<Link> { ex:next @<Link> ?, ex:v Literal ?, ^ex:next IRI ? }\n"
    )
    data = tmp_path / "chain.ttl"
    data.write_text("@prefix ex: <http://example.org/> .\n" + "".join(
        f'ex:n{i} ex:next ex:n{i + 1} ; ex:v "{i}" .\n' for i in range(links)
    ))
    return ["--schema", str(schema), "--data", str(data)]


@pytest.mark.parametrize(
    "request_args, message",
    [
        (["--shape", "NoShape"], "error: requested shape <NoShape> is not in the schema\n"),
        (["--shape", "Link", "--negate", "1"],
         "error: negative assertions are only supported for negated-occurring shapes,"
         " and <Link> is not one\n"),
    ],
    ids=["unknown-shape", "negated-unnegated"],
)
def test_repair_rejects_a_malformed_request_on_a_large_graph(
    tmp_path, monkeypatch, capsys, request_args, message
):
    import shexd.repair

    checks = []
    real = shexd.repair.is_valid_after
    monkeypatch.setattr(
        shexd.repair, "is_valid_after", lambda *a, **k: checks.append(a) or real(*a, **k)
    )
    files = _chain_files(tmp_path, 40)
    argv = [*files, "--node", "ex:n0", *request_args]
    assert main(["validate", *argv]) == 3
    validate_err = capsys.readouterr().err
    assert main(["repair", *argv, "--max-edits", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == validate_err == message
    assert captured.out == "" and checks == []
    # a well-formed request on the 81-node graph is decided: it is valid
    ok = [*files, "--node", "ex:n0", "--shape", "Link"]
    assert main(["repair", *ok, "--max-edits", "1"]) == 0
    assert capsys.readouterr().out.startswith("minimal repairs of size 0: 1\n")


def test_repair_of_a_chain_past_the_reference_bound(tmp_path, monkeypatch, capsys):
    # 33 nodes joined by 32 ex:next links, the last one unnamed: 65 graph
    # nodes, past the reference validator's bound of 64. The repairs insert
    # a name for the last node (one per string literal of the pool: 32
    # names and "") or cut one of the 32 links: 2 * 33 - 1.
    import shexd.engine
    import shexd.repair

    schema = tmp_path / "chain.shex"
    schema.write_text(
        "PREFIX ex: <http://example.org/>\n"
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
        "<P> { ex:name xsd:string, ex:next @<P> ? }\n"
    )
    data = tmp_path / "chain.ttl"
    data.write_text("@prefix ex: <http://example.org/> .\n" + "".join(
        f'ex:n{i} ex:name "name {i}" ; ex:next ex:n{i + 1} .\n' for i in range(32)
    ))
    counts = {"checks": 0, "enumerations": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        shexd.repair, "is_valid_after", counted("checks", shexd.repair.is_valid_after)
    )
    monkeypatch.setattr(
        shexd.engine, "local_witnesses", counted("enumerations", shexd.engine.local_witnesses)
    )
    argv = ["repair", "--schema", str(schema), "--data", str(data),
            "--node", "ex:n0", "--shape", "P", "--max-edits", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("minimal repairs of size 1: 65\n")
    # 4,423 checks; a check enumerates the pairs whose neighbourhood its edit
    # set changed (5,511 in all), not the 33 pairs it decides
    assert counts["checks"] <= 4_500
    assert counts["enumerations"] <= 6_000


def test_repair_certificate_failure_is_an_internal_error(monkeypatch, capsys):
    import shexd.repair

    monkeypatch.setattr(shexd.repair, "verify_global_typing_witness", lambda *a, **k: False)
    argv = ["repair", "--schema", SCHEMA, "--data", str(DATA / "repairing.ttl"),
            "--node", "ex:issue", "--shape", "IssueShape", "--max-edits", "1"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: the witness of an accepted edit set failed verification\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--data", ISSUES, "--node", "ex:issue1", "--shape", "IssueShape"],
        ["repair", "--schema", SCHEMA, "--data", ISSUES, "--node", "ex:issue1",
         "--shape", "IssueShape", "--max-edits", "two"],
        ["validate", "--schema", SCHEMA, "--data", ISSUES, "--node", "ex:issue1",
         "--shape", "IssueShape", "--no-such-flag"],
        ["no-such-command"],
    ],
    ids=["missing-schema", "max-edits-not-int", "unknown-flag", "unknown-command"],
)
def test_usage_errors_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: shexd") and "error: " in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["repair", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert "usage: shexd" in capsys.readouterr().out


def test_negative_assertion_on_unnegated_shape_exit_3(capsys):
    code = main(
        [
            "validate",
            "--schema", SCHEMA,
            "--data", ISSUES,
            "--node", "ex:issue1",
            "--shape", "IssueShape",
            "--negate", "1",
        ]
    )
    assert code == 3




def test_validate_resource_bound_exit_4(tmp_path):
    schema = tmp_path / "wide.shex"
    schema.write_text("PREFIX e: <http://e/>\n<S> { (e:p IRI, e:p IRI) [1;2] }")
    data = tmp_path / "wide.nt"
    data.write_text(
        "\n".join(f"<http://e/n> <http://e/p> <http://e/t{i}> ." for i in range(4)) + "\n"
    )
    args = [
        "validate",
        "--schema", str(schema),
        "--data", str(data),
        "--format", "nt",
        "--node", "<http://e/n>",
        "--shape", "S",
    ]
    assert main(args + ["--bag-bound", "3"]) == 4
    assert main(args) == 0


def _parsed_schema_refs_after(argv, tmp_path, monkeypatch):
    """Run one request on a fresh schema and return weakrefs to the parsed
    Schema and its shapes, for the caller to check after ``gc.collect()``."""
    import weakref

    import shexd.cli

    # Properties no other test uses, so no equal shape was built before.
    schema = tmp_path / "lifetime.shex"
    schema.write_text(
        "PREFIX l: <http://lifetime.example/>\n"
        "<S> { l:p IRI *, l:p @<T> *, l:q Literal }\n<T> { l:q Literal }\n"
    )
    data = tmp_path / "lifetime.ttl"
    data.write_text(
        "@prefix l: <http://lifetime.example/> .\n"
        "l:a l:p l:b ; l:q \"x\" .\nl:b l:q \"y\" .\nl:c l:p l:a .\n"
    )
    refs = []
    original = shexd.cli.parse_schema

    def recording(text):
        parsed = original(text)
        refs.append(weakref.ref(parsed))
        refs.extend(weakref.ref(sd) for sd in parsed.shapes.values())
        return parsed

    monkeypatch.setattr(shexd.cli, "parse_schema", recording)
    code = main(
        [argv[0], "--schema", str(schema), "--data", str(data), *argv[1:], "--json"]
    )
    assert code == 0
    assert len(refs) == 3
    return refs


def test_parsed_schema_dies_after_validate(tmp_path, monkeypatch):
    import gc

    refs = _parsed_schema_refs_after(
        ["validate", "--node", "l:a", "--shape", "S"], tmp_path, monkeypatch
    )
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_parsed_schema_dies_after_repair(tmp_path, monkeypatch):
    # the repair search fills the shapes' bag-verdict memos and patches
    # edited graphs onto the request's graph; none of it may outlive it
    import gc

    # l:c lacks its l:q, so the search checks edit sets until one adds it
    refs = _parsed_schema_refs_after(
        ["repair", "--node", "l:c", "--shape", "S", "--max-edits", "1"], tmp_path, monkeypatch
    )
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
