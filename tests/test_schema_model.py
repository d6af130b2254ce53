from __future__ import annotations

from shexd import check_well_defined, dependency_graph, negated_shapes, parse_schema, triple_consumers
from shexd.rdf_graph import DirectedProperty
from shexd.schema_model import (
    ByConstraint,
    Empty,
    ExtraSlot,
    OpenSlot,
    Schema,
    ShapeDefinition,
    consumer_key,
    lint_schema,
    shape_refs,
)

from conftest import IS


def test_dependency_graph_running_example(issues_schema):
    deps = dependency_graph(issues_schema)
    assert deps["IssueShape"] == {"UserShape", "ClientShape", "TesterShape", "ProgrammerShape"}
    assert deps["UserShape"] == {"IssueShape"}
    assert deps["LowImpactIssueShape"] == {"ClientShape"}
    assert deps["TesterShape"] == set()


def test_dependency_graph_no_refs():
    schema = parse_schema("PREFIX e: <http://e/>\n<S> { e:p IRI }")
    assert dependency_graph(schema) == {"S": set()}


def test_dependency_graph_self_loop():
    schema = parse_schema("PREFIX e: <http://e/>\n<S> { e:p @<S> }")
    assert dependency_graph(schema) == {"S": {"S"}}


def test_negated_shapes_running_example(issues_schema):
    assert negated_shapes(issues_schema, "IssueShape") == {"TesterShape", "ProgrammerShape"}
    assert negated_shapes(issues_schema, "LowImpactIssueShape") == {"ClientShape"}
    assert negated_shapes(issues_schema, "TesterShape") == set()
    assert issues_schema.negated_labels == {
        "TesterShape",
        "ProgrammerShape",
        "ClientShape",
    }


def test_negated_shapes_subset_of_referenced(issues_schema):
    for label, sd in issues_schema.shapes.items():
        referenced = {r.label for r in shape_refs(sd)}
        assert negated_shapes(issues_schema, label) <= referenced


def test_well_defined_running_example(issues_schema):
    assert check_well_defined(issues_schema) is None


def test_self_negation_rejected():
    schema = parse_schema("PREFIX e: <http://e/>\n<S> { e:p !@<S> }")
    report = check_well_defined(schema)
    assert report is not None
    assert report.label == "S"
    assert report.cycle == ("S", "S")


def test_cycle_reachable_from_negated_rejected():
    schema = parse_schema(
        "PREFIX e: <http://e/>\n"
        "<A> { e:p !@<B> }\n<B> { e:q @<C> }\n<C> { e:r @<B> }"
    )
    report = check_well_defined(schema)
    assert report is not None
    assert report.label == "B"
    assert set(report.cycle) == {"B", "C"}


def test_removing_negation_makes_it_well_defined():
    text = (
        "PREFIX e: <http://e/>\n"
        "<A> { e:p %BANG%@<B> }\n<B> { e:q @<C> }\n<C> { e:r @<B> }"
    )
    assert check_well_defined(parse_schema(text.replace("%BANG%", "!"))) is not None
    assert check_well_defined(parse_schema(text.replace("%BANG%", ""))) is None


def test_positive_cycles_alone_are_fine(issues_schema):
    # UserShape <-> IssueShape is a cycle, but never reached from a negated label
    deps = dependency_graph(issues_schema)
    assert "IssueShape" in deps["UserShape"] and "UserShape" in deps["IssueShape"]
    assert check_well_defined(issues_schema) is None


def test_triple_consumers_issue_shape(issues_schema):
    consumers = triple_consumers(issues_schema.shapes["IssueShape"])
    assert len(consumers) == 6
    assert [consumer_key(c) for c in consumers] == [
        "C1",
        "C2",
        "C3",
        "C4",
        f"extra:{IS}reproducedBy",
        "open",
    ]


def test_triple_consumers_empty_open_shape():
    assert triple_consumers(ShapeDefinition(expr=Empty())) == (OpenSlot(),)


def test_triple_consumers_client_shape(issues_schema):
    consumers = triple_consumers(issues_schema.shapes["ClientShape"])
    assert consumers == (ByConstraint(1), OpenSlot())


def test_consumers_one_extra_per_property():
    schema = parse_schema(
        "PREFIX e: <http://e/>\n<S> EXTRA e:p { e:p IRI, e:p Literal }"
    )
    consumers = triple_consumers(schema.shapes["S"])
    extras = [c for c in consumers if isinstance(c, ExtraSlot)]
    assert extras == [ExtraSlot(DirectedProperty("http://e/p"))]


def test_lint_flags_idle_extra_and_contradiction():
    schema = parse_schema(
        "PREFIX e: <http://e/>\n"
        "<S> EXTRA e:unused { e:p @<T> AND !@<T> }\n<T> { }"
    )
    warnings = lint_schema(schema)
    assert any("unused" in w for w in warnings)
    assert any("never be satisfied" in w for w in warnings)
    assert lint_schema(Schema({"E": ShapeDefinition()})) == []
