"""Exception types shared across the package."""

from __future__ import annotations


class ShexdError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ShexdError):
    """Malformed input text; carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownPrefixError(ParseError):
    """A prefixed name uses a prefix that was never declared."""


class DuplicateShapeLabelError(ShexdError):
    """The same shape label is defined twice in one schema."""


class UndefinedShapeReferenceError(ShexdError):
    """A shape reference points at a label with no definition."""


class SchemaJsonError(ShexdError):
    """A schema JSON document is malformed; carries the offending path."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{message} (at {path})")


class UnknownNodeError(ShexdError):
    """A node identifier does not occur in the graph."""


class WellDefinednessError(ShexdError):
    """A shape reachable from a negated shape sits on a dependency cycle."""

    def __init__(self, label: str, cycle: list[str]):
        self.label = label
        self.cycle = cycle
        path = " -> ".join(cycle)
        super().__init__(f"negated shape <{label}> reaches the cycle {path}")


class NotSingleOccurrenceError(ShexdError):
    """Expression repeats a triple-constraint id; interval computation refused."""


class BagTooLargeError(ShexdError):
    """Exhaustive bag matching was asked to exceed its configured bound."""


class SearchBudgetExceededError(ShexdError):
    """An exhaustive search ran past its configured resource bound."""


class CertificateError(ShexdError):
    """An accepted answer's certificate failed verification: an internal error."""


class ValidationError(ShexdError):
    """The requested typing cannot be extended to a global typing witness.

    ``failed`` holds the requested entries that could not be established,
    ``exhausted`` holds (node, shape, tried) triples for hypotheses whose
    candidate sequences ran out during the final attempt.
    """

    def __init__(self, message: str, failed=(), exhausted=()):
        self.failed = tuple(failed)
        self.exhausted = tuple(exhausted)
        super().__init__(message)


class IncompatibleInitialTypingError(ValidationError):
    """The requested typing already contradicts the certain typing."""
