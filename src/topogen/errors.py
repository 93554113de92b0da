"""Exception hierarchy shared by all modules."""


class TopogenError(Exception):
    """Base class for all package errors."""


class DomainError(TopogenError):
    """An argument refers to an element/morphism outside its structure."""


class PreconditionError(TopogenError):
    """A stated precondition (validity, meet-preservation, ...) fails.

    Carries an optional structured witness so callers can show *why*.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CapabilityError(TopogenError):
    """The operation is not supported for this kind of instance."""


class ResourceCapError(TopogenError):
    """An enumeration or generation budget would be exceeded."""


class InternalConsistencyError(TopogenError):
    """Two provably-equivalent computations disagreed (a bug, not bad input)."""


class FormatError(TopogenError):
    """Instance-file syntax or semantic error, with position information."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column
