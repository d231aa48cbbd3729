"""Exception taxonomy.

Three families matter to callers:

* plain misuse (bad dimensions, bad formats) -> ``DualbenchError`` subclasses,
* legitimate search failures (a stage came up empty) -> ``SearchFailure``,
* broken internal guarantees (bug traps) -> ``InvariantViolation``.

The CLI maps these to exit codes 1, 2 and 3 respectively.
"""


class DualbenchError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DualbenchError):
    """Operands live in different F2^n spaces."""


class EmptySetError(DualbenchError):
    """An operation that needs a nonempty set received an empty one."""


class FormatError(DualbenchError):
    """A matrix/set/tree file does not parse."""


class CapExceeded(DualbenchError):
    """An exact enumeration was requested beyond its configured cap."""


class PreconditionViolation(DualbenchError):
    """A documented operation precondition does not hold for the inputs."""


class SearchFailure(DualbenchError):
    """A search stage legitimately found nothing; not a bug."""

    stage = "search"


class NotFound(SearchFailure):
    """No qualifying object exists (or none was found below exact scale).

    ``exhaustive`` is True when a complete enumeration proved nonexistence.
    """

    def __init__(self, message, exhaustive=False):
        super().__init__(message)
        self.exhaustive = exhaustive


class ZeroDuality(SearchFailure):
    stage = "markov_restrict"


class EmptyNext(SearchFailure):
    stage = "next_set"


class DensityTooLow(SearchFailure):
    stage = "bsg"


class EmptyResult(SearchFailure):
    stage = "bsg"


class GraphEmpty(SearchFailure):
    stage = "pull_back"


class InvariantViolation(DualbenchError):
    """A guarantee the code must uphold failed; always a bug trap."""


class MonochromaticityViolation(InvariantViolation):
    pass


class DegenerateSplit(InvariantViolation):
    pass


class DepthCapExceeded(InvariantViolation):
    pass


class MismatchError(InvariantViolation):
    """Protocol simulation disagrees with the source matrix."""

    def __init__(self, row, col, got, expected):
        super().__init__(
            f"protocol mismatch at ({row},{col}): got {got}, expected {expected}"
        )
        self.row = row
        self.col = col


class AuditViolation(InvariantViolation):
    def __init__(self, path, message):
        super().__init__(f"audit violation at node {path or 'root'}: {message}")
        self.path = path


def read_text(path) -> str:
    """The text of a matrix, set or tree file; those formats are ASCII, so any
    other byte is a FormatError naming the file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: byte {exc.object[exc.start]:#04x} at offset {exc.start} is not ASCII"
        ) from None
