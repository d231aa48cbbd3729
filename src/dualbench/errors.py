"""Exception taxonomy: one class per CLI exit code.

* ``FormatError`` (exit 1): bad input -- a file that does not parse,
  operands in different F2^n spaces, an empty set where a nonempty one is
  needed, an exact search beyond its cap, or another documented
  precondition that does not hold.
* ``SearchFailure`` (exit 2): a search stage legitimately found nothing;
  not a bug.  ``stage`` names the stage.
* ``InvariantViolation`` (exit 3): a guarantee the code must uphold
  failed; always a bug trap.  Its one subclass, ``TreeMismatch``, is a
  protocol tree that disagrees with its matrix: a bug in a tree just
  built, bad input in a tree read from a file.
"""


class DualbenchError(Exception):
    """Base class for all package errors."""


class FormatError(DualbenchError):
    """Bad input: a file that does not parse or an operation's precondition
    that the inputs do not meet."""


class SearchFailure(DualbenchError):
    """Search stage ``stage`` legitimately found nothing; not a bug.

    ``exhaustive`` is True when a complete enumeration proved nonexistence.
    """

    def __init__(self, stage, message, exhaustive=False):
        super().__init__(message)
        self.stage = stage
        self.exhaustive = exhaustive


class InvariantViolation(DualbenchError):
    """A guarantee the code must uphold failed; always a bug trap."""


class TreeMismatch(InvariantViolation):
    """A protocol tree's answers or stored ranks disagree with its matrix."""


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
