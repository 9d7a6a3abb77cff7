"""The exception roots the command line sorts failures by: exit 1 or 2."""


class DomainError(ValueError):
    """Well-formed input that violates a structural axiom: the command line
    answers exit 1 with a report naming the class.  Every structural failure
    of cone, monoid, diagram and stackyfan derives from it."""


class InternalError(RuntimeError):
    """A postcondition of the program failed: a bug, never bad input.

    The command line reports it as ``error: internal error: ...`` with
    exit code 2.  It is not a ValueError, so no input-error handler can
    mistake it for a malformed document or a domain failure.
    """
