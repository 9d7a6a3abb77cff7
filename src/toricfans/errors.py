"""The exception for a broken invariant of the program itself."""


class InternalError(RuntimeError):
    """A postcondition of the program failed: a bug, never bad input.

    The command line reports it as ``error: internal error: ...`` with
    exit code 2.  It is not a ValueError, so no input-error handler can
    mistake it for a malformed document or a domain failure.
    """
