"""Exception types shared across the solver modules.

Plain ``ValueError`` is used for invalid arguments; the classes below cover
failures that arise *during* a computation and carry diagnostics.
"""

from __future__ import annotations


class SolverFailure(RuntimeError):
    """An LP solve did not converge or failed its certificate.  Carries the
    bare message, so that callers can add context, and the iteration
    count."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(f"{message} (iterations={iterations})")
        self.message = message
        self.iterations = iterations


class NumericFailure(RuntimeError):
    """A trajectory produced a non-finite state. Carries the stage index."""

    def __init__(self, message: str, stage: int):
        super().__init__(f"{message} (stage={stage})")
        self.stage = stage


class InvalidStateError(RuntimeError):
    """An internal object violates its invariants (e.g. a defective plan)."""
