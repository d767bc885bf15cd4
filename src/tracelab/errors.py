"""Shared exception types."""

from __future__ import annotations


class FieldMismatchError(ValueError):
    """Arithmetic attempted between elements of distinct quadratic fields."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated.

    The message names the violated precondition.
    """


class UnsupportedRingError(PreconditionError):
    """Coprimality/division requested in a ring without Euclidean division."""


class BudgetExceededError(RuntimeError):
    """A computation hit its budget: enumeration its element budget, or
    delta_c_set or delta_c_cluster_witness the bit budget of its powers.

    From enumeration it carries the partial result truncated to the last
    fully completed radius.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
