"""Exception hierarchy shared across the engine."""

from __future__ import annotations


class PdbError(Exception):
    """Base class for all engine errors."""


class ValidationError(PdbError):
    """A supplied object violates a structural or probabilistic constraint."""


class DivergentAssignment(ValidationError):
    """The sum of fact probabilities cannot be certified finite."""


class DuplicateFact(ValidationError):
    """The same fact is assigned a probability twice."""


class BlockMassExceedsOne(ValidationError):
    """A block's fact probabilities sum to more than one."""


class OverlappingFacts(ValidationError):
    """Fresh-fact supply intersects the facts of the base space."""


class UnitTailProbability(ValidationError):
    """A fresh fact has probability one, which would zero out the base space."""


class NotClosed(ValidationError):
    """Sample space is not closed under subsets and unions of instances."""

    def __init__(self, message: str, missing=None):
        super().__init__(message)
        self.missing = missing


class WorldCapExceeded(PdbError):
    """World enumeration would exceed the configured cap.

    ``required`` carries the cap it would take, so callers can decide
    whether to raise it: bits of the walk's world count for a query's
    cap, and facts for every other cap.
    """

    def __init__(self, message: str, required: int, cap: int):
        super().__init__(message)
        self.required = required
        self.cap = cap


class NestingTooDeep(PdbError):
    """Spec JSON or a query nests past the recursion limit of the walk that reads it."""


class QuerySyntaxError(PdbError):
    """Query text failed to parse; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
