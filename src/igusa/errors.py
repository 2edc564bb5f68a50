"""Exception types shared across the package."""

from __future__ import annotations


class IgusaError(Exception):
    """Base class for all package errors."""

    exit_code = 1

    def detail(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class PolynomialSyntaxError(IgusaError):
    """Raised by the polynomial parser; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position

    def detail(self) -> dict:
        d = super().detail()
        d["position"] = self.position
        return d


class HypothesisError(IgusaError):
    """A required hypothesis (convenience, non-degeneracy, good reduction) fails.

    ``witness`` is machine-checkable evidence, e.g. a degenerate torus point.
    """

    exit_code = 2

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness

    def detail(self) -> dict:
        d = super().detail()
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class BudgetExceededError(IgusaError):
    """An exhaustive enumeration would exceed the configured point budget."""

    exit_code = 4

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(f"{message}: {required} points exceed budget {budget}")
        self.required = required
        self.budget = budget

    def detail(self) -> dict:
        d = super().detail()
        d["required"] = self.required
        d["budget"] = self.budget
        return d


class ModulusOverflowError(IgusaError):
    """A residue modulus too large for exact int64 grid arithmetic."""

    exit_code = 4


DEFAULT_ENUM_BUDGET = 10**8


def check_budget(points: int, budget: int, what: str):
    """Refuse an enumeration of ``points`` points above ``budget``."""
    if points > budget:
        raise BudgetExceededError(what, points, budget)
