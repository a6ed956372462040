"""Exception hierarchy shared by all generation modes."""

from __future__ import annotations


class GenerationError(Exception):
    """Base class for all errors raised by this package."""


class ConflictError(GenerationError):
    """No value has positive weight for a segment (empty value support).

    Carries the offending segment and the partial content that caused the
    dead end so callers can diagnose or restart.
    """

    def __init__(self, segment, content, detail=""):
        self.segment = segment
        self.content = content
        msg = f"no admissible value for segment {segment}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SelectorContractError(GenerationError):
    """A selector violated its contract (e.g. mass on an already-placed id)."""


class BudgetExceededError(GenerationError):
    """Exhaustive enumeration would exceed the budget (``framework.EXACT_BUDGET``)."""


class CapacityError(GenerationError):
    """A resource cap (config sizes, qubits, loads per step, support size) was exceeded."""


class ContractError(GenerationError):
    """A walked state's squared norm drifted from 1, or a draw was asked of a
    table with no finite positive mass."""


class RestartsExhaustedError(GenerationError):
    """Restart-on-conflict generation gave up after the configured cap; the
    message names the last conflict."""

    def __init__(self, restarts, conflict=None):
        self.restarts = restarts
        last = f": {conflict}" if conflict is not None else ""
        super().__init__(f"still conflicting after {restarts} restarts{last}")


class ConfigError(GenerationError):
    """Configuration file could not be parsed or validated."""
