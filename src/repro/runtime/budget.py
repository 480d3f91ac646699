"""Verification budgets: bounded effort for the NP-hard GED step.

GED verification is NP-hard (paper §V), so a single adversarial
candidate pair can otherwise stall an entire join.  A
:class:`VerificationBudget` caps the A* search in expansions and/or
wall-clock seconds; on exhaustion the search returns a *bounded
verdict* — a ``lower ≤ ged ≤ upper`` bracket — instead of running
forever (see :func:`repro.ged.astar.graph_edit_distance_detailed`).

The budget object itself is immutable configuration; each search
:meth:`~VerificationBudget.start`\\ s a fresh mutable
:class:`BudgetMeter` so one budget value can be shared across many
pairs (and shipped to worker processes — both classes are picklable).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ParameterError

__all__ = ["VerificationBudget", "BudgetMeter"]


@dataclass(frozen=True)
class VerificationBudget:
    """Effort cap for one GED verification.

    Attributes
    ----------
    max_expansions:
        Maximum A* states popped from the queue (``None`` = unlimited).
    max_seconds:
        Maximum wall-clock seconds for one search (``None`` = unlimited).

    A budget with both fields ``None`` is valid and never exhausts —
    equivalent to passing no budget at all.
    """

    max_expansions: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate the caps: negative caps are out of domain, and a NaN
        or infinite cap could never fire."""
        for name in ("max_expansions", "max_seconds"):
            cap = getattr(self, name)
            if cap is not None and not 0 <= cap < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {cap}")

    @property
    def unlimited(self) -> bool:
        """True when this budget can never exhaust."""
        return self.max_expansions is None and self.max_seconds is None

    def start(self) -> "BudgetMeter":
        """Begin metering one search against this budget."""
        return BudgetMeter(self)


class BudgetMeter:
    """Mutable per-search meter for a :class:`VerificationBudget`.

    Call :meth:`tick` once per A* expansion; it returns ``False`` as
    soon as the budget is exhausted.  The wall clock starts at
    construction time (``time.monotonic``).
    """

    __slots__ = ("max_expansions", "deadline", "expansions")

    def __init__(self, budget: VerificationBudget) -> None:
        """Start the meter (the time budget begins counting now)."""
        self.max_expansions = budget.max_expansions
        self.deadline = (
            time.monotonic() + budget.max_seconds
            if budget.max_seconds is not None
            else None
        )
        self.expansions = 0

    def tick(self) -> bool:
        """Charge one expansion; ``True`` while the budget still holds."""
        if self.max_expansions is not None and self.expansions >= self.max_expansions:
            return False
        self.expansions += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            return False
        return True
