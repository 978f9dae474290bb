"""Report containers shared by the statement checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .spaces import RandVar

__all__ = ["CheckReport", "witness_to_jsonable"]


def witness_to_jsonable(witness: dict | None) -> dict | None:
    """Flatten RandVar entries of a (possibly nested) witness dict into value lists."""
    if witness is None:
        return None
    out: dict[str, Any] = {}
    for key, val in witness.items():
        if isinstance(val, RandVar):
            out[key] = val.tolist()
        elif isinstance(val, dict):
            out[key] = witness_to_jsonable(val)
        else:
            out[key] = val
    return out


@dataclass
class CheckReport:
    """Outcome of a property check.

    No statement checker samples, so ``seed`` is None.  Fixed-list checks count
    their comparisons as ``trials``; exact checks (decided by construction)
    count the positions or pairs they evaluated, 1 or 2.  On failure the
    witness dict holds the violating positions, re-verifiable through the
    public membership and comonotonicity predicates.
    """

    name: str
    passed: bool
    trials: int
    seed: int | None = None
    witness: dict | None = None
    note: str = ""
    data: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "trials": self.trials,
            "seed": self.seed,
            "witness": witness_to_jsonable(self.witness),
            "note": self.note,
            "data": witness_to_jsonable(self.data),
        }
