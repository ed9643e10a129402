"""Rule registry: every contract rule the engine runs by default."""

from __future__ import annotations

from typing import Dict, List

from ..core import Rule
from .determinism import SetIterationRule, UnseededRandomRule, WallClockRule
from .exceptsafety import ExceptionSafetyRule
from .lockorder import LockOrderRule
from .locks import LockDisciplineRule
from .seedflow import SeedFlowRule

#: Rule classes in documentation order (determinism, locks, then the
#: interprocedural pass).
ALL_RULES = (
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
    LockDisciplineRule,
    SeedFlowRule,
    LockOrderRule,
    ExceptionSafetyRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [rule_cls() for rule_cls in ALL_RULES]


def rules_by_id() -> Dict[str, type]:
    return {rule_cls.id: rule_cls for rule_cls in ALL_RULES}


__all__ = [
    "ALL_RULES", "default_rules", "rules_by_id",
    "SetIterationRule", "UnseededRandomRule", "WallClockRule",
    "LockDisciplineRule", "SeedFlowRule", "LockOrderRule",
    "ExceptionSafetyRule",
]
