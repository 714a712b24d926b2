"""Structured verdicts shared by the condition checkers.

A verdict is a numerical classification with explicit margins, never a
proof; a ``fails`` verdict always carries a concrete witness point and
value, and trend data travels along so a human can audit the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HOLDS = "holds-on-horizon"
HOLDS_SAMPLE = "holds-on-sample"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass
class ConditionReport:
    """Outcome of one checker run.

    witnesses: named scalars backing the verdict (estimated constants,
    witness points, trend slopes).  tables: named column-oriented trend
    data (partial integrals, envelopes, per-interval constants).
    """

    check: str
    verdict: str
    witnesses: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    notes: tuple = ()

