"""The simlint rule battery.

Adding a rule (DESIGN.md §10 walks through a full example):

1. create ``rules/<name>.py`` with a :class:`~repro.analysis.rules.base.Rule`
   subclass — pick the next free ``SIMnnn`` id, scope it with
   ``domains``/``allowlist`` (justify every allowlist entry in the
   rule's docstring);
2. register the class in :data:`RULE_CLASSES` below;
3. add fixture snippets (positive, negative, suppressed) under
   ``tests/analysis_fixtures/`` — the fixture-driven test picks them up
   by filename, no test code needed;
4. run the self-check (``make lint``); fix or justify whatever the new
   rule finds in the existing tree.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.analysis.rules.base import Rule
from repro.analysis.rules.exceptions import SwallowedSimulationErrorRule
from repro.analysis.rules.interproc import (
    DeterminismTaintRule,
    EngineCellPurityRule,
    WholeProgramRule,
)
from repro.analysis.rules.ordering import UnorderedIterationRule
from repro.analysis.rules.procpool import ProcessPoolRule
from repro.analysis.rules.simtime import SimTimeFloatRule
from repro.analysis.rules.slots import MissingSlotsRule

#: Every registered rule, in rule-id order.  SIM008/SIM009 are
#: whole-program descriptors (see ``rules/interproc.py``): listed,
#: selectable and suppressible like any rule, but their analysis runs
#: in ``repro.analysis.interproc`` over the project-wide call graph.
RULE_CLASSES: tuple[type[Rule], ...] = (
    UnorderedIterationRule,
    SimTimeFloatRule,
    MissingSlotsRule,
    SwallowedSimulationErrorRule,
    ProcessPoolRule,
    DeterminismTaintRule,
    EngineCellPurityRule,
)

RULE_INDEX: dict[str, type[Rule]] = {cls.rule_id: cls for cls in RULE_CLASSES}

#: Rule ids whose findings only the whole-program pass can produce.
WHOLE_PROGRAM_RULE_IDS: frozenset[str] = frozenset(
    cls.rule_id for cls in RULE_CLASSES if issubclass(cls, WholeProgramRule)
)


def default_rules() -> list[Rule]:
    """Fresh instances of the full battery."""
    return [cls() for cls in RULE_CLASSES]


def get_rules(rule_ids: Optional[Iterable[str]] = None) -> list[Rule]:
    """Instantiate ``rule_ids`` (or the full battery when None)."""
    if rule_ids is None:
        return default_rules()
    selected: list[Rule] = []
    unknown: list[str] = []
    for rule_id in rule_ids:
        cls = RULE_INDEX.get(rule_id.upper())
        if cls is None:
            unknown.append(rule_id)
        else:
            selected.append(cls())
    if unknown:
        known = ", ".join(sorted(RULE_INDEX))
        raise KeyError(f"unknown rule id(s) {unknown!r}; known rules: {known}")
    return selected


def describe_rules(rules: Optional[Sequence[Rule]] = None) -> list[dict[str, str]]:
    """Catalogue rows for ``--list-rules`` and the JSON report."""
    if rules is None:
        rules = default_rules()
    return [
        {
            "rule": rule.rule_id,
            "severity": rule.severity,
            "description": rule.description,
        }
        for rule in rules
    ]


__all__ = [
    "RULE_CLASSES",
    "RULE_INDEX",
    "Rule",
    "WHOLE_PROGRAM_RULE_IDS",
    "WholeProgramRule",
    "default_rules",
    "describe_rules",
    "get_rules",
]
