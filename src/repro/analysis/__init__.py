"""repro.analysis — simlint, the determinism & hot-path audit.

Static analysis tailored to this reproduction's invariants: every
result rests on runs being pure functions of their seed (so the
serial≡parallel≡cache-replay and queue≡sorted-list-reference
equivalences hold) and on the simulation hot path staying
allocation-lean.  The rule battery (``repro.analysis.rules``) encodes
those invariants; the engine (``repro.analysis.core``) parses each file
once and runs the per-module rules in one AST walk; the whole-program
layer (``repro.analysis.interproc``) runs over a project-wide,
alias-resolved call graph built from the same parse — determinism
(SIM008: wall-clock, RNG and ordering sources, read directly or through
helpers) and engine-cell purity proofs (SIM009); the CLI (``python -m
repro.analysis``) and ``tests/test_analysis_selfcheck.py`` keep the
tree at zero findings, with a justified inline suppression as the only
waiver.  DESIGN.md §10 documents the rule catalogue and the
suppression policy; §15 documents the whole-program passes.
"""

from repro.analysis.core import (
    Analyzer,
    ModuleContext,
    Violation,
    format_suppression,
    module_name_for,
    parse_suppressions,
)
from repro.analysis.interproc import (
    ProjectIndex,
    TaintAnalysis,
    interprocedural_violations,
)
from repro.analysis.report import (
    exit_code,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import (
    RULE_CLASSES,
    RULE_INDEX,
    WHOLE_PROGRAM_RULE_IDS,
    Rule,
    default_rules,
    describe_rules,
    get_rules,
)

__all__ = [
    "Analyzer",
    "ModuleContext",
    "ProjectIndex",
    "RULE_CLASSES",
    "RULE_INDEX",
    "Rule",
    "TaintAnalysis",
    "Violation",
    "WHOLE_PROGRAM_RULE_IDS",
    "default_rules",
    "describe_rules",
    "exit_code",
    "format_suppression",
    "get_rules",
    "interprocedural_violations",
    "module_name_for",
    "parse_suppressions",
    "render_json",
    "render_sarif",
    "render_text",
]
