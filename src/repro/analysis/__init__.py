"""repro.analysis — simlint, the determinism & hot-path audit.

Static analysis tailored to this reproduction's invariants: every
result rests on runs being pure functions of their seed (so the
serial≡parallel≡cache-replay and queue≡sorted-list-reference
equivalences hold) and on the simulation hot path staying
allocation-lean.  The rule battery
(``repro.analysis.rules``) encodes those invariants; the engine
(``repro.analysis.core``) runs them in one AST walk per file; the
whole-program layer (``repro.analysis.interproc``) lifts the audit
across module boundaries — interprocedural determinism taint (SIM008)
and engine-cell purity proofs (SIM009) over a project-wide,
alias-resolved call graph, ratcheted by a committed findings baseline;
the CLI (``python -m repro.analysis``) and
``tests/test_analysis_selfcheck.py`` keep the tree clean.  DESIGN.md
§10 documents the per-module rule catalogue and the suppression
policy; §15 documents the whole-program pass.
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
    WholeProgramAnalyzer,
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
    "WholeProgramAnalyzer",
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
