"""The simlint rule engine.

simlint is an AST-based auditor for the invariants every result in this
reproduction rests on: the simulator must be *deterministic* (a seed
fully decides a run, so serial ≡ parallel ≡ cache-replay holds), and the
hot path must stay allocation-lean.  Nothing here executes the code
under analysis — every rule works from the parse tree plus a per-module
import map, so the audit is cheap enough to run on every commit.

Architecture
------------

* :class:`Violation` — one finding, pinned to ``path:line:col``.
* :class:`ModuleContext` — everything a rule may consult about the file
  being analyzed: dotted module name, source lines, the resolved import
  map, and the parsed suppressions.
* :class:`~repro.analysis.rules.base.Rule` — rules declare the AST node
  types they care about (``interests``) and the dotted-module domains
  they audit; the :class:`Analyzer` parses each file **once**, walks
  the tree once dispatching nodes to every interested rule, and hands
  the same parse to the whole-program passes
  (:mod:`repro.analysis.interproc`) when SIM008 or SIM009 is selected.
* Suppressions — ``# simlint: disable=SIM003,SIM004`` on the offending
  line silences exactly those rules there (``disable=all`` silences
  everything).  The policy (DESIGN.md §10): a suppression must carry a
  justification comment; fixing the code is always preferred.

Module classification
---------------------

Rules scope themselves by dotted module name (``repro.sim.engine``),
derived from the file path (``src/repro/...`` or ``benchmarks/...``).
A file can override the derived name with a directive in its first few
lines — ``# simlint: module=repro.sim.fake`` — which is how the test
fixtures under ``tests/analysis_fixtures/`` impersonate in-domain
modules without living inside the package.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.interproc.callgraph import ModuleSummary
    from repro.analysis.rules.base import Rule

#: Violation severities, most severe first.  ``error`` findings fail the
#: build; ``warning`` findings are reported but do not affect exit codes.
SEVERITIES = ("error", "warning")

#: Directories never descended into when expanding path arguments.
SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".hypothesis", ".pytest_cache", ".repro_cache"}
)

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")
_MODULE_RE = re.compile(r"#\s*simlint:\s*module=([A-Za-z0-9_.]+)")

#: How many leading lines may carry a ``# simlint: module=`` directive.
_DIRECTIVE_WINDOW = 10


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule finding, pinned to a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    #: Interprocedural findings (SIM008/SIM009) carry the taint path,
    #: one rendered hop per element; ``--explain`` prints it.
    trace: tuple[str, ...] = ()

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )

    def as_dict(self) -> dict[str, object]:
        row: dict[str, object] = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }
        if self.trace:
            row["trace"] = list(self.trace)
        return row


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids suppressed on that line.

    The token ``all`` (any case) suppresses every rule.  Several
    ``disable=`` comments on one line union together.  Rule ids are
    upper-cased so ``sim008`` and ``SIM008`` are the same suppression.
    """
    table: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "simlint" not in line:
            continue
        ids: set[str] = set()
        for match in _SUPPRESS_RE.finditer(line):
            for token in match.group(1).split(","):
                token = token.strip()
                if token:
                    ids.add("all" if token.lower() == "all" else token.upper())
        if ids:
            table[lineno] = frozenset(ids)
    return table


def format_suppression(rule_ids: Sequence[str]) -> str:
    """Render the canonical suppression comment for ``rule_ids``.

    Inverse of :func:`parse_suppressions` for a single comment — the
    Hypothesis round-trip test in ``tests/test_analysis_suppressions.py``
    holds the pair to that contract.
    """
    if not rule_ids:
        raise ValueError("a suppression needs at least one rule id")
    rendered = ",".join(
        "all" if rid.lower() == "all" else rid.upper() for rid in rule_ids
    )
    return f"# simlint: disable={rendered}"


def is_suppressed(
    violation: Violation, suppressions: Mapping[int, frozenset[str]]
) -> bool:
    active = suppressions.get(violation.line)
    if not active:
        return False
    return "all" in active or violation.rule_id in active


def module_name_for(path: Path, source: Optional[str] = None) -> str:
    """Derive the dotted module name a file would import as.

    Honors an explicit ``# simlint: module=...`` directive in the first
    few lines (used by test fixtures), then falls back to the path:
    everything after a ``src`` component, else everything from a
    ``repro`` or ``benchmarks`` component, else the bare stem.
    """
    if source is not None:
        head = source.splitlines()[:_DIRECTIVE_WINDOW]
        for line in head:
            match = _MODULE_RE.search(line)
            if match:
                return match.group(1)
    parts = list(path.resolve().with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor, keep_anchor in (("src", False), ("repro", True), ("benchmarks", True), ("tests", True)):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[index:] if keep_anchor else parts[index + 1:]
            if tail:
                return ".".join(tail)
    return parts[-1] if parts else ""


def _build_import_map(tree: ast.Module, module: str) -> dict[str, str]:
    """Map local names to the dotted path they were imported from.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Relative
    imports resolve against the containing package, best-effort.
    """
    imports: dict[str, str] = {}
    package_parts = module.split(".")[:-1] if module else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


class ModuleContext:
    """Everything the rules may consult about one analyzed file."""

    __slots__ = ("path", "module", "source", "lines", "tree", "imports", "suppressions")

    def __init__(self, path: Path, module: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.imports = _build_import_map(tree, module)
        self.suppressions = parse_suppressions(source)

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted name of an expression, import aliases substituted.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``; bare
        builtins resolve to themselves.  Returns None for expressions
        that are not name/attribute chains (calls, subscripts, ...).
        """
        parts: list[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        parts.append(self.imports.get(cursor.id, cursor.id))
        return ".".join(reversed(parts))


def build_context(
    source: str, path: Path, module: Optional[str] = None
) -> tuple[Optional[ModuleContext], Optional[Violation]]:
    """Parse one file into a :class:`ModuleContext`.

    Returns ``(ctx, None)`` on success and ``(None, sim000)`` when the
    file does not parse — the SIM000 violation carries the syntax error.
    """
    if module is None:
        module = module_name_for(path, source)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Violation(
            rule_id="SIM000",
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
        )
    return ModuleContext(path, module, source, tree), None


#: ``(path, source, module-override)`` triples accepted by
#: :meth:`Analyzer.analyze_sources`; module may be None to derive it from
#: the path / ``# simlint: module=`` directive.
SourceSpec = tuple[Path, str, Optional[str]]


class Analyzer:
    """Runs a rule battery over files, one parse per file.

    Each parse feeds one AST walk for the per-module rules and, when a
    whole-program rule (SIM008/SIM009) is selected, the call-graph
    summary that :mod:`repro.analysis.interproc` runs its passes over.
    """

    def __init__(self, rules: Optional[Sequence["Rule"]] = None) -> None:
        from repro.analysis.rules import WHOLE_PROGRAM_RULE_IDS, default_rules

        if rules is None:
            rules = default_rules()
        self.rules: tuple["Rule", ...] = tuple(rules)
        self.whole_program_ids = frozenset(
            rule.rule_id for rule in self.rules
        ) & WHOLE_PROGRAM_RULE_IDS

    # ------------------------------------------------------------------
    def analyze_sources(self, specs: Iterable[SourceSpec]) -> list[Violation]:
        """Analyze in-memory sources as one program; the workhorse behind
        every entry point."""
        from repro.analysis.interproc import (
            ProjectIndex,
            interprocedural_violations,
            summarize_module,
        )

        violations: list[Violation] = []
        summaries: list["ModuleSummary"] = []
        for path, source, module in specs:
            ctx, parse_error = build_context(source, path, module)
            if ctx is None:
                assert parse_error is not None
                violations.append(parse_error)
                continue
            violations.extend(self.analyze_context(ctx))
            if self.whole_program_ids:
                summaries.append(summarize_module(ctx))
        if self.whole_program_ids:
            violations.extend(
                interprocedural_violations(
                    ProjectIndex(summaries), self.whole_program_ids
                )
            )
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
        return violations

    def analyze_source(
        self, source: str, path: Path, module: Optional[str] = None
    ) -> list[Violation]:
        return self.analyze_sources([(path, source, module)])

    def analyze_context(self, ctx: ModuleContext) -> list[Violation]:
        """Run the per-module battery over one parsed file."""
        active = [rule for rule in self.rules if rule.applies_to(ctx.module)]
        if not active:
            return []
        dispatch: dict[type, list["Rule"]] = {}
        for rule in active:
            rule.start_module(ctx)
            for node_type in rule.interests:
                dispatch.setdefault(node_type, []).append(rule)
        found: list[Violation] = []
        for node in ast.walk(ctx.tree):
            for rule in dispatch.get(type(node), ()):
                found.extend(rule.visit(node, ctx))
        for rule in active:
            found.extend(rule.finish_module(ctx))
        return [v for v in found if not is_suppressed(v, ctx.suppressions)]

    def analyze_file(self, path: Path) -> list[Violation]:
        return self.analyze_paths([path])

    def analyze_paths(self, paths: Iterable[Path]) -> list[Violation]:
        return self.analyze_sources(
            (path, path.read_text(encoding="utf-8"), None)
            for path in iter_python_files(paths)
        )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, deduplicated .py stream."""
    seen: set[Path] = set()
    collected: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if not SKIP_DIRS.intersection(child.parts):
                    collected.append(child)
        elif path.suffix == ".py":
            collected.append(path)
    for path in collected:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            yield path


__all__ = [
    "Analyzer",
    "ModuleContext",
    "SEVERITIES",
    "SourceSpec",
    "Violation",
    "build_context",
    "format_suppression",
    "is_suppressed",
    "iter_python_files",
    "module_name_for",
    "parse_suppressions",
]
