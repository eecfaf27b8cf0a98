"""``repro.analysis.interproc`` — the whole-program simlint layer.

A per-module check sees one file at a time, so a determinism violation
laundered through a helper function — a sim-domain scheduler calling
``repro.perf``'s wall-clock probe two modules away — is invisible to
it.  This package builds a project-wide view and proves two properties
over it:

* **SIM008, determinism** (``taint.py``): wall-clock reads, unseeded
  RNG and host-ordering sources are flagged where they are read and
  seed taint wherever they occur; taint propagates along the
  alias-resolved call graph (``callgraph.py``); any sim-domain function
  that can reach a source is flagged at the offending call site, with
  the full path recorded.
* **SIM009, engine-cell purity** (``purity.py``): every function
  submitted to ``repro.exec`` — ``Cell(...)`` literals and
  ``@engine_cell``-marked functions — is proven taint-free, free of
  module-global mutation, and free of unpicklable captures, turning
  the engine's crash-resume assumption into a checked contract.

:class:`repro.analysis.Analyzer` drives these passes from the same
parse as the per-module rules.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.core import Violation
from repro.analysis.interproc.callgraph import (
    CellSite,
    FunctionInfo,
    ModuleSummary,
    ProjectIndex,
    summarize_module,
)
from repro.analysis.interproc.purity import purity_violations
from repro.analysis.interproc.taint import TaintAnalysis, taint_violations


def interprocedural_violations(
    index: ProjectIndex, rule_ids: Optional[Iterable[str]] = None
) -> list[Violation]:
    """Run both whole-program passes over a built index."""
    wanted = None if rule_ids is None else {rid.upper() for rid in rule_ids}
    taint = TaintAnalysis(index)
    found: list[Violation] = []
    if wanted is None or "SIM008" in wanted:
        found.extend(taint_violations(index, taint))
    if wanted is None or "SIM009" in wanted:
        found.extend(purity_violations(index, taint))
    found.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return found


__all__ = [
    "CellSite",
    "FunctionInfo",
    "ModuleSummary",
    "ProjectIndex",
    "TaintAnalysis",
    "interprocedural_violations",
    "purity_violations",
    "summarize_module",
    "taint_violations",
]
