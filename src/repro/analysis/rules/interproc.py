"""SIM008 / SIM009 — the whole-program rules.

Unlike SIM003–SIM007 these are not per-module AST visitors: they need
the project-wide call graph that :mod:`repro.analysis.interproc` builds
from every analyzed file at once, so the classes here are *descriptors*
— they carry the rule id, severity and description that
``--list-rules``, ``--rule`` selection, the JSON/SARIF reports and the
suppression machinery all key on, while the actual analysis lives in
``interproc/taint.py`` and ``interproc/purity.py``.  The analyzer
builds the call graph whenever one of them is selected.

SIM008 — **determinism.**  Wall-clock reads, unseeded RNG and ordering
sources (``os.environ``, pids, directory listings) are flagged where
they are read, and seed taint wherever they occur — including modules
the wall-clock allowlist exempts, because that allowlist is *lifted to
the sink*: ``repro.perf`` may read the clock, but a sim-domain function
calling a ``repro.perf`` helper two modules away is flagged at the call.
``interproc/taint.py`` documents the scope of each source kind.

SIM009 — **engine-cell purity proofs.**  Every function submitted to
``repro.exec`` (``Cell(...)`` literals and ``@engine_cell``-marked
functions) must have a transitive closure free of taint, module-global
mutation and unpicklable captures — the static contract behind the
engine's crash-resume guarantee that re-executing a cell is harmless.
"""

from __future__ import annotations

from repro.analysis.rules.base import Rule


class WholeProgramRule(Rule):
    """Marker base: analysis happens in ``repro.analysis.interproc``."""


class DeterminismTaintRule(WholeProgramRule):
    rule_id = "SIM008"
    description = (
        "determinism: wall-clock read, global-state or entropy-seeded "
        "randomness, or host-ordering source, read directly or reached "
        "through helper calls; use the virtual clock (Simulator.now) and "
        "the seeded sim.rng streams"
    )


class EngineCellPurityRule(WholeProgramRule):
    rule_id = "SIM009"
    description = (
        "engine-cell purity: a function submitted to repro.exec "
        "(Cell(...) / @engine_cell) must be taint-free, mutate no "
        "module globals, and capture nothing unpicklable"
    )


__all__ = ["DeterminismTaintRule", "EngineCellPurityRule", "WholeProgramRule"]
