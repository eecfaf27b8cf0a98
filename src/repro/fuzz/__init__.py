"""`repro.fuzz` — coverage-guided scenario fuzzing with shrinking.

The stateful scenario generator (:mod:`repro.fuzz.generator`) composes
random topologies, VM mixes, phased workloads and churn timelines as a
seeded state machine over the :mod:`repro.dynamics` vocabulary; the
runner drives each scenario through a full simulated run; the global
invariant library (:mod:`repro.fuzz.invariants`) checks work
conservation, credit fairness, IO-event conservation, vTRS audit
re-derivation, span nesting and monotone virtual time; failures shrink
(:mod:`repro.fuzz.shrink`) to a minimal scenario replayable with
``python -m repro.fuzz replay <case>.json``.  A decision-space
coverage map (:mod:`repro.fuzz.coverage`) derived from the telemetry
audit trail reports what a corpus exercised; its policy, mode and
event keys steer generation toward the choices drawn least so far.
DESIGN.md §12 documents the architecture.
"""

from repro.fuzz.corpus import CampaignResult, CaseResult, run_campaign
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.generator import generate_scenario
from repro.fuzz.inject import INJECTIONS, apply_injection
from repro.fuzz.invariants import (
    INVARIANTS,
    Violation,
    check_invariants,
    rederive_flip,
    state_fingerprint,
)
from repro.fuzz.runner import FuzzOutcome, run_scenario_fuzz
from repro.fuzz.scenario import (
    POLICY_NAMES,
    FuzzScenario,
    scenario_problems,
)
from repro.fuzz.shrink import ShrinkResult, failure_signature, shrink

__all__ = [
    "INJECTIONS",
    "INVARIANTS",
    "POLICY_NAMES",
    "CampaignResult",
    "CaseResult",
    "CoverageMap",
    "FuzzOutcome",
    "FuzzScenario",
    "ShrinkResult",
    "Violation",
    "apply_injection",
    "check_invariants",
    "failure_signature",
    "generate_scenario",
    "rederive_flip",
    "run_campaign",
    "run_scenario_fuzz",
    "scenario_problems",
    "shrink",
    "state_fingerprint",
]
