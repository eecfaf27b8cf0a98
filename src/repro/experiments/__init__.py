"""Experiment harness: one module per paper table/figure.

* :mod:`repro.experiments.scenarios` — Table 4's colocation scenarios
  S1-S5, the Fig. 3 multi-socket population and generic builders;
* :mod:`repro.experiments.runner` — run a scenario under a policy and
  collect per-app results;
* :mod:`repro.experiments.registry` — one record per family (its
  parameters, cell planner, fold and renderer); the figure, table and
  ablation modules hold those functions and a one-call ``run_*``.

Run any of them from the command line::

    python -m repro.experiments list

See DESIGN.md's per-experiment index for the mapping to paper figures.
"""

from repro.experiments.runner import ScenarioRun, run_scenario
from repro.experiments.scenarios import (
    FIG3_POPULATION,
    SCENARIOS,
    AppPlacement,
    Scenario,
)

__all__ = [
    "AppPlacement",
    "Scenario",
    "SCENARIOS",
    "FIG3_POPULATION",
    "ScenarioRun",
    "run_scenario",
]
