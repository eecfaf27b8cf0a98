"""Experiment harness: one module per paper table/figure.

* :mod:`repro.experiments.scenarios` — Table 4's colocation scenarios
  S1-S5, the Fig. 3 multi-socket population and generic builders;
* :mod:`repro.experiments.runner` — run a scenario under a policy and
  collect per-app results;
* :mod:`repro.experiments.registry` — one record per family (its
  parameters, cell planner, fold and renderer); the figure, table and
  ablation modules hold those functions.

Run any of them from the command line::

    python -m repro.experiments list

or from Python, through the family's record::

    from repro.experiments.registry import REGISTRY, run
    result = run(REGISTRY["fig5"], {"seed": 2}, runner)

See DESIGN.md's per-experiment index for the mapping to paper figures.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.experiments.runner import ScenarioRun, run_scenario
    from repro.experiments.scenarios import (
        FIG3_POPULATION,
        SCENARIOS,
        AppPlacement,
        Scenario,
    )

#: where each re-export lives; resolved on first attribute access
#: (PEP 562), so ``python -m repro.experiments list`` does not load the
#: simulator
_EXPORTS = {
    "AppPlacement": "repro.experiments.scenarios",
    "Scenario": "repro.experiments.scenarios",
    "SCENARIOS": "repro.experiments.scenarios",
    "FIG3_POPULATION": "repro.experiments.scenarios",
    "ScenarioRun": "repro.experiments.runner",
    "run_scenario": "repro.experiments.runner",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
