"""Deterministic random-stream management.

Every stochastic component (each IO arrival process, each workload's
burst-length draw, ...) gets its *own* ``numpy`` generator derived from
the experiment seed and a stable string name.  This way adding a new
component never perturbs the streams of existing ones, and two runs with
the same seed are identical regardless of event interleaving.

``numpy`` is imported by :meth:`RngFactory.stream`, not by this module:
a process loads it on its first draw, and a run that draws nothing
(CPU hogs only, an engine sweep, the analysis and ops tools) never does.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class RngFactory:
    """Derives independent, reproducible random generators by name."""

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {seed!r}")
        self.seed = seed

    def stream(self, name: str) -> np.random.Generator:
        """Return a generator unique to ``(seed, name)``.

        The name is hashed so that arbitrarily-structured component names
        ("vm3/vcpu1/io") map to well-distributed child seeds.
        """
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        child_seed = int.from_bytes(digest[:8], "little")
        from numpy.random import default_rng

        return default_rng(child_seed)

    def child(self, name: str) -> "RngFactory":
        """Derive a sub-factory, for components that own sub-components."""
        digest = hashlib.sha256(f"{self.seed}:{name}:factory".encode()).digest()
        return RngFactory(int.from_bytes(digest[:8], "little"))


__all__ = ["RngFactory"]
