"""The frozen machine-construction recipe shared across subsystems.

Before this module existed every caller that needed a machine of a
given shape rebuilt it from ad-hoc kwargs — ``replace(i7_3770(),
cores_per_socket=N)`` here, a bare ``Machine(spec, seed=...)`` there —
and the scheduler parameters (tick, accounting, default quantum) were
re-defaulted at each site.  :class:`HostSpec` pins **topology + params**
as one frozen, hashable, JSON-round-trippable value:

* the fuzzer (:mod:`repro.fuzz.runner`) builds its machine from the
  scenario's ``host_spec``;
* the churn and colocation experiment families build theirs from
  :meth:`HostSpec.build`;
* the fleet simulator (:mod:`repro.fleet`) keys its host catalog on
  ``HostSpec`` values, so hundreds of simulated hosts share a handful
  of frozen shapes.

Being a frozen dataclass of primitives, a ``HostSpec`` participates in
:func:`repro.exec.hashing.canonical` cache keys: two sweep cells built
from different host shapes can never collide in the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.hardware.specs import MachineSpec, i7_3770, xeon_e5_4603
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.machine import Machine
    from repro.telemetry import Telemetry

#: the base parts a HostSpec can be derived from (Table 2 testbeds)
MODELS: dict[str, Callable[[], MachineSpec]] = {
    "i7_3770": i7_3770,
    "xeon_e5_4603": xeon_e5_4603,
}


@dataclass(frozen=True)
class HostSpec:
    """One host shape: base part, core count, scheduler parameters."""

    #: key into :data:`MODELS` (cache geometry + frequency come from it)
    model: str = "i7_3770"
    #: total usable cores (spread evenly over ``sockets``)
    pcpus: int = 4
    sockets: int = 1
    default_quantum_ns: int = 30 * MS
    tick_ns: int = 10 * MS
    accounting_ns: int = 30 * MS
    boost_enabled: bool = True
    cache_substeps: int = 8

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(
                f"unknown host model {self.model!r}; choose from "
                f"{sorted(MODELS)}"
            )
        if self.sockets <= 0:
            raise ValueError("need at least one socket")
        if self.pcpus <= 0 or self.pcpus % self.sockets:
            raise ValueError(
                f"pcpus ({self.pcpus}) must be a positive multiple of "
                f"sockets ({self.sockets})"
            )
        if self.default_quantum_ns <= 0:
            raise ValueError("default quantum must be positive")
        if self.tick_ns <= 0 or self.accounting_ns <= 0:
            raise ValueError("tick and accounting periods must be positive")
        from repro.hypervisor.machine import check_cache_substeps

        # checked here too, so a bad fuzz case or catalog entry fails
        # when it is loaded rather than when its machine is built
        check_cache_substeps(self.cache_substeps)

    def machine_spec(self) -> MachineSpec:
        """The hardware topology this host presents."""
        base = MODELS[self.model]()
        from dataclasses import replace

        return replace(
            base,
            sockets=self.sockets,
            cores_per_socket=self.pcpus // self.sockets,
        )

    def build(
        self,
        seed: int = 0,
        telemetry: Optional["Telemetry"] = None,
    ) -> "Machine":
        """Instantiate a machine of this shape."""
        from repro.hypervisor.machine import Machine

        return Machine(
            self.machine_spec(),
            seed=seed,
            default_quantum_ns=self.default_quantum_ns,
            tick_ns=self.tick_ns,
            accounting_ns=self.accounting_ns,
            boost_enabled=self.boost_enabled,
            telemetry=telemetry,
            cache_substeps=self.cache_substeps,
        )

    # ------------------------------------------------------------------
    # serialisation (the fleet host catalog and fuzz cases persist these)
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, object]:
        return {
            "model": self.model,
            "pcpus": self.pcpus,
            "sockets": self.sockets,
            "default_quantum_ns": self.default_quantum_ns,
            "tick_ns": self.tick_ns,
            "accounting_ns": self.accounting_ns,
            "boost_enabled": self.boost_enabled,
            "cache_substeps": self.cache_substeps,
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "HostSpec":
        return cls(
            model=str(data.get("model", "i7_3770")),
            pcpus=int(data["pcpus"]),  # type: ignore[arg-type]
            sockets=int(data.get("sockets", 1)),  # type: ignore[arg-type]
            default_quantum_ns=int(
                data.get("default_quantum_ns", 30 * MS)  # type: ignore[arg-type]
            ),
            tick_ns=int(data.get("tick_ns", 10 * MS)),  # type: ignore[arg-type]
            accounting_ns=int(
                data.get("accounting_ns", 30 * MS)  # type: ignore[arg-type]
            ),
            boost_enabled=bool(data.get("boost_enabled", True)),
            cache_substeps=int(
                data.get("cache_substeps", 8)  # type: ignore[arg-type]
            ),
        )


__all__ = ["MODELS", "HostSpec"]
