"""Bad timing parameters are rejected when the machine is built.

Before these checks a zero tick or accounting period re-armed its event
at the same instant and ``Machine.run`` never returned, as did
``Machine.every(0, fn)``; ``cache_substeps=0`` divided by zero inside
the first LLC integration, and a negative count ran to the end while
retiring no instructions.  Each value now fails at construction with a
``ValueError`` that names the parameter.
"""

from __future__ import annotations

import math

import pytest

from repro.hypervisor.credit import CreditParams
from repro.hypervisor.hostspec import HostSpec
from repro.hypervisor.machine import Machine
from repro.sim.units import MS


@pytest.mark.parametrize("name", ["tick_ns", "accounting_ns", "credits_per_tick"])
@pytest.mark.parametrize("value", [0, -1, math.nan])
def test_credit_params_reject_non_positive(name, value):
    with pytest.raises(ValueError, match=name):
        CreditParams(**{name: value})


@pytest.mark.parametrize("value", [-1.0, math.nan])
def test_credit_params_reject_negative_clip(value):
    with pytest.raises(ValueError, match="credit_clip"):
        CreditParams(credit_clip=value)


def test_credit_params_accept_zero_clip():
    assert CreditParams(credit_clip=0.0).credit_clip == 0.0


@pytest.mark.parametrize("name", ["tick_ns", "accounting_ns"])
def test_machine_rejects_zero_period(name):
    with pytest.raises(ValueError, match=name):
        Machine(**{name: 0})


@pytest.mark.parametrize("value", [0, -1, 2.0, True, "8"])
def test_machine_rejects_bad_cache_substeps(value):
    with pytest.raises(ValueError, match="cache_substeps"):
        Machine(cache_substeps=value)


def test_machine_accepts_one_substep():
    machine = Machine(cache_substeps=1)
    machine.run(1 * MS)
    assert machine.sim.now == 1 * MS


@pytest.mark.parametrize("period", [0, -5, math.nan])
def test_every_rejects_non_positive_period(period):
    machine = Machine()
    with pytest.raises(ValueError, match="period_ns"):
        machine.every(period, lambda: None)


@pytest.mark.parametrize("value", [0, -1])
def test_host_spec_rejects_bad_cache_substeps(value):
    with pytest.raises(ValueError, match="cache_substeps"):
        HostSpec(cache_substeps=value)
    # a fuzz case or catalog entry fails when it is loaded, not mid-run
    data = HostSpec().to_json()
    data["cache_substeps"] = value
    with pytest.raises(ValueError, match="cache_substeps"):
        HostSpec.from_json(data)
