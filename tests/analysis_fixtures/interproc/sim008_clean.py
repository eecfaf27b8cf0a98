# simlint: module=repro.sim.fake_interproc_clean
# simlint-expect:
"""SIM008 negative fixture: seeded chains and a source-suppressed probe.

Taint suppressed at its *source* line contributes nothing anywhere —
``probe_caller`` stays clean because ``_justified_probe`` waived the
read where it happens.  The Hypothesis property in
``tests/test_analysis_interproc.py`` generalises this single case.
"""
import time


def _derive(seed: int) -> int:
    return (seed * 2654435761) % (2**32)


def sample(seed: int) -> int:
    return _derive(seed)


def _justified_probe() -> float:
    return time.time()  # simlint: disable=SIM008 -- fixture: waived source


def probe_caller() -> float:
    return _justified_probe()
