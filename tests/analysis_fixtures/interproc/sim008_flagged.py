# simlint: module=repro.sim.fake_interproc
# simlint-expect: SIM008:18 SIM008:22
"""SIM008 positive fixture: laundered and direct nondeterminism.

``elapsed`` launders a wall-clock read through an allowlisted helper
in another file — invisible to a per-module check (the source module is
exempt and this module never touches ``time``), caught by the
interprocedural taint pass at the call site.  ``pick_kernel`` reads a
direct ordering source; ``tolerated`` shows a call-site waiver
silencing exactly one finding.
"""
import os

from repro.perf.fake_helpers import now_ms, pure_scale


def elapsed() -> float:
    return now_ms()


def pick_kernel() -> str:
    return os.environ.get("FAKE_KERNEL", "wheel")


def tolerated() -> float:
    return now_ms()  # simlint: disable=SIM008 -- fixture: waived call site


def scaled() -> float:
    return pure_scale(3.0)
