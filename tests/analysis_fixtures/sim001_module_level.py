# simlint: module=repro.sim.fake_fixture
# simlint-expect: SIM008:11 SIM008:15 SIM008:18 SIM008:23
"""Wall-clock reads outside any function body are still reads.

Module-level statements, class bodies and module-level lambdas run in
the simulation process too, so a clock read there is as host-dependent
as one inside a function."""
import time
from functools import partial

BOOT_STAMP = time.time()


class Clocked:
    created = time.monotonic()


LATE = partial(lambda: time.perf_counter())


def factory():
    class Inner:
        stamp = time.time()

    return Inner
