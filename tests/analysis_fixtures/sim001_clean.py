# simlint: module=repro.perf.fake_fixture
# simlint-expect:
"""SIM008 negative fixture: repro.perf may read the clock (profiling is its job)."""
import time


def wall_probe() -> float:
    return time.perf_counter()


def wall_now() -> float:
    return time.time()
