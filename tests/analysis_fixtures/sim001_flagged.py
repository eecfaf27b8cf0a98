# simlint: module=repro.hypervisor.fake_fixture
# simlint-expect: SIM008:10 SIM008:11 SIM008:15 SIM008:19 SIM008:28 SIM008:28 SIM008:33 SIM008:33
"""SIM008 positive fixture: direct wall-clock reads in simulation code."""
import time
from datetime import datetime
from time import perf_counter as pc


def sample_latency() -> float:
    started = time.time()
    return time.monotonic() - started


def stamp() -> object:
    return datetime.now()


def quick() -> float:
    return pc()


def justified() -> float:
    # wall probe kept for a doc example
    return time.perf_counter()  # simlint: disable=SIM008


def thread_clocks() -> float:
    return time.thread_time() + time.thread_time_ns()


def posix_clocks() -> float:
    clock = time.CLOCK_MONOTONIC
    return time.clock_gettime(clock) + time.clock_gettime_ns(clock)
