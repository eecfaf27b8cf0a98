# simlint: module=repro.exec.fake_fixture
# simlint-expect: SIM008:13 SIM008:17
"""Direct wall-clock and RNG reads are flagged outside the sim domains too.

``repro.exec`` is orchestration, not simulation, but only the modules
on the wall-clock allowlist may read the host clock, and no module may
draw unseeded randomness."""
import random
import time


def stamp() -> float:
    return time.time()


def jitter() -> float:
    return random.random()
