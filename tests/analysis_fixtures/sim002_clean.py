# simlint: module=repro.dynamics.fake_fixture
# simlint-expect:
"""SIM008 negative fixture: seeded generators are the sanctioned API."""
import random

import numpy as np

from repro.sim.rng import RngFactory


def seeded_draw(seed: int) -> float:
    rng = np.random.default_rng(seed)
    return float(rng.random())


def stream_draw(seed: int) -> float:
    rng = RngFactory(seed).stream("fixture/io")
    return float(rng.exponential(2.0))


def seeded_instance(seed: int) -> float:
    rng = random.Random(seed)
    return rng.random()
