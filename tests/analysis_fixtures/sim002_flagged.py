# simlint: module=repro.dynamics.fake_fixture
# simlint-expect: SIM008:10 SIM008:14 SIM008:18 SIM008:22 SIM008:26 SIM008:30 SIM008:38 SIM008:42 SIM008:46
"""SIM008 positive fixture: global-state, unseeded and None-seeded randomness."""
import random

import numpy as np


def jitter() -> float:
    return random.random()


def pick(items):
    return random.choice(items)


def legacy_draw() -> float:
    return np.random.rand()


def entropy_seeded():
    return np.random.default_rng()


def entropy_seeded_instance():
    return random.Random()


def os_entropy():
    return random.SystemRandom()


def justified() -> float:
    return random.random()  # doc example only  # simlint: disable=SIM008


def none_seeded_instance():
    return random.Random(None)


def none_seeded_generator():
    return np.random.default_rng(None)


def none_seeded_keyword():
    return np.random.default_rng(seed=None)
