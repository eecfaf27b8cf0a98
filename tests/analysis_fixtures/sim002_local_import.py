# simlint: module=repro.dynamics.fake_fixture
# simlint-expect: SIM008:18 SIM008:24 SIM008:30
"""SIM008 fixture: numpy imported inside the function that draws.

The source tree imports numpy lazily, on a process's first draw; an
unseeded generator built from a function-local import is as
unreproducible as one built from a module-level import.
"""
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def local_entropy_seeded() -> "np.random.Generator":
    from numpy.random import default_rng

    return default_rng()


def local_module_entropy_seeded() -> float:
    import numpy as np

    return float(np.random.default_rng(None).random())


def local_legacy_draw() -> float:
    import numpy as np

    return float(np.random.rand())


def local_seeded(seed: int) -> "np.random.Generator":
    from numpy.random import default_rng

    return default_rng(seed)


def local_module_seeded(seed: int) -> float:
    import numpy as np

    return float(np.random.default_rng(seed).random())
