# simlint: module=repro.ops.fake_flight
# simlint-expect: SIM008:16 SIM008:20
"""SIM008 ops-sink fixture: an unwaived clock read in ``repro.ops``.

The observation plane reports host-side facts, but every wall-clock
read there must carry a justified waiver naming its pinning test; this
fake module omits one.  SIM008 flags the read itself and — because
``repro.ops`` joined ``SINK_DOMAINS`` — the whole-program taint pass
flags the caller that launders it, proving the determinism gate holds
above the exec layer too.
"""
import time


def unwaived_stamp() -> float:
    return time.time()


def dump_header() -> float:
    return unwaived_stamp()
