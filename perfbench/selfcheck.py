"""Quick self-check of the benchmark on tiny workloads (a few seconds).

    python3 perfbench/selfcheck.py

Asserts that every metric named in BENCHMARK.json is emitted, that the
self-time shares of each traced workload sum to 1, and that two passes
in one process give identical digests.
"""

from __future__ import annotations

import json
import math
import sys

from run import ROOT, reexec_in_child_env

reexec_in_child_env()

import layers  # noqa: E402
import measure  # noqa: E402
import suite  # noqa: E402


def require(ok: bool, *what: object) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        "end_to_end": {m["name"] for m in spec["end_to_end"]},
        "per_layer": {m["name"] for m in spec["per_layer"]},
    }
    for name in suite.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = measure.measure(name, 1, 0.0, trace, tiny=True)
            emitted = set(result["metrics"])
            require(emitted == names[kind], name, kind,
                    emitted ^ names[kind])
            require(result["correct"], name, kind, result)
            if trace:
                total = math.fsum(
                    m["value"] for key, m in result["metrics"].items()
                    if key.endswith(".self_share")
                )
                require(abs(total - 1.0) < 1e-9, name, total)
        first, second = (
            measure.one_pass(suite.WORKLOADS[name](1, ROOT, tiny=True),
                             layers.PhaseClock())
            for _ in range(2)
        )
        require(first.fingerprint is not None, name)
        require(first.fingerprint == second.fingerprint, name)
        print(f"selfcheck: {name} ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
