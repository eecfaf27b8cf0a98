"""Pin the digests of untraced passes in pins.json.

    python3 perfbench/pin.py --workload small_quantum --seeds 0-31

Run it only when simulated behaviour changes on purpose: a change that
only makes the simulator faster must leave every pinned digest intact.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import ROOT, reexec_in_child_env

reexec_in_child_env()

import layers  # noqa: E402
import measure  # noqa: E402
import suite  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="e.g. 0-31 or 1,5,9")
    args = parser.parse_args()
    fingerprints = {}
    for seed in args.seeds:
        workload = suite.WORKLOADS[args.workload](seed, ROOT)
        done = measure.one_pass(workload, layers.PhaseClock())
        if done.fingerprint is None or done.failed:
            print(f"seed {seed}: pass failed, not pinned", file=sys.stderr)
            return 1
        fingerprints[workload.pin_key] = done.fingerprint
        print(f"seed {seed}: {done.fingerprint['summary']}", file=sys.stderr)
    doc = json.loads(measure.PINS_PATH.read_text())
    doc["pins"].setdefault(args.workload, {}).update(fingerprints)
    doc["pins"] = {
        name: dict(sorted(by_key.items(), key=lambda kv: (len(kv[0]), kv[0])))
        for name, by_key in sorted(doc["pins"].items())
    }
    measure.PINS_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
