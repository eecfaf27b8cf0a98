"""Cheap, pure sweep cells + the subprocess driver for crash tests.

The crash-consistency suite (``tests/test_exec_crash_resume.py``)
SIGKILLs a real process mid-sweep and resumes it, so it needs cells
that are:

* **module-level and picklable** — they cross the fork into workers
  and their identity feeds the content-addressed cache key;
* **pure in their arguments** — the whole point is byte-identical
  folds across interrupted/resumed/uninterrupted runs;
* **cheap** — the kill point is injected deterministically via
  ``REPRO_ENGINE_KILL_AFTER``, so the cells never need to be slow.

Functions are always resolved through the canonical module name
(``tests.engine_cells``), even when this file runs as ``__main__`` —
``Cell.cache_key`` embeds ``fn.__module__``, and the kill-run, the
resume-run and the in-process assertions must all plan identical keys.

Run as a script (``python -m tests.engine_cells --run-root DIR``) it
executes one engine sweep and prints the SHA-256 of the folded pickle;
with ``REPRO_ENGINE_KILL_AFTER=N`` in the environment the engine
SIGKILLs itself after the Nth journalled cell, which is exactly how
the tests (and the CI ``engine-smoke`` job) produce a crashed run.
"""

from __future__ import annotations

import argparse
import hashlib
import pickle
import sys
from pathlib import Path
from typing import Optional, Sequence


def arith_cell(n: int, knuth: int = 2654435761) -> dict[str, int]:
    """A deterministic toy computation (multiplicative hashing)."""
    value = (n * n * knuth + n) % 1000003
    return {"n": n, "value": value, "bits": value.bit_length()}


def interrupting_cell(n: int, interrupt_at: int) -> int:
    """Raises KeyboardInterrupt on one cell — the Ctrl-C regression."""
    if n == interrupt_at:
        raise KeyboardInterrupt
    return n * n


def suicide_cell(n: int, die_at: int) -> int:
    """SIGKILLs its own worker process on one cell — pool crash test."""
    if n == die_at:
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    return n * n


def slow_cell(n: int, spin_ms: int) -> int:
    """Sleeps before computing — keeps a sweep alive long enough for
    the ops-smoke CI job to poll the live HTTP endpoints.  Tests are
    outside the simlint domains, so the sleep needs no waiver."""
    import time

    time.sleep(spin_ms / 1000.0)
    return n * n


def make_cells(count: int, knuth: int = 2654435761) -> list:
    """``count`` arith cells with canonical (importable) identity."""
    from repro.exec import Cell

    from tests import engine_cells as canonical

    return [
        Cell(
            canonical.arith_cell,
            dict(n=n, knuth=knuth),
            label=f"arith:{n}",
        )
        for n in range(count)
    ]


def make_interrupting_cells(count: int, interrupt_at: int) -> list:
    from repro.exec import Cell

    from tests import engine_cells as canonical

    return [
        Cell(
            canonical.interrupting_cell,
            dict(n=n, interrupt_at=interrupt_at),
            label=f"intr:{n}",
        )
        for n in range(count)
    ]


def make_suicide_cells(count: int, die_at: int) -> list:
    from repro.exec import Cell

    from tests import engine_cells as canonical

    return [
        Cell(
            canonical.suicide_cell,
            dict(n=n, die_at=die_at),
            label=f"die:{n}",
        )
        for n in range(count)
    ]


def make_slow_cells(count: int, spin_ms: int) -> list:
    from repro.exec import Cell

    from tests import engine_cells as canonical

    return [
        Cell(
            canonical.slow_cell,
            dict(n=n, spin_ms=spin_ms),
            label=f"slow:{n}",
        )
        for n in range(count)
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.exec import Engine, WorkerCrash

    parser = argparse.ArgumentParser(
        prog="python -m tests.engine_cells",
        description="run one toy engine sweep (the crash-suite driver)",
    )
    parser.add_argument("--run-root", type=Path, default=None)
    parser.add_argument("--cells", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--stage", default="crash-suite")
    parser.add_argument(
        "--fold-out", type=Path, default=None,
        help="write the folded results pickle here (byte comparison)",
    )
    parser.add_argument(
        "--die-at", type=int, default=None, metavar="N",
        help="use suicide cells: cell N SIGKILLs its worker "
             "(worker-crash leg of the crash suite)",
    )
    parser.add_argument(
        "--spin-ms", type=int, default=None, metavar="MS",
        help="use slow cells sleeping MS each (the ops-smoke CI job "
             "needs a sweep that outlives a few curl polls)",
    )
    parser.add_argument(
        "--serve", default=None, metavar="[HOST:]PORT",
        help="attach the ops plane and serve /metrics, /status and "
             "/events while the sweep runs",
    )
    args = parser.parse_args(argv)

    engine = Engine(jobs=args.jobs, run_root=args.run_root)
    plane = None
    if args.serve is not None:
        from repro.ops import parse_serve_spec
        from repro.ops.server import attach_ops

        plane = attach_ops(engine, parse_serve_spec(args.serve))
        print(f"[ops] serving at {plane.url}", file=sys.stderr)
        engine.expect_cells(args.cells)
    if args.die_at is not None:
        cells = make_suicide_cells(args.cells, args.die_at)
    elif args.spin_ms is not None:
        cells = make_slow_cells(args.cells, args.spin_ms)
    else:
        cells = make_cells(args.cells)
    try:
        results = engine.run(cells, stage=args.stage)
    except WorkerCrash as exc:
        # events.jsonl already ends in the Interrupted event, which
        # names the reason; report and exit with a distinct code the
        # tests assert on
        print(f"[engine] worker crash: {exc}", file=sys.stderr)
        if plane is not None:
            plane.close()
        engine.close()
        return 3
    payload = pickle.dumps(results)
    if args.fold_out is not None:
        args.fold_out.write_bytes(payload)
    print(hashlib.sha256(payload).hexdigest())
    if plane is not None:
        plane.close()
    engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
