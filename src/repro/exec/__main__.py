"""Entry point: ``python -m repro.exec LOG [--partial] [--ring]``."""

import sys

from repro.exec.cli import main

if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    sys.exit(main())
