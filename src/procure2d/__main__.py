"""``python -m procure2d``: the ``procure2d`` command, run from a checkout
with ``PYTHONPATH=src`` or from an installed package."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
