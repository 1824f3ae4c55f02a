"""``python -m photonsurf``: the command line of :mod:`photonsurf.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
