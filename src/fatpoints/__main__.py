"""``python -m fatpoints ...`` runs the command-line front end, :func:`fatpoints.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
