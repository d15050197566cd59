"""``python -m zzdist``: the same entry point as the ``zzdist`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
