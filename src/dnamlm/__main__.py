"""``python -m dnamlm``: the same command line as the ``dnamlm`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
