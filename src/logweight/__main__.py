"""`python -m logweight ...` runs the command-line interface, as the
`logweight` console script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
