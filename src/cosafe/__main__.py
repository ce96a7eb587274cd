"""`python -m cosafe ...` runs the command-line front-end (with src/ on
the path, this works from a source checkout without installing)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
