"""``python -m imforge``: the command line of ``imforge.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
