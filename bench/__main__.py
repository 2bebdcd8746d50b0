"""``python3 -m bench`` entry point."""

import sys

from bench.cli import main

if __name__ == "__main__":
    sys.exit(main())
