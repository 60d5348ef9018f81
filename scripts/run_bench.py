#!/usr/bin/env python3
"""Run the classic benchmark suite and print the aligned table.

Usage: python scripts/run_bench.py [--seed 42] [--out bench.json]
"""

import sys

from fracdim.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", "classic", *sys.argv[1:]]))
