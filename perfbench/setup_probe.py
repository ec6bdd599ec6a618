"""Set-up of one benchmark run in a fresh interpreter: import cknlab, then
build the workload's inputs.  ``run.py`` times this whole process.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import cknlab  # noqa: F401  (the import is what is being timed)

import inputs

if __name__ == "__main__":
    inputs.build(sys.argv[1], int(sys.argv[2]))
