"""Set-up probe: a fresh interpreter imports siplab.cli and writes the
inputs of a workload's first op. run.py times whole starts of this script.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

import workloads


def main(argv) -> None:
    workload, seed, workdir = argv
    workloads.import_cli()
    workloads.WORKLOADS[workload](int(seed), 0, Path(workdir))


if __name__ == "__main__":
    main(sys.argv[1:])
