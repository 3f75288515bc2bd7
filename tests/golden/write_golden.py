"""Write the golden outputs of a fixed set of siplab commands.

Usage: PYTHONPATH=src python tests/golden/write_golden.py [DIRECTORY]

Writes the input files of INPUTS into DIRECTORY, then runs every command
of COMMANDS in this process from DIRECTORY, so that each manifest names
its graph or spec file by a relative path, with SOURCE_DATE_EPOCH=0 and
BLAS on one thread.  Each command's standard output goes to
DIRECTORY/<name>.json or <name>.csv, and DIRECTORY/index.json records
every command's argv and exit code.  DIRECTORY defaults to this script's
own, where the committed golden files live; `tests/test_golden.py` writes
a fresh set elsewhere and holds it to the committed one under
`conftest.outputs_equivalent`.
"""

import os

os.environ["SOURCE_DATE_EPOCH"] = "0"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

INPUTS = {
    # G1 of conftest.DEGENERATE_GRAPHS: mu spans 17 decades
    "G1.json": {"n": 3, "edges": [[0, 1, 162754.791419], [1, 2, 5.2059]],
                "alpha": [6.14421235e-06, 6.42363213e-05, 79.9795611]},
    "sweep.json": {"graphs": ["path(4)", "cycle(4)"], "k_max": 4, "seed": 3,
                   "alpha": {"n_samples": 2, "range": [0.2, 2.0]}},
}

COMMANDS = {
    "verify-sip": ["verify", "cycle(4)", "--K", "3", "--suite", "sip", "--seed", "1"],
    "verify-lookdown": ["verify", "path(3)", "--K", "4", "--suite", "lookdown"],
    "verify-bep": ["verify", "complete(3)", "--K", "3", "--suite", "bep",
                   "--alpha", "0.5,1,2"],
    "verify-all-G1": ["verify", "G1.json", "--K", "5"],
    # 4^7 labeled states exceed the cap: the note names the skipped level
    "verify-lookdown-skipped": ["verify", "path(4)", "--K", "7", "--suite", "lookdown"],
    "report": ["report", "complete(4)", "--K", "4", "--alpha", "0.05,0.5,1,2", "--seed", "7"],
    "spectrum": ["spectrum", "cycle(5)", "--k", "3", "--alpha", "0.3,1,2,0.7,1.5"],
    "tv-curve": ["tv-curve", "path(3)", "--k", "2", "--times", "0.1,0.5,2"],
    "sweep": ["sweep", "sweep.json", "--jobs", "2"],
    "simulate-sip": ["simulate", "path(3)", "--mode", "sip", "--k", "2", "--horizon", "1",
                     "--paths", "300", "--seed", "5", "--times", "0.25,1"],
    "simulate-lookdown": ["simulate", "path(3)", "--mode", "lookdown", "--k", "2",
                          "--horizon", "1", "--paths", "300", "--seed", "5",
                          "--times", "0.25,1"],
}


def output_name(name: str, argv) -> str:
    return name + (".json" if argv[0] in ("verify", "report") else ".csv")


def write(directory: Path) -> None:
    from siplab.cli import main

    directory.mkdir(parents=True, exist_ok=True)
    os.chdir(directory)
    for name, data in INPUTS.items():
        Path(name).write_text(json.dumps(data) + "\n")
    index = {}
    for name, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        Path(output_name(name, argv)).write_text(out.getvalue())
        index[name] = {"argv": argv, "exit": code}
    Path("index.json").write_text(json.dumps(index, indent=1) + "\n")


if __name__ == "__main__":
    write(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent))
