"""Run the seven CLI commands of the golden gate, one output directory each.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \
        python tests/golden/regenerate.py tests/golden

rewrites the checked-in golden files; ``tests/test_golden.py`` runs the
same script into a temporary directory and compares bytes.  Pin the BLAS
threads: band eigenvalues move in the 16th-17th digit with the thread
count.
"""

from __future__ import annotations

import os
import sys

from gapforge.cli import main

SMALL_CELL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "small_cell.json")

RUNS = {
    "design": ["design", "--intervals", "1.1,2.3;4.5,6.7", "--dim", "3"],
    "dispersion": ["dispersion", "--sigma", "1.7,4.2", "--rho", "0.3,0.5", "--count", "101"],
    "limit-spectrum": ["limit-spectrum", "--intervals", "1.1,2.3;4.5,6.7", "--dim", "4"],
    "cell-eigs": ["cell-eigs", "--intervals", "1,2", "--dim", "3", "--eps", "0.1",
                  "--resolution", "128", "--num-eigs", "3"],
    "convergence": ["convergence", "--intervals", "1,2", "--dim", "3", "--eps-list", "0.2,0.1",
                    "--resolution", "128"],
    "bands": ["bands", "--config", SMALL_CELL],
    "verify": ["verify", "--config", SMALL_CELL, "--intervals", "1,2", "--dim", "3",
               "--eps-list", "0.2,0.1", "--resolution", "128",
               "--with-convergence", "--with-bands"],
}


def regenerate(root: str) -> dict[str, int]:
    """Exit code of each command, run with ``--out root/<command>``."""
    return {name: main([*argv, "--out", os.path.join(root, name)]) for name, argv in RUNS.items()}


if __name__ == "__main__":
    codes = regenerate(sys.argv[1])
    sys.exit(2 if any(code == 2 for code in codes.values()) else 0)
