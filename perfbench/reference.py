"""Recompute the stored references of ``checks.py`` for the documented demo
cell (hole radius 0.05, bubble radius 0.3, unit cell): the resonance the
radial solver predicts and the m = 1 upper gap edge sigma (1 + rho).

Run from the repository root: ``python3 perfbench/reference.py``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gapforge.cell import build_radial_cell, eps_scale, radial_eigenvalues  # noqa: E402
from gapforge.design import BubbleGeometry, channel_sigma_rho  # noqa: E402

from workloads import DEMO_HOLE  # noqa: E402


def demo_references() -> dict[str, float]:
    _, _, hole, bubble = DEMO_HOLE
    # model geometry at eps = 1: exp(-1/d) is the hole radius, and kappa = 0.9
    # puts the Dirichlet radius d_eps + kappa/2 = 0.5 on the circle inscribed
    # in the unit cell
    d = -1.0 / math.log(hole)
    geom = eps_scale(BubbleGeometry(2, ((d, bubble),), kappa=0.9), 1.0)
    sigma = float(radial_eigenvalues(build_radial_cell(geom, 0, 384), 1)[0])
    _, rho = channel_sigma_rho(2, d, bubble)
    return {"DEMO_SIGMA": sigma, "DEMO_MU": sigma * (1.0 + rho)}


if __name__ == "__main__":
    print(json.dumps(demo_references()))
