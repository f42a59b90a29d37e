"""Seeded inputs of the four workloads.

A workload is a fixed list of CLI jobs (one *round*) plus one untimed
warm-up job.  Every job is a dict of config fields that goes through
``gapforge.cli.load_config`` and ``gapforge.cli.run_pipeline``, exactly as
the ``gapforge`` command would pass it after argument parsing.

The seed only moves input values.  The shape of a round (how many specs of
each size, which ladders, which grid sizes) is fixed, so the cost of a round
barely depends on the seed and run-to-run spread measures the program, not
the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("design-corpus", "radial-ladder", "band-sweep", "bubble-scan")

# documented demo cell (README "Documented demo"): one bubble on the unit cell
DEMO_HOLE = [0.5, 0.5, 0.05, 0.3]
DEMO_RESOLUTION = 64
# even, so the characters (1,1) and (-1,-1) are on the grid
DEMO_THETA_GRID = 4
DEMO_BANDS = 12

DESIGN_DIMS = (2, 3, 4)
DESIGN_MAX_M = 8
DESIGN_SPECS_PER_STRATUM = 18
DESIGN_COMMANDS = ("design", "limit-spectrum", "verify", "dispersion")

SCAN_THETA_GRID = 4
SCAN_BANDS = 8

# eps ladders; n = 2 stays short so exp(-1/(d eps^2)) is representable
LADDER_EPS = [0.2, 0.1, 0.05, 0.025]
LADDER_EPS_N2 = [0.4, 0.3, 0.2]
CELL_EIGS = 40


@dataclass
class Job:
    """One CLI job.  ``ops`` is the number of operations it counts for: 1,
    or the number of characters for a band job."""

    key: str
    kind: str
    config: dict
    ops: int = 1
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    warmup: Job

    @property
    def ops_per_round(self) -> int:
        return sum(job.ops for job in self.jobs)


def random_chain(rng: np.random.Generator, m: int, lo: float = 0.1, hi: float = 100.0,
                 min_sep: float = 0.05) -> list[list[float]]:
    """Strict chain 0 < a_1 < b_1 < ... < b_m in (lo, hi) with a minimum
    separation, as [[a_1, b_1], ...]."""
    while True:
        pts = np.sort(rng.uniform(lo, hi, size=2 * m))
        if np.all(np.diff(pts) > min_sep):
            return [[float(pts[2 * j]), float(pts[2 * j + 1])] for j in range(m)]


def _design_corpus(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for n in DESIGN_DIMS:
        for m in range(1, DESIGN_MAX_M + 1):
            for s in range(DESIGN_SPECS_PER_STRATUM):
                intervals = random_chain(rng, m)
                spec_key = f"n{n}-m{m}-{s:02d}"
                for command in DESIGN_COMMANDS:
                    jobs.append(Job(
                        key=f"{spec_key}/{command}",
                        kind=command,
                        config={"command": command, "intervals": intervals, "n": n},
                        meta={"spec": spec_key},
                    ))
    return jobs


def _jittered(rng: np.random.Generator, intervals: list[list[float]], spread: float = 0.15) -> list[list[float]]:
    """Scale a chain by one random factor and stretch each gap by another;
    the order of the endpoints is kept."""
    scale = float(rng.uniform(1.0 - spread, 1.0 + spread))
    out = []
    for a, b in intervals:
        width = (b - a) * float(rng.uniform(1.0 - spread, 1.0 + spread))
        out.append([a * scale, a * scale + width * scale])
    return out


def _radial_ladder(rng: np.random.Generator) -> list[Job]:
    one = _jittered(rng, [[1.0, 2.0]])
    two = _jittered(rng, [[1.0, 2.0], [3.0, 4.0]])
    four = _jittered(rng, [[1.0, 2.0]])
    flat = _jittered(rng, [[1.0, 2.0]])
    cell = _jittered(rng, [[1.0, 2.0]])
    ladders = [
        ("n3-one-channel", {"intervals": one, "n": 3, "channel": 0, "eps_list": LADDER_EPS}),
        ("n3-two-channels", {"intervals": two, "n": 3, "channel": 1, "eps_list": LADDER_EPS}),
        ("n4", {"intervals": four, "n": 4, "channel": 0, "eps_list": LADDER_EPS}),
        ("n2-short", {"intervals": flat, "n": 2, "channel": 0, "eps_list": LADDER_EPS_N2}),
    ]
    jobs = [Job(key=key, kind="convergence", config={"command": "convergence", **cfg})
            for key, cfg in ladders]
    jobs.append(Job(
        key="n3-cell-eigs",
        kind="cell-eigs",
        config={"command": "cell-eigs", "intervals": cell, "n": 3, "channel": 0,
                "eps": LADDER_EPS[-1], "num_eigs": CELL_EIGS},
    ))
    return jobs


def _bands_job(key: str, holes: list[list[float]], resolution: int, theta_grid: int, bands: int) -> Job:
    return Job(
        key=key,
        kind="bands",
        config={"command": "bands", "holes": holes, "base_resolution": resolution,
                "theta_grid": theta_grid, "num_bands": bands},
        ops=theta_grid * theta_grid,
    )


def _band_sweep() -> list[Job]:
    return [_bands_job("demo", [DEMO_HOLE], DEMO_RESOLUTION, DEMO_THETA_GRID, DEMO_BANDS)]


# (grid cells per side, [(cx, cy, hole radius, bubble radius), ...]); every
# folded dim stays far below bands.DENSE_LIMIT, so each solve is dense
SCAN_CELLS = (
    (16, [(0.5, 0.5, 0.20, 0.28)]),
    (16, [(0.5, 0.5, 0.20, 0.36)]),
    (16, [(0.27, 0.5, 0.19, 0.22), (0.73, 0.5, 0.19, 0.30)]),
    (16, [(0.30, 0.30, 0.19, 0.26), (0.70, 0.70, 0.19, 0.24)]),
)
SCAN_JITTER = 0.03


def _bubble_scan(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for c, (resolution, holes) in enumerate(SCAN_CELLS):
        moved = []
        for cx, cy, r, b in holes:
            dx, dy = rng.uniform(-SCAN_JITTER, SCAN_JITTER, size=2)
            moved.append([cx + float(dx), cy + float(dy), r, b])
        jobs.append(_bands_job(f"cell{c}-{len(holes)}hole", moved, resolution, SCAN_THETA_GRID, SCAN_BANDS))
    return jobs


def build(name: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(name)])
    if name == "design-corpus":
        jobs = _design_corpus(rng)
        warmup = jobs[0]
    elif name == "radial-ladder":
        jobs = _radial_ladder(rng)
        warmup = Job("warmup", "cell-eigs", {**jobs[-1].config, "num_eigs": 2})
    elif name == "band-sweep":
        # the demo cell is fixed: its two known-bad characters must not
        # depend on the seed
        jobs = _band_sweep()
        warmup = _bands_job("warmup", [DEMO_HOLE], DEMO_RESOLUTION, 2, DEMO_BANDS)
    elif name == "bubble-scan":
        jobs = _bubble_scan(rng)
        warmup = jobs[0]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, seed, jobs, warmup)
