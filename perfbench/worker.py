"""One workload in one process: set up, time whole rounds, then check.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is the interpreter start, ``import gapforge``, input generation and
one untimed warm-up job; the worker prints ``READY`` when it is done, and
with ``--setup-only`` exits there.  It then runs rounds (the workload's job
list, in order) until the rounds have taken ``--seconds``, with at least
``MIN_ROUNDS``.  With ``--trace 1`` the rounds alternate untraced and
traced; the per-layer numbers are medians over the traced rounds and the
tracing overhead is the difference of the two median round times.

The last line of stdout is one JSON object for ``run.py``.  Outputs are read
outside the timed region; each distinct output is kept on disk, checked
after the last round (so the oracles' memory is not counted) and removed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
OUT_ROOT = HERE / "out"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2

sys.path.insert(0, str(HERE.parent / "src"))

import gapforge  # noqa: E402
from gapforge import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_job(job, out_dir: str) -> tuple[int | None, str | None, list[str]]:
    """The CLI path after argument parsing: load_config -> run_pipeline,
    looked up on the module so that the tracer's wrappers are seen."""
    try:
        cfg = cli.load_config(None, {**job.config, "out": out_dir})
        report = cli.run_pipeline(cfg)
    except Exception as exc:  # a failed job is a failed operation, not a crash
        return None, f"{type(exc).__name__}: {exc}", []
    return report.exit_code, None, list(report.artifacts)


class OutputStore:
    """Keeps one copy of each distinct output of each job on disk."""

    def __init__(self, root: Path):
        self.root = root
        self.kept: dict[tuple[int, str], Path] = {}

    def keep(self, index: int, paths: list[str]) -> str:
        digest = hashlib.sha256()
        blobs = {}
        for path in sorted(paths):
            data = Path(path).read_bytes()
            blobs[Path(path).name] = data
            digest.update(Path(path).name.encode() + b"\0" + data + b"\0")
        key = digest.hexdigest()[:20]
        if (index, key) not in self.kept:
            where = self.root / f"{index:04d}-{key}"
            where.mkdir(parents=True, exist_ok=True)
            for name, data in blobs.items():
                (where / name).write_bytes(data)
            self.kept[(index, key)] = where
        return key

    def files(self, index: int, key: str) -> dict[str, str]:
        where = self.kept[(index, key)]
        return {p.name: p.read_text() for p in sorted(where.iterdir())}


def timed_rounds(wl, out: Path, store, seconds: float, tracer: Tracer | None) -> list[dict]:
    """Whole rounds until they have taken ``seconds``.  With a tracer the
    rounds alternate untraced and traced, so drift in the machine's speed
    falls on both alike.  Each record holds the peak RSS so far, read before
    any output is kept or checked.  A job keeps its output directory across
    rounds and runs, as a user re-running a config would; fresh directories
    per round, removed after it, made the rounds slower and noisier."""
    dirs = [str(out / f"{i:04d}") for i in range(len(wl.jobs))]
    min_rounds = MIN_ROUNDS if tracer is None else 2 * MIN_TRACED_ROUNDS
    rounds = []
    spent = 0.0
    while spent < seconds or len(rounds) < min_rounds:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            w0 = time.perf_counter()
            c0 = time.process_time()
            outcomes = [run_job(job, d) for job, d in zip(wl.jobs, dirs)]
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        spent += wall
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak, "traced": traced, "jobs": []}
        if traced:
            record["layers"] = tracer.layer_metrics()
        for index, (code, error, paths) in enumerate(outcomes):
            key = store.keep(index, paths) if error is None else None
            record["jobs"].append((code, error, key))
        rounds.append(record)
    return rounds


def check_rounds(wl, store, rounds) -> dict:
    """Verdicts for every operation of every round.  A verdict is reused
    for the same bytes: identical configs must give identical artifacts."""
    checker = checks.Checker(wl.name)
    cache: dict = {}
    attempted = failed = 0
    unexpected: dict[str, str] = {}
    known: dict[str, str] = {}
    for record in rounds:
        for index, (job, outcome) in enumerate(zip(wl.jobs, record.pop("jobs"))):
            if (index, outcome) not in cache:
                code, error, key = outcome
                files = store.files(index, key) if key is not None else {}
                cache[(index, outcome)] = checker.check(job, checks.JobResult(code, error, files))
            verdicts = cache[(index, outcome)]
            for op, verdict in zip(checks.op_keys(job), verdicts):
                attempted += 1
                if verdict is None:
                    continue
                failed += 1
                target = known if checker.is_known_fault(op) else unexpected
                target.setdefault(op, verdict)
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected, "known": known}


def blas_threads() -> dict[str, int]:
    """Threads of each OpenBLAS loaded in this process (numpy and scipy
    each bundle one)."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].endswith(".so")})
    names = [f"{p}openblas_get_num_threads{s}" for p in ("scipy_", "") for s in ("64_", "")]
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if fn is not None:
            found[Path(path).name] = int(fn())
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "openblas": openblas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "gapforge": gapforge.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    base = OUT_ROOT / wl.name
    run_job(wl.warmup, str(base / "warmup"))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out = base / "rounds"
    store = OutputStore(base / "kept")
    rounds = timed_rounds(wl, out, store, args.seconds, Tracer() if args.trace else None)

    verdicts = check_rounds(wl, store, rounds)
    shutil.rmtree(store.root, ignore_errors=True)
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    summary = {
        "workload": wl.name,
        "seed": wl.seed,
        "ops_per_round": wl.ops_per_round,
        "rounds": rounds,
        "wall_s": median(r["wall_s"] for r in untraced),
        "cpu_s": median(r["cpu_s"] for r in untraced),
        # the allocator keeps growing over repeated rounds, so the peak is
        # taken after set-up and one round, the same work in every run
        "peak_rss_mb": rounds[0]["peak_rss_mb"],
        **verdicts,
        "env": environment(),
    }
    if traced:
        layers = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        traced_wall = median(r["wall_s"] for r in traced)
        layers["trace.untraced_wall_s"] = summary["wall_s"]
        layers["trace.overhead_s"] = traced_wall - summary["wall_s"]
        summary["layers"] = layers
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
