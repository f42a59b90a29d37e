"""gapforge benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: design-corpus, radial-ladder,
band-sweep, bubble-scan (see README.md).  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, where
the metrics are the end-to-end ones with ``--trace 0`` and the per-layer
ones with ``--trace 1``.  The full record of the run (every round, the
failures, the machine) goes to ``perfbench/results/``.

Set-up is measured ``SETUP_RUNS`` times, each in a fresh worker process,
from spawn to its ``READY`` line; the last of those workers goes on to the
timed rounds.  ``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from tracer import LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_RUNS = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(args, extra: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a worker; return the seconds from spawn to READY and the lines
    it printed after READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker {' '.join(extra) or 'run'} exited with code {code}")
    return setup, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gapforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (HERE.parent / "src" / "gapforge" / "cli.py").is_file():
        print("error: run from a gapforge checkout (src/gapforge is missing)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_RUNS - 1)]
        setup, lines = run_worker(args, [], deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    summary = json.loads(lines[-1])
    summary["setup_runs_s"] = setups

    if args.trace:
        metrics = {name: {"value": summary["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        values = {"wall_s": summary["wall_s"], "cpu_s": summary["cpu_s"],
                  "setup_s": median(setups), "peak_rss_mb": summary["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": not summary["unexpected"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "run": summary}, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {summary['attempted']} operations attempted, "
          f"{summary['failed']} failed")
    for op, why in {**summary["known"], **summary["unexpected"]}.items():
        kind = "known fault" if op in summary["known"] else "FAILED"
        print(f"  {kind} {op}: {why}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
