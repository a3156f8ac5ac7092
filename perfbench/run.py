"""The repository benchmark (see perfbench/NOTES.md and BENCHMARK.json).

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0

Workloads: ``serve_warm`` (a warm ``repro serve`` on loopback under a
closed loop of one client), ``design_sweep`` (a warmed sweep campaign:
ledger and timeline grids plus re-pricing of ingested counter logs);
``all`` runs the two one after another.

Each workload runs in a fresh process whose environment has the
variables that steer execution paths removed, so a result never
depends on the caller's shell.  The last line of the output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A failed correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.child import command  # noqa: E402

WORKLOADS = ("serve_warm", "design_sweep")
CLEARED_ENV = (
    "REPRO_PURE_PYTHON",
    "REPRO_BATCH_MIN_RUNS",
    "REPRO_BENCH_FILE",
    "REPRO_CACHE_DIR",
)
"""Environment variables that select execution paths or the persistent
profile cache; the workload process never sees them."""

CHILD_TIMEOUT_S = 170
"""A run must end within 180 s.  The slowest measured run (traced
serve_warm; see NOTES.md for run times) stays under about half of
this cap, which leaves room for the host's slow periods."""


def run_workload(args, workload: str) -> int:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    sys.stdout.flush()
    child = subprocess.Popen(
        command(workload, args.seed, args.seconds, args.trace, args.corrupt),
        cwd=ROOT, env=env, start_new_session=True)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Termination unwinds through run_workload's cleanup, which stops
    # the workload's whole process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: {ROOT} holds no program sources (src/repro)",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run_workload(args, workload))
    return status


if __name__ == "__main__":
    sys.exit(main())
