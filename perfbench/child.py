"""Run one workload in this process and print its result.

Launched by ``perfbench/run.py``, which validates the arguments and the
program sources, as

    python3 -m perfbench.child <workload> <seed> <seconds> <trace> [corrupt]

from the repository root, in a fresh process with a cleaned
environment.  Imports the program from the checkout's own ``src/``.
"""

from __future__ import annotations

import importlib
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
IMPORT_REPEATS = 7
"""Fresh interpreters whose import time of the workload's modules gives
the import share of ``setup_s`` (their median; this process is one).
Import time alone varies by half from one interpreter to the next."""
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); start = time.perf_counter(); "
    "import perfbench.wl_{workload}; print(time.perf_counter() - start)"
)


def command(workload: str, seed: int, seconds: float, trace: int,
            corrupt: bool = False) -> list[str]:
    """The command line that runs one workload through this module."""
    return [sys.executable, "-m", "perfbench.child", workload, str(seed),
            str(seconds), str(trace)] + (["corrupt"] if corrupt else [])


def import_seconds(workload: str, first: float) -> float:
    """Median import time over this process (``first``) and fresh probes."""
    times = [first]
    probe = IMPORT_PROBE.format(src=SRC, workload=workload)
    for _ in range(IMPORT_REPEATS - 1):
        completed = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                                   capture_output=True, text=True, check=True,
                                   timeout=60)
        times.append(float(completed.stdout))
    return statistics.median(times)


def main(argv: list[str]) -> int:
    workload, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    trace, corrupt = bool(int(argv[3])), argv[4:] == ["corrupt"]
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    module = importlib.import_module(f"perfbench.wl_{workload}")
    first = time.perf_counter() - start
    harness = importlib.import_module("perfbench.harness")
    outcome = module.run(
        seed=seed,
        seconds=seconds,
        trace=trace,
        # A traced run reports no setup_s.
        import_s=0.0 if trace else import_seconds(workload, first),
        corrupt=corrupt,
    )
    return harness.emit(outcome, workload=workload, seed=seed, trace=trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
