"""Shared pieces of the benchmark workloads: checks, statistics, output.

Every workload returns an :class:`Outcome`: how many operations it
attempted, how many failed a correctness check, and its metrics as
``name -> (value, unit)``.  :func:`emit` prints the final
JSON line and writes the full report (environment, layer table,
failures) under ``.perfbench_out/``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import time

from repro.core.timeline import vectorized_sampling
from repro.cpu.batch import batch_min_runs, batched_execution

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WINDOW = 20_000
"""Detailed-window instructions per benchmark phase (as scripts/bench.py)."""

SIM_SEED = 1
"""Simulation seed.  Fixed, so simulated statistics (miss ratios,
instruction counts, fidelity errors) repeat exactly across runs; the
benchmark's ``--seed`` draws the workload inputs instead."""

SETUP_REPEATS = 2
"""Set-ups per untraced run; ``setup_s`` is their median.  A serve_warm
set-up simulates twelve profiles (about 11 s on a 2-vCPU VM), so more
repeats would not fit the runs in the benchmark's time.  A traced run
reports no ``setup_s`` and sets up once."""

ENERGY_REL_TOL = 1e-9
"""Tolerance for sums of the same joules taken in a different order."""

INTEGRAL_REL_TOL = 1e-6
"""Tolerance for the sampled power trace integrated over time against
the ledger (per-interval watts times interval seconds)."""

MAX_REPORTED_FAILURES = 20

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
"""The end-to-end metrics every untraced run reports (mirrors
BENCHMARK.json); what an operation is depends on the workload."""

now = time.perf_counter


@dataclasses.dataclass
class Outcome:
    """What one workload run attempted, what failed, what it measured."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = dataclasses.field(default_factory=dict)
    figures: dict[str, tuple[float, str]] = dataclasses.field(default_factory=dict)
    """The workload's own figures (fidelity errors, requests or points
    per second of each kind...): printed with every run and reported
    among the per-layer metrics of the traced run."""
    report: dict = dataclasses.field(default_factory=dict)

    def operation(self, problems: list[str]) -> None:
        """Count one checked operation; any problem fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_REPORTED_FAILURES - len(self.failures)
            self.failures.extend(problems[: max(0, room)])

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def figure(self, name: str, value: float, unit: str) -> None:
        self.figures[name] = (float(value), unit)

    @property
    def failure_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def repeated_setup(build, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times; return (last state, median
    seconds).  ``build`` returns ``(state, dispose)``; every state but
    the last is disposed of and collected before the next build starts,
    so the peak memory holds one state, not a varying share of two."""
    times = []
    state = None
    for index in range(repeats):
        start = now()
        state, dispose = build()
        times.append(now() - start)
        if index < repeats - 1:
            dispose()
            state = dispose = None
            gc.collect()
    return state, statistics.median(times)


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def ledger_problems(ledger, label: str) -> list[str]:
    """Energy invariants of one ledger: components non-negative, each
    category the sum of its components, categories summing to the total."""
    problems = []
    rollup: dict[str, float] = {}
    for name, joules in ledger.items():
        if not joules >= 0.0:
            problems.append(f"{label}: component {name} has {joules!r} J")
        category = ledger.category_of(name)
        rollup[category] = rollup.get(category, 0.0) + joules
    categories = ledger.categories
    for category, joules in categories.items():
        if not _close(joules, rollup.get(category, 0.0), ENERGY_REL_TOL):
            problems.append(f"{label}: category {category} is {joules!r} J "
                            f"but its components sum to {rollup.get(category)!r}")
    if not _close(sum(categories.values()), ledger.total_j, ENERGY_REL_TOL):
        problems.append(f"{label}: categories do not sum to the total")
    return problems


def result_problems(result, label: str) -> list[str]:
    """Ledger invariants of a full run plus its timeline integral: the
    power trace (categories and disk) integrated over the log's
    intervals must equal the full-run ledger total."""
    ledger = result.energy_ledger()
    problems = ledger_problems(ledger, label)
    trace = result.trace
    integral = 0.0
    for index, record in enumerate(result.timeline.log):
        watts = trace.disk_w[index]
        for series in trace.category_w.values():
            watts += series[index]
        integral += watts * record.duration_s
    if not _close(integral, ledger.total_j, INTEGRAL_REL_TOL):
        problems.append(f"{label}: timeline integral {integral!r} J != "
                        f"ledger total {ledger.total_j!r} J")
    return problems


def point_problems(point, label: str) -> list[str]:
    """Invariants of a sweep point: non-negative components that sum to
    the point's energy, and average power times duration equal to it."""
    problems = []
    components = point.component_energy_j
    for name, joules in components.items():
        if not joules >= 0.0:
            problems.append(f"{label}: component {name} has {joules!r} J")
    if not _close(sum(components.values()), point.energy_j, ENERGY_REL_TOL):
        problems.append(f"{label}: components do not sum to the energy")
    if not _close(point.average_power_w * point.duration_s, point.energy_j,
                  ENERGY_REL_TOL):
        problems.append(f"{label}: average power x duration != energy")
    return problems


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def environment() -> dict:
    """The resolved execution-path choices this result was produced under."""
    return {
        "batched_execution": batched_execution(),
        "vectorized_sampling": vectorized_sampling(),
        "batch_min_runs": batch_min_runs(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def format_layer_table(setup_rows: list, rows: list) -> str:
    """The set-up and measured phases' rows of (layer, self seconds,
    share %): the per-layer overhead table of SNIPPETS.md §3, one per
    phase.  Rows that took no time are left out."""
    lines = []
    for title, phase in (("set-up", setup_rows), ("measured", rows)):
        lines.append(f"{title + ' layer':24s} {'self s':>10s} {'share':>7s}")
        for name, seconds, share in phase:
            if seconds > 0:
                lines.append(f"{name:24s} {seconds:10.4f} {share:6.2f}%")
        total = sum(seconds for _, seconds, _ in phase)
        lines.append(f"{'total':24s} {total:10.4f} {100.0:6.2f}%")
    return "\n".join(lines)


def emit(outcome: Outcome, *, workload: str, seed: int, trace: bool) -> int:
    """Print the report lines and the final JSON line; return the exit code."""
    os.makedirs(OUT_DIR, exist_ok=True)
    report = dict(outcome.report)
    report.update(
        workload=workload,
        seed=seed,
        trace=trace,
        environment=environment(),
        attempted=outcome.attempted,
        failed=outcome.failed,
        failures=outcome.failures,
        metrics={name: {"value": value, "unit": unit}
                 for name, (value, unit) in outcome.metrics.items()},
        figures={name: {"value": value, "unit": unit}
                 for name, (value, unit) in outcome.figures.items()},
    )
    path = os.path.join(
        OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"
    )
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    if "layer_table" in outcome.report:
        print(outcome.report["layer_table"])
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    print(f"figures: {json.dumps(report['figures'], sort_keys=True)}")
    for name, (value, unit) in {**outcome.figures, **outcome.metrics}.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1
