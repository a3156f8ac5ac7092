"""The per-layer metrics: which public methods the traced run wraps, how
spans map to layer rows, and how span totals become metrics.

Layer names follow the ``src/repro/`` modules (``isa``, ``cpu``,
``mem``, ``kernel``, ``timeline``, ``power``, ``ingest``, ``campaign``,
``serve``).  Every traced run reports every metric below; a layer the
workload does not exercise reads 0.

A traced run has two phases, each with its own recorder: the set-up
(where every simulation happens) and the measured phase (where none
does).  The simulation layers (``isa``, ``cpu``, ``kernel``) are
reported per set-up, the others per measured workload unit: one
answered estimate (serve_warm), one campaign round (design_sweep).
Each phase has its own share table: ``setup_share.<row>`` and
``share.<row>``.
"""

from __future__ import annotations

import collections
import contextlib
import inspect
import itertools

from repro.config.system import FidelityTier
from repro.core.profiles import Profiler
from repro.core.softwatt import SoftWatt
from repro.core.timeline import TimelineSimulator
from repro.isa.generators import SyntheticCodeGenerator
from repro.kernel.kernel import Kernel
from repro.kernel.scheduler import InterleavedWorkload
from repro.mem.hierarchy import MemoryHierarchy
from repro.power.processor import ProcessorPowerModel
from repro.serve import EstimationEngine
from repro.stats.counters import AccessCounters

from perfbench.harness import now
from perfbench.tracing import ATTRS, ID, NAME, Recorder, Tracer, layer_rows

CPU_LEGS = ("mxs", "mipsy", "sampled", "atomic")

SHARE_ROWS = (
    "isa.generate", "cpu.mxs.execute", "cpu.mipsy.execute",
    "cpu.sampled.execute", "cpu.atomic.execute", "cpu.batch", "kernel.idle",
    "kernel.services", "timeline.run", "power.price", "power.model_build",
    "ingest.parse", "campaign", "serve.estimate", "serve.http",
    "serve.serialize", "other",
)

SETUP_LAYERS = (
    "isa.generate_s", "cpu.mxs.execute_s", "cpu.mipsy.execute_s",
    "cpu.sampled.execute_s", "cpu.atomic.execute_s", "cpu.instr",
    "cpu.batch.lanes", "kernel.idle_s", "kernel.services_s",
    "kernel.service_invocations",
)
"""Layer metrics taken from the set-up phase, per set-up; every other
span-based metric comes from the measured phase."""

PER_LAYER = (
    ("isa.generate_s", "s"),
    ("cpu.mxs.execute_s", "s"),
    ("cpu.mipsy.execute_s", "s"),
    ("cpu.sampled.execute_s", "s"),
    ("cpu.atomic.execute_s", "s"),
    ("cpu.instr", "count"),
    ("cpu.batch.lanes", "count"),
    ("mem.l1d_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.tlb_miss_ratio", "ratio"),
    ("kernel.idle_s", "s"),
    ("kernel.services_s", "s"),
    ("kernel.service_invocations", "count"),
    ("timeline.run_s", "s"),
    ("timeline.samples", "count"),
    ("power.price_s", "s"),
    ("power.price_calls", "count"),
    ("power.model_build_s", "s"),
    ("ingest.parse_s", "s"),
    ("campaign.ledger_points", "count"),
    ("campaign.timeline_points", "count"),
    ("serve.estimate_s", "s"),
    ("serve.http_s", "s"),
    ("serve.serialize_s", "s"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("trace.overhead_pct", "%"),
) + tuple((f"share.{row}", "%") for row in SHARE_ROWS) + tuple(
    (f"setup_share.{row}", "%") for row in SHARE_ROWS) + (
    ("sampled_err_max", "ratio"),
    ("atomic_err_max", "ratio"),
    ("paper_err_pp", "pp"),
    ("latency_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("ledger_points_per_s", "1/s"),
    ("timeline_points_per_s", "1/s"),
    ("reprice_points_per_s", "1/s"),
    ("failure_rate", "ratio"),
)
"""Every per-layer metric, in report order (mirrors BENCHMARK.json).
The last nine are the workloads' own figures: the fidelity errors of
serve_warm's traced set-up, the rest measured untraced."""


def profiler_leg(profiler: Profiler) -> str:
    """The core/tier leg a profiler belongs to: its core when detailed,
    else its fidelity tier."""
    tier = profiler.config.fidelity.tier
    if tier is FidelityTier.DETAILED:
        return profiler.cpu_model
    return tier.value


def _bound(function, args, kwargs) -> dict:
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def request_key(request) -> tuple:
    """(benchmark, disk, cpu_model, idle_policy) of a payload or request."""
    if isinstance(request, dict):
        return (request.get("benchmark"), request.get("disk", 1),
                request.get("cpu_model", "mxs"),
                request.get("idle_policy", "busywait"))
    return (request.benchmark, request.disk, request.cpu_model,
            request.idle_policy)


def install(recorder: Recorder) -> Tracer:
    """Wrap the public methods at every layer boundary."""
    tracer = Tracer(recorder)
    profile_service = Profiler.__dict__["profile_service"]

    def on_profile(span, args, kwargs, result):
        span[ATTRS]["profiler"] = args[0]
        span[ATTRS]["spec"] = result.spec

    def on_service(span, args, kwargs, result):
        arguments = _bound(profile_service, args, kwargs)
        span[ATTRS]["invocations"] = (
            arguments["invocations"] + arguments["warmup"])

    def stream_box(instance):
        box = [0]
        span = recorder.current()
        if span is not None:
            span[ATTRS].setdefault("streams", []).append(box)
        return box

    tracer.wrap(Profiler, "profile_benchmark",
                lambda args, kwargs: f"cpu.{profiler_leg(args[0])}",
                on_return=on_profile)
    tracer.wrap(Profiler, "profile_idle", "kernel.idle")
    tracer.wrap(Profiler, "profile_service", "kernel.service",
                on_return=on_service)
    tracer.wrap(SoftWatt, "service_profiles", "kernel.services")
    tracer.wrap(SoftWatt, "prefetch_profiles", "cpu.batch",
                on_return=lambda span, a, k, lanes: span[ATTRS].update(lanes=lanes))
    tracer.wrap_iterator(InterleavedWorkload, "__iter__", stream_box)
    tracer.wrap(TimelineSimulator, "run", "timeline.run",
                on_return=lambda span, a, k, result: span[ATTRS].update(
                    samples=len(result.log)))
    tracer.wrap(ProcessorPowerModel, "price", "power.price")
    tracer.wrap(ProcessorPowerModel, "__init__", "power.model_build")
    tracer.wrap(EstimationEngine, "estimate", "serve.estimate",
                on_return=lambda span, args, k, reply: span[ATTRS].update(
                    key=request_key(args[1]) if len(args) > 1 else None))
    return tracer


@contextlib.contextmanager
def tracing(recorder: Recorder | None):
    """Wrap the layer boundaries into ``recorder`` for the duration of
    the block; without a recorder, do nothing (the untraced run)."""
    if recorder is None:
        yield
        return
    tracer = install(recorder)
    try:
        yield
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# Instruction generation, measured apart from the cores
# ----------------------------------------------------------------------


def _drain_profile_streams(profiler: Profiler, spec, counts: list[int]) -> float:
    """Seconds to draw the instruction streams ``profile_benchmark``
    draws for ``spec`` (``counts`` items per phase), with no core."""
    config = profiler.config
    seed = spec.seed ^ profiler.seed
    kernel = Kernel(config, MemoryHierarchy(config, AccessCounters()), seed=seed)
    for file_id in range(8):
        kernel.file_cache.warm(file_id, 512 * 1024)
    seconds = 0.0
    for phase, count in zip(spec.phases.phases, counts):
        start = now()
        workload = InterleavedWorkload(
            SyntheticCodeGenerator(phase.signature, seed=seed),
            kernel,
            service_rates=phase.service_rates,
            syscalls=phase.syscalls,
            sync_mean_gap=phase.sync_mean_gap,
            seed=seed ^ 0xF00D,
        )
        collections.deque(itertools.islice(iter(workload), count), maxlen=0)
        seconds += now() - start
    return seconds


def generation_seconds(recorder: Recorder) -> tuple[dict[str, float], str | None]:
    """Per core/tier leg, the seconds spent generating instructions.

    Replays every traced ``profile_benchmark`` span's streams, item
    counts as the cores consumed them.  Returns the per-leg seconds and
    a note when the replay cannot be built (then generation reads 0 and
    stays inside execution).
    """
    seconds = {leg: 0.0 for leg in CPU_LEGS}
    try:
        for span in recorder.closed():
            attrs = span[ATTRS]
            if "profiler" not in attrs or "spec" not in attrs:
                continue
            counts = [box[0] for box in attrs.get("streams", ())]
            leg = span[NAME].split(".", 1)[1]
            seconds[leg] = seconds.get(leg, 0.0) + _drain_profile_streams(
                attrs["profiler"], attrs["spec"], counts)
    except Exception as error:  # noqa: BLE001 - a per-layer figure, not a gate
        return {leg: 0.0 for leg in CPU_LEGS}, (
            f"generation replay unavailable: {type(error).__name__}: {error}")
    return seconds, None


# ----------------------------------------------------------------------
# Spans -> rows and metrics
# ----------------------------------------------------------------------

_ROW_BY_NAME = {
    "kernel.idle": "kernel.idle",
    "kernel.service": "kernel.services",
    "kernel.services": "kernel.services",
    "cpu.batch": "cpu.batch",
    "timeline.run": "timeline.run",
    "power.price": "power.price",
    "power.model_build": "power.model_build",
    "ingest.parse": "ingest.parse",
    "serve.estimate": "serve.estimate",
    "serve.request": "serve.http",
}


def row_of(span) -> str:
    name = span[NAME]
    if name in _ROW_BY_NAME:
        return _ROW_BY_NAME[name]
    if name.startswith("cpu."):
        return f"{name}.execute"
    if name.startswith("campaign."):
        return "campaign"
    return "other"


def layer_metrics(
    setup: Recorder,
    measured: Recorder,
    *,
    setup_wall_s: float,
    generation: dict[str, float],
    units: float,
    wall_s: float,
    serialize_s: float = 0.0,
    http_s: float = 0.0,
    overhead_pct: float = 0.0,
    counts: dict[str, float] | None = None,
    figures: dict[str, tuple[float, str]] | None = None,
) -> tuple[dict[str, tuple[float, str]], list, list]:
    """Every per-layer metric plus the two phases' share rows.

    ``setup`` and ``measured`` are the two phases' recorders;
    ``setup_wall_s`` and ``wall_s`` the times their shares divide;
    ``generation`` the set-up's generation seconds per leg
    (:func:`generation_seconds`), carved out of execution; ``units``
    normalises the measured phase's times and counts to one workload
    unit; ``counts`` supplies the metrics that come from program outputs
    rather than spans (miss ratios, campaign point classes, serve
    scheduler figures); ``figures`` are the workload's own figures.
    Returns (metrics, set-up rows, measured rows).
    """
    setup_values, setup_rows = _phase(setup, setup_wall_s, 1.0, generation)
    values, rows = _phase(measured, wall_s, units, {},
                          serialize_s=serialize_s, http_s=http_s)
    values.update({name: setup_values[name] for name in SETUP_LAYERS})
    values["trace.overhead_pct"] = overhead_pct
    values.update(counts or {})
    values.update({name: value for name, (value, _) in (figures or {}).items()})
    values.update({f"share.{row}": share for row, _, share in rows})
    values.update({f"setup_share.{row}": share for row, _, share in setup_rows})
    metrics = {name: (float(values.get(name, 0.0)), unit)
               for name, unit in PER_LAYER}
    return metrics, setup_rows, rows


def _phase(recorder: Recorder, wall_s: float, units: float,
           generation: dict[str, float], *, serialize_s: float = 0.0,
           http_s: float = 0.0) -> tuple[dict[str, float], list]:
    """One phase's span-based metrics (per ``units``) and share rows."""
    self_times = recorder.self_times()
    execute = {leg: 0.0 for leg in CPU_LEGS}
    for span in recorder.closed():
        if span[NAME].startswith("cpu.") and span[NAME] != "cpu.batch":
            leg = span[NAME].split(".", 1)[1]
            execute[leg] = execute.get(leg, 0.0) + self_times[span[ID]]
    adjustments = {"isa.generate": 0.0}
    for leg, seconds in generation.items():
        carved = min(seconds, execute.get(leg, 0.0))
        execute[leg] = execute.get(leg, 0.0) - carved
        adjustments[f"cpu.{leg}.execute"] = -carved
        adjustments["isa.generate"] += carved
    if serialize_s:
        adjustments["serve.http"] = -serialize_s
        adjustments["serve.serialize"] = serialize_s
    rows = layer_rows(recorder, row_of, wall_s, adjustments=adjustments)

    def attr_sum(name: str, key: str) -> float:
        return sum(span[ATTRS].get(key, 0) for span in recorder.closed(name))

    per = 1.0 / units if units else 0.0
    streams = sum(
        sum(box[0] for box in span[ATTRS].get("streams", ()))
        for span in recorder.closed()
    )
    values = {
        "isa.generate_s": adjustments["isa.generate"],
        "cpu.mxs.execute_s": execute["mxs"],
        "cpu.mipsy.execute_s": execute["mipsy"],
        "cpu.sampled.execute_s": execute["sampled"],
        "cpu.atomic.execute_s": execute["atomic"],
        "cpu.instr": streams,
        "cpu.batch.lanes": attr_sum("cpu.batch", "lanes"),
        "kernel.idle_s": recorder.total("kernel.idle"),
        "kernel.services_s": recorder.total("kernel.services"),
        "kernel.service_invocations": attr_sum("kernel.service", "invocations"),
        "timeline.run_s": recorder.total("timeline.run"),
        "timeline.samples": attr_sum("timeline.run", "samples"),
        "power.price_s": recorder.total("power.price"),
        "power.price_calls": len(recorder.closed("power.price")),
        "power.model_build_s": recorder.total("power.model_build"),
        "ingest.parse_s": recorder.total("ingest.parse"),
        "serve.estimate_s": recorder.total("serve.estimate"),
        "serve.http_s": http_s,
        "serve.serialize_s": serialize_s,
    }
    return {name: value * per for name, value in values.items()}, rows


def miss_ratios(profiles) -> dict[str, float]:
    """L1D, L2 and TLB miss ratios over every phase chunk of ``profiles``
    (simulated statistics: they must not move with host speed)."""
    totals = AccessCounters()
    for profile in profiles:
        for phase in profile.phases.values():
            for chunk in phase.chunks:
                totals.add(chunk.total_counters())

    def ratio(misses: float, accesses: float) -> float:
        return misses / accesses if accesses else 0.0

    return {
        "mem.l1d_miss_ratio": ratio(totals.l1d_miss, totals.l1d_access),
        "mem.l2_miss_ratio": ratio(
            totals.l2_miss, totals.l2i_access + totals.l2d_access),
        "mem.tlb_miss_ratio": ratio(totals.tlb_miss, totals.tlb_access),
    }
