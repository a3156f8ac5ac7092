"""serve_warm: warm estimates from an in-process ``repro serve``.

An ``EstimationHTTPServer`` on loopback with the ``repro serve``
defaults (batch scheduler on, window 0 ms, queue depth 4), warmed for
all six benchmarks on both cores during set-up.  Load is a closed loop
of one keep-alive ``ServeClient`` connection: it sends its next request
as soon as the previous reply arrives.  The mix is a seeded draw over
benchmark x {mxs, mipsy} x disk configuration 1-4 x idle policy
{busywait, halt}, dealt from shuffled decks; one request in eight is a
``POST /estimate/batch`` of two to four items, the rest ``POST /run``.
The window ends on a deck boundary, so every run answers each
combination equally often.

After set-up no simulation runs: the time is HTTP transport,
serialization, the timeline replay and pricing.  Every served result
must equal ``SoftWatt.run`` at the same settings, computed during
set-up on separate instances that first run the paper's suite
(``SoftWatt.run_suite``, all six benchmarks on disk configuration 1)
on each core.

The set-up is where this workload simulates, so the traced run traces
it as its own phase, and adds the suite on the mxs sampled and atomic
fidelity tiers: the simulation layers (generation, the four core/tier
legs, kernel idle and service profiling) are measured there, and the
tiers' energy errors against detailed mxs beside them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import threading

from repro.core.softwatt import SoftWatt
from repro.kernel.modes import ExecutionMode
from repro.serve import (
    BatchScheduler,
    EstimationEngine,
    EstimationHTTPServer,
    ServeClient,
    serve_forever,
)
from repro.workloads.paper_data import TABLE2
from repro.workloads.specjvm98 import BENCHMARK_NAMES

from perfbench import layers
from perfbench.harness import (
    OUT_DIR,
    SETUP_REPEATS,
    SIM_SEED,
    WINDOW,
    Outcome,
    format_layer_table,
    now,
    peak_rss_mb,
    percentile,
    repeated_setup,
    result_problems,
)
from perfbench.tracing import ATTRS, END, ID, PARENT, START, Recorder, covered

CPUS = ("mxs", "mipsy")
DISKS = (1, 2, 3, 4)
IDLE_POLICIES = ("busywait", "halt")
BATCH_ONE_IN = 8
BATCH_ITEMS = (2, 3, 4)
SUITE_DISK = 1
FIDELITY_TIERS = ("sampled", "atomic")
MIN_RUN_SAMPLES = 100
"""At least this many ``/run`` latencies per window, so at least ten
lie beyond p90."""
MIX_LENGTH = 20_000
"""Requests drawn per run; far more than a window sends."""


def combinations() -> list[tuple]:
    return [(name, disk, cpu, idle) for name in BENCHMARK_NAMES for cpu in CPUS
            for disk in DISKS for idle in IDLE_POLICIES]


def request_mix(seed: int, count: int = MIX_LENGTH) -> list:
    """``count`` requests: ``("run", [item])`` or ``("batch", [item,
    ...])``, items dealt from shuffled decks of every combination.

    Every eighth request is a batch of two, three, then four items: the
    seed varies which combinations come when, not how much work a
    window holds."""
    rng = random.Random(seed)
    deck: list[tuple] = []

    def deal() -> dict:
        if not deck:
            deck.extend(combinations())
            rng.shuffle(deck)
        name, disk, cpu, idle = deck.pop()
        return {"benchmark": name, "disk": disk, "cpu_model": cpu,
                "idle_policy": idle}

    mix = []
    batches = itertools.cycle(BATCH_ITEMS)
    for index in range(count):
        if index % BATCH_ONE_IN == BATCH_ONE_IN - 1:
            mix.append(("batch", [deal() for _ in range(next(batches))]))
        else:
            mix.append(("run", [deal()]))
    return mix


def expected_fields(result) -> dict:
    """The served result fields, computed from an offline run."""
    return {
        "benchmark": result.name,
        "cpu_model": result.cpu_model,
        "disk_policy": result.disk_policy_name,
        "total_energy_j": result.total_energy_j,
        "disk_energy_j": result.disk_energy_j,
        "duration_s": result.timeline.duration_s,
        "average_power_w": result.average_power_w,
        "peak_power_w": result.peak_power_w,
        "energy_delay_product": result.energy_delay_product,
        "budget_w": result.power_budget(),
        "budget_shares": result.power_budget_shares(),
    }


class Service:
    """One warmed in-process server."""

    def __init__(self) -> None:
        self.engine = EstimationEngine(window_instructions=WINDOW,
                                       seed=SIM_SEED, use_cache=False)
        self.scheduler = BatchScheduler(self.engine)
        self.server = EstimationHTTPServer(("127.0.0.1", 0), self.engine,
                                           scheduler=self.scheduler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=serve_forever,
                                       args=(self.server,), daemon=True)
        self.thread.start()
        for cpu in CPUS:
            self.engine.warm(BENCHMARK_NAMES, cpu_model=cpu)
        with ServeClient(port=self.port) as client:
            client.readyz()

    def stop(self) -> None:
        self.server.begin_drain()
        self.thread.join(timeout=60)


def build():
    service = Service()
    return service, service.stop


def references(outcome: Outcome) -> tuple[dict, dict, list]:
    """``SoftWatt.run`` at every combination, energy invariants checked.

    Each core's instance first runs the paper's suite, so the mipsy
    profiles go through ``prefetch_profiles`` as a suite's do; the
    served answers come from the engine's one-at-a-time path, so the
    comparison also holds the suite path to the scalar one.  Returns
    the expected fields, each core's suite results and the mxs
    profiles."""
    expected = {}
    suites = {}
    profiles = []
    for cpu in CPUS:
        softwatt = SoftWatt(cpu_model=cpu, window_instructions=WINDOW,
                            seed=SIM_SEED, use_cache=False)
        suites[cpu] = softwatt.run_suite(disk=SUITE_DISK)
        for name, disk, model, idle in combinations():
            if model != cpu:
                continue
            result = softwatt.run(name, disk=disk, idle_policy=idle)
            key = (name, disk, cpu, idle)
            outcome.operation(result_problems(result, f"reference {key}"))
            expected[key] = expected_fields(result)
        if cpu == "mxs":
            profiles = [softwatt.profile(name) for name in BENCHMARK_NAMES]
    return expected, suites, profiles


def fidelity_errors(outcome: Outcome, detailed: dict) -> dict[str, float]:
    """The suite on the mxs sampled and atomic tiers: their largest
    relative total-energy error against detailed mxs, and the detailed
    mode energy shares against the paper's Table 2 (the only two
    references there are; there is no hardware measurement)."""
    errors = {}
    for tier in FIDELITY_TIERS:
        results = SoftWatt(cpu_model="mxs", window_instructions=WINDOW,
                           seed=SIM_SEED, use_cache=False,
                           fidelity=tier).run_suite(disk=SUITE_DISK)
        worst = 0.0
        for name in BENCHMARK_NAMES:
            outcome.operation(result_problems(results[name], f"{tier}/{name}"))
            reference = detailed[name].total_energy_j
            worst = max(worst, abs(results[name].total_energy_j - reference)
                        / reference)
        errors[f"{tier}_err_max"] = worst
    paper = 0.0
    for name in BENCHMARK_NAMES:
        rows = detailed[name].mode_breakdown()
        for mode in ExecutionMode:
            published = getattr(TABLE2[name], f"{mode.value}_energy")
            paper = max(paper, abs(rows[mode].energy_pct - published))
    errors["paper_err_pp"] = paper
    return errors


def drive(port: int, mix: list, seconds: float, recorder: Recorder | None):
    """The closed loop: returns (start, end, records) where a record is
    (kind, items, sent, received, reply).

    Runs until ``seconds`` pass and ``MIN_RUN_SAMPLES`` ``/run``
    requests are answered, then to the end of the deck in progress
    (never past three times ``seconds``)."""
    deck = len(combinations())
    records = []
    runs = dealt = 0
    boundary = None
    with ServeClient(port=port, timeout_s=60) as client:
        client.healthz()
        start = now()
        for kind, items in mix:
            elapsed = now() - start
            if elapsed >= 3 * seconds:
                break
            if elapsed >= seconds and runs >= MIN_RUN_SAMPLES:
                if boundary is None:
                    boundary = -(-dealt // deck) * deck
                if dealt >= boundary:
                    break
            span = None
            if recorder is not None:
                span = recorder.open("serve.request", {
                    "keys": [layers.request_key(item) for item in items]})
            sent = now()
            if kind == "run":
                reply = client.post("/run", items[0])
                runs += 1
            else:
                reply = client.post("/estimate/batch", items)
            received = now()
            if span is not None:
                recorder.close(span)
            records.append((kind, items, sent, received, reply))
            dealt += len(items)
    return start, records[-1][3], records


def item_problems(item: dict, expected: dict | None, label: str) -> list[str]:
    status = item.get("status")
    if status != 200:
        return [f"{label}: status {status}: {item.get('error')}"]
    if item.get("degraded") or item.get("stale"):
        return [f"{label}: degraded answer ({item.get('fidelity_used')})"]
    if expected is None:
        return [f"{label}: no reference"]
    result = item.get("result") or {}
    for field, value in expected.items():
        if result.get(field) != value:
            return [f"{label}: {field} is {result.get(field)!r}, "
                    f"SoftWatt.run gives {value!r}"]
    return []


def check(outcome: Outcome, records, expected: dict, corrupt: bool) -> dict:
    """Every served item against its reference; returns window figures."""
    latencies = []
    answered = rejected = 0
    for index, (kind, items, sent, received, reply) in enumerate(records):
        if kind == "run":
            latencies.append(received - sent)
            served = [dict(reply.payload, status=reply.status)]
        elif reply.status == 200:
            served = reply.payload.get("items", [])
        else:
            served = [{"status": reply.status,
                       "error": reply.payload.get("error")}] * len(items)
        if len(served) != len(items):
            served = [{"status": reply.status, "error": "item count mismatch"}
                      ] * len(items)
        for item, request in zip(served, items):
            if corrupt and index == 0 and "result" in item:
                item = dict(item, result=dict(item["result"]))
                energy = item["result"]["total_energy_j"]
                item["result"]["total_energy_j"] = math.nextafter(energy, math.inf)
            key = layers.request_key(request)
            problems = item_problems(item, expected.get(key), f"{kind} {key}")
            outcome.operation(problems)
            rejected += item.get("status") == 429
            answered += item.get("status") == 200 and not problems
    return {"latencies": latencies, "answered": answered, "rejected": rejected}


def link_estimates(recorder: Recorder) -> dict[int, list]:
    """Parent every estimate span (batch dispatcher thread) to the client
    request that waited for it: same request key, interval inside the
    request's.  Returns request span id -> its estimate spans."""
    requests = recorder.closed("serve.request")
    linked: dict[int, list] = {span[ID]: [] for span in requests}
    for estimate in recorder.closed("serve.estimate"):
        key = estimate[ATTRS].get("key")
        for request in requests:
            if (key in request[ATTRS]["keys"]
                    and request[START] <= estimate[START]
                    and estimate[END] <= request[END]):
                linked[request[ID]].append(estimate)
                if estimate[PARENT] is None:
                    estimate[PARENT] = request[ID]
    return linked


def serialize_seconds(records) -> float:
    """JSON encode + decode of the same reply bodies the clients got."""
    start = now()
    for record in records:
        json.loads(json.dumps(record[4].payload))
    return now() - start


def snapshot_counts(scheduler) -> tuple[int, int]:
    snapshot = scheduler.snapshot()
    return (snapshot.get("submitted", 0),
            snapshot.get("single_flight", {}).get("hits", 0))


def run(*, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0, corrupt: bool = False) -> Outcome:
    outcome = Outcome()
    mix = request_mix(seed)
    # A traced run splits its time between an untraced window (the
    # overhead reference) and a traced one.
    window = seconds / 2 if trace else seconds
    setup = Recorder() if trace else None
    service = None
    try:
        with layers.tracing(setup):
            setup_start = now()
            service, setup_s = repeated_setup(build, 1 if trace else SETUP_REPEATS)
            expected, suites, profiles = references(outcome)
            if trace:
                for name, value in fidelity_errors(outcome, suites["mxs"]).items():
                    outcome.figure(name, value, "ratio" if name.endswith("max") else "pp")
            setup_wall_s = now() - setup_start
        start, end, records = drive(service.port, mix, window, None)
        figures = check(outcome, records, expected, corrupt)
        latencies = figures["latencies"]
        requests_per_s = figures["answered"] / (end - start)
        outcome.figure("requests_per_s", requests_per_s, "1/s")
        outcome.report.update(run_requests=len(latencies), window_s=end - start)
        outcome.figure("latency_p50_ms", percentile(latencies, 0.50) * 1e3, "ms")
        if not trace:
            outcome.metric("setup_s", import_s + setup_s, "s")
            outcome.metric("latency_p90_ms", percentile(latencies, 0.90) * 1e3, "ms")
            outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
            outcome.figure("failure_rate", outcome.failure_rate, "ratio")
            return outcome

        # p90, like the gated latency: it stays in the host's contended mode.
        untraced_p90 = percentile(latencies, 0.90)
        submitted, hits = snapshot_counts(service.scheduler)
        recorder = Recorder()
        with layers.tracing(recorder):
            t_start, t_end, t_records = drive(service.port, mix, window, recorder)
        t_figures = check(outcome, t_records, expected, False)
        t_latencies = t_figures["latencies"]
        traced_p90 = percentile(t_latencies, 0.90)
        t_submitted, t_hits = snapshot_counts(service.scheduler)
    finally:
        if service is not None:
            service.stop()

    linked = link_estimates(recorder)
    http_s = sum(
        (request[END] - request[START]) - covered(
            [(e[START], e[END]) for e in linked[request[ID]]],
            request[START], request[END])
        for request in recorder.closed("serve.request"))
    answered = t_figures["answered"]
    counts = layers.miss_ratios(profiles)
    counts.update({
        "serve.coalesced_ratio": (t_hits - hits) / max(1, t_submitted - submitted),
        "serve.rejected": t_figures["rejected"],
    })
    outcome.figure("failure_rate", outcome.failure_rate, "ratio")
    generation, note = layers.generation_seconds(setup)
    metrics, setup_rows, rows = layers.layer_metrics(
        setup, recorder, setup_wall_s=setup_wall_s, generation=generation,
        units=answered, wall_s=t_end - t_start,
        serialize_s=serialize_seconds(t_records),
        http_s=http_s,
        overhead_pct=(traced_p90 - untraced_p90) / untraced_p90 * 100.0,
        counts=counts, figures=outcome.figures)
    outcome.metrics.update(metrics)
    outcome.report.update(
        layer_table=format_layer_table(setup_rows, rows),
        traced_p90_latency_s=traced_p90,
        untraced_p90_latency_s=untraced_p90,
        notes=[note] if note else [],
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    setup.write(os.path.join(OUT_DIR, f"spans-serve_warm-setup-seed{seed}.json"))
    recorder.write(os.path.join(OUT_DIR, f"spans-serve_warm-seed{seed}.json"))
    return outcome
