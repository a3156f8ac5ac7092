"""design_sweep: design-space re-pricing on one warmed sweep campaign.

A ``SweepCampaign`` (mxs, jess, disk configuration 2), warmed during
set-up, runs rounds of three kinds of point until the time is up:

* a ledger-tier grid, vdd x calibration x feature size (12 points):
  each point builds a fresh ``ProcessorPowerModel`` over the same
  counters;
* a timeline-tier grid, clock frequency x disk spin-down threshold
  (6 points): each point replays the timeline, with no HTTP;
* ``sweep_source`` re-pricing of ingested counter logs: the jess run
  exported with ``write_counter_log_json`` and read back through
  ``read_counter_log`` / ``ingest_log`` over the ledger grid, and the
  checked-in ``examples/data/perf_sample.csv`` priced through
  ``examples/mappings/perf_generic.json`` over 8 vdd values.  Parsing
  and mapping the logs is part of every round.

Latency is per round (all three kinds of point, 38 points); rounds
continue past ``--seconds`` until there are enough for ten to lie
beyond p90.  Points per second of each kind are the points over the
measured time of their sweep calls.
In the traced run the set-up (campaign construction, which simulates
jess on mxs, and the references) is traced as its own phase.

``--seed`` draws the grid values (fixed-size grids, values jittered by
up to 1 %); the simulation seed is fixed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import random
import shutil
import tempfile

from repro.config.diskcfg import DiskPowerPolicy
from repro.config.system import SystemConfig
from repro.core.campaign import (
    PARAMETERS,
    SPINDOWN_PARAMETER,
    SweepCampaign,
    sweep_source,
)
from repro.ingest import (
    CounterMapping,
    ingest_log,
    read_counter_log,
    write_counter_log_json,
)

from perfbench import layers
from perfbench.harness import (
    OUT_DIR,
    ROOT,
    SETUP_REPEATS,
    SIM_SEED,
    WINDOW,
    WORK_DIR,
    Outcome,
    format_layer_table,
    ledger_problems,
    now,
    peak_rss_mb,
    percentile,
    point_problems,
    repeated_setup,
    result_problems,
)
from perfbench.tracing import Recorder

BENCHMARK = "jess"
CPU_MODEL = "mxs"
DISK = 2
PERF_LOG = os.path.join(ROOT, "examples", "data", "perf_sample.csv")
PERF_MAPPING = os.path.join(ROOT, "examples", "mappings", "perf_generic.json")
BASE = SystemConfig.table1().technology
MIN_ROUNDS = 100
"""One latency sample a round: 100 rounds put ten beyond p90."""


def with_feature_size(config: SystemConfig, value: float) -> SystemConfig:
    return dataclasses.replace(config, technology=dataclasses.replace(
        config.technology, feature_size_um=value))


TRANSFORMS = {"feature_size_um": with_feature_size}


@dataclasses.dataclass(frozen=True)
class Grids:
    ledger: dict
    timeline: dict
    perf_vdd: list

    @property
    def ledger_values(self) -> list[tuple]:
        return list(itertools.product(*self.ledger.values()))

    def ledger_transform(self, config: SystemConfig, combo: tuple) -> SystemConfig:
        """The ledger grid's axes applied in order, as the campaign does."""
        for name, value in zip(self.ledger, combo):
            config = TRANSFORMS.get(name, PARAMETERS.get(name))(config, value)
        return config


def grids(seed: int) -> Grids:
    """Seeded grid values: fixed factors, each jittered by up to 1 %,
    shuffled.  The base clock is kept exact so four timeline points can
    be checked against ``SoftWatt.run`` directly."""
    rng = random.Random(seed)

    def axis(base: float, factors, exact: float | None = None) -> list[float]:
        values = [base * factor * (1.0 + rng.uniform(-0.01, 0.01))
                  for factor in factors]
        if exact is not None:
            values.append(exact)
        rng.shuffle(values)
        return values

    return Grids(
        ledger={
            "vdd": axis(BASE.vdd, (0.9, 1.0, 1.1)),
            "calibration": axis(BASE.calibration, (0.9, 1.1)),
            "feature_size_um": axis(BASE.feature_size_um, (0.8, 1.25)),
        },
        timeline={
            "clock_hz": axis(BASE.clock_hz, (1.1,), exact=BASE.clock_hz),
            SPINDOWN_PARAMETER: axis(1.0, (1.0, 2.0, 5.0)),
        },
        perf_vdd=axis(BASE.vdd, [0.8 + 0.05 * step for step in range(8)]),
    )


def build():
    campaign = SweepCampaign(benchmark=BENCHMARK, disk=DISK,
                             cpu_model=CPU_MODEL, window_instructions=WINDOW,
                             seed=SIM_SEED, use_cache=False)
    campaign.run("vdd", [BASE.vdd])
    campaign.run(SPINDOWN_PARAMETER, [2.0])
    return campaign, lambda: None


@dataclasses.dataclass
class References:
    ledger: list
    timeline: list
    perf: list
    export_path: str
    profile: object


def references(outcome: Outcome, campaign: SweepCampaign, grid: Grids,
               work_dir: str) -> References:
    """Set-up references: the ledger grid priced by ``sweep_source`` on
    the campaign's own base log, one timeline round (its base-clock
    points checked against ``SoftWatt.run``), the perf log's prices."""
    softwatt = campaign.base_softwatt()
    base = softwatt.run(BENCHMARK, disk=campaign.base_policy,
                        idle_policy=campaign.idle_policy)
    outcome.operation(result_problems(base, "base run"))
    ledger = sweep_source(base.timeline.log, "ledger-grid", grid.ledger_values,
                          transform=grid.ledger_transform)
    for value, priced in ledger:
        outcome.operation(ledger_problems(priced, f"reference {value}"))
    timeline = campaign.run_grid(grid.timeline).points
    for point in timeline:
        clock_hz, threshold = point.value
        if clock_hz != BASE.clock_hz:
            continue
        direct = softwatt.run(
            BENCHMARK, idle_policy=campaign.idle_policy,
            disk=DiskPowerPolicy(name="direct", spindown_threshold_s=threshold))
        same = (direct.total_energy_j == point.energy_j
                and direct.timeline.duration_s == point.duration_s)
        outcome.operation([] if same else [
            f"timeline point {point.value}: campaign {point.energy_j!r} J, "
            f"SoftWatt.run {direct.total_energy_j!r} J"])
    export_path = os.path.join(work_dir, f"{BENCHMARK}-counters.json")
    write_counter_log_json(base.timeline.log, export_path)
    perf = sweep_source(
        ingest_log(read_counter_log(PERF_LOG), CounterMapping.load(PERF_MAPPING)),
        "vdd", grid.perf_vdd)
    return References(ledger=ledger, timeline=timeline, perf=perf,
                      export_path=export_path,
                      profile=softwatt.profile(BENCHMARK))


def run_round(campaign, grid: Grids, refs: References,
              recorder: Recorder | None):
    """One round; returns (seconds per kind, results per kind)."""

    def span(name):
        return recorder.span(name) if recorder else contextlib.nullcontext()

    start = now()
    with span("campaign.ledger_grid"):
        ledger = campaign.run_grid(grid.ledger, transforms=TRANSFORMS)
    ledger_done = now()
    with span("campaign.timeline_grid"):
        timeline = campaign.run_grid(grid.timeline)
    timeline_done = now()
    with span("campaign.reprice"):
        with span("ingest.parse"):
            ingested = ingest_log(read_counter_log(refs.export_path),
                                  CounterMapping.identity())
        repriced = sweep_source(ingested, "ledger-grid", grid.ledger_values,
                                transform=grid.ledger_transform)
        with span("ingest.parse"):
            perf_run = ingest_log(read_counter_log(PERF_LOG),
                                  CounterMapping.load(PERF_MAPPING))
        perf = sweep_source(perf_run, "vdd", grid.perf_vdd)
    done = now()
    seconds = (ledger_done - start, timeline_done - ledger_done,
               done - timeline_done)
    return seconds, (ledger, timeline, repriced, perf)


def check_round(outcome: Outcome, results, refs: References, corrupt: bool):
    ledger, timeline, repriced, perf = results
    for index, (point, tier, (value, priced)) in enumerate(
            zip(ledger.points, ledger.tiers, refs.ledger)):
        problems = point_problems(point, f"ledger {value}")
        components = {k: v for k, v in point.component_energy_j.items()
                      if k != "disk"}
        if corrupt and index == 0:
            name = next(iter(components))
            components[name] = math.nextafter(components[name], math.inf)
        if tier != "LEDGER" or point.value != value:
            problems.append(f"ledger {value}: planned as {tier} {point.value}")
        if components != priced.components:
            problems.append(f"ledger {value}: differs from sweep_source on "
                            f"the base log")
        outcome.operation(problems)
    for point, tier, reference in zip(timeline.points, timeline.tiers,
                                      refs.timeline):
        problems = point_problems(point, f"timeline {point.value}")
        if tier != "TIMELINE" or point != reference:
            problems.append(f"timeline {point.value}: differs from the "
                            f"set-up round ({tier})")
        outcome.operation(problems)
    for (value, priced), (_, reference) in zip(repriced, refs.ledger):
        outcome.operation([] if priced.components == reference.components else [
            f"re-priced {value}: export->ingest differs from the ledger"])
    for (value, priced), (_, reference) in zip(perf, refs.perf):
        problems = ledger_problems(priced, f"perf {value}")
        if priced.components != reference.components:
            problems.append(f"perf {value}: differs from the set-up pricing")
        outcome.operation(problems)
    missing = (len(refs.ledger) - len(ledger.points)
               + len(refs.timeline) - len(timeline.points))
    for _ in range(missing):
        outcome.operation(["sweep returned fewer points than planned"])


def rounds(campaign, grid, refs, seconds: float, outcome: Outcome,
           recorder: Recorder | None, corrupt: bool):
    """Rounds until ``seconds`` pass and at least ``MIN_ROUNDS`` ran
    (never past three times ``seconds``); returns (per-round seconds per
    kind, the last round's results)."""
    times = []
    start = now()
    while len(times) < MIN_ROUNDS or now() - start < seconds:
        if times and now() - start > 3 * seconds:
            break
        elapsed, results = run_round(campaign, grid, refs, recorder)
        check_round(outcome, results, refs, corrupt and not times)
        times.append(elapsed)
    return times, results


def run(*, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0, corrupt: bool = False) -> Outcome:
    outcome = Outcome()
    grid = grids(seed)
    # A traced run splits its time between an untraced window (the
    # overhead reference) and a traced one.
    window = seconds / 2 if trace else seconds
    setup = Recorder() if trace else None
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="design_sweep-", dir=WORK_DIR)
    try:
        with layers.tracing(setup):
            setup_start = now()
            campaign, setup_s = repeated_setup(build, 1 if trace else SETUP_REPEATS)
            refs = references(outcome, campaign, grid, work_dir)
            setup_wall_s = now() - setup_start
        times, _ = rounds(campaign, grid, refs, window, outcome, None, corrupt)
        if trace:
            recorder = Recorder()
            with layers.tracing(recorder):
                traced, last = rounds(campaign, grid, refs, window, outcome,
                                      recorder, False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kinds = (("ledger_points_per_s", len(refs.ledger)),
             ("timeline_points_per_s", len(refs.timeline)),
             ("reprice_points_per_s", len(refs.ledger) + len(refs.perf)))
    # Points over the measured time, summed over all rounds.
    for index, (name, points) in enumerate(kinds):
        outcome.figure(name, points * len(times) / sum(t[index] for t in times),
                       "1/s")
    outcome.figure("failure_rate", outcome.failure_rate, "ratio")
    outcome.report["rounds"] = len(times)
    round_s = [sum(t) for t in times]
    outcome.figure("latency_p50_ms", percentile(round_s, 0.50) * 1e3, "ms")
    if not trace:
        outcome.metric("setup_s", import_s + setup_s, "s")
        outcome.metric("latency_p90_ms", percentile(round_s, 0.90) * 1e3, "ms")
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
        return outcome

    # p90, like the gated latency: it stays in the host's contended mode.
    untraced_round = percentile(round_s, 0.90)
    traced_round = percentile([sum(t) for t in traced], 0.90)
    counts = layers.miss_ratios([refs.profile])
    tiers = last[0].tiers + last[1].tiers
    counts.update({
        "campaign.ledger_points": tiers.count("LEDGER"),
        "campaign.timeline_points": tiers.count("TIMELINE"),
    })
    generation, note = layers.generation_seconds(setup)
    metrics, setup_rows, rows = layers.layer_metrics(
        setup, recorder, setup_wall_s=setup_wall_s, generation=generation,
        units=len(traced), wall_s=sum(map(sum, traced)),
        overhead_pct=(traced_round - untraced_round) / untraced_round * 100.0,
        counts=counts, figures=outcome.figures)
    outcome.metrics.update(metrics)
    outcome.report.update(layer_table=format_layer_table(setup_rows, rows),
                          traced_p90_round_s=traced_round,
                          untraced_p90_round_s=untraced_round,
                          notes=[note] if note else [])
    os.makedirs(OUT_DIR, exist_ok=True)
    setup.write(os.path.join(OUT_DIR, f"spans-design_sweep-setup-seed{seed}.json"))
    recorder.write(os.path.join(OUT_DIR, f"spans-design_sweep-seed{seed}.json"))
    return outcome
