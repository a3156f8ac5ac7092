"""Tests for the measurement infrastructure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.kernel import ExecutionMode
from repro.power import ProcessorPowerModel
from repro.stats import (
    COUNTER_FIELDS,
    AccessCounters,
    CounterBundle,
    CounterSource,
    LogRecord,
    PowerTrace,
    SimulationLog,
    compute_power_trace,
    counters_row,
    rates_per_cycle,
    total_energy_j,
)


class TestAccessCounters:
    def test_starts_at_zero(self):
        counters = AccessCounters()
        assert counters.total_events() == 0

    def test_keyword_initialisation(self):
        counters = AccessCounters(l1i_access=5, loads=2)
        assert counters.l1i_access == 5
        assert counters.loads == 2

    def test_rejects_unknown_counter(self):
        with pytest.raises(AttributeError):
            AccessCounters(bogus=1)

    def test_rejects_negative_initial(self):
        with pytest.raises(ValueError):
            AccessCounters(l1i_access=-1)

    def test_add_accumulates(self):
        a = AccessCounters(l1i_access=3)
        b = AccessCounters(l1i_access=4, loads=1)
        a.add(b)
        assert a.l1i_access == 7
        assert a.loads == 1

    def test_copy_is_independent(self):
        a = AccessCounters(l1i_access=3)
        b = a.copy()
        b.l1i_access = 99
        assert a.l1i_access == 3

    def test_delta(self):
        earlier = AccessCounters(l1i_access=3)
        later = AccessCounters(l1i_access=10)
        diff = later.delta(earlier)
        assert diff.l1i_access == 7

    def test_delta_rejects_regression(self):
        with pytest.raises(ValueError):
            AccessCounters().delta(AccessCounters(l1i_access=1))

    def test_equality(self):
        assert AccessCounters(loads=1) == AccessCounters(loads=1)
        assert AccessCounters(loads=1) != AccessCounters(loads=2)

    def test_as_dict_covers_all_fields(self):
        assert set(AccessCounters().as_dict()) == set(COUNTER_FIELDS)

    def test_rates_per_cycle(self):
        counters = AccessCounters(l1i_access=200)
        rates = rates_per_cycle(counters, 100)
        assert rates["l1i_access"] == pytest.approx(2.0)

    def test_rates_reject_zero_cycles(self):
        with pytest.raises(ValueError):
            rates_per_cycle(AccessCounters(), 0)

    @given(st.dictionaries(st.sampled_from(COUNTER_FIELDS),
                           st.integers(0, 1 << 30), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_add_then_delta_roundtrip(self, values):
        base = AccessCounters(l1i_access=7)
        increment = AccessCounters(**values)
        combined = base.copy()
        combined.add(increment)
        assert combined.delta(base) == increment


class TestSimulationLog:
    def _record(self, start, end, cycles=1000.0):
        return LogRecord(start_s=start, end_s=end, cycles=cycles,
                         counters=AccessCounters(l1i_access=100),
                         mode_cycles={ExecutionMode.USER: cycles})

    def test_append_and_totals(self):
        log = SimulationLog(0.1)
        log.append(self._record(0.0, 0.1))
        log.append(self._record(0.1, 0.2))
        assert len(log) == 2
        assert log.duration_s == pytest.approx(0.2)
        assert log.total_cycles() == pytest.approx(2000.0)
        assert log.total_counters().l1i_access == 200

    def test_overlap_rejected(self):
        log = SimulationLog(0.1)
        log.append(self._record(0.0, 0.1))
        with pytest.raises(ValueError):
            log.append(self._record(0.05, 0.2))

    def test_mode_totals(self):
        log = SimulationLog(0.1)
        log.append(self._record(0.0, 0.1))
        totals = log.mode_cycle_totals()
        assert totals[ExecutionMode.USER] == pytest.approx(1000.0)
        assert totals[ExecutionMode.IDLE] == 0.0

    def test_dominant_mode(self):
        record = LogRecord(
            start_s=0, end_s=0.1, cycles=100,
            counters=AccessCounters(),
            mode_cycles={ExecutionMode.USER: 30, ExecutionMode.IDLE: 70})
        assert record.dominant_mode() is ExecutionMode.IDLE

    def test_record_validation(self):
        with pytest.raises(ValueError):
            LogRecord(start_s=1.0, end_s=0.5, cycles=10, counters=AccessCounters())
        with pytest.raises(ValueError):
            SimulationLog(0.0)


class TestPostProcess:
    def _log(self):
        log = SimulationLog(0.1)
        for i in range(5):
            log.append(LogRecord(
                start_s=i * 0.1, end_s=(i + 1) * 0.1,
                cycles=20_000_000 * 0.1,
                counters=AccessCounters(l1i_access=2_000_000,
                                        window_dispatch=1_000_000),
                mode_cycles={ExecutionMode.USER: 2_000_000.0}))
        return log

    def test_trace_shape(self):
        model = ProcessorPowerModel(SystemConfig.table1())
        trace = compute_power_trace(self._log(), model)
        assert len(trace.times_s) == 5
        assert set(trace.category_w) == set(
            ("datapath", "l1d", "l2d", "l1i", "l2i", "clock", "memory"))
        assert all(len(series) == 5 for series in trace.category_w.values())

    def test_uniform_log_gives_flat_trace(self):
        model = ProcessorPowerModel(SystemConfig.table1())
        trace = compute_power_trace(self._log(), model)
        totals = trace.total_w
        assert max(totals) == pytest.approx(min(totals), rel=0.01)

    def test_disk_series_integration(self):
        model = ProcessorPowerModel(SystemConfig.table1())
        disk_w = [3.2] * 5
        trace = compute_power_trace(self._log(), model, disk_power_w=disk_w)
        assert trace.total_with_disk_w[0] == pytest.approx(
            trace.total_w[0] + 3.2)
        assert trace.average_w("disk") == pytest.approx(3.2)

    def test_disk_series_length_checked(self):
        model = ProcessorPowerModel(SystemConfig.table1())
        with pytest.raises(ValueError):
            compute_power_trace(self._log(), model, disk_power_w=[1.0])

    def test_total_energy_positive(self):
        model = ProcessorPowerModel(SystemConfig.table1())
        assert total_energy_j(self._log(), model) > 0

    def test_trace_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace(times_s=[0.0], category_w={"l1i": [1.0, 2.0]},
                       disk_w=[0.0])


class TestCounterSource:
    """The CounterSource seam: logs, records, and bundles all price."""

    def _log(self):
        log = SimulationLog(0.1)
        log.append(LogRecord(
            start_s=0.0, end_s=0.1, cycles=1_000.0,
            counters=AccessCounters(l1i_access=500, loads=100)))
        log.append(LogRecord(
            start_s=0.1, end_s=0.2, cycles=2_000.0,
            counters=AccessCounters(l1i_access=700, stores=50)))
        return log

    def test_log_record_and_bundle_satisfy_protocol(self):
        log = self._log()
        bundle = log.counter_bundle()
        for source in (log, log.records[0], bundle):
            assert isinstance(source, CounterSource)

    def test_counter_bundle_condenses_log(self):
        log = self._log()
        bundle = log.counter_bundle()
        assert bundle.total_cycles() == log.total_cycles()
        assert bundle.total_counters() == log.total_counters()
        assert bundle.duration_s == log.duration_s
        assert bundle.provenance == "simulated"
        assert not bundle.ingested

    def test_ingested_provenance_flag(self):
        bundle = CounterBundle(
            counters=AccessCounters(), cycles=10.0,
            provenance="ingested:run.json")
        assert bundle.ingested

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            CounterBundle(counters=AccessCounters(), cycles=-1.0)

    def test_price_agrees_across_source_kinds(self):
        model = ProcessorPowerModel(SystemConfig.table1())
        log = self._log()
        whole = model.price(log)
        bundle = model.price(log.counter_bundle())
        assert whole.components == bundle.components
        per_record = sum(
            model.price(record).total_j for record in log.records
        )
        assert per_record == pytest.approx(whole.total_j, rel=0.05)

    def test_counters_row_matches_field_order(self):
        counters = AccessCounters(l1i_access=3, stores=7)
        row = counters_row(counters)
        assert len(row) == len(COUNTER_FIELDS)
        assert row[COUNTER_FIELDS.index("l1i_access")] == 3
        assert row[COUNTER_FIELDS.index("stores")] == 7
        assert dict(zip(COUNTER_FIELDS, row)) == counters.as_dict()
