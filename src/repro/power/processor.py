"""Full-processor power model and its R10000 validation.

Assembles the per-structure analytical models into SoftWatt's
post-processing interface: given the access counters of any interval
(a whole run, a sample window, one kernel-service invocation), return
an :class:`~repro.power.ledger.EnergyLedger` — per-component joules
rolled up into the reported categories: ``datapath`` (window, LSQ,
rename, ROB, register file, result bus, ALUs, predictors, TLB — the
units the paper clubs together in its graphs), ``l1i``, ``l1d``,
``l2i``, ``l2d``, ``clock``, ``memory``.

Which counters feed which unit, and the energy arithmetic itself, live
in the declarative :data:`~repro.power.registry.REGISTRY`; this class
owns the per-structure analytical models the registry derives its
energies from.  Building the model freezes them into a
:class:`~repro.power.registry.CoefficientTable` once, and every
interval is priced from that table.

Validation (Section 2): configured to estimate the maximum power of
the R10000, SoftWatt reports 25.3 W against the 30 W datasheet figure;
:func:`r10000_max_power` reproduces that number with this model.
"""

from __future__ import annotations

from repro.config.system import SystemConfig
from repro.config.technology import DEFAULT_TECHNOLOGY, Technology
from repro.power.array import ArrayEnergyModel, CAMEnergyModel
from repro.power.bitlines import CacheEnergyModel
from repro.power.clocktree import ClockNetworkModel
from repro.power.conditional import ClockedUnit
from repro.power.functional import FunctionalUnitEnergyModel
from repro.power.ledger import EnergyLedger
from repro.power.memory_power import MemoryEnergyModel
from repro.power.registry import REGISTRY, CoefficientTable
from repro.stats.counters import AccessCounters

PIPELINE_LATCH_BITS = 4 * 6 * 200
"""Front/back-end pipeline latches: ~200 bits per slot, 4-wide, 6 deep."""

CACHE_CLOCK_WEIGHT = 4
"""Clocked precharge/sense load per active cache column, in
latch-bit equivalents."""

PHYS_TAG_BITS = 8
ADDRESS_BITS = 32
WORD_BITS = 64


class ProcessorPowerModel:
    """Post-processing power model for one system configuration."""

    def __init__(
        self,
        config: SystemConfig,
        technology: Technology | None = None,
    ) -> None:
        self.config = config
        self.technology = technology if technology is not None else config.technology
        tech = self.technology
        core = config.core

        self.l1i = CacheEnergyModel(
            config.l1i, output_bits=core.fetch_width * 32, technology=tech
        )
        self.l1d = CacheEnergyModel(config.l1d, output_bits=WORD_BITS, technology=tech)
        self.l2 = CacheEnergyModel(
            config.l2, output_bits=config.l1d.line_bytes * 8, technology=tech
        )
        self.tlb = CAMEnergyModel(
            "tlb",
            entries=config.tlb.entries,
            tag_bits=20,
            data_bits=24,
            technology=tech,
        )
        registers = core.int_registers + core.fp_registers
        self.regfile = ArrayEnergyModel(
            "regfile", rows=registers, bits_per_row=WORD_BITS, technology=tech
        )
        self.window_array = ArrayEnergyModel(
            "window", rows=core.window_size, bits_per_row=96, technology=tech
        )
        self.wakeup_cam = CAMEnergyModel(
            "wakeup",
            entries=core.window_size,
            tag_bits=PHYS_TAG_BITS,
            technology=tech,
        )
        self.lsq = CAMEnergyModel(
            "lsq",
            entries=core.lsq_size,
            tag_bits=ADDRESS_BITS,
            data_bits=WORD_BITS,
            technology=tech,
        )
        self.rename = ArrayEnergyModel(
            "rename", rows=64, bits_per_row=PHYS_TAG_BITS, technology=tech
        )
        self.rob = ArrayEnergyModel(
            "rob", rows=core.window_size, bits_per_row=40, technology=tech
        )
        self.bht = ArrayEnergyModel(
            "bht", rows=core.bht_entries, bits_per_row=2, technology=tech
        )
        self.btb = ArrayEnergyModel(
            "btb", rows=core.btb_entries, bits_per_row=ADDRESS_BITS + 20, technology=tech
        )
        self.ras = ArrayEnergyModel(
            "ras", rows=core.ras_entries, bits_per_row=ADDRESS_BITS, technology=tech
        )
        self.fus = FunctionalUnitEnergyModel(technology=tech)
        self.memory = MemoryEnergyModel(technology=tech)

        self.clocked_units: tuple[ClockedUnit, ...] = (
            ClockedUnit("pipeline", PIPELINE_LATCH_BITS, "window_dispatch", core.decode_width),
            ClockedUnit("l1i", self.l1i.data_columns, "l1i_access", core.fetch_width),
            ClockedUnit("l1d", self.l1d.data_columns, "l1d_access", 2),
            ClockedUnit("window", self.window_array.latch_bits, "window_issue", core.issue_width),
            ClockedUnit("lsq", self.lsq.latch_bits, "lsq_access", 1),
            ClockedUnit("regfile", self.regfile.latch_bits, "regfile_read", 2 * core.issue_width),
            ClockedUnit("rob", self.rob.latch_bits, "rob_access", 2 * core.commit_width),
            ClockedUnit("fus", 2800, "ialu_access", core.int_alus),
        )
        cache_clock_bits = CACHE_CLOCK_WEIGHT * (
            self.l1i.data_columns
            + self.l1i.tag_columns
            + self.l1d.data_columns
            + self.l1d.tag_columns
            + self.l2.data_columns
            + self.l2.tag_columns
        )
        clocked_bits = (
            PIPELINE_LATCH_BITS
            + cache_clock_bits
            + sum(
                model.latch_bits
                for model in (
                    self.regfile,
                    self.window_array,
                    self.wakeup_cam,
                    self.lsq,
                    self.rename,
                    self.rob,
                )
            )
        )
        self.clock = ClockNetworkModel(clocked_bits, technology=tech)
        # Frozen eagerly, not on first use: one model prices from many
        # threads in the estimation service.
        self.coefficients = CoefficientTable(REGISTRY, self)

    # ------------------------------------------------------------------
    # Interval energy
    # ------------------------------------------------------------------

    def ledger(self, counters: AccessCounters, cycles: int) -> EnergyLedger:
        """Price an interval from the frozen coefficient table."""
        return self.coefficients.evaluate(counters, cycles)

    def price(self, source) -> EnergyLedger:
        """Price any counter source from the frozen coefficient table.

        ``source`` satisfies the
        :class:`~repro.stats.source.CounterSource` protocol — a
        simulation log, a single log record, a
        :class:`~repro.stats.source.CounterBundle`, or an ingested
        external run.  The pricing side neither knows nor cares who
        produced the counters; that seam is what lets ``repro ingest``
        price perf-style measurements with the same arithmetic as a
        simulated run.
        """
        return self.coefficients.evaluate_source(source)

    def energy_by_category(
        self, counters: AccessCounters, cycles: int
    ) -> dict[str, float]:
        """Energy in joules per reported category over an interval."""
        return self.ledger(counters, cycles).categories

    def total_energy_j(self, counters: AccessCounters, cycles: int) -> float:
        """Total CPU + memory-hierarchy energy over an interval."""
        return self.ledger(counters, cycles).total_j

    def average_power_w(
        self, counters: AccessCounters, cycles: int
    ) -> dict[str, float]:
        """Average power in watts per category over an interval."""
        seconds = cycles * self.technology.cycle_time_s
        return self.ledger(counters, cycles).category_power_w(seconds)

    # ------------------------------------------------------------------
    # Validation (Section 2)
    # ------------------------------------------------------------------

    def max_power_counters(self, cycles: int = 1_000_000) -> AccessCounters:
        """Counters with every port of every unit busy every cycle."""
        core = self.config.core
        return AccessCounters(
            l1i_access=core.fetch_width * cycles,
            l1d_access=2 * cycles,
            l2i_access=cycles,
            l2d_access=cycles,
            tlb_access=(core.fetch_width + 2) * cycles,
            regfile_read=2 * core.issue_width * cycles,
            regfile_write=core.commit_width * cycles,
            window_dispatch=core.decode_width * cycles,
            window_issue=core.issue_width * cycles,
            window_wakeup=core.issue_width * cycles,
            lsq_access=cycles,
            rename_access=core.decode_width * cycles,
            rob_access=2 * core.commit_width * cycles,
            bpred_access=core.fetch_width * cycles,
            btb_access=core.fetch_width * cycles,
            ras_access=cycles,
            ialu_access=core.int_alus * cycles,
            imul_access=cycles,
            falu_access=core.fp_alus * cycles,
            fmul_access=core.fp_alus * cycles,
            resultbus_access=core.issue_width * cycles,
            loads=cycles // 2,
            stores=cycles // 2,
        )

    def max_power_w(self) -> float:
        """Maximum CPU power: all ports busy, clock ungated.

        Main-memory power is excluded — the validation target is the
        processor's datasheet maximum.
        """
        cycles = 1_000_000
        counters = self.max_power_counters(cycles)
        ledger = self.ledger(counters, cycles)
        seconds = cycles * self.technology.cycle_time_s
        on_chip = sum(
            value for name, value in ledger.categories.items() if name != "memory"
        )
        return on_chip / seconds


def r10000_max_power(technology: Technology | None = None) -> float:
    """The Section 2 validation number (~25.3 W vs the 30 W datasheet)."""
    config = SystemConfig.table1()
    tech = technology if technology is not None else DEFAULT_TECHNOLOGY
    return ProcessorPowerModel(config, technology=tech).max_power_w()
