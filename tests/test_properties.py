"""Broad hypothesis property tests across the library."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    CacheConfig,
    SystemConfig,
    Technology,
    disk_configuration,
)
from repro.core.campaign import PARAMETERS
from repro.disk import AdaptiveSpinDownDisk, PowerManagedDisk
from repro.isa import OpClass, copy_loop, spin_loop
from repro.power import (
    REGISTRY,
    ArrayEnergyModel,
    CacheEnergyModel,
    CAMEnergyModel,
    ProcessorPowerModel,
    gating_factor,
)
from repro.stats.counters import COUNTER_FIELDS, AccessCounters
from repro.stats.source import CounterBundle


class TestCacheEnergyProperties:
    @given(
        size_kb=st.sampled_from([4, 8, 16, 32, 64, 128, 512, 1024]),
        line=st.sampled_from([32, 64, 128]),
        assoc=st.sampled_from([1, 2, 4]),
        output_bits=st.sampled_from([32, 64, 128, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_energies_positive_and_bounded(self, size_kb, line, assoc,
                                           output_bits):
        config = CacheConfig(name="h", size_bytes=size_kb * 1024,
                             line_bytes=line, associativity=assoc,
                             latency_cycles=1)
        model = CacheEnergyModel(config, output_bits=output_bits)
        read = model.read_energy_j()
        write = model.write_energy_j()
        assert 0 < read < 1e-6   # sub-microjoule per access, always
        assert 0 < write < 1e-6
        breakdown = model.breakdown()
        assert breakdown.total_j == pytest.approx(read)

    @given(st.sampled_from([4, 8, 16, 32, 64, 128]))
    @settings(max_examples=20, deadline=None)
    def test_doubling_size_never_cheapens_access(self, size_kb):
        def energy(kb):
            config = CacheConfig(name="h", size_bytes=kb * 1024,
                                 line_bytes=64, associativity=2,
                                 latency_cycles=1)
            return CacheEnergyModel(config, output_bits=64).read_energy_j()

        assert energy(2 * size_kb) >= energy(size_kb)


class TestArrayProperties:
    @given(rows=st.integers(1, 4096), bits=st.integers(1, 256))
    @settings(max_examples=60, deadline=None)
    def test_array_energy_positive(self, rows, bits):
        model = ArrayEnergyModel("h", rows=rows, bits_per_row=bits)
        assert model.access_energy_j() > 0
        assert model.access_energy_j(write=True) > 0
        assert model.latch_bits == rows * bits

    @given(entries=st.integers(1, 512), tag=st.integers(1, 64),
           data=st.integers(0, 128))
    @settings(max_examples=60, deadline=None)
    def test_cam_energy_positive(self, entries, tag, data):
        model = CAMEnergyModel("h", entries=entries, tag_bits=tag,
                               data_bits=data)
        assert model.search_energy_j() > 0
        assert model.write_energy_j() > 0


class TestTechnologyProperties:
    @given(vdd=st.floats(0.5, 5.0), cap=st.floats(1e-15, 1e-9))
    @settings(max_examples=60, deadline=None)
    def test_switching_energy_quadratic_in_vdd(self, vdd, cap):
        tech = Technology(vdd=vdd)
        double = Technology(vdd=2 * vdd)
        assert double.switching_energy(cap) == pytest.approx(
            4 * tech.switching_energy(cap))


def _reference_terms(model, c, cycles):
    """Per component, the joule terms straight from the structure
    models, in the historical term order (written independently of the
    registry's frozen table)."""
    data_writes = min(c.stores, c.l1d_access)
    gate = gating_factor(c, cycles, model.clocked_units)
    return {
        "tlb": (c.tlb_access * model.tlb.search_energy_j(),
                c.tlb_miss * model.tlb.write_energy_j()),
        "regfile": (c.regfile_read * model.regfile.access_energy_j(),
                    c.regfile_write
                    * model.regfile.access_energy_j(write=True)),
        "window": (c.window_dispatch
                   * model.window_array.access_energy_j(write=True),
                   c.window_issue * model.window_array.access_energy_j(),
                   c.window_wakeup * model.wakeup_cam.search_energy_j()),
        "lsq": (c.lsq_access * model.lsq.search_energy_j(),),
        "rename": (c.rename_access
                   * (model.rename.access_energy_j()
                      + model.rename.access_energy_j(write=True))
                   / 2.0,),
        "rob": (c.rob_access * model.rob.access_energy_j(write=True) * 0.6,),
        "bht": (c.bpred_access * model.bht.access_energy_j(),),
        "btb": (c.btb_access * model.btb.access_energy_j(),),
        "ras": (c.ras_access * model.ras.access_energy_j(),),
        "fus": (c.ialu_access * model.fus.ialu_energy_j(),
                c.imul_access * model.fus.imul_energy_j(),
                c.falu_access * model.fus.falu_energy_j(),
                c.fmul_access * model.fus.fmul_energy_j(),
                c.resultbus_access * model.fus.result_bus_energy_j()),
        "l1d": ((c.l1d_access - data_writes) * model.l1d.read_energy_j(),
                data_writes * model.l1d.write_energy_j()),
        "l2d": (c.l2d_access * model.l2.access_energy_j(write_fraction=0.3),),
        "l1i": (c.l1i_access * model.l1i.read_energy_j(),),
        "l2i": (c.l2i_access * model.l2.read_energy_j(),),
        "clock": (cycles * model.clock.energy_per_cycle_j(gating_factor=gate),),
        "dram": (model.memory.energy_j(c.mem_access, cycles),),
    }


def _in_order_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


_COUNT = st.one_of(
    st.integers(0, 10**12),
    st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
)


class TestCoefficientTableProperties:
    """The frozen coefficient table prices bit-identically to the
    structure models it was frozen from, on random ledger-tier
    machines and random counters."""

    @given(
        vdd=st.floats(0.8, 5.0),
        calibration=st.floats(0.5, 5.0),
        feature_size_um=st.floats(0.1, 1.0),
        l1_kb=st.sampled_from([8, 16, 32, 64, 128]),
        l2_kb=st.sampled_from([256, 512, 1024, 2048, 4096]),
        counts=st.fixed_dictionaries(
            {name: _COUNT for name in COUNTER_FIELDS}),
        cycles=st.one_of(st.integers(1, 10**12), st.floats(0.0, 1e12)),
    )
    @settings(max_examples=60, deadline=None)
    def test_frozen_pricing_matches_structure_models(
            self, vdd, calibration, feature_size_um, l1_kb, l2_kb,
            counts, cycles):
        config = SystemConfig.table1()
        config = PARAMETERS["vdd"](config, vdd)
        config = PARAMETERS["calibration"](config, calibration)
        config = PARAMETERS["l1_size"](config, l1_kb * 1024)
        config = PARAMETERS["l2_size"](config, l2_kb * 1024)
        config = dataclasses.replace(config, technology=dataclasses.replace(
            config.technology, feature_size_um=feature_size_um))
        model = ProcessorPowerModel(config)
        counters = AccessCounters(**counts)
        ledger = model.price(CounterBundle(counters=counters, cycles=cycles))

        priced_cycles = max(1, int(cycles))
        reference = _reference_terms(model, counters, priced_cycles)
        components = ledger.components
        assert list(components) == list(reference)
        category_terms = {name: [] for name in REGISTRY.counter_categories}
        for name, terms in reference.items():
            # Bit for bit, not approximately.
            assert components[name] == _in_order_sum(terms), name
            assert components[name] >= 0.0, name
            category_terms[ledger.category_of(name)].extend(terms)
        categories = ledger.categories
        assert list(categories) == list(REGISTRY.counter_categories)
        for name, terms in category_terms.items():
            assert categories[name] == _in_order_sum(terms), name
        assert ledger.total_j == _in_order_sum(categories.values())


class TestDiskProperties:
    @given(
        threshold=st.floats(0.3, 20.0),
        gaps=st.lists(st.floats(0.05, 30.0), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_fixed_vs_adaptive_both_consistent(self, threshold, gaps):
        from repro.config import DiskPowerPolicy

        fixed = PowerManagedDisk(
            DiskPowerPolicy(name="h", spindown_threshold_s=threshold), seed=5)
        adaptive = AdaptiveSpinDownDisk(max(0.5, min(threshold, 60.0)), seed=5)
        for disk in (fixed, adaptive):
            t = 0.0
            for gap in gaps:
                result = disk.request(t, 8192)
                t = result.completion_s + gap
            disk.finish(t)
            # Energy equals the mode-time integral.
            from repro.config import MK3003MAN_POWER_W, DiskMode

            expected = sum(
                disk.energy.time_in_mode_s[mode] * MK3003MAN_POWER_W[mode]
                for mode in DiskMode)
            assert disk.energy.energy_j == pytest.approx(expected, rel=1e-9)
            # History is gapless.
            for (s0, e0, _), (s1, _e1, _m) in zip(disk.history,
                                                  disk.history[1:]):
                assert e0 == pytest.approx(s1, abs=1e-9)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_conventional_disk_energy_is_linear_in_time(self, extra_s):
        disk = PowerManagedDisk(disk_configuration(1), seed=2)
        disk.request(0.1, 4096)
        base = disk.energy.energy_j
        disk.finish(disk.clock_s + extra_s)
        assert disk.energy.energy_j == pytest.approx(base + extra_s * 3.2)


class TestStreamHelperProperties:
    @given(spins=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_spin_loop_shape_invariants(self, spins):
        instrs = list(spin_loop(0x8000_0000, 0x8000_4000, spins))
        branches = [i for i in instrs if i.op is OpClass.BRANCH]
        assert len(branches) == spins
        assert sum(1 for b in branches if not b.taken) == 1
        assert not branches[-1].taken
        # Static PCs form one fixed loop body.
        assert len({i.pc for i in instrs}) == len(instrs) // spins

    @given(nbytes=st.integers(1, 1 << 16))
    @settings(max_examples=30, deadline=None)
    def test_copy_loop_moves_every_byte(self, nbytes):
        instrs = list(copy_loop(0x8000_0000, 0x1000, 0x9000, nbytes, word=8))
        loads = [i for i in instrs if i.op is OpClass.LOAD]
        stores = [i for i in instrs if i.op is OpClass.STORE]
        assert len(loads) == len(stores) == (nbytes + 7) // 8
        assert len(loads) * 8 >= nbytes


class TestBatchedMipsyEquivalence:
    """The batched SoA engine (repro.cpu.batch) advances many runs in
    lockstep; every lane must be bit-identical to a fresh scalar
    Profiler run of the same (spec, config, window, seed)."""

    pytestmark = pytest.mark.skipif(
        "not __import__('repro.cpu.batch', fromlist=['x']).batched_execution()",
        reason="batched execution disabled (REPRO_PURE_PYTHON or no numpy)",
    )

    @staticmethod
    def _scalar(name, config, window, seed):
        import pickle

        from repro.core.profiles import Profiler
        from repro.workloads.specjvm98 import benchmark

        profile = Profiler(
            config=config, cpu_model="mipsy",
            window_instructions=window, seed=seed,
        ).profile_benchmark(benchmark(name))
        return pickle.dumps(profile)

    @staticmethod
    def _batched(tasks):
        import pickle

        from repro.cpu.batch import profile_benchmarks_batched

        return [pickle.dumps(p) for p in profile_benchmarks_batched(tasks)]

    @given(
        seed=st.integers(0, 2**16),
        window=st.sampled_from([1500, 2000, 3000]),
        names=st.lists(
            st.sampled_from(["jess", "db", "compress", "jack"]),
            min_size=1, max_size=3, unique=True,
        ),
    )
    @settings(max_examples=6, deadline=None)
    def test_bit_identical_across_seeds_and_windows(self, seed, window,
                                                    names):
        from repro.config.system import SystemConfig
        from repro.cpu.batch import BatchTask
        from repro.workloads.specjvm98 import benchmark

        config = SystemConfig.table1()
        tasks = [
            BatchTask(spec=benchmark(name), config=config,
                      window_instructions=window, seed=seed)
            for name in names
        ]
        for name, blob in zip(names, self._batched(tasks)):
            assert blob == self._scalar(name, config, window, seed), name

    @given(
        windows=st.lists(
            st.sampled_from([1200, 1800, 2600, 4000]),
            min_size=2, max_size=5,
        ),
    )
    @settings(max_examples=4, deadline=None)
    def test_ragged_batch_shapes(self, windows):
        """Lanes with different windows (and seeds) retire at different
        lockstep steps; masking must keep every lane exact."""
        from repro.config.system import SystemConfig
        from repro.cpu.batch import BatchTask
        from repro.workloads.specjvm98 import benchmark

        config = SystemConfig.table1()
        names = ["jess", "db", "javac", "mtrt", "jack"]
        tasks = [
            BatchTask(spec=benchmark(names[i % len(names)]), config=config,
                      window_instructions=window, seed=i)
            for i, window in enumerate(windows)
        ]
        for task, blob in zip(tasks, self._batched(tasks)):
            assert blob == self._scalar(
                task.spec.name, config, task.window_instructions, task.seed
            ), (task.spec.name, task.window_instructions, task.seed)

    def test_hardware_tlb_lane_uses_general_path(self):
        """A hardware-refill TLB lane forces the general step path (the
        fast path requires every TLB to be software-managed); both
        paths must stay exact, also when mixed in one batch."""
        import dataclasses

        from repro.config.system import SystemConfig
        from repro.cpu.batch import BatchTask
        from repro.workloads.specjvm98 import benchmark

        base = SystemConfig.table1()
        hw = dataclasses.replace(
            base, tlb=dataclasses.replace(base.tlb, software_managed=False)
        )
        tasks = [
            BatchTask(spec=benchmark("jess"), config=hw,
                      window_instructions=2000, seed=5),
            BatchTask(spec=benchmark("db"), config=base,
                      window_instructions=2000, seed=5),
        ]
        blobs = self._batched(tasks)
        assert blobs[0] == self._scalar("jess", hw, 2000, 5)
        assert blobs[1] == self._scalar("db", base, 2000, 5)


class TestBatchedExecutionGate:
    def test_pure_python_env_forces_scalar(self, monkeypatch):
        import repro.cpu.batch as batch

        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        assert not batch.batched_execution()
        with pytest.raises(RuntimeError):
            from repro.config.system import SystemConfig
            from repro.workloads.specjvm98 import benchmark

            batch.profile_benchmarks_batched([
                batch.BatchTask(spec=benchmark("jess"),
                                config=SystemConfig.table1())
            ])
        monkeypatch.setenv("REPRO_PURE_PYTHON", "0")
        assert batch.batched_execution() == (batch._np is not None)
