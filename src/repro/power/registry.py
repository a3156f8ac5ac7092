"""The declarative :class:`PowerComponent` registry and its frozen
:class:`CoefficientTable`.

SoftWatt's architecture is "instrument the simulators to count
accesses, then turn counts into energy after the fact".  The second
half used to be a hand-written arithmetic block in
``ProcessorPowerModel.energy_by_category`` whose category list leaked
into every report layer.  This module replaces it with data: each
modelled unit is a :class:`PowerComponent` declaring

* the :class:`~repro.stats.counters.AccessCounters` fields it consumes,
* how they become joules: a joules-per-event energy per counter, or an
  explicit rule over constants, both derived from the power model, and
* the report category it rolls up to.

Pricing happens in two steps.  Building a :class:`CoefficientTable`
runs once per power model (``ProcessorPowerModel.__init__`` does it)
and works out every per-event energy and rule constant from the
structure models.  The table then prices any number of intervals with
multiplies and adds over those constants.  SoftWatt
simulates once and prices many intervals, so the analytical models run
once per machine instead of once per interval.

Report-category order is *derived* from component declaration order,
so adding a unit, a category, or a backend is a registry entry — not
an edit to five files.  Simulation-time components (the disk, whose
energy is integrated event-exactly during the run rather than
post-processed from counters) declare neither energies nor a rule and
are attached to ledgers by the timeline layer.

Numerical contract: a component yields a tuple of joule *terms*, and
category rollups accumulate those terms one by one in declaration
order — the exact floating-point evaluation order of the historical
hand-written expressions, pinned bit-for-bit by
``tests/test_golden_energy.py``.  A per-event term is ``value * k``;
every term of another shape (a read/write blend, a trailing scale
factor, the clock gate, DRAM refresh) is an explicit rule written in
the structure model's own operation order.

To add a component, declare it in :data:`POWER_COMPONENTS` (see
DESIGN.md §7 for a worked L3 example); every report surface picks it
up automatically.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.power.ledger import EnergyLedger
from repro.stats.counters import COUNTER_FIELDS, UnknownCounterError

if TYPE_CHECKING:
    from repro.power.processor import ProcessorPowerModel
    from repro.stats.counters import AccessCounters
    from repro.stats.source import CounterSource

#: Joules per counted event, derived from a power model when it is frozen.
PerEventEnergy = Callable[["ProcessorPowerModel"], float]

#: Named constants an explicit rule reads (numbers, strings and tuples
#: of them), derived from a power model when it is frozen.
Constants = dict[str, Any]

#: An explicit rule: ``(values, cycles, constants) -> terms``.
#: ``values`` maps the component's declared counters to the interval's
#: counts; the terms are joules summed in order into both the component
#: and its category (keeping the historical evaluation order bit-exact).
ExplicitRule = Callable[["_DeclaredValues", int, Constants], tuple[float, ...]]


class _DeclaredValues(dict):
    """An explicit rule's counter values: its declared counters only.

    Reading a counter the component did not declare raises a clear
    :class:`~repro.stats.counters.UnknownCounterError` instead of
    silently reading 0.  (A per-event term names its counter in the
    declaration itself, so it is checked when declared.)
    """

    __slots__ = ("component",)

    def __missing__(self, name: str):
        raise UnknownCounterError(
            f"power component {self.component!r} reads counter {name!r} "
            f"it does not declare; declared counters: "
            f"{', '.join(sorted(self))}"
        )


@dataclasses.dataclass(frozen=True)
class PowerComponent:
    """One modelled unit: counters in, joules out, one report category.

    A component takes exactly one of three forms:

    * *per-event*: ``per_event`` lists ``(counter, energy)`` pairs and
      each term is ``value * energy(model)``, in pair order;
    * *explicit*: ``rule`` computes the terms from the declared
      ``counters`` and the ``constants(model)`` frozen for it;
    * *simulation-time*: neither; the energy is integrated during the
      run (the disk).
    """

    name: str
    category: str
    counters: tuple[str, ...] = ()
    """The :data:`~repro.stats.counters.COUNTER_FIELDS` this component
    consumes (validated at declaration time).  A per-event component
    takes them from its ``per_event`` pairs."""
    per_event: tuple[tuple[str, PerEventEnergy], ...] = ()
    """``(counter, model -> joules per event)`` pairs."""
    constants: Callable[["ProcessorPowerModel"], Constants] | None = None
    """``model -> constants`` for ``rule``, evaluated once per model."""
    rule: ExplicitRule | None = None
    """``(values, cycles, constants) -> terms`` for a term that is not
    ``value * k``."""
    description: str = ""

    def __post_init__(self) -> None:
        if self.per_event:
            if self.rule is not None or self.constants is not None:
                raise ValueError(
                    f"power component {self.name!r} mixes per-event "
                    f"energies with an explicit rule"
                )
            if self.counters:
                raise ValueError(
                    f"per-event component {self.name!r} declares its "
                    f"counters through its (counter, energy) pairs"
                )
            names = tuple(counter for counter, _ in self.per_event)
            if len(set(names)) != len(names):
                raise ValueError(
                    f"per-event component {self.name!r} prices a counter "
                    f"twice: {names}"
                )
            object.__setattr__(self, "counters", names)
        elif self.rule is None and (self.counters or self.constants):
            raise ValueError(
                f"simulation-time component {self.name!r} cannot declare "
                f"counters or constants (its energy is not post-processed)"
            )
        unknown = [name for name in self.counters if name not in COUNTER_FIELDS]
        if unknown:
            raise UnknownCounterError(
                f"power component {self.name!r} declares unknown counters "
                f"{unknown}; valid counters: {', '.join(COUNTER_FIELDS)}"
            )

    @property
    def simulation_time(self) -> bool:
        """True when the component's energy is integrated during the
        run rather than evaluated from counters."""
        return not self.per_event and self.rule is None


class PowerRegistry:
    """An ordered collection of :class:`PowerComponent` declarations."""

    def __init__(self, components: tuple[PowerComponent, ...]) -> None:
        names = [component.name for component in components]
        if len(names) != len(set(names)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate power components: {duplicates}")
        self._components = tuple(components)
        self._by_name = {component.name: component for component in components}
        categories: list[str] = []
        counter_categories: list[str] = []
        for component in components:
            if component.category not in categories:
                categories.append(component.category)
            if not component.simulation_time and (
                component.category not in counter_categories
            ):
                counter_categories.append(component.category)
        self._categories = tuple(categories)
        self._counter_categories = tuple(counter_categories)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def components(self) -> tuple[PowerComponent, ...]:
        return self._components

    @property
    def categories(self) -> tuple[str, ...]:
        """All report categories, in declaration (legend) order."""
        return self._categories

    @property
    def counter_categories(self) -> tuple[str, ...]:
        """Categories produced by counter evaluation (no disk)."""
        return self._counter_categories

    def required_counters(self) -> tuple[str, ...]:
        """Counters some counter-driven component consumes, in
        :data:`~repro.stats.counters.COUNTER_FIELDS` order.

        This is the pricing layer's declared input contract: an
        external counter source (see :mod:`repro.ingest`) must supply
        exactly these counters or some component prices zeros.
        Counters outside this set (miss counts kept for reporting)
        are optional.
        """
        consumed = set()
        for component in self._components:
            consumed.update(component.counters)
        return tuple(name for name in COUNTER_FIELDS if name in consumed)

    def counter_requirements(self) -> dict[str, tuple[str, ...]]:
        """Per counter-driven component: the counters it prices.

        Simulation-time components (the disk) consume no counters and
        are omitted — they cannot be starved by a mapping file.
        """
        return {
            component.name: component.counters
            for component in self._components
            if not component.simulation_time
        }

    def schema(self) -> list[dict]:
        """The registry as plain data (for ``repro components --json``
        and mapping-file validation tooling): one dict per component
        with its name, category, counter inputs, and kind."""
        return [
            {
                "name": component.name,
                "category": component.category,
                "counters": list(component.counters),
                "simulation_time": component.simulation_time,
                "description": component.description,
            }
            for component in self._components
        ]

    def component(self, name: str) -> PowerComponent:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown power component {name!r}; registry has "
                f"{', '.join(self._by_name)}"
            ) from None

    def __iter__(self) -> Iterator[PowerComponent]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)


class CoefficientTable:
    """One power model frozen into per-component pricing constants.

    Construction works out every component's constants for ``model``
    once; ``ProcessorPowerModel.__init__`` builds its table eagerly, so
    threads pricing through one shared model have no first-use cache
    to race on.  Pricing an interval is one pass over the
    counter-driven components: a per-event term multiplies a counter by
    its frozen joules per event, an explicit rule reads its frozen
    constants.  No structure model is consulted after the build.
    """

    __slots__ = ("_entries", "_categories", "_component_category")

    def __init__(
        self, registry: PowerRegistry, model: "ProcessorPowerModel"
    ) -> None:
        entries = []
        for component in registry:
            if component.simulation_time:
                continue
            if component.rule is None:
                per_event = tuple(
                    (counter, energy(model))
                    for counter, energy in component.per_event
                )
                constants = None
            else:
                per_event = ()
                constants = (
                    component.constants(model) if component.constants else {}
                )
            entries.append((
                component.name, component.category, per_event,
                component.counters, component.rule, constants,
            ))
        self._entries = tuple(entries)
        self._categories = registry.counter_categories
        self._component_category = {
            entry[0]: entry[1] for entry in self._entries
        }

    def evaluate(self, counters: "AccessCounters", cycles: int) -> EnergyLedger:
        """Price every counter-driven component over an interval.

        Category values accumulate term by term in declaration order —
        bit-identical to the historical inline arithmetic.
        """
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        component_j: dict[str, float] = {}
        category_j = dict.fromkeys(self._categories, 0.0)
        for name, category, per_event, declared, rule, constants in self._entries:
            subtotal = 0.0
            rollup = category_j[category]
            if rule is None:
                for counter, k in per_event:
                    term = getattr(counters, counter) * k
                    subtotal += term
                    rollup += term
            else:
                values = _DeclaredValues(
                    zip(declared, [getattr(counters, c) for c in declared])
                )
                values.component = name
                for term in rule(values, cycles, constants):
                    subtotal += term
                    rollup += term
            category_j[category] = rollup
            component_j[name] = subtotal
        # Ledgers copy their category map before changing it, so every
        # ledger of this table can share the frozen one.
        return EnergyLedger._raw(component_j, category_j, self._component_category)

    def evaluate_source(self, source: "CounterSource") -> EnergyLedger:
        """Price every counter-driven component over a source.

        ``source`` is anything satisfying the
        :class:`~repro.stats.source.CounterSource` protocol — a
        :class:`~repro.stats.simlog.SimulationLog`, one of its records,
        a :class:`~repro.stats.source.CounterBundle`, or an
        :class:`~repro.ingest.pricing.IngestedRun` of externally
        measured counters.  The pricing arithmetic is identical
        regardless of who produced the counters.
        """
        cycles = max(1, int(source.total_cycles()))
        return self.evaluate(source.total_counters(), cycles)

    def as_dict(self) -> dict[str, dict]:
        """The frozen constants as plain data (``repro components
        --json``): per component, either ``per_event_j`` (counter ->
        joules per event) or the explicit rule's ``constants``."""
        return {
            name: (
                {"per_event_j": dict(per_event)}
                if rule is None
                else {"constants": dict(constants)}
            )
            for name, _, per_event, _, rule, constants in self._entries
        }


# ----------------------------------------------------------------------
# Explicit rules (operation order matches the structure models)
# ----------------------------------------------------------------------


def _rename_constants(model):
    return {
        "read_plus_write_j": (
            model.rename.access_energy_j()
            + model.rename.access_energy_j(write=True)
        ),
    }


def _rename_terms(values, cycles, k):
    # Renames are a balanced read/write mix of the map table:
    # (count * (read + write)) / 2, the historical operation order.
    return (values["rename_access"] * k["read_plus_write_j"] / 2.0,)


def _rob_constants(model):
    return {"write_j": model.rob.access_energy_j(write=True), "scale": 0.6}


def _rob_terms(values, cycles, k):
    # (count * write_j) * 0.6, not count * (write_j * 0.6).
    return (values["rob_access"] * k["write_j"] * k["scale"],)


def _l1d_constants(model):
    return {
        "read_j": model.l1d.read_energy_j(),
        "write_j": model.l1d.write_energy_j(),
    }


def _l1d_terms(values, cycles, k):
    # Reads and writes blended from the observed mix.
    data_writes = min(values["stores"], values["l1d_access"])
    return (
        (values["l1d_access"] - data_writes) * k["read_j"],
        data_writes * k["write_j"],
    )


def _clock_constants(model):
    units = tuple(
        (unit.counter, unit.latch_bits, unit.ports)
        for unit in model.clocked_units
    )
    if not units:
        raise ValueError("need at least one clocked unit")
    clock = model.clock
    return {
        "units": units,
        "total_bits": sum(latch_bits for _, latch_bits, _ in units),
        "spine_f": clock.wire_capacitance_f + clock.buffer_capacitance_f,
        "load_f": clock.load_capacitance_f,
        "vdd": clock.technology.vdd,
        "calibration": clock.technology.calibration,
    }


def _clock_terms(values, cycles, k):
    # Conditional clocking: repro.power.conditional.gating_factor over
    # the frozen (counter, latch_bits, ports) units, then
    # ClockNetworkModel.energy_per_cycle_j at that gate.
    weighted = []
    for counter, latch_bits, ports in k["units"]:
        activity = values[counter] / (cycles * ports)
        # min(1.0, activity), without the call.
        weighted.append(latch_bits * (activity if activity < 1.0 else 1.0))
    # Built-in sum over the same floats in the same order as
    # gating_factor (3.12's sum() compensates, so a += loop would not
    # match it there).
    gate = sum(weighted) / k["total_bits"]
    if not 0.0 <= gate <= 1.0:
        raise ValueError(f"gating factor must be in [0, 1]: {gate}")
    capacitance = k["spine_f"] + k["load_f"] * gate
    vdd = k["vdd"]
    per_cycle = 2.0 * (0.5 * capacitance * vdd * vdd * k["calibration"])
    return (cycles * per_cycle,)


def _dram_constants(model):
    memory = model.memory
    return {
        "access_j": memory.access_energy_j,
        "refresh_w": memory.refresh_power_w,
        "cycle_time_s": memory.technology.cycle_time_s,
    }


def _dram_terms(values, cycles, k):
    # MemoryEnergyModel.energy_j: accesses plus standing refresh.
    accesses = values["mem_access"]
    if accesses < 0:
        raise ValueError("accesses and cycles cannot be negative")
    return (
        accesses * k["access_j"] + k["refresh_w"] * cycles * k["cycle_time_s"],
    )


#: The machine, declared.  Order matters twice: components of one
#: category accumulate in this order (bit-exactness), and report
#: category order is first-appearance order (the paper's legend:
#: datapath, l1d, l2d, l1i, l2i, clock, memory, then the disk).
POWER_COMPONENTS: tuple[PowerComponent, ...] = (
    PowerComponent(
        "tlb", "datapath",
        per_event=(
            ("tlb_access", lambda m: m.tlb.search_energy_j()),
            ("tlb_miss", lambda m: m.tlb.write_energy_j()),
        ),
        description="unified TLB CAM: searches plus miss refills",
    ),
    PowerComponent(
        "regfile", "datapath",
        per_event=(
            ("regfile_read", lambda m: m.regfile.access_energy_j()),
            ("regfile_write", lambda m: m.regfile.access_energy_j(write=True)),
        ),
        description="integer + FP register file ports",
    ),
    PowerComponent(
        "window", "datapath",
        per_event=(
            ("window_dispatch",
             lambda m: m.window_array.access_energy_j(write=True)),
            ("window_issue", lambda m: m.window_array.access_energy_j()),
            ("window_wakeup", lambda m: m.wakeup_cam.search_energy_j()),
        ),
        description="issue window array and wakeup CAM",
    ),
    PowerComponent(
        "lsq", "datapath",
        per_event=(("lsq_access", lambda m: m.lsq.search_energy_j()),),
        description="load/store queue address CAM",
    ),
    PowerComponent(
        "rename", "datapath", ("rename_access",),
        constants=_rename_constants, rule=_rename_terms,
        description="register rename map table",
    ),
    PowerComponent(
        "rob", "datapath", ("rob_access",),
        constants=_rob_constants, rule=_rob_terms,
        description="reorder buffer",
    ),
    PowerComponent(
        "bht", "datapath",
        per_event=(("bpred_access", lambda m: m.bht.access_energy_j()),),
        description="branch history table",
    ),
    PowerComponent(
        "btb", "datapath",
        per_event=(("btb_access", lambda m: m.btb.access_energy_j()),),
        description="branch target buffer",
    ),
    PowerComponent(
        "ras", "datapath",
        per_event=(("ras_access", lambda m: m.ras.access_energy_j()),),
        description="return address stack",
    ),
    PowerComponent(
        "fus", "datapath",
        per_event=(
            ("ialu_access", lambda m: m.fus.ialu_energy_j()),
            ("imul_access", lambda m: m.fus.imul_energy_j()),
            ("falu_access", lambda m: m.fus.falu_energy_j()),
            ("fmul_access", lambda m: m.fus.fmul_energy_j()),
            ("resultbus_access", lambda m: m.fus.result_bus_energy_j()),
        ),
        description="functional units and the result bus",
    ),
    PowerComponent(
        "l1d", "l1d", ("l1d_access", "stores"),
        constants=_l1d_constants, rule=_l1d_terms,
        description="L1 data cache (read/write mix from the store count)",
    ),
    PowerComponent(
        "l2d", "l2d",
        per_event=((
            "l2d_access",
            lambda m: m.l2.access_energy_j(write_fraction=0.3),
        ),),
        description="L2 data-side references",
    ),
    PowerComponent(
        "l1i", "l1i",
        per_event=(("l1i_access", lambda m: m.l1i.read_energy_j()),),
        description="L1 instruction cache",
    ),
    PowerComponent(
        "l2i", "l2i",
        per_event=(("l2i_access", lambda m: m.l2.read_energy_j()),),
        description="L2 instruction-side references",
    ),
    PowerComponent(
        "clock", "clock",
        ("window_dispatch", "l1i_access", "l1d_access", "window_issue",
         "lsq_access", "regfile_read", "rob_access", "ialu_access"),
        constants=_clock_constants, rule=_clock_terms,
        description="clock tree under the Section 2 conditional-clocking model",
    ),
    PowerComponent(
        "dram", "memory", ("mem_access",),
        constants=_dram_constants, rule=_dram_terms,
        description="main memory: accesses plus standing refresh",
    ),
    PowerComponent(
        "disk", "disk",
        description="power-managed disk, integrated event-exactly during the run",
    ),
)

#: The process-wide registry every pipeline layer evaluates against.
REGISTRY = PowerRegistry(POWER_COMPONENTS)

#: Report categories in legend order, disk included — the single
#: definition site; every layer derives its order from the registry.
CATEGORIES: tuple[str, ...] = REGISTRY.categories
