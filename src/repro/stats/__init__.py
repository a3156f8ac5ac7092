"""Measurement infrastructure: counters, logs, post-processing.

``counters`` and ``source`` are leaf modules imported eagerly;
``simlog`` and ``postprocess`` depend on the kernel and power packages,
so their names are loaded lazily (PEP 562) to keep the import graph
acyclic — low-level modules import ``repro.stats.counters`` without
dragging the whole stack in.
"""

from repro.stats.counters import (
    COUNTER_FIELDS,
    COUNTER_INDEX,
    AccessCounters,
    counters_row,
    rates_per_cycle,
)
from repro.stats.source import CounterBundle, CounterSource

__all__ = [
    "COUNTER_FIELDS",
    "COUNTER_INDEX",
    "AccessCounters",
    "counters_row",
    "rates_per_cycle",
    "CounterBundle",
    "CounterSource",
    "LogRecord",
    "SimulationLog",
    "PowerTrace",
    "compute_power_trace",
    "total_energy_j",
]

_LAZY = {
    "LogRecord": "repro.stats.simlog",
    "SimulationLog": "repro.stats.simlog",
    "PowerTrace": "repro.stats.postprocess",
    "compute_power_trace": "repro.stats.postprocess",
    "total_energy_j": "repro.stats.postprocess",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Deliberately lazy: module-level re-export without eager imports.
    import importlib  # noqa: PLC0415

    module = importlib.import_module(module_name)
    return getattr(module, name)
