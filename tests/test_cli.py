"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.config.system import SystemConfig
from repro.power.processor import ProcessorPowerModel
from repro.power.registry import REGISTRY

WINDOW_ARGS = ["--window", "8000", "--seed", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "jess"])
        assert args.benchmark == "jess"
        assert args.disk == 1
        assert args.cpu == "mxs"
        assert args.idle_policy == "busywait"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mpegaudio"])

    def test_disk_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "jess", "--disk", "7"])

    @pytest.mark.parametrize("argv", [
        ["serve", "--max-batch", "0"],
        ["serve", "--batch-window-ms", "-5"],
        ["serve", "--queue-depth", "0"],
        ["run", "jess", "--window", "-5"],
    ])
    def test_invalid_numeric_flag_exits_2_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert argv[-2] in err
        assert "Traceback" not in err

    def test_thresholds_repeatable(self):
        args = build_parser().parse_args(
            ["disk-study", "compress", "--threshold", "1.5",
             "--threshold", "3.0"])
        assert args.threshold == [1.5, 3.0]


class TestCommands:
    def test_validate(self, capsys):
        assert main(["validate", *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "25.3" in out

    def test_run_prints_report(self, capsys):
        assert main(["run", "jess", "--disk", "2", *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "mode breakdown" in out
        assert "utlb" in out
        assert "power budget" in out
        assert "idle-only" in out

    def test_run_halt_policy(self, capsys):
        assert main(["run", "jess", "--disk", "2", "--idle-policy", "halt",
                     *WINDOW_ARGS]) == 0
        assert "jess" in capsys.readouterr().out

    def test_run_exports(self, tmp_path, capsys):
        log_path = tmp_path / "log.csv"
        trace_path = tmp_path / "trace.csv"
        assert main(["run", "db", "--export-log", str(log_path),
                     "--export-trace", str(trace_path), *WINDOW_ARGS]) == 0
        assert log_path.exists()
        assert trace_path.exists()
        assert log_path.read_text().startswith("start_s,")

    def test_services(self, capsys):
        assert main(["services", "--invocations", "10", *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "utlb" in out
        assert "demand_zero" in out

    def test_disk_study_with_custom_threshold(self, capsys):
        assert main(["disk-study", "db", "--threshold", "1.0",
                     *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "spindown-2s" in out
        assert "custom-1s" in out

    def test_checkpoint_workflow(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        assert main(["checkpoint", "db", "--out", str(path),
                     "--window", "8000", "--seed", "1"]) == 0
        assert path.exists()
        # Re-use it from `run`.
        assert main(["run", "db", "--checkpoint", str(path),
                     *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "profiles loaded" in out

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        assert main(["report", "db", "--disk", "2", "--out", str(path),
                     *WINDOW_ARGS]) == 0
        text = path.read_text()
        assert "Mode breakdown (Table 2)" in text
        assert "Power budget" in text

    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity", "tlb_entries", "32", "128",
                     "--benchmark", "db", "--window", "8000"]) == 0
        out = capsys.readouterr().out
        assert "sweep of tlb_entries" in out
        assert "best EDP" in out

    def test_checkpoint_created_when_missing(self, tmp_path, capsys):
        path = tmp_path / "fresh.json"
        assert main(["run", "db", "--checkpoint", str(path),
                     *WINDOW_ARGS]) == 0
        out = capsys.readouterr().out
        assert "will create it" in out
        assert path.exists()

    def test_components_json_pins_table1_coefficients(self, capsys):
        assert main(["components", "--json"]) == 0
        coefficients = json.loads(capsys.readouterr().out)["coefficients"]
        model = ProcessorPowerModel(SystemConfig.table1())
        counter_driven = [c.name for c in REGISTRY if not c.simulation_time]
        assert list(coefficients) == counter_driven
        # Per-event components: counter -> joules per event, exactly the
        # structure model's figure (JSON floats round-trip exactly).
        assert coefficients["tlb"]["per_event_j"] == {
            "tlb_access": model.tlb.search_energy_j(),
            "tlb_miss": model.tlb.write_energy_j(),
        }
        assert coefficients["l2d"]["per_event_j"] == {
            "l2d_access": model.l2.access_energy_j(write_fraction=0.3),
        }
        assert coefficients["fus"]["per_event_j"]["resultbus_access"] == (
            model.fus.result_bus_energy_j())
        for name in counter_driven:
            entry = coefficients[name]
            if "per_event_j" in entry:
                assert list(entry["per_event_j"]) == list(
                    REGISTRY.component(name).counters)
        # Explicit terms: their frozen constants.
        assert coefficients["l1d"]["constants"] == {
            "read_j": model.l1d.read_energy_j(),
            "write_j": model.l1d.write_energy_j(),
        }
        assert coefficients["rob"]["constants"] == {
            "write_j": model.rob.access_energy_j(write=True), "scale": 0.6,
        }
        clock = coefficients["clock"]["constants"]
        assert clock["units"] == [
            [unit.counter, unit.latch_bits, unit.ports]
            for unit in model.clocked_units
        ]
        assert clock["total_bits"] == sum(
            unit.latch_bits for unit in model.clocked_units)
        assert clock["load_f"] == model.clock.load_capacitance_f
        assert coefficients["dram"]["constants"] == {
            "access_j": model.memory.access_energy_j,
            "refresh_w": model.memory.refresh_power_w,
            "cycle_time_s": model.technology.cycle_time_s,
        }
