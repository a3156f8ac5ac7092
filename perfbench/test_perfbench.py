"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q

Reduced-size runs (one-second measurement windows) go through
``perfbench/run.py`` exactly as the full benchmark does, so these take
several minutes.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import wl_design_sweep, wl_serve_warm  # noqa: E402
from perfbench.harness import END_TO_END  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

WORKLOADS = ("serve_warm", "design_sweep")
REDUCED = ["--seconds", "1"]


@functools.lru_cache(maxsize=None)
def reduced_run(workload: str, seed: int, trace: int, corrupt: bool = False):
    """(exit code, last-line JSON, stdout) of a reduced-size run."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), *REDUCED]
    if corrupt:
        command.append("--corrupt")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=600, check=False)
    last = completed.stdout.strip().splitlines()[-1]
    return completed.returncode, json.loads(last), completed.stdout


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_reports_every_metric_with_its_unit(workload, trace):
    code, result, stdout = reduced_run(workload, 1, trace)
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else PER_LAYER
    reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert reported == dict(expected)
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float), name
        if trace == 0:
            assert entry["value"] > 0, name
        assert f"{name} " in stdout, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_a_failure(workload):
    code, result, stdout = reduced_run(workload, 1, 0, corrupt=True)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED:" in stdout


def test_seed_changes_the_inputs_but_not_the_metric_set():
    assert wl_serve_warm.request_mix(1, 50) != wl_serve_warm.request_mix(2, 50)
    assert wl_serve_warm.request_mix(1, 50) == wl_serve_warm.request_mix(1, 50)
    assert wl_design_sweep.grids(1) != wl_design_sweep.grids(2)
    first = reduced_run("design_sweep", 1, 0)[1]["metrics"]
    second = reduced_run("design_sweep", 2, 0)[1]["metrics"]
    assert set(first) == set(second)


def test_mix_covers_every_combination_evenly():
    mix = wl_serve_warm.request_mix(7, 2000)
    items = [item for _, batch in mix for item in batch]
    deck = len(wl_serve_warm.combinations())
    counts = {}
    for item in items[: deck * (len(items) // deck)]:
        key = tuple(sorted(item.items()))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == deck
    assert len(set(counts.values())) == 1
    batches = sum(kind == "batch" for kind, _ in mix)
    assert batches == len(mix) // 8


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
