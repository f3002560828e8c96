"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The traced-run tests start ``run.py`` as a child process, as a user would,
on the ``kernels`` workload (it reaches every traced module) with a short
``--seconds``, so they take about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: str = ROOT, script: str = "perfbench/run.py"):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pair():
    args = ("--workload", "kernels", "--seed", "11", "--seconds", "1",
            "--trace", "1")
    return _result(_run(*args)), _result(_run(*args))


def test_traced_counts_repeat_exactly(traced_pair):
    first, second = traced_pair
    assert first["correct"] and second["correct"]
    counts = [name for name, unit, _, _ in tracing.LAYER_METRICS
              if unit == "count"]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    # The traced ladder reaches every module the per-layer table names.
    for name in ["dynamics.advance_stage.calls", "value_solver.solve_Vn.calls",
                 "simplex.master.calls", "simplex.game.calls",
                 "game_kernel.gamma_n.calls", "transport.wasserstein2.calls",
                 "measures.from_csv.calls", "cli.main.calls"]:
        assert first["metrics"][name]["value"] > 0, name


def test_traced_run_reports_every_layer_metric_and_overhead(traced_pair):
    metrics = traced_pair[0]["metrics"]
    for name, unit, _, _ in tracing.LAYER_METRICS:
        assert metrics[name]["unit"] == unit
    for name in ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_frac"]:
        assert math.isfinite(metrics[name]["value"])
    assert metrics["trace.wall_s"]["value"] > 0.0


def test_per_layer_list_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    traced = {(name, unit) for name, unit, _, _ in tracing.LAYER_METRICS}
    assert traced <= listed
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
    self_s, calls = tr.self_times()
    assert self_s["outer"] == 6.0
    assert self_s["inner"] == 3.0
    assert self_s["leaf"] == 1.0
    assert calls["inner"] == 2


def _tree(path: str) -> dict:
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, encoding="utf-8") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def test_inputs_depend_on_the_seed_only(tmp_path):
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        a, b, c = (str(tmp_path / f"{workload}-{k}") for k in "abc")
        workloads.build(workload, 5, a, reference)
        workloads.build(workload, 5, b, reference)
        workloads.build(workload, 6, c, reference)
        assert _tree(a) == _tree(b)
        assert _tree(a) != _tree(c)


@pytest.mark.parametrize("key", sorted(workloads.GAMES))
def test_poses_map_the_game_exactly(key):
    game = workloads.GAMES[key]
    base = game.posed(1.0, 0)
    for sign in (1.0, -1.0):
        for turns in range(4 if game.kind == "pursuit" else 1):
            for got, want in zip(game.posed(sign, turns), base):
                expect = sign * want
                for _ in range(turns):
                    expect = np.column_stack([-expect[:, 1], expect[:, 0]])
                assert np.array_equal(got, expect)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "kernels", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
