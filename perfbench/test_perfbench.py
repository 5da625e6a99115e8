"""Tests of the benchmark harness itself, on reduced inputs."""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.tracing import LAYERS, SpanRecorder, layer_of, load_spans

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Verdicts each reduced workload reaches.
SMALL_VERDICTS = {"wide-4x3": 1, "verdict-battery": 70, "lock-refinement": 7}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", ["1", "2"])
def test_small_workload_reaches_known_answers(workload, seed):
    steps = workloads.build(workload, seed, small=True)
    outcome = workloads.execute(steps)
    assert outcome.failures == []
    assert outcome.wrong == 0
    assert outcome.attempted == SMALL_VERDICTS[workload]


def test_seed_changes_inputs_not_answers():
    from repro.engine.core import ExplorationEngine

    plain = ExplorationEngine().explore(workloads.wide_program(3, 2))
    counts = set()
    programs = set()
    for seed in range(4):
        rng = random.Random(seed)
        program = workloads.wide_program(3, 2, rng)
        programs.add(tuple(program.threads))
        counts.add(ExplorationEngine().explore(program).state_count)
    assert len(programs) > 1
    assert counts == {plain.state_count}
    assert plain.state_count == workloads.ANSWERS["wide-4x3"]["small"]["states"]


def test_dpor_family_reaches_committed_counts():
    """Every member of the composed family, as :func:`workloads.compose`
    builds it, stores the counts committed in ``BENCH_dpor.json``."""
    from repro.engine.core import ExplorationEngine
    from repro.litmus.catalog import LITMUS_TESTS

    committed = json.loads(
        (ROOT / "benchmarks" / "BENCH_dpor.json").read_text()
    )["family"]
    family = workloads.ANSWERS["verdict-battery"]["dpor_family"]
    assert set(family) == set(committed)
    by_name = {t.name: t for t in LITMUS_TESTS}
    engine = ExplorationEngine()
    for member, pinned in family.items():
        program = workloads.compose(*(by_name[n].build() for n in pinned["compose"]))
        for policy in ("closure", "dpor"):
            assert pinned[policy] == committed[member][policy], (member, policy)
            result = engine.explore(program, reduction=policy)
            assert result.state_count == pinned[policy], (member, policy)


def test_reference_kernel_is_fixed():
    from perfbench.reference import host_time, kernel

    assert kernel() == 8380
    assert host_time(1) > 0


def test_wrong_answer_and_crash_count_as_wrong():
    steps = [
        workloads.Step("ok", 2, lambda: [True, True]),
        workloads.Step("wrong", 2, lambda: [True, False]),
        workloads.Step("crash", 3, lambda: 1 / 0),
    ]
    outcome = workloads.execute(steps)
    assert (outcome.attempted, outcome.wrong) == (7, 4)
    assert len(outcome.failures) == 2


def test_spans_nest_and_self_times_sum_to_traced_wall(tmp_path):
    import repro.semantics.reduce as reduce_mod
    import repro.semantics.step as step_mod

    successors = step_mod.successors
    registry = dict(reduce_mod._REGISTRY)
    steps = workloads.build("verdict-battery", "3", small=True)
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert step_mod.successors is not successors
        root = recorder.open("harness:test")
        outcome = workloads.execute(steps)
        recorder.close(root)
    finally:
        recorder.uninstall()
    assert outcome.wrong == 0
    assert step_mod.successors is successors
    assert reduce_mod._REGISTRY == registry

    own = recorder.self_times_ns()
    assert min(own) >= 0
    wall = recorder.end[root] - recorder.start[root]
    assert sum(own) == wall
    assert sum(recorder.layer_self_ns().values()) == wall
    layers = {layer_of(n) for n in recorder.names}
    assert {"semantics.canon", "semantics.step", "memory.transitions",
            "engine.core", "analysis", "logic.owicki"} <= layers

    path = tmp_path / "battery.spans"
    recorder.write(path)
    spans = load_spans(path)
    assert len(spans) == len(recorder)
    assert spans[root][0] == "harness:test"
    assert all(s <= e for _n, _p, s, e in spans)


def test_metric_names_match_benchmark_spec():
    spec = _benchmark_spec()
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert per_layer == list(run.PER_LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(
        run.PER_LAYER_UNITS.values()
    )
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    for layer, _module, _functions in LAYERS:
        assert f"{layer}.self_s" in run.PER_LAYER_UNITS


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_contract_result(trace):
    proc = _run(
        ["--workload", "wide-4x3", "--seed", "5", "--seconds", "0",
         "--trace", trace, "--small"],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _benchmark_spec()
    key = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # trace.kernel_share counts engine.core self time as kernel time,
        # so it would not drop if these layers stopped being wrapped.
        metrics = result["metrics"]
        for layer in ("semantics.step", "semantics.canon", "memory.transitions"):
            assert metrics[f"{layer}.calls"]["value"] > 0, layer
            assert metrics[f"{layer}.self_s"]["value"] > 0, layer


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        ["--workload", "wide-4x3", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
