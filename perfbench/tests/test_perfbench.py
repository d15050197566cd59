"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_SUFFIXES = (".calls", ".entries", ".steps", ".successors", ".points",
                  ".distinct_points", ".errors")


def _bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    out = _result(_bench(workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_counts_repeat_exactly():
    first = _result(_bench("stability", 1))["metrics"]
    second = _result(_bench("stability", 1))["metrics"]
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["diagrams.act.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("decompose", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_inputs_repeat_per_seed():
    def take(seed):
        ops = itertools.islice(workloads.make_ops("decompose", seed, tiny=True), 5)
        return [op.expected for op in ops]
    assert take(4) == take(4)
    assert take(4) != take(5)


def test_scrambled_module_decomposes_to_its_diagram():
    import zzdist
    rng = workloads.random.Random(0)
    points = [(1, 3), (2, 5), (2, 5), (4, 4)]
    obj = workloads.scrambled_module(rng, 5, "><<>", points)
    V = zzdist.parse_module_data(obj)
    assert zzdist.decompose(V).counts() == ((1, 3, 1), (2, 5, 2), (4, 4, 1))


def _run(ops, tmp_path):
    import zzdist
    return worker.run_ops(zzdist, ops, tmp_path)


def test_corrupted_expected_decomposition_counts_as_failure(tmp_path):
    good, bad = itertools.islice(workloads.make_ops("decompose", 1, tiny=True), 2)
    bad.expected["diagram"].append([1, 1, 1])
    res = _run([good, bad], tmp_path)
    assert (res.attempted, res.failed, res.wrong, res.raised) == (2, 1, 1, 0)
    assert res.ok == [True, False]
    # the failed op ranks above the successful one
    assert worker.latency_quantile(res, 1.0) >= res.latencies[0]


def test_corrupted_expected_distance_counts_as_failure(tmp_path):
    ops = list(workloads.make_ops("bottleneck-1100", 1, tiny=True))
    assert _run(ops, tmp_path).failed == 0
    ops = list(workloads.make_ops("bottleneck-1100", 1, tiny=True))
    ops[0].pair.exact["1"] += 1
    res = _run(ops, tmp_path)
    assert (res.attempted, res.failed, res.wrong) == (2, 1, 1)


def test_raising_op_counts_as_failure(tmp_path):
    ops = list(itertools.islice(workloads.make_ops("bottleneck", 1, tiny=True), 2))
    ops[0].p = "not-a-number"  # the CLI exits with code 2
    res = _run(ops, tmp_path)
    assert (res.attempted, res.raised, res.errors) == (2, 1, {"OpFailed": 1})
