"""Self-tests of the benchmark on tiny runs:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import layers  # noqa: E402
import ops  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

POOL = refs.load_pool()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metrics_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [run.END_TO_END[m["name"]] for m in BENCHMARK["end_to_end"]] == [
        m["unit"] for m in BENCHMARK["end_to_end"]
    ]
    per_layer = layers.per_layer([])
    assert list(per_layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [layers.unit_of(m) for m in per_layer] == [m["unit"] for m in BENCHMARK["per_layer"]]


@pytest.mark.parametrize("workload", ["constants", "values"])
def test_seed_fixes_the_ops(workload):
    pool = POOL[workload]
    first = workloads.stream(workload, 1, pool)
    assert first == workloads.stream(workload, 1, pool)
    assert first[:100] != workloads.stream(workload, 2, pool)[:100]


@pytest.mark.parametrize("workload", ["constants", "values"])
def test_every_block_has_the_same_mix(workload):
    block = workloads.BLOCKS[workload]
    size = sum(block.values())
    ops_ = workloads.stream(workload, 7, POOL[workload])
    for start in range(0, 5 * size, size):
        counts = {}
        for op in ops_[start:start + size]:
            counts[op["cls"]] = counts.get(op["cls"], 0) + 1
        assert counts == block


def test_a_deal_runs_the_whole_pool():
    for workload, block in workloads.BLOCKS.items():
        dealt = workloads.stream(workload, 3, POOL[workload])[: workloads.deal_ops(workload)]
        for cls in block:
            argvs = sorted(op["argv"] for op in dealt if op["cls"] == cls)
            if cls != "refused":
                assert argvs == sorted(op["argv"] for op in POOL[workload][cls])


def _cheap_op():
    return next(op for op in POOL["constants"]["d1-12"] if op["source"] == "closed_form")


def test_correct_output_passes_and_planted_faults_fail():
    op = _cheap_op()
    data = ops.run_in_child(ops.cli_op, op["argv"]).data
    assert refs.check(op, data) is None
    wrong_value = dict(op, ref={"value": refs.encode_number(refs.ref_number(op["ref"]["value"]) + 1e-6)})
    assert refs.check(wrong_value, data) is not None
    wrong_code = dict(op, code=4)
    assert refs.check(wrong_code, data) is not None
    assert refs.check(op, {"traceback": "Traceback ...\nValueError: x"}) is not None


def test_refused_op_needs_its_exit_code():
    op = POOL["values"]["refused"][0]
    data = ops.run_in_child(ops.cli_op, op["argv"]).data
    assert refs.check(op, data) is None
    assert refs.check(dict(op, code=op["code"] ^ 6), data) is not None


def test_percentiles_have_ten_samples_beyond():
    assert all(run.samples_beyond_p90(workloads.deal_ops(w)) >= 10 for w in workloads.BLOCKS)
    stream = POOL["constants"]["d1-12"] * 5
    done, _ = run.run_requests(stream, seconds=0, traced=False, min_ops=100)
    assert len(done) == 100
    assert run.samples_beyond_p90(len(done)) >= 10
    lat = [plain.latency_s for _, plain, _, _ in done]
    assert sum(1 for x in lat if x > run.p90(lat)) <= run.samples_beyond_p90(len(done))


def test_traced_self_times_add_up_to_the_op_time():
    op = POOL["constants"]["d2-12"][0]
    res = ops.run_in_child(ops.cli_op, op["argv"], spans.Tracer())
    summary = res.data["trace"]
    self_total = sum(row["self_s"] for row in summary["names"].values())
    assert self_total == pytest.approx(summary["root_s"], rel=1e-9)
    assert summary["root_s"] <= res.work_s <= res.latency_s
    # what the spans leave out is the fork and installing the wrappers
    assert res.work_s - summary["root_s"] < 0.05 + 0.1 * res.work_s
    assert summary["names"]["cli.main"]["calls"] == 1


def test_refuses_to_run_with_mzeta_max_n(monkeypatch, capsys):
    monkeypatch.setenv("MZETA_MAX_N", "4096")
    assert run.main(["--workload", "values", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "values", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
