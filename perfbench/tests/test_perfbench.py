"""Small-size tests of the benchmark: workloads, seeded inputs, checks, tracing."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import workloads  # noqa: E402
from perfbench.tracing import NullTracer  # noqa: E402
from ptinertia import Inertia, exact, run_search  # noqa: E402

SMALL = {
    "hunt": lambda: workloads.Hunt(samples=64),
    "hunt_wide": lambda: workloads.HuntWide(samples=1024),
    "reproduce": lambda: workloads.Reproduce(family_ns=(4,),
                                             dense_ranks=(((3, 3), (2, 9)),)),
}
# never used while the benchmark was written or tuned
UNSEEN_SEED = 90210


def run_small(name, seed, workdir, tracer=None, workload=None):
    workload = workload or SMALL[name]()
    inputs = workload.build_inputs(seed, workdir)
    passes = workloads.run_passes(workload, inputs, 0.0, tracer or NullTracer())
    return workload, passes


@pytest.mark.parametrize("seed", [1, UNSEEN_SEED])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_runs_and_passes_its_checks(name, seed, tmp_path):
    _, passes = run_small(name, seed, tmp_path)
    assert len(passes) == 1
    assert passes[0].checks and all(passes[0].checks)
    assert passes[0].op_ms and passes[0].wall_s > 0


def _input_bytes(name, seed, workdir):
    inputs = SMALL[name]().build_inputs(seed, workdir)
    if name == "reproduce":
        files = [p for p, _ in inputs.family] + inputs.dense
        return ([(p.name, p.read_bytes()) for p in files],
                [want for _, want in inputs.family])
    cfgs = inputs if name == "hunt" else [inputs[0]]
    return [cfg.canonical() for cfg in cfgs]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _input_bytes(name, 5, tmp_path / "a")
    assert _input_bytes(name, 5, tmp_path / "b") == first
    assert _input_bytes(name, 6, tmp_path / "c") != first


def test_hunt_wide_payload_does_not_depend_on_workers(tmp_path):
    # more than one search span of 4 * CHUNK samples, so the pool is used
    workload = workloads.HuntWide(samples=5 * workloads.search.CHUNK)
    cfg, _ = workload.build_inputs(3, tmp_path)
    payloads = [run_search(dataclasses.replace(cfg, workers=w), workload.alarm_set).payload()
                for w in (1, 2)]
    assert payloads[0] == payloads[1]
    assert payloads[0]["alarms"]


def test_a_wrong_exact_answer_fails_the_check(tmp_path, monkeypatch):
    monkeypatch.setattr(exact, "exact_inertia", lambda mat: Inertia(0, 0, len(mat)))
    _, passes = run_small("reproduce", 1, tmp_path)
    assert passes[0].checks.count(False) == 21 + 2  # the n=4 family and both dense


def test_traced_pass_nests_library_calls_and_restores_them(tmp_path):
    original = workloads.catalog.verify
    tracer = workloads.new_tracer()
    workload = SMALL["reproduce"]()
    run_small("reproduce", 1, tmp_path, tracer, workload)
    assert workloads.catalog.verify is original
    by_id = {s.id: s for s in tracer.spans}
    # verify calls build_exact internally; the wrapper records it as a child
    assert any(by_id[s.parent].name == "catalog.verify"
               for s in tracer.spans if s.name == "catalog.build_exact")
    assert all(total >= 0 for total, _ in tracer.self_times().values())
    dumped = tmp_path / "spans.json"
    tracer.dump(dumped)
    assert len(json.loads(dumped.read_text())["spans"]) == len(tracer.spans)
    # the exact.max_dim ladder stops at the first dimension over budget
    over = [d for d, ms in workload.probe_ms.items() if ms > workload.probe_budget_ms]
    assert over == [max(workload.probe_ms)]
    assert 3 * 2 <= workload.layer_metrics()["exact.max_dim"] <= 3 * 12


@pytest.mark.parametrize("name, samples, chunks", [
    ("hunt", 3 * 64, 3),  # three configs of one chunk each
    ("hunt_wide", 5 * workloads.search.CHUNK, 5),  # two pool workers
])
def test_traced_search_sums_its_own_layer_calls(name, samples, chunks, tmp_path):
    workload = (workloads.HuntWide(samples=samples) if name == "hunt_wide"
                else SMALL[name]())
    tracer = workloads.new_tracer()
    run_small(name, 1, tmp_path, tracer, workload)
    sums = tracer.sums.totals()
    assert sums["states.random_state"][1] == sums["states.pt_array"][1] == samples
    assert sums["search.eigensolve"][1] == chunks
    assert all(t > 0 for t, _ in sums.values())
    assert workloads.search.random_state is workloads.states.random_state


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hunt",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_shuffled_pass_keeps_results_in_item_order():
    ran = []
    items = [(f"item {k}", lambda k=k: ran.append(k) or k % 3 != 0, ()) for k in range(20)]
    orders = []
    for pass_no in (1, 2, 1):
        ran.clear()
        result = workloads.PassResult()
        workloads.run_items(result, items, pass_no)
        assert result.checks == [k % 3 != 0 for k in range(20)]
        assert len(result.op_ms) == 20
        orders.append(list(ran))
    assert sorted(orders[0]) == list(range(20))
    assert orders[0] == orders[2] != orders[1]


def test_end_to_end_averages_over_the_run():
    from perfbench import run
    passes = [workloads.PassResult(wall_s=1.0, op_ms=[1.0, 10.0]),
              workloads.PassResult(wall_s=3.0, op_ms=[3.0, 30.0])]
    setups = [{"import_s": 0.1, "inputs_s": 0.2}]
    pooled = run.end_to_end(setups, passes, distinct_items=False)
    assert pooled["wall_s"] == 2.0
    assert pooled["throughput_per_s"] == 1.0  # 4 items in 4 s
    assert pooled["op_ms_p50"] == 6.5  # median of 1, 3, 10, 30
    per_item = run.end_to_end(setups, passes, distinct_items=True)
    assert per_item["op_ms_p50"] == 11.0  # median of the item means 2 and 20
    assert per_item["setup_s"] == pytest.approx(0.3)
