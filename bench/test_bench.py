"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench

They check that the tracer restores what it wraps, that a wrong answer
or a runaway operation is counted as failed, that counters repeat, and
that the metric names printed match BENCHMARK.json.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import stratifold  # noqa: E402
import stratifold.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LENS5 = "white w genus 0\nblack b\nedge e w b 5\n"


def _bindings():
    """Every name bound in a stratifold module, with the object's id."""
    out = {}
    for name, module in sys.modules.items():
        if name == "stratifold" or name.startswith("stratifold."):
            for attr, value in vars(module).items():
                out[(name, attr)] = id(value)
    out[("OrderOracle", "order")] = id(stratifold.OrderOracle.__dict__["order"])
    return out


def test_wrappers_rebind_every_name_and_restore_originals():
    before = _bindings()
    original = stratifold.presentation.simplify
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = stratifold.presentation.simplify
        assert wrapped is not original
        for module in (stratifold, stratifold.algebra, stratifold.cli):
            assert module.simplify is wrapped
        assert stratifold.OrderOracle.__dict__["order"].__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert stratifold.simplify is original


def test_spans_nest_and_self_time_adds_up():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 7
        workloads.cli_call(["order"], LENS5)
    finally:
        tracer.op = None
        tracer.uninstall()
    times = tracer.layer_times()
    assert times["cli"]["calls"] == 1
    assert times["analysis.census"]["calls"] == 1
    assert times["algebra.order"]["calls"] == 1
    assert times["algebra.power_bound"]["calls"] == 1
    assert times["algebra.snf"]["calls"] >= 1
    assert set(tracer.ops) == {7}
    root = times["cli"]["busy_s"]
    total_self = sum(row["self_s"] for row in times.values())
    assert total_self == pytest.approx(root, rel=1e-6)
    assert tracer.counters["algebra.order.cert.power_bound"] == 1


def test_untraced_calls_record_nothing():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.cli_call(["h1"], LENS5)
    finally:
        tracer.uninstall()
    assert tracer.names == []


def _spine_workload():
    ops = workloads._spine_ops("s", ["L(3)", "L(2)", "S2xS1", "P2xS1"])
    return workloads.Workload("spine_sums", 0, ops)


def test_correct_answers_pass_the_checks():
    result = run.Runner(_spine_workload()).run_pass(check=True)
    assert result["failed"] == 0


def test_wrong_answer_counts_as_failed(monkeypatch):
    real = stratifold.cli.abelianization

    def wrong(pres):
        ab = real(pres)
        return stratifold.AbelianInvariants(ab.free_rank + 1, ab.torsion)
    monkeypatch.setattr(stratifold.cli, "abelianization", wrong)
    runner = run.Runner(_spine_workload())
    result = runner.run_pass(check=True)
    assert result["failed"] == 1
    assert "H1" in runner.failures[0]


def test_wrong_isomorphism_answer_counts_as_failed(monkeypatch):
    workload = workloads.iso_pairs(3)
    workload.ops = [op for op in workload.ops][:20]
    monkeypatch.setattr(stratifold.graph, "are_isomorphic", lambda g1, g2: True)
    result = run.Runner(workload).run_pass(check=True)
    assert result["failed"] >= 1


def test_changed_answer_after_check_pass_counts_as_failed(monkeypatch):
    runner = run.Runner(_spine_workload())
    assert runner.run_pass(check=True)["failed"] == 0
    real = stratifold.cli.euler_characteristic
    monkeypatch.setattr(stratifold.cli, "euler_characteristic",
                        lambda g: real(g) + 2)
    assert runner.run_pass(check=False)["failed"] == 1


def test_runaway_operation_is_stopped_and_failed(monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.2)

    def slow(ctx):
        time.sleep(5)
        return 0.0, None
    workload = workloads.Workload("x", 0, [workloads.Op("sleep", slow, lambda r, c: None)])
    start = time.perf_counter()
    result = run.Runner(workload).run_pass(check=True)
    assert time.perf_counter() - start < 2
    assert result["failed"] == 1


def test_counters_repeat_exactly():
    def counters():
        workload = workloads.random_census(11)
        workload.ops = workload.ops[:40]
        runner = run.Runner(workload, tracing.Tracer())
        runner.run_pass(check=True)
        passes = [runner.traced_pass(), runner.traced_pass()]
        assert passes[0]["failed"] == 0
        assert passes[0]["counters"] == passes[1]["counters"]
        assert passes[0]["indeterminate"] == passes[1]["indeterminate"]
        return passes[0]["counters"], passes[0]["indeterminate"]
    first, second = counters(), counters()
    assert first == second
    assert first[0]["algebra.tc.cosets"] > 0


def test_same_seed_same_corpus_and_other_seed_differs():
    a, b, c = (workloads.random_census(s) for s in (5, 5, 6))
    text = [op.call({})[1] for op in a.ops[:6]]
    assert text == [op.call({})[1] for op in b.ops[:6]]
    assert text != [op.call({})[1] for op in c.ops[:6]]


def test_invariant_factors():
    assert workloads.invariant_factors([]) == []
    assert workloads.invariant_factors([3, 5]) == [15]
    assert workloads.invariant_factors([2, 4]) == [2, 4]
    assert workloads.invariant_factors([2, 2, 3]) == [2, 6]
    assert workloads.invariant_factors([12, 18]) == [6, 36]


def test_hermite_rows_and_image_order():
    # Z^2 / <(2, 0), (0, 3)>: e1 has order 2, e2 order 3, e1 + e2 order 6
    lattice = workloads.hermite_rows([[0, 3], [2, 0]])
    assert workloads.image_order(lattice, [1, 0]) == 2
    assert workloads.image_order(lattice, [0, 1]) == 3
    assert workloads.image_order(lattice, [1, 1]) == 6
    assert workloads.image_order(lattice, [2, 3]) == 1
    # Z^3 / <(1, 1, 0), (0, 2, 2)>: e3 is free, e1 - e2 has order 1
    lattice = workloads.hermite_rows([[1, 1, 0], [0, 2, 2], [1, 3, 2]])
    assert workloads.image_order(lattice, [0, 0, 1]) == 0
    assert workloads.image_order(lattice, [1, 1, 0]) == 1
    assert workloads.image_order(lattice, [0, 1, 1]) == 2


def _census_with_finite_orders(limit=4):
    """Census operations (order then obstruct) of graphs where the program
    reports a finite branch-circle order above 1."""
    workload = workloads.random_census(2)
    keep = []
    for i in range(0, len(workload.ops), 2):
        _, (code, text) = workload.ops[i].call({})
        orders = json.loads(text)["payload"]["orders"].values()
        if any(v["kind"] == "finite" and v["order"] > 1 for v in orders):
            keep += workload.ops[i:i + 2]
        if len(keep) == 2 * limit:
            break
    workload.ops = keep
    return workload


def test_wrong_finite_order_on_census_counts_as_failed(monkeypatch):
    workload = _census_with_finite_orders()
    assert workload.ops
    assert run.Runner(workload).run_pass(check=True)["failed"] == 0
    real = stratifold.cli._verdict_json

    def wrong(v):
        out = real(v)
        if out["kind"] == "finite":
            out["order"] += 1
        return out
    monkeypatch.setattr(stratifold.cli, "_verdict_json", wrong)
    runner = run.Runner(workload)
    result = runner.run_pass(check=True)
    assert result["failed"] == len(workload.ops) // 2
    assert "image in H1" in runner.failures[0]


def test_obstruct_abstaining_on_a_decided_census_counts_as_failed(monkeypatch):
    workload = _census_with_finite_orders(limit=2)
    monkeypatch.setattr(stratifold.cli, "obstructions",
                        lambda graph, budget: stratifold.analysis.INDETERMINATE)
    result = run.Runner(workload).run_pass(check=True)
    assert result["failed"] == 2


def test_census_surfaces_are_checked(monkeypatch):
    ops = []
    for genus in workloads.CENSUS_SURFACES:
        ops += workloads._census_ops(f"s{genus}", f"white w genus {genus}\n", genus)
    workload = workloads.Workload("random_census", 0, ops)
    assert run.Runner(workload).run_pass(check=True)["failed"] == 0
    monkeypatch.setattr(stratifold.cli, "obstructions", lambda graph, budget: ())
    # every closed surface but the sphere and RP^2 must be obstructed
    failed = run.Runner(workload).run_pass(check=True)["failed"]
    assert failed == len(workloads.CENSUS_SURFACES) - 2


def test_census_verdicts_do_not_depend_on_the_seed():
    def verdicts(seed):
        out = []
        for op in workloads.random_census(seed).ops[::2]:
            report = json.loads(op.call({})[1][1])
            out.append(sorted((v["kind"], v.get("order", 0))
                              for v in report["payload"]["orders"].values()))
        return sorted(out)
    assert verdicts(3) == verdicts(8)


def test_latency_stats_take_the_fast_decile_of_passes():
    # operation i takes i + k seconds in pass k; pass k has k s of overhead
    passes = [{"latencies": [float(i + k) for i in range(40)],
               "wall_s": sum(i + k for i in range(40)) + k} for k in range(1, 12)]
    stats = run.latency_stats(passes, 40)
    per_op = [i + 2.0 for i in range(40)]  # 1st decile of 1..11 is 2
    assert stats["tail_percentile"] == 75.0
    assert stats["samples"] == 440
    assert stats["p50_s"] == pytest.approx(statistics.median(per_op))
    assert stats["tail_s"] == pytest.approx(31.25)  # 2 + 39 * 0.75
    throughput = sorted(40 / p["wall_s"] for p in passes)
    assert stats["ops_per_s"] == pytest.approx(throughput[-2])  # 9th decile of 11
    assert run.decile([3.0], 1) == 3.0


def _run(tmp_cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=tmp_cwd,
                          capture_output=True, text=True, timeout=170)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_metric_names_match_benchmark_json(trace):
    proc = _run(ROOT, "--workload", "finite_groups", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = _spec()["end_to_end" if trace == "0" else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_workloads_are_harness_workloads():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    assert names and set(names) <= set(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "spine_sums", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rerun_instruction_sits_with_the_benchmark():
    text = (BENCH / "RERUN.md").read_text()
    assert "python3 bench/run.py --workload" in text
