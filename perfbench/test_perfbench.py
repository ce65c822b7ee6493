"""Self-tests of the benchmark: span arithmetic, wrapper removal, oracles.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import sys
import time
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleMismatch  # noqa: E402


def test_self_times_of_nested_spans():
    synthetic = [
        ("root", 0.0, 10.0, None, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("a.inner", 2.0, 3.0, 1, 1),
        ("b", 5.0, 6.0, 0, 1),
        ("root", 10.0, 12.0, None, 2),
    ]
    assert spans.self_times(synthetic) == [6.0, 2.0, 1.0, 1.0, 2.0]
    assert spans.layer_totals(synthetic) == {
        "root": (2, 8.0), "a": (1, 2.0), "a.inner": (1, 1.0), "b": (1, 1.0),
    }


def test_self_time_counts_overlapping_children_once():
    synthetic = [
        ("root", 0.0, 10.0, None, 1),
        ("x", 1.0, 4.0, 0, 1),
        ("y", 3.0, 6.0, 0, 1),
        ("z", 9.0, 11.0, 0, 1),
    ]
    assert spans.self_times(synthetic)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _qpencil_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "qpencil" or name.startswith("qpencil.")
        for attr, value in vars(module).items()
    }


def test_traced_loop_records_layers_and_restores_originals():
    before = _qpencil_bindings()
    dumps = json.dumps
    ops = [op for op in workloads.make("scenarios", 1) if op.case == "bipartite"]
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert workloads.cli.joint_context is not before[("qpencil.cli", "joint_context")]
        assert workloads.pencil.rank is not before[("qpencil.pencil", "rank")]
        assert json.dumps is not dumps
        loop = run.measure(ops, 0.0, recorder)
    finally:
        recorder.uninstall()
    after = _qpencil_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert json.dumps is dumps

    assert loop.failed == 0
    names = {s[0] for s in recorder.spans}
    assert {"op", "cli.parse_scenario", "cli.render", "pencil.joint_context",
            "exact.rank", "pauli.realization", "parity.analyze"} <= names
    by_index = recorder.spans
    for name, _, _, parent, _ in by_index:
        if name == "exact.rank":
            assert by_index[parent][0] == "pencil.joint_context"
    roots = [s for s in by_index if s[3] is None]
    assert len(roots) == len(ops) and {s[0] for s in roots} == {"op"}
    assert sum(spans.self_times(by_index)) == pytest.approx(
        sum(end - start for _, start, end, _, _ in roots)
    )


def test_time_outside_layer_spans_lowers_the_accounted_ratio():
    term = workloads.pauli.PauliString.from_word("XXXX")

    def layer_only():
        return workloads.pauli.realization(term)

    def with_unwrapped_time():
        workloads.pauli.realization(term)
        time.sleep(0.05)

    ratios = []
    for fn in (layer_only, with_unwrapped_time):
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            loop = run.measure([workloads.Op("x", fn, lambda r: {})], 0.0, recorder)
        finally:
            recorder.uninstall()
        totals = spans.layer_totals(recorder.spans)
        metrics = run.per_layer(["trace_accounted_ratio"], loop, loop, recorder, totals)
        ratios.append(metrics["trace_accounted_ratio"])
    assert ratios[0] > 0.5
    assert ratios[1] < ratios[0] - 0.3


def test_golden_mismatch_is_counted_not_raised():
    op = workloads.make("scenarios", 1)[-1]
    wrong = workloads.Op(op.case, op.run, lambda result: workloads._check_golden(
        "intro-pair", b"not the golden output", result))
    loop = run.measure([op, wrong], 0.0)
    assert (loop.attempted, loop.failed) == (2, 1)


def test_raising_or_wrong_operations_are_counted():
    def boom():
        raise ValueError("boom")

    nondegenerate = workloads.Op("k1", lambda: None, partial(workloads._check_degenerate, ["XXI"]))
    loop = run.measure([workloads.Op("x", boom, lambda r: {}), nondegenerate], 0.0)
    assert (loop.attempted, loop.failed) == (2, 2)
    assert len(loop.pass_walls) == len(loop.pass_refs) == 1


def test_context_oracle_rejects_a_flipped_sign():
    words = workloads.ghz_words(3)
    ctx = workloads.ghz_pencils(1)[1].run()
    rays = [oracles.ray_vector(r.to_json()) for r in ctx.rays]
    oracles.check_context(words, rays, ctx.eigentable, ctx.pencil_eigenvalues)
    table = [list(row) for row in ctx.eigentable]
    table[3][1] = -table[3][1]
    with pytest.raises(OracleMismatch):
        oracles.check_context(words, rays, table, ctx.pencil_eigenvalues)


def test_multiplicity_oracle():
    assert oracles.predicted_multiplicities(["XXI"]) == {-1: 4, 1: 4}
    assert oracles.predicted_multiplicities(["ZZI", "XXI"]) == {-3: 2, -1: 2, 1: 2, 3: 2}
    assert not oracles.words_commute("XI", "ZI") and oracles.words_commute("XX", "ZZ")
    with pytest.raises(ValueError):
        oracles.predicted_multiplicities(["XYZ", "XYZ"])
    ops = workloads.degenerate_pencils(2)[:4]
    for op in ops:
        op.check(op.run())
    words = ["YZI", "IXX"]
    with pytest.raises(OracleMismatch):
        oracles.check_multiplicities(words, {-3: 2, -1: 2, 1: 2, 3: 1})
    with pytest.raises(OracleMismatch):
        workloads._check_degenerate(words, None)


def test_colouring_oracle():
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert oracles.count_states(triangle) == 0
    assert oracles.count_states(triangle[:2]) == 2
    assert oracles.count_states([(0, 1, 2), (2, 3, 4)]) == 5
    oracles.check_critical(triangle, [(0, 1, 2)])
    with pytest.raises(OracleMismatch):  # not minimal
        oracles.check_critical(triangle + [(2, 3)], [(0, 1, 2, 3)])
    with pytest.raises(OracleMismatch):  # admits a state
        oracles.check_critical(triangle, [(0, 1)])


def test_sweep_check_rejects_a_dropped_critical_set():
    h = workloads.sweep_hypergraph()
    golden = workloads.load_sweep_golden()
    result = workloads.logic.SubsetSweepResult(workloads.SWEEP_NO_STATE, golden)
    counters = workloads.check_sweep(h, golden, set(), result)
    assert counters["logic.sweep.critical"] == 32
    dropped = workloads.logic.SubsetSweepResult(workloads.SWEEP_NO_STATE, golden[1:])
    with pytest.raises(OracleMismatch):
        workloads.check_sweep(h, golden, set(), dropped)


def test_benchmark_json_metrics_are_all_computed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.MAKERS)
    loop = run.Loop(pass_walls=[1.0], pass_refs=[50.0], latencies=[("a", 0.5)], units=2)
    assert list(run.end_to_end(loop, [(0.1, 0.05)])) == [m["name"] for m in spec["end_to_end"]]
    targets = {name for name, _, _ in spans.TARGETS} | {spans.ROOT_SPAN}
    for m in spec["per_layer"]:
        layer, _, kind = m["name"].rpartition(".")
        assert kind.endswith("ratio") or (layer in targets and kind in ("calls", "self_s"))
