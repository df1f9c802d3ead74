"""Tests of the benchmark's own parts (not of albench).

    python3 -m pytest bench/test_bench.py -q
"""

import math

import pytest

import gen
import spans
from gate import RunResult, as_expected, check_run, compare_expected
from spans import Tracer, self_times


def _generate(tmp_path, seed, name):
    pools = {"matbench_steels": [(seed, 40)], "sweep_pool": [(38, 1)]}
    out = tmp_path / name
    gen.generate(seed, out, pools, fixture_count=50)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    first = _generate(tmp_path, 7, "a")
    again = _generate(tmp_path, 7, "b")
    other = _generate(tmp_path, 8, "c")
    assert set(first) == {"matbench_steels.csv", "sweep_pool.csv", "replay.jsonl"}
    assert first == again
    assert all(first[name] != other[name] for name in first)


def test_generated_pool_keeps_the_optimum_out_of_initial_draws():
    shape = gen.SHAPES["perovskite"]
    avoid = tuple(gen.initial_ids(shape.rows, 3, 20))
    _, _, y = gen.pool_rows(shape, 3, avoid)
    best = int(y.argmin())  # perovskite minimizes
    assert best not in avoid
    assert (y == y[best]).sum() == 1


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_on_a_hand_built_tree():
    # root 0..100 ns has children 10..30 and 40..70; grandchild 15..25
    # sits inside the first child.
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 30, 0),
        _span("c", 15, 25, 1),
        _span("b", 40, 70, 0),
    ]
    got = [round(t * 1e9) for t in self_times(spans)]
    assert got == [100 - 20 - 30, 20 - 10, 10, 30]


def test_tracer_nests_spans_and_shares_step_ids():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    step = tracer.wrap("step", lambda x: inner(x) * 2, new_step=True)
    assert step(1) == 4 and step(2) == 6
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    steps = [s[4] for s in tracer.spans]
    assert names == ["step", "inner", "step", "inner"]
    assert parents == [-1, 0, -1, 2]
    assert steps == [1, 1, 2, 2]
    totals = tracer.layer_totals()
    assert totals["step.calls"] == 2 and totals["inner.calls"] == 2
    assert totals["step.self_s"] <= totals["step.s"]


def test_wrapped_names_read_zero_until_called():
    tracer = Tracer()
    tracer.wrap("f", lambda: None, count=("f.items", lambda args, kwargs, result: 3))
    totals = tracer.layer_totals()
    assert totals["f.s"] == totals["f.self_s"] == totals["f.calls"] == totals["f.items"] == 0


def test_patching_a_gone_attribute_raises_and_restores(monkeypatch):
    class Owner:
        def kept(self):
            return 1

    original = Owner.kept
    table = [(Owner, "kept", "owner.kept", {}), (Owner, "renamed", "owner.renamed", {})]
    monkeypatch.setattr(spans, "patch_table", lambda: table)
    with pytest.raises(AttributeError, match="Owner.renamed is gone"):
        with spans.Patched(Tracer()):
            pass
    assert Owner.kept is original


def test_tracer_counts_errors_and_reraises():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("f", fail)()
    assert tracer.counts["f.errors"] == 1
    assert tracer.spans[0][2] >= tracer.spans[0][1]


TARGETS = [3.0, 9.0, 1.0, 4.0, 7.0, 2.0]


def _run(ids, label="gpr alpha=2"):
    values = [TARGETS[i] for i in ids]
    best = [max(values[: k + 1]) for k in range(len(values))]
    return RunResult(label=label, ids=list(ids), values=values, running_best=best)


def test_gate_passes_a_clean_run():
    assert check_run(_run([0, 2, 3, 5]), TARGETS, True, [0, 2], cap=4) == []


def test_gate_trips_on_a_perturbed_selection_sequence():
    expected = as_expected([_run([0, 2, 3, 5])], {})
    problems = compare_expected(expected, [_run([0, 2, 5, 3])], {})
    assert len(problems) == 1
    unit, message = problems[0]
    assert unit == "gpr alpha=2"
    assert "diverged at iteration 2" in message


def test_gate_trips_on_a_changed_output_digest():
    expected = as_expected([], {"summary.csv": "aaaa"})
    problems = compare_expected(expected, [], {"summary.csv": "bbbb"})
    assert problems == [("outputs", "summary.csv: digest bbbb differs from expected aaaa")]


def test_gate_trips_on_a_non_finite_value():
    run = _run([0, 2, 3, 5])
    run.scores = [None, None, math.nan, 0.5]
    problems = check_run(run, TARGETS, True, [0, 2], cap=4)
    assert problems == ["gpr alpha=2: non-finite value in trajectory"]


def test_gate_trips_on_invariant_breaks():
    assert check_run(_run([0, 2, 2, 5]), TARGETS, True, [0, 2], cap=4)  # repeated id
    assert check_run(_run([0, 2, 3]), TARGETS, True, [0, 2], cap=4)  # stopped early
    assert check_run(_run([0, 2, 1, 3]), TARGETS, True, [0, 2], cap=4)  # ran past the optimum
    assert check_run(_run([2, 0, 3, 5]), TARGETS, True, [0, 2], cap=4)  # wrong initial draw
    raised = RunResult(label="x", error="RunAborted: proposer failed")
    assert check_run(raised, TARGETS, True, [0], cap=4) == ["x: raised RunAborted: proposer failed"]
