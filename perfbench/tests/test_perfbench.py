"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import random
import time

import pytest

import run
import tracing
from pact import counter
from pact.hashing import Family
from pact.oracle import InMemoryOracle


def test_percentile_report_states_sample_count():
    assert run.percentile_report([]) == {"n": 0, "p50": None}
    assert run.percentile_report([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}
    # a tail percentile is reported only with ten samples beyond it
    assert "p75" not in run.percentile_report([float(i) for i in range(1, 40)])
    assert run.percentile_report([float(i) for i in range(1, 41)]) == {
        "n": 40, "p50": 20.5, "p75": 30.0}
    assert run.percentile_report([float(i) for i in range(100, 0, -1)]) == {
        "n": 100, "p50": 50.5, "p90": 90.0}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_subtracts_covered_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.start_op(0, "count")
    steps = [(0, "begin", "x.a"), (1, "begin", "x.b"), (3, "end", None),
             (4, "begin", "y.c"), (5, "begin", "y.d"), (6, "end", None),
             (8, "end", None), (10, "end", None)]
    for t, what, name in steps:
        clock.now = t
        tracer.begin(name) if what == "begin" else tracer.end()
    tracer.end_op()

    assert tracer.totals == {
        ("count", "x.a"): [1, 10, 4],  # 10 minus b (2) and c (4)
        ("count", "x.b"): [1, 2, 2],
        ("count", "y.c"): [1, 4, 3],  # 4 minus d (1)
        ("count", "y.d"): [1, 1, 1],
    }
    assert tracer.layer_self("x") == 6
    assert tracer.layer_self("y") == 4
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2]  # parent indices
    assert tracer.spans[2] == ["y.c", 4, 8, 0, 0]


def test_spans_are_kept_for_the_first_operation_of_each_kind():
    tracer = tracing.Tracer()
    for op_id, kind in enumerate(["count", "count", "baseline"]):
        tracer.start_op(op_id, kind)
        tracer.begin("oracle.check_sat")
        tracer.end()
        tracer.end_op()
    assert [s[4] for s in tracer.spans] == [0, 2]
    assert tracer.total("oracle.check_sat", 0) == 3
    assert tracer.total("oracle.check_sat", 0, "count") == 2


@pytest.mark.parametrize("family", list(Family))
def test_timing_proxy_is_transparent(family):
    projection = run._projection(14)
    values = random.Random(7).sample(range(1 << 14), 3000)
    plain = counter.pact_count(InMemoryOracle(projection, values), projection,
                               family=family, seed=11)

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        oracle = tracer.oracle_factory(InMemoryOracle)(projection, values)
        traced = counter.pact_count(oracle, projection, family=family, seed=11)
    assert not hasattr(counter.pact_count, "__wrapped__")  # patches were undone

    assert traced.estimate == plain.estimate
    assert traced.raw_estimates == plain.raw_estimates
    assert traced.stats.check_sat_calls == plain.stats.check_sat_calls
    assert traced.stats.assertions_sent == plain.stats.assertions_sent
    # the proxy saw every call the counter made
    assert tracer.total("oracle.check_sat", 0) == plain.stats.check_sat_calls
    assert (tracer.total("oracle.assert_hash", 0) + tracer.total("oracle.assert_block", 0)
            == plain.stats.assertions_sent)
    assert tracer.total("counter.pact_count", 0) == 1


def test_failed_operation_is_counted_and_the_loop_goes_on():
    phase = run.Phase()

    def broken():
        raise RuntimeError("cell count at index 3 changed")

    phase.run("count/a", "count", broken)
    phase.run("count/b", "count", lambda: run.OpResult("count/b", "count", 10, 10, 5))
    assert phase.attempted == 2
    assert phase.failures == [("count/a", "RuntimeError: cell count at index 3 changed")]
    assert [r.key for r in phase.results] == ["count/b"]


def test_time_budget_interrupts_an_operation():
    with pytest.raises(run.OpBudgetExceeded):
        with run.time_budget(0.05):
            time.sleep(2)


def test_output_checks():
    phase = run.Phase()
    phase.done(run.OpResult("baseline/a", "baseline", 20, 20, 21), 0.1)
    phase.done(run.OpResult("xor/a", "count", 30, 20, 99), 0.1)
    assert run.output_checks(phase) == []
    phase.done(run.OpResult("baseline/b", "baseline", 19, 20, 20), 0.1)
    assert run.output_checks(phase) == ["baseline/b: baseline 19 != true count 20"]
    phase.done(run.OpResult("xor/b", "count", 37, 20, 99), 0.1)  # 37 > 20 * 1.8
    assert run.output_checks(phase)[-1].startswith("only 0.500 of estimates")
