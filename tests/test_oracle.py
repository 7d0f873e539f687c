"""InMemory filtering against hand-computed survivors; subprocess protocol
against the bundled brute-force solver."""

import os
import re
import shlex
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pact import cli
from pact.baseline import BaselineStatus, enumerate_count
from pact.counter import pact_count
from pact.errors import (
    OracleTimeout,
    ProtocolError,
    SolverCrashed,
    StackUnderflow,
    UnknownVariable,
)
from pact.hashing import (
    Family,
    HashConstraint,
    Slice,
    eval_hash,
    generate_hash,
    value_columns,
)
from pact.oracle import InMemoryOracle, ModelCache, Oracle, SolverResult, SubprocessOracle
from pact.smtlib import BlockingClause, ProjectionSet, SortedVar, resolve_projection, parse_declarations

import random


def bv(name, width):
    return SortedVar(name, f"(_ BitVec {width})", width)


def proj(*vars_):
    return ProjectionSet(tuple(vars_))


def xor_c(var, width, coeffs, target):
    slices = tuple(Slice(var, width, i, i + 1) for i in range(width))
    return HashConstraint(Family.XOR, slices, tuple(coeffs), None, 2, target, 1)


X3 = proj(bv("x", 3))
XY = proj(bv("x", 2), bv("y", 2))
XY_ROWS = [(a, b) for a in range(4) for b in range(4)]
WIDE = proj(bv("w", 70), bv("n", 4))  # one object-dtype column next to a uint8 one


class TestInMemoryFiltering:
    # survivors below were worked out by hand from the hash definitions

    def test_xor_parity_filter(self):
        oracle = InMemoryOracle(X3, range(8))
        oracle.assert_constraint(xor_c("x", 3, (1, 1, 1), 0))
        assert oracle.live_values() == [(0,), (3,), (5,), (6,)]

    def test_xor_partial_selection(self):
        # parity of bits {0, 2} only: v=0b101 -> 1^1=0 survives with target 0
        oracle = InMemoryOracle(X3, range(8))
        oracle.assert_constraint(xor_c("x", 3, (1, 0, 1), 0))
        assert oracle.live_values() == [(0,), (2,), (5,), (7,)]

    def test_prime_filter(self):
        # (3v + 2) mod 5 = 1 holds only for v = 3 in 0..7
        c = HashConstraint(
            Family.PRIME,
            (Slice("x", 3, 0, 3),),
            (3,),
            2,
            5,
            1,
            3,
            widened_width=9,
        )
        oracle = InMemoryOracle(X3, range(8))
        oracle.assert_constraint(c)
        assert oracle.live_values() == [(3,)]

    def test_shift_filter(self):
        # top 2 of 6 bits of (5v + 3): equals 1 for v in {3, 4, 5}
        c = HashConstraint(
            Family.SHIFT,
            (Slice("x", 3, 0, 3),),
            (5,),
            3,
            4,
            1,
            2,
            widened_width=6,
        )
        oracle = InMemoryOracle(X3, range(8))
        oracle.assert_constraint(c)
        assert oracle.live_values() == [(3,), (4,), (5,)]

    def test_full_blocking_clause(self):
        YX = proj(bv("y", 2), bv("x", 2))
        cases = [
            (X3, range(8), BlockingClause(X3, ((5,),)), [(5,)]),
            (X3, range(8), BlockingClause(X3, ((5,), (1,), (6,))), [(1,), (5,), (6,)]),
            (XY, XY_ROWS, BlockingClause(XY, ((1, 2),)), [(1, 2)]),
            # variables in another order than the oracle's: (y, x) = (2, 1) is row (1, 2)
            (XY, XY_ROWS, BlockingClause(YX, ((2, 1), (0, 3))), [(1, 2), (3, 0)]),
        ]
        for projection, rows, clause, blocked in cases:
            oracle = InMemoryOracle(projection, rows)
            before = oracle.live_values()
            oracle.assert_constraint(clause)
            assert oracle.live_values() == [r for r in before if r not in blocked]

    def test_partial_blocking_clause(self):
        oracle = InMemoryOracle(XY, XY_ROWS)
        oracle.assert_constraint(BlockingClause(proj(bv("y", 2)), ((3,),)))
        assert all(b != 3 for _, b in oracle.live_values())
        assert len(oracle.live_values()) == 12
        oracle.assert_constraint(BlockingClause(proj(bv("x", 2)), ((0,), (2,))))
        assert oracle.live_values() == [(a, b) for a in (1, 3) for b in range(3)]
        with pytest.raises(UnknownVariable):
            oracle.assert_constraint(BlockingClause(proj(bv("z", 2)), ((1,),)))
        with pytest.raises(UnknownVariable):
            oracle.assert_constraint(BlockingClause(proj(bv("x", 2), bv("z", 2)), ((1, 1),)))


class TestInMemoryStack:
    def test_push_pop_restores(self):
        oracle = InMemoryOracle(X3, range(8))
        oracle.push()
        oracle.assert_constraint(xor_c("x", 3, (1, 1, 1), 0))
        assert len(oracle.live_values()) == 4
        oracle.pop()
        assert len(oracle.live_values()) == 8
        assert oracle.depth == 0

    def test_underflow(self):
        oracle = InMemoryOracle(X3, range(8))
        with pytest.raises(StackUnderflow):
            oracle.pop()

    def test_model_enumeration_is_sorted(self):
        oracle = InMemoryOracle(X3, [5, 2, 7])
        seen = []
        while oracle.check_sat() is SolverResult.SAT:
            m = oracle.get_projected_model(X3)
            seen.append(m["x"])
            oracle.assert_constraint(BlockingClause(X3, ((m["x"],),)))
        assert seen == [2, 5, 7]

    def test_models_are_read_by_name(self):
        x, y = bv("x", 2), bv("y", 2)
        oracle = InMemoryOracle(proj(x, y), [(1, 2), (1, 3), (2, 3)])
        assert oracle.check_sat() is SolverResult.SAT
        assert oracle.get_projected_model(proj(y, x)) == {"y": 2, "x": 1}
        assert oracle.count_upto(proj(y), 10) == 2  # distinct y values
        assert oracle.count_upto(proj(x), 10) == 2
        with pytest.raises(UnknownVariable):
            oracle.get_projected_model(proj(bv("z", 2)))

    def test_model_without_sat_state(self):
        oracle = InMemoryOracle(X3, [])
        with pytest.raises(ProtocolError):
            oracle.get_projected_model(X3)

    def test_stats_accumulate(self):
        oracle = InMemoryOracle(X3, range(4))
        oracle.check_sat()
        oracle.check_sat()
        oracle.assert_constraint(BlockingClause(X3, ((0,),)))
        assert oracle.stats.check_sat_calls == 2
        assert oracle.stats.assertions_sent == 1

    @pytest.mark.parametrize(
        "projection, solutions, rows",
        [
            (X3, [5, 2, 7, 2, 0, 5, 7], [(0,), (2,), (5,), (7,)]),
            (X3, [np.uint8(6), 3, (3,), np.int64(1), (np.uint16(6),)], [(1,), (3,), (6,)]),
            (XY, [(3, 0), (1, 2), (np.int8(1), 1), (3, 0), (1, 2)], [(1, 1), (1, 2), (3, 0)]),
            (
                WIDE,
                [(2**69 + 1, 3), (5, 15), (2**69 + 1, 3), (2**70 - 1, 0), (5, np.uint8(2))],
                [(5, 2), (5, 15), (2**69 + 1, 3), (2**70 - 1, 0)],
            ),
        ],
        ids=["unsorted-duplicates", "mixed-int-types", "two-vars", "70-and-4-bits"],
    )
    def test_rows_sorted_and_deduplicated(self, projection, solutions, rows):
        oracle = InMemoryOracle(projection, solutions)
        assert oracle.live_values() == rows
        assert all(type(v) is int for row in oracle.live_values() for v in row)
        model = oracle.get_projected_model(projection)
        assert model == dict(zip(projection.names, rows[0]))
        assert all(type(v) is int for v in model.values())

    def test_value_out_of_range_rejected(self):
        for projection, solution in [
            (X3, -1), (X3, 8), (X3, (8,)), (WIDE, (2**70, 0)), (WIDE, (0, 16)), (WIDE, (-1, 0))
        ]:
            with pytest.raises(ValueError):
                InMemoryOracle(projection, [solution])

    @pytest.mark.parametrize("projection, solution, named", [
        (X3, (3.7,), "3.7"),
        (X3, 3.0, "3.0"),
        (X3, ("5",), "'5'"),
        (XY, ("1", 2), "'1'"),
        (XY, "12", "'12'"),
        (XY, b"12", "b'12'"),
    ], ids=["float", "whole-float", "numeric-string", "string-among-ints", "bare-string",
            "bare-bytes"])
    def test_non_integer_value_rejected(self, projection, solution, named):
        # int() would read 3.7 as 3, "5" as 5 and the string "12" as (1, 2)
        with pytest.raises((TypeError, ValueError), match=re.escape(named)):
            InMemoryOracle(projection, [(0,) * len(projection), solution])

    def test_wrong_arity_rejected(self):
        for projection, solution in [(XY, (1,)), (XY, 1), (X3, (1, 2)), (WIDE, (1, 2, 3)), (X3, ())]:
            with pytest.raises(ValueError):
                InMemoryOracle(projection, [solution])

    def test_empty_projection_rejected(self):
        with pytest.raises(ValueError, match="at least one projection variable"):
            InMemoryOracle(proj(), [(), ()])

    @pytest.mark.parametrize("width", [1, 3, 8, 32, 63, 64, 70])
    def test_top_value_of_a_width_accepted(self, width):
        top = 2**width - 1
        oracle = InMemoryOracle(proj(bv("z", width)), [top, 0, top])
        assert oracle.live_values() == [(0,), (top,)]

    def test_one_past_uint64_rejected(self):
        z64 = proj(bv("z", 64))
        assert InMemoryOracle(z64, [2**64 - 1]).live_values() == [(2**64 - 1,)]
        with pytest.raises(ValueError, match=r"value 18446744073709551616 .* width 64"):
            InMemoryOracle(z64, [2**64 - 1, 2**64])

    @pytest.mark.parametrize("scalar", [np.int8(-1), np.int64(-3), np.int64(-(2**63))])
    def test_negative_numpy_scalar_rejected(self, scalar):
        for projection, solution in [(X3, scalar), (X3, (scalar,)), (WIDE, (scalar, 0))]:
            with pytest.raises(ValueError, match=rf"value {int(scalar)} .* width"):
                InMemoryOracle(projection, [solution])

    def test_bad_row_after_many_good_ones_rejected(self):
        good = [(v % 4, v % 3) for v in range(10_000)]
        with pytest.raises(ValueError, match=r"value 4 out of range for width 2"):
            InMemoryOracle(XY, good + [(1, 4)])
        with pytest.raises(ValueError, match=r"expected 2 values per solution, got 3"):
            InMemoryOracle(XY, good + [(1, 2, 3)])


def _as_input(value: int, form: str):
    """`value` as the solution element `form` names: a Python int or a
    numpy scalar of a dtype that holds it."""
    if form == "numpy":
        for dtype in (np.uint8, np.int16, np.uint32, np.int64, np.uint64):
            if value <= np.iinfo(dtype).max:
                return dtype(value)
    return value  # past 64 bits only a Python int holds it


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_columns_match_the_sorted_deduplicated_reference(data):
    """The constructor's columns equal `value_columns` of the sorted set of
    rows, in values, dtype and layout, for one or two variables at widths
    1-70, from Python ints, numpy scalars, 1-tuples and one-shot generators,
    with duplicates and empty inputs."""
    widths = data.draw(st.lists(st.integers(1, 70), min_size=1, max_size=2), label="widths")
    p = proj(*(bv(f"v{j}", w) for j, w in enumerate(widths)))
    row = st.tuples(*(st.integers(0, 2**w - 1) for w in widths))
    distinct = data.draw(st.lists(row, max_size=40), label="rows")
    rows = distinct + data.draw(
        st.lists(st.sampled_from(distinct), max_size=10) if distinct else st.just([]),
        label="duplicates",
    )
    data.draw(st.randoms(use_true_random=False), label="shuffle").shuffle(rows)
    forms = st.sampled_from(["int", "numpy"])
    solutions = []
    for r in rows:
        values = [_as_input(v, data.draw(forms)) for v in r]
        scalar = len(values) == 1 and data.draw(st.booleans(), label="scalar")
        solutions.append(values[0] if scalar else tuple(values))
    one_shot = data.draw(st.booleans(), label="one-shot")
    oracle = InMemoryOracle(p, (s for s in solutions) if one_shot else solutions)

    want = value_columns(widths, sorted(set(rows)))
    base = oracle._frames[0]
    assert list(base) == list(p.names)
    for got, ref in zip(base.values(), want):
        assert got.dtype == ref.dtype
        assert got.flags.c_contiguous
        assert not got.flags.writeable
        assert got.tolist() == ref.tolist()
    live = oracle.live_values()
    assert live == sorted(set(rows))
    assert all(type(v) is int for r in live for v in r)
    if live:
        model = oracle.get_projected_model(p)
        assert model == dict(zip(p.names, live[0]))
        assert all(type(v) is int for v in model.values())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_vectorized_filter_matches_reference(data):
    """The numpy filtering paths agree with eval_hash on every row."""
    width = data.draw(st.integers(2, 16), label="width")
    family = data.draw(st.sampled_from(list(Family)), label="family")
    values = data.draw(
        st.lists(st.integers(0, 2**width - 1), min_size=0, max_size=80, unique=True),
        label="values",
    )
    seed = data.draw(st.integers(0, 2**16), label="seed")
    p = proj(bv("v", width))
    ell = 1 if family is Family.XOR else data.draw(st.integers(1, 6), label="ell")
    constraint = generate_hash(p, ell, family, random.Random(seed))
    oracle = InMemoryOracle(p, values)
    oracle.assert_constraint(constraint)
    expected = sorted(
        (v,) for v in values if eval_hash(constraint, {"v": v}) == constraint.target
    )
    assert oracle.live_values() == expected


def same_frame(frame, other):
    """Two frames hold the same variables and equal values."""
    return frame.keys() == other.keys() and all(np.array_equal(frame[n], other[n]) for n in frame)


def counts_agree(oracle, projection, thresh, cache=None, cell=()):
    """The in-memory one-step count and the base class's enumerate-and-block
    loop give the same count, the loop starting from the cache's members."""
    one_step = oracle.count_upto(projection, thresh, cache, cell)
    assert Oracle.count_upto(oracle, projection, thresh, cache, cell) == one_step
    return one_step


class UnreadableCache(ModelCache):
    """A model cache that fails the count that reads it."""

    def members(self, cell):
        raise AssertionError("the cache was read")


def seeded_cache(projection, rows, cell):
    cache = ModelCache(projection)
    cache.add([dict(zip(projection.names, row)) for row in rows], cell)
    return cache


@pytest.mark.parametrize("widths", [(6, 5), (70, 4)], ids=["narrow", "wide"])
@pytest.mark.parametrize("family", list(Family), ids=str)
def test_count_upto_matches_brute_force(family, widths):
    """The one-step count and enumerate-and-block over frames of live values
    agree with each other and with brute force after random hash stacks
    and a partial blocking clause: at every threshold, from a cache that
    holds some or all of the cell, over part of the projection (distinct
    projected tuples) and with the deadline spent.  The one-step count
    never reads the cache.  A 70-bit variable is filtered on Python ints
    (object columns)."""
    x, y = bv("x", widths[0]), bv("y", widths[1])
    p = proj(x, y)
    rng = random.Random(f"{family}/{widths}")
    rows = {(rng.getrandbits(widths[0]), rng.getrandbits(widths[1])) for _ in range(250)}
    oracle = InMemoryOracle(p, rows)
    for _ in range(12):
        ell = 1 if family is Family.XOR else rng.randint(1, 3)
        stack = [generate_hash(p, ell, family, rng) for _ in range(rng.randint(0, 4))]
        hashes = list(stack)
        blocked_y = rng.randrange(1 << widths[1])
        stack.insert(rng.randint(0, len(stack)), BlockingClause(proj(y), ((blocked_y,),)))
        for constraint in stack:
            oracle.push()
            oracle.assert_constraint(constraint)
        cell = [
            (xv, yv) for xv, yv in rows
            if yv != blocked_y and all(
                eval_hash(c, {"x": xv, "y": yv}) == c.target for c in hashes
            )
        ]
        truth = len(cell)
        live = oracle.live_values()
        frames = list(oracle._frames)
        known = rng.sample(live, min(len(live), rng.randint(1, 15)))
        for thresh in (1, 20, 73, None):
            expected = min(truth, thresh or truth)
            assert counts_agree(oracle, p, thresh) == expected
            assert counts_agree(oracle, p, thresh, seeded_cache(p, known, hashes), hashes) == expected
            assert counts_agree(oracle, p, thresh, seeded_cache(p, live, hashes), hashes) == expected
            assert oracle.count_upto(p, thresh, UnreadableCache(p), hashes) == expected
            for j, part in enumerate((x, y)):
                distinct = len({row[j] for row in cell})
                assert counts_agree(oracle, proj(part), thresh) == min(distinct, thresh or distinct)
        oracle.deadline = time.monotonic() - 1
        for cache in (None, UnreadableCache(p)):
            with pytest.raises(OracleTimeout) as one_step:
                oracle.count_upto(p, 73, cache, hashes)
            with pytest.raises(OracleTimeout) as loop:
                Oracle.count_upto(oracle, p, 73, cache, hashes)
            assert one_step.value.count == loop.value.count == 0
        oracle.deadline = None
        assert oracle.depth == len(stack)
        assert all(map(same_frame, oracle._frames, frames))
        assert oracle.live_values() == live  # the loop's blocking clauses were scoped
        while oracle.depth:
            oracle.pop()


@pytest.mark.parametrize("widths", [(6, 5), (70, 4)], ids=["narrow", "wide"])
@pytest.mark.parametrize("family", list(Family), ids=str)
def test_deeper_work_never_changes_a_frame_below(family, widths):
    """Frames share columns: frame 0 is the oracle's own solution set and a
    push shares the top frame, so one write in place would corrupt every
    frame holding that column.  Random push / hash / blocking-clause /
    count_upto / pop sequences leave each frame as it was before going
    deeper, and a write into a base column raises."""
    x, y = bv("x", widths[0]), bv("y", widths[1])
    p = proj(x, y)
    rng = random.Random(f"frames/{family}/{widths}")
    rows = sorted({(rng.getrandbits(widths[0]), rng.getrandbits(widths[1])) for _ in range(300)})
    oracle = InMemoryOracle(p, rows)
    for col in oracle._frames[0].values():
        with pytest.raises(ValueError):
            col[:1] = 0
    below = []  # a copy of each frame under the top, taken as it was pushed
    for _ in range(150):
        op = rng.choice(("push", "push", "hash", "block", "count", "pop"))
        if op == "push":
            below.append({name: col.copy() for name, col in oracle._frames[-1].items()})
            oracle.push()
        elif op == "hash":
            ell = 1 if family is Family.XOR else rng.randint(1, 3)
            oracle.assert_constraint(generate_hash(p, ell, family, rng))
        elif op == "block" and oracle.check_sat() is SolverResult.SAT:
            live = oracle.live_values()
            picked = tuple(rng.sample(live, min(len(live), rng.randint(1, 3))))
            part = rng.choice((p, proj(y)))
            blocked = picked if part is p else ((picked[0][1],),)
            oracle.assert_constraint(BlockingClause(part, blocked))
        elif op == "count":
            live, thresh = oracle.live_values(), rng.choice((1, 7, None))
            assert counts_agree(oracle, p, thresh) == min(len(live), thresh or len(live))
            assert counts_agree(oracle, proj(x), None) == len({row[0] for row in live})
        elif op == "pop" and oracle.depth:
            oracle.pop()
            assert same_frame(oracle._frames[-1], below.pop())
        assert all(map(same_frame, oracle._frames[:-1], below))
    while oracle.depth:
        oracle.pop()
        assert same_frame(oracle._frames[-1], below.pop())


def test_one_step_count_costs_one_check_sat():
    oracle = InMemoryOracle(X3, range(8))
    assert oracle.count_upto(X3, 5) == 5
    assert (oracle.stats.check_sat_calls, oracle.stats.assertions_sent) == (1, 0)
    assert oracle.count_upto(X3, None, seeded_cache(X3, [(1,), (2,)], ())) == 8
    assert (oracle.stats.check_sat_calls, oracle.stats.assertions_sent) == (2, 0)
    with pytest.raises(UnknownVariable):
        oracle.count_upto(proj(bv("z", 3)))


# ---------------------------------------------------------------------------
# subprocess protocol, exercised against the bundled solver

MINISOLVE = [sys.executable, "-m", "pact.minisolve"]

SCRIPT_5 = """\
(set-logic QF_BV)
(declare-const x (_ BitVec 4))
(assert (bvult x #b0101))
"""


def make_oracle(script=SCRIPT_5, command=None, **kw):
    return SubprocessOracle(command or MINISOLVE, script, **kw)


def projection_of(script, names):
    return resolve_projection(parse_declarations(script), names)


class TestSubprocess:
    def test_enumeration_count(self):
        p = projection_of(SCRIPT_5, ["x"])
        with make_oracle() as oracle:
            result = enumerate_count(oracle, p)
        assert result.status is BaselineStatus.EXACT
        assert result.count == 5

    def test_hash_constraint_over_the_wire(self):
        # values 0..4 with even parity over all 4 bits: {0, 3}
        p = projection_of(SCRIPT_5, ["x"])
        with make_oracle() as oracle:
            oracle.push()
            oracle.assert_constraint(xor_c("x", 4, (1, 1, 1, 1), 0))
            result = enumerate_count(oracle, p)
            oracle.pop()
            assert oracle.depth == 0
        assert result.count == 2

    def test_push_pop_and_depth(self):
        p = projection_of(SCRIPT_5, ["x"])
        with make_oracle() as oracle:
            assert oracle.depth == 0
            oracle.push()
            oracle.assert_constraint(BlockingClause(proj(bv("x", 4)), ((0,),)))
            assert oracle.depth == 1
            assert enumerate_count(oracle, p).count == 4
            oracle.pop()
            assert enumerate_count(oracle, p).count == 5

    def test_control_commands_in_script_are_dropped(self):
        script = SCRIPT_5 + "(check-sat)\n(get-model)\n(exit)\n"
        p = projection_of(SCRIPT_5, ["x"])
        with make_oracle(script) as oracle:
            assert enumerate_count(oracle, p).count == 5

    def test_reset_assertions_in_script_is_passed_on(self):
        script = "(declare-const x (_ BitVec 4))\n(assert (= x #b0000))\n(reset-assertions)\n"
        p = projection_of(SCRIPT_5, ["x"])
        with make_oracle(script + "(assert (bvult x #b0101))\n") as oracle:
            assert enumerate_count(oracle, p).count == 5

    def test_handshake_options_in_script_are_dropped(self):
        script = "(set-option :print-success false)\n" + SCRIPT_5
        p = projection_of(SCRIPT_5, ["x"])
        with make_oracle(script) as oracle:
            assert oracle.check_sat() is SolverResult.SAT

    def test_get_value_width_validation(self):
        with make_oracle() as oracle:
            # force bit 2 of x high, so the only model below 5 is x=4
            oracle.assert_constraint(
                HashConstraint(
                    Family.XOR, (Slice("x", 4, 2, 3),), (1,), None, 2, 1, 1
                )
            )
            assert oracle.check_sat() is SolverResult.SAT
            lying = proj(bv("x", 2))  # declared width is 4
            with pytest.raises(ProtocolError):
                oracle.get_projected_model(lying)

    def test_a_read_timeout_ends_the_session(self, tmp_path):
        flag = tmp_path / "hang"
        log = tmp_path / "wire.log"
        cmd = MINISOLVE + ["--hang-flag-file", str(flag)]
        with make_oracle(command=cmd, transcript=log) as oracle:
            oracle.push()
            oracle.assert_constraint(BlockingClause(proj(bv("x", 4)), ((0,),)))
            oracle.deadline = time.monotonic() + 0.5
            flag.touch()
            with pytest.raises(OracleTimeout):
                oracle.check_sat()
            assert oracle.pid is None  # killed, and not respawned
            with pytest.raises(SolverCrashed):
                oracle.check_sat()
            oracle.close()
        assert log.read_text().splitlines()[-1].startswith("# timeout")

    def test_a_spent_deadline_ends_the_session(self, tmp_path):
        log = tmp_path / "wire.log"
        with make_oracle(transcript=log) as oracle:
            oracle.push()
            oracle.deadline = time.monotonic() - 1.0
            start = time.monotonic()
            with pytest.raises(OracleTimeout):
                oracle.check_sat()
            assert time.monotonic() - start < 0.5  # no wait for the reply
            assert oracle.pid is None
            with pytest.raises(SolverCrashed):
                oracle.push()
            oracle.close()
        lines = log.read_text().splitlines()
        assert lines[-2] == "> (check-sat)"
        assert lines[-1].startswith("# timeout")

    def test_immediate_exit_is_a_crash(self):
        with pytest.raises(SolverCrashed):
            make_oracle(command=["sh", "-c", "exit 0"])

    def test_unknown_binary_is_a_crash(self):
        with pytest.raises(SolverCrashed):
            make_oracle(command=["pact-no-such-solver-binary"])

    def test_transcript_written(self, tmp_path):
        log = tmp_path / "wire.log"
        p = projection_of(SCRIPT_5, ["x"])
        with make_oracle(transcript=log) as oracle:
            oracle.check_sat()
            oracle.get_projected_model(p)
        text = log.read_text()
        assert "> (check-sat)" in text
        assert "< sat" in text


# a stand-in solver: acknowledges every command but the first that starts
# with `reject`, which it answers with an error; answers check-sat with
# `check_sat` and get-value with `reply`
FAKE_SOLVER = r"""
import sys
reply, check_sat, reject = sys.argv[1:]
for line in sys.stdin:
    if line.startswith("(exit"):
        break
    if line.startswith("(get-value"):
        out = reply
    elif line.startswith("(check-sat"):
        out = check_sat
    elif reject and line.startswith(reject):
        out, reject = '(error "rejected")', ""
    else:
        out = "success"
    sys.stdout.write(out + "\n")
    sys.stdout.flush()
"""


def fake_solver(reply="()", check_sat="sat", reject=""):
    return [sys.executable, "-c", FAKE_SOLVER, reply, check_sat, reject]


class TestReplyParsing:
    def test_get_value_reply_split_over_two_lines(self):
        script = "(declare-const x (_ BitVec 4))\n"
        p = projection_of(script, ["x"])
        with make_oracle(script, command=fake_solver("((x\n  #b0101))")) as oracle:
            assert oracle.check_sat() is SolverResult.SAT
            assert oracle.get_projected_model(p) == {"x": 5}

    @pytest.mark.parametrize(
        "reply, expected",
        [
            # other solvers may answer in the forms minisolve never sends
            ("((x #x5))", {"x": 5}),
            ("((x 5))", {"x": 5}),
            ("((x (_ bv5 4)))", {"x": 5}),
            # replies that are no model of x
            ('(error "no model")', "get-value failed"),
            ("((x))", "malformed get-value pair"),
            ("((y #b0101))", "omitted 'x'"),
            ("((x #q1))", "cannot parse bitvector value"),
            # a literal of another width, or a numeral out of range
            ("((x #b00101))", "5-bit value '#b00101' for 'x' \\(width 4\\)"),
            ("((x #x05))", "8-bit value '#x05' for 'x'"),
            ("((x 16))", "value 16 out of range for 'x'"),
        ],
    )
    def test_get_value_reply_forms(self, reply, expected):
        script = "(declare-const x (_ BitVec 4))\n"
        p = projection_of(script, ["x"])
        with make_oracle(script, command=fake_solver(reply)) as oracle:
            assert oracle.check_sat() is SolverResult.SAT
            if isinstance(expected, dict):
                assert oracle.get_projected_model(p) == expected
            else:
                with pytest.raises(ProtocolError, match=expected):
                    oracle.get_projected_model(p)

    def test_quoted_symbol_with_paren_in_reply(self):
        script = "(declare-const |a)b| (_ BitVec 4))\n"
        p = projection_of(script, ["a)b"])
        with make_oracle(script, command=fake_solver("((|a)b| #b0011))")) as oracle:
            assert oracle.check_sat() is SolverResult.SAT
            assert oracle.get_projected_model(p) == {"a)b": 3}

    def test_an_unexpected_check_sat_answer_is_a_protocol_error(self):
        with make_oracle(command=fake_solver(check_sat="maybe")) as oracle:
            with pytest.raises(ProtocolError, match="unexpected check-sat answer 'maybe'"):
                oracle.check_sat()

    def test_two_replies_on_one_line_are_a_protocol_error(self):
        script = "(declare-const x (_ BitVec 4))\n"
        p = projection_of(script, ["x"])
        reply = "((x #b0101)) ((x #b0110))"
        with make_oracle(script, command=fake_solver(reply)) as oracle:
            assert oracle.check_sat() is SolverResult.SAT
            with pytest.raises(ProtocolError, match="more than one reply"):
                oracle.get_projected_model(p)


# a stand-in that reads the handshake and the script load, which arrive as
# one write, closes its input, acknowledges them and exits: the handle
# opens, and its next flush finds no reader
EXITS_AFTER_LOAD = r"""
import os
batch = os.read(0, 65536)
os.close(0)
os.write(1, b"success\n" * batch.count(b"\n"))
"""


# a stand-in that writes its pid to the file its argument names, acknowledges
# three commands (the two handshake options and a declaration), then stops
# reading for 10 s and exits
STOPS_READING = r"""
import os, sys, time
with open(sys.argv[1], "w") as f:
    f.write(str(os.getpid()))
for _ in range(3):
    sys.stdin.readline()
    print("success", flush=True)
time.sleep(10)
"""


class TestOwedAcks:
    """Acks of push, pop and assert are read lazily, in order, before the
    next answer or in close()."""

    SCRIPT = "(declare-const x (_ BitVec 4))\n"  # no assert for the stand-in to reject

    @pytest.mark.parametrize(
        "reject, named", [("(push", "(push 1)"), ("(assert", "(assert (not (= x #b0000)))")]
    )
    def test_a_rejected_command_surfaces_at_the_next_answer(self, reject, named):
        with make_oracle(self.SCRIPT, command=fake_solver(reject=reject)) as oracle:
            oracle.push()
            oracle.assert_constraint(BlockingClause(proj(bv("x", 4)), ((0,),)))  # not waited for
            with pytest.raises(ProtocolError, match=re.escape(f"expected success for {named!r}")):
                oracle.check_sat()
            assert oracle.pid is None  # the session ended with it
            with pytest.raises(SolverCrashed):
                oracle.check_sat()

    def test_a_rejected_last_command_surfaces_in_close(self):
        oracle = make_oracle(command=fake_solver(reject="(push"))
        oracle.push()
        with pytest.raises(ProtocolError, match=re.escape("expected success for '(push 1)'")):
            oracle.close()
        assert oracle.pid is None
        oracle.close()  # released already; a second close is quiet

    def test_close_does_not_replace_the_error_in_flight(self):
        with pytest.raises(RuntimeError, match="in flight"):
            with make_oracle(command=fake_solver(reject="(push")) as oracle:
                oracle.push()
                raise RuntimeError("in flight")
        assert oracle.pid is None

    def test_a_rejected_command_is_an_error_record(self, tmp_path):
        path = tmp_path / "five.smt2"
        path.write_text(SCRIPT_5)
        config = cli.RunConfig(
            "count", str(path), project="x", seed=1,
            solver_cmd=shlex.join(fake_solver(reject="(push")),
        )
        record, code = cli.run_count(config)
        assert (record.status, code) == ("error", cli.EXIT_ERROR)
        assert "expected success for '(push 1)'" in record.detail
        assert "Traceback" not in record.to_json()

    def test_a_flush_into_a_closed_pipe_is_a_crash(self):
        with make_oracle(command=[sys.executable, "-c", EXITS_AFTER_LOAD]) as oracle:
            oracle.push()
            with pytest.raises(SolverCrashed, match="pipe broke"):
                oracle.check_sat()
            assert oracle.pid is None

    @pytest.mark.parametrize("mode", ["count", "baseline"])
    def test_a_closed_pipe_ends_the_run_as_an_error(self, tmp_path, capsys, mode):
        path = tmp_path / "five.smt2"
        path.write_text(SCRIPT_5)
        command = shlex.join([sys.executable, "-c", EXITS_AFTER_LOAD])
        code = cli.main([mode, str(path), "--project", "x", "--solver-cmd", command])
        record = cli.ResultRecord.from_json(capsys.readouterr().out)
        assert (record.status, code) == ("error", cli.EXIT_ERROR)
        assert "pipe broke" in record.detail

    def test_a_huge_script_loads_without_filling_a_pipe(self):
        # 20,000 acks are 160 kB, more than a pipe holds: sent in one go,
        # the stand-in would block writing them while the handle blocked
        # writing commands it no longer reads
        script = "".join(
            f"(declare-const x{i} (_ BitVec 8))\n(assert (bvult x{i} #x10))\n"
            for i in range(10_000)
        )
        start = time.monotonic()
        with make_oracle(script, command=fake_solver(), deadline=start + 10) as oracle:
            assert oracle.check_sat() is SolverResult.SAT
        assert time.monotonic() - start < 10

    def test_a_write_the_solver_does_not_read_ends_at_the_deadline(self, tmp_path):
        # a 550 kB assertion fills the stand-in's input pipe; a write that
        # waited for room would end in a broken pipe once the stand-in exits
        # after 10 s, so a regression fails instead of hanging
        script = "(declare-const x (_ BitVec 8))\n(assert (or %s))\n" % " ".join(
            f"(= x #x{i % 256:02x})" for i in range(50_000)
        )
        pid_file, log = tmp_path / "pid", tmp_path / "wire.log"
        command = [sys.executable, "-c", STOPS_READING, str(pid_file)]
        start = time.monotonic()
        with pytest.raises(OracleTimeout, match="did not read its input"):
            make_oracle(script, command=command, deadline=start + 2, transcript=log)
        assert time.monotonic() - start < 3  # within a second of the deadline
        assert log.read_text().splitlines()[-1].startswith("# timeout")
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)  # killed and reaped

    def test_every_command_gets_one_reply_in_order(self, tmp_path):
        script = "(declare-const x (_ BitVec 8))\n(assert (bvult x #xc8))\n"
        log = tmp_path / "wire.log"
        with make_oracle(script, transcript=log) as oracle:
            result = pact_count(oracle, projection_of(script, ["x"]), seed=1)
        assert result.stats.check_sat_calls > 100
        lines = log.read_text().splitlines()
        sent = [line[2:] for line in lines if line.startswith("> ")]
        got = [line[2:] for line in lines if line.startswith("< ")]
        assert sent[-1] == "(exit)" and len(got) == len(sent) - 1  # exit is not read
        for cmd, reply in zip(sent, got):
            if cmd == "(check-sat)":
                assert reply in ("sat", "unsat")
            elif cmd.startswith("(get-value"):
                assert re.fullmatch(r"\(\(x #b[01]{8}\)\)", reply), reply
            else:
                assert reply == "success", cmd
        assert {cmd.split()[0] for cmd in sent} == {
            "(set-option", "(declare-const", "(assert", "(push", "(pop",
            "(check-sat)", "(get-value", "(exit)",
        }
        # no reply comes before its command, and an ack is not waited for
        # before the next command is sent
        n_sent = n_got = 0
        for line in lines:
            n_sent += line.startswith("> ")
            n_got += line.startswith("< ")
            assert n_got <= n_sent
        assert "> (check-sat)" in [
            lines[i + 1] for i, line in enumerate(lines[:-1]) if line.startswith("> (assert")
        ]
