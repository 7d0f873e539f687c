"""Enumeration baseline: exact counts and deadline handling."""

import time

from pact.baseline import BaselineStatus, enumerate_count
from pact.oracle import InMemoryOracle
from pact.smtlib import ProjectionSet, SortedVar
from stand_ins import EnumeratingOracle


def proj(width=8):
    return ProjectionSet((SortedVar("x", f"(_ BitVec {width})", width),))


def test_exact_count():
    oracle = InMemoryOracle(proj(), range(37))
    result = enumerate_count(oracle, proj())
    assert result.status is BaselineStatus.EXACT
    assert result.count == 37
    assert oracle.depth == 0
    assert len(oracle.live_values()) == 37


def test_empty_set():
    result = enumerate_count(InMemoryOracle(proj(), []), proj())
    assert result.status is BaselineStatus.EXACT
    assert result.count == 0


def test_expired_deadline():
    oracle = InMemoryOracle(proj(), range(37))
    oracle.deadline = time.monotonic() - 1
    result = enumerate_count(oracle, proj())
    assert result.status is BaselineStatus.TIMED_OUT
    assert result.count == 0
    assert oracle.depth == 0


def test_wall_time_recorded():
    result = enumerate_count(EnumeratingOracle(proj(), range(5)), proj())
    assert result.wall_time >= 0
    assert result.stats.check_sat_calls == 6  # 5 sat + final unsat
