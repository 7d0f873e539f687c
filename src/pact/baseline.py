"""Exact projected counting.

The reference point the approximate counter is measured against: the
oracle's own `count_upto` with no cap.  A solver asks for a model and
blocks it until unsat; the in-memory oracle counts its live rows at once.
The oracle's deadline keeps a solver from churning forever on large
solution sets; a timed-out result means the true count is at least the
partial one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .errors import OracleTimeout
from .oracle import Oracle, QueryStats
from .smtlib import ProjectionSet


class BaselineStatus(Enum):
    EXACT = "exact"
    TIMED_OUT = "timed-out"


@dataclass(frozen=True)
class BaselineResult:
    status: BaselineStatus
    count: int  # exact, or a lower bound when timed out
    wall_time: float
    stats: QueryStats


def enumerate_count(oracle: Oracle, projection: ProjectionSet) -> BaselineResult:
    """Count projected models exactly, stopping at `oracle.deadline`.

    The enumeration runs inside its own frame, so the oracle comes back
    untouched.
    """
    t0 = time.perf_counter()
    base_stats = oracle.stats.copy()
    try:
        status, n = BaselineStatus.EXACT, oracle.count_upto(projection)
    except OracleTimeout as exc:
        status, n = BaselineStatus.TIMED_OUT, exc.count
    return BaselineResult(
        status=status,
        count=n,
        wall_time=time.perf_counter() - t0,
        stats=oracle.stats.minus(base_stats),
    )
