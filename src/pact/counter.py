"""Approximate projected counting via random hash partitions.

One iteration draws a chain of hash constraints, from a random stream
keyed by the seed and the iteration, and finds the chain's boundary: the
fewest leading constraints whose cell's saturating count falls below the
threshold.  The search starts at the previous iteration's boundary,
gallops up or down from it and then bisects.  A refinement then swaps
coarser candidates into the boundary's place in the chain while their
counts stay exact.  One probe counts every cell: it moves the oracle's
stack to the chain's leading constraints and hands the model cache the
same list.  The estimate scales the cell count by the product of the
range sizes of the cell's constraints, and the reported estimate is the
median over many iterations, which boosts the per-iteration confidence to
the requested level.  The boundary of a chain does not depend on where
its search started, so an estimate depends on the seed alone.  A count
keeps one `oracle.ModelCache` and hands it to every cell count, so an
enumerating oracle counts and blocks a cell's known members without
fetching them again; the in-memory oracle counts its live rows instead.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ExhaustedIndices, InconsistentOracle, InvalidParameters
from .hashing import Family, HashConstraint, generate_hash, range_size
from .oracle import ModelCache, Oracle, QueryStats
from .smtlib import ProjectionSet


@dataclass(frozen=True)
class SaturatingCount:
    """Either an exact cell count below the threshold or "at least thresh"."""

    count: int | None = None

    @property
    def is_exact(self) -> bool:
        return self.count is not None

    @classmethod
    def exact(cls, n: int) -> "SaturatingCount":
        return cls(n)

    def __repr__(self) -> str:
        return f"Exact({self.count})" if self.is_exact else "Saturated"


SATURATED = SaturatingCount()


@dataclass(frozen=True)
class Constants:
    thresh: int
    itercount: int
    ell: int


def get_constants(epsilon: float, delta: float, family: Family) -> Constants:
    """Threshold, iteration count, and range exponent for the guarantee."""
    if epsilon <= 0:
        raise InvalidParameters(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameters(f"delta must be in (0, 1), got {delta}")
    thresh = math.ceil(
        1 + 9.84 * (1 + epsilon / (1 + epsilon)) * (1 + 1 / epsilon) ** 2
    )
    multiplier = 17 if family is Family.XOR else 23
    itercount = math.ceil(multiplier * math.log(3 / delta, 2))
    ell = 1 if family is Family.XOR else 4
    return Constants(thresh=thresh, itercount=itercount, ell=ell)


def saturating_count(
    oracle: Oracle,
    projection: ProjectionSet,
    thresh: int,
    cache: ModelCache | None = None,
    cell: Sequence[HashConstraint] = (),
) -> SaturatingCount:
    """Count the current cell up to thresh: exact below it, saturated at it.

    The oracle holds the constraints of `cell`, and `oracle.count_upto`
    counts it with the cache's known members (see there).  Without a
    cache, a fresh one checks the models against `cell` and each other.
    """
    if thresh < 1:
        raise InvalidParameters(f"threshold must be >= 1, got {thresh}")
    if cache is None:
        cache = ModelCache(projection)
    n = oracle.count_upto(projection, thresh, cache, cell)
    return SATURATED if n >= thresh else SaturatingCount.exact(n)


def iteration_streams(seed: int, k: int) -> tuple[random.Random, random.Random]:
    """The random streams of a count's k-th iteration: one for its
    hash chain, drawn in chain order, and one for its refinement candidates.

    They depend on the seed and k alone, so the chain constraint at each
    index is the same whichever indices the search probes, in whichever
    order, and an estimate depends on the seed alone.
    """
    return (
        random.Random(f"pact:{seed}:{k}:chain"),
        random.Random(f"pact:{seed}:{k}:refine"),
    )


def find_boundary(
    probe: Callable[[int], SaturatingCount], hint: int, max_index: int
) -> tuple[int, SaturatingCount, int]:
    """The boundary of a hash chain: the fewest leading constraints whose
    cell count is exact, given that the unconstrained cell saturates.

    `probe(i)` counts the cell of the chain's first i constraints.  The
    search probes `hint` first (clamped to [1, max_index]); from a saturated
    cell it gallops up over hint+1, hint+3, hint+7, ... (capped at
    `max_index`) until a count is exact, from an exact one down over
    hint-1, hint-3, hint-7, ... until a cell saturates, and then bisects
    between the deepest saturated length and the shallowest exact one.
    `hint=1` gallops over 1, 2, 4, 8, ...  Counts never grow along a chain,
    so the boundary is unique, whatever the hint; an exact count below a
    deeper one means the oracle is inconsistent.  Returns the boundary, its
    count and the number of probes made.  (ApproxMC2's LogSATSearch,
    Chakraborty, Meel & Vardi, IJCAI'16, starts at the previous boundary
    the same way.)
    """
    low = 0  # deepest length known to saturate
    high, count = None, None  # shallowest length known exact, and its count
    probes = 0

    def exact_at(i: int) -> bool:
        nonlocal low, high, count, probes
        found = probe(i)
        probes += 1
        if not found.is_exact:
            low = i
            return False
        if count is not None and found.count < count.count:
            raise InconsistentOracle(
                "cell counts are not non-increasing along the chain: "
                f"index {i} -> {found}, index {high} -> {count}"
            )
        high, count = i, found
        return True

    hint = min(max(hint, 1), max_index)
    step = 1
    if exact_at(hint):
        while hint - step > 0 and exact_at(hint - step):
            step = 2 * step + 1
    else:
        while low < max_index and not exact_at(min(hint + step, max_index)):
            step = 2 * step + 1
        if high is None:
            raise ExhaustedIndices(
                f"cell still saturated with {low} constraints, more than the "
                "projected domain supports; the oracle is inconsistent"
            )
    while high - low > 1:
        exact_at((low + high) // 2)
    return high, count, probes


def max_hash_index(projection: ProjectionSet, family: Family, ell: int) -> int:
    """Deepest chain length worth probing: one past the point where the
    partition has at least as many cells as the whole projected domain."""
    p = range_size(family, ell)
    domain = 1 << projection.total_width
    m, cells = 0, 1
    while cells < domain:
        cells *= p
        m += 1
    return m + 1


def find_median(values) -> int:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def fix_last_hash(
    probe: Callable[[int], SaturatingCount],
    chain: list[HashConstraint],
    index: int,
    count: SaturatingCount,
    projection: ProjectionSet,
    rng: random.Random,
) -> tuple[SaturatingCount, int, bool]:
    """Swap the boundary constraint for coarser draws while counts stay exact.

    Entered at the chain's boundary `index`, whose cell count `count` is
    exact.  Replacement candidates of the boundary constraint's family, at
    decreasing range exponents below its own, each take its place at
    `chain[index - 1]` and are counted by `probe(index)`, the probe of
    `find_boundary`; an XOR constraint, at exponent 1, has none.  The first
    saturating candidate stops the search, and the previously kept
    constraint is put back in its place.  Returns the kept constraint's
    exact count, the number of candidates counted, and whether the
    exponents ran out with every candidate still exact.
    """
    if not count.is_exact:
        raise ValueError(f"the count at boundary index {index} must be exact")
    if not 1 <= index <= len(chain):
        raise ValueError(f"chain holds {len(chain)} constraints, need {index}")
    kept, kept_count = chain[index - 1], count
    probes = 0
    for ell_prime in range(kept.ell - 1, 0, -1):
        chain[index - 1] = generate_hash(projection, ell_prime, kept.family, rng)
        candidate_count = probe(index)
        probes += 1
        if not candidate_count.is_exact:
            chain[index - 1] = kept
            return kept_count, probes, False
        kept, kept_count = chain[index - 1], candidate_count
    return kept_count, probes, probes > 0


@dataclass(frozen=True)
class CountResult:
    estimate: int
    raw_estimates: tuple[int, ...]
    constants: Constants
    family: Family
    epsilon: float
    delta: float
    seed: int
    early_exit: bool
    probe_counts: tuple[int, ...]
    exhausted_refinements: int
    stats: QueryStats
    wall_time: float


def _one_iteration(
    oracle: Oracle,
    projection: ProjectionSet,
    consts: Constants,
    family: Family,
    streams: tuple[random.Random, random.Random],
    hint: int,
    max_index: int,
    cache: ModelCache,
) -> tuple[int, int, bool, int]:
    """One iteration's estimate, probes, whether its refinement exhausted,
    and its boundary before refinement."""
    entry_depth = oracle.depth
    chain_rng, refine_rng = streams
    chain: list[HashConstraint] = []
    held: list[HashConstraint] = []  # on the oracle stack, one per frame

    def move_to(cell: list[HashConstraint]) -> None:
        # pop down to the longest prefix `cell` shares with `held`, push the rest
        keep = 0
        while keep < min(len(held), len(cell)) and held[keep] is cell[keep]:
            keep += 1
        for _ in range(keep, len(held)):
            oracle.pop()
        for c in cell[keep:]:
            oracle.push()
            oracle.assert_constraint(c)
        held[:] = cell

    def probe(index: int) -> SaturatingCount:
        while len(chain) < index:
            chain.append(generate_hash(projection, consts.ell, family, chain_rng))
        cell = chain[:index]
        move_to(cell)
        return saturating_count(oracle, projection, consts.thresh, cache, cell)

    try:
        index, count, probes = find_boundary(probe, hint, max_index)
        kept_count, fix_probes, exhausted = fix_last_hash(
            probe, chain, index, count, projection, refine_rng
        )
        move_to([])
    except BaseException:
        oracle.unwind(entry_depth)
        raise
    cells = math.prod(c.range_size for c in chain[:index])
    return kept_count.count * cells, probes + fix_probes, exhausted, index


def fresh_seed() -> int:
    """The seed of a count that is given none."""
    return random.SystemRandom().getrandbits(32)


def pact_count(
    oracle: Oracle,
    projection: ProjectionSet,
    *,
    epsilon: float = 0.8,
    delta: float = 0.2,
    family: Family = Family.XOR,
    seed: int | None = None,
) -> CountResult:
    """Estimate the projected model count within a factor of 1 + epsilon,
    with confidence at least 1 - delta.  A count whose unconstrained cell
    is exact exits early, with that count as its one estimate.
    """
    t0 = time.perf_counter()
    if len(projection) == 0:
        raise InvalidParameters("projection set is empty")
    if oracle.depth != 0:
        raise InvalidParameters(f"oracle must start at depth 0, is at {oracle.depth}")
    consts = get_constants(epsilon, delta, family)
    if seed is None:
        seed = fresh_seed()
    base_stats = oracle.stats.copy()
    cache = ModelCache(projection)

    # the unconstrained count is shared by every iteration
    c0 = saturating_count(oracle, projection, consts.thresh, cache)
    estimates: list[int] = []
    probe_counts: list[int] = []
    exhausted_refinements = 0
    if c0.is_exact:
        estimates.append(c0.count)
    else:
        max_index = max_hash_index(projection, family, consts.ell)
        hint = 1  # where the next search starts: the last iteration's boundary
        for k in range(consts.itercount):
            estimate, probes, exhausted, hint = _one_iteration(
                oracle,
                projection,
                consts,
                family,
                iteration_streams(seed, k),
                hint,
                max_index,
                cache,
            )
            estimates.append(estimate)
            probe_counts.append(probes)
            exhausted_refinements += int(exhausted)
    return CountResult(
        estimate=find_median(estimates),
        raw_estimates=tuple(estimates),
        constants=consts,
        family=family,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        early_exit=c0.is_exact,
        probe_counts=tuple(probe_counts),
        exhausted_refinements=exhausted_refinements,
        stats=oracle.stats.minus(base_stats),
        wall_time=time.perf_counter() - t0,
    )
