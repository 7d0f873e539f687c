"""Counting-loop tests: frozen constants, boundary search, refinement,
and end-to-end estimates on sets of known size."""

import dataclasses
import hashlib
import math
import random
import sys

import pytest

from pact.corpus import build, smoke_preset
from pact.counter import (
    SATURATED,
    ModelCache,
    SaturatingCount,
    find_boundary,
    find_median,
    fix_last_hash,
    get_constants,
    iteration_streams,
    max_hash_index,
    pact_count,
    saturating_count,
)
from pact.errors import ExhaustedIndices, InconsistentOracle, InvalidParameters
from pact.hashing import Family, HashConstraint, Slice, generate_hash
from pact.oracle import InMemoryOracle, SubprocessOracle
from pact.smtlib import (
    BlockingClause,
    ProjectionSet,
    SortedVar,
    parse_declarations,
    resolve_projection,
)
from stand_ins import EnumeratingOracle


def bv(name, width):
    return SortedVar(name, f"(_ BitVec {width})", width)


def proj(width, name="x"):
    return ProjectionSet((bv(name, width),))


class TestConstants:
    # values computed by hand from the closed-form expressions

    def test_frozen_defaults(self):
        c = get_constants(0.8, 0.2, Family.XOR)
        assert (c.thresh, c.itercount, c.ell) == (73, 67, 1)

    def test_frozen_prime(self):
        c = get_constants(0.8, 0.2, Family.PRIME)
        assert (c.thresh, c.itercount, c.ell) == (73, 90, 4)

    def test_frozen_eps_one(self):
        assert get_constants(1.0, 0.2, Family.SHIFT).thresh == 61

    @pytest.mark.parametrize("eps,delta", [(0, 0.2), (-1, 0.2), (0.8, 0), (0.8, 1.0)])
    def test_invalid_parameters(self, eps, delta):
        with pytest.raises(InvalidParameters):
            get_constants(eps, delta, Family.XOR)


class TestSaturatingCount:
    def test_small_set_is_exact(self):
        oracle = InMemoryOracle(proj(8), range(5))
        assert saturating_count(oracle, proj(8), 73) == SaturatingCount.exact(5)
        assert oracle.depth == 0
        assert len(oracle.live_values()) == 5  # blocking was scoped to a frame

    def test_at_threshold_saturates(self):
        oracle = InMemoryOracle(proj(8), range(73))
        assert not saturating_count(oracle, proj(8), 73).is_exact

    def test_one_below_threshold(self):
        oracle = InMemoryOracle(proj(8), range(72))
        assert saturating_count(oracle, proj(8), 73) == SaturatingCount.exact(72)

    def test_empty_set(self):
        oracle = InMemoryOracle(proj(8), [])
        assert saturating_count(oracle, proj(8), 73) == SaturatingCount.exact(0)

    def test_threshold_one(self):
        oracle = InMemoryOracle(proj(8), [9])
        assert not saturating_count(oracle, proj(8), 1).is_exact

    def test_invalid_threshold(self):
        oracle = InMemoryOracle(proj(8), [1])
        with pytest.raises(InvalidParameters):
            saturating_count(oracle, proj(8), 0)


class IgnoresHashes(EnumeratingOracle):
    """Inconsistent: accepts hash constraints and drops them."""

    def assert_constraint(self, constraint):
        if not isinstance(constraint, HashConstraint):
            super().assert_constraint(constraint)


class IgnoresBlocks(EnumeratingOracle):
    """Inconsistent: accepts blocking clauses and drops them."""

    def assert_constraint(self, constraint):
        if not isinstance(constraint, BlockingClause):
            super().assert_constraint(constraint)


def low_bit_is_zero(width):
    return HashConstraint(
        Family.XOR,
        tuple(Slice("x", width, i, i + 1) for i in range(width)),
        (1,) + (0,) * (width - 1),
        None,
        2,
        0,
        1,
    )


class TestModelCache:
    def test_known_members_saturate_without_the_oracle(self):
        p = proj(8)
        oracle = EnumeratingOracle(p, range(200))
        cache = ModelCache(p)
        assert not saturating_count(oracle, p, 73, cache).is_exact
        calls = oracle.stats.check_sat_calls
        assert not saturating_count(oracle, p, 73, cache).is_exact
        assert oracle.stats.check_sat_calls == calls

    def test_a_cell_of_known_members_sends_nothing(self):
        p = proj(8)
        oracle = EnumeratingOracle(p, range(200))
        cache = ModelCache(p)
        cache.add([{"x": v} for v in range(73)], ())
        oracle.push()
        assert oracle.count_upto(p, 73, cache) == 73
        stats = oracle.stats
        assert (stats.check_sat_calls, stats.assertions_sent, oracle.depth) == (0, 0, 1)

    def test_known_members_are_blocked_with_one_assertion(self):
        p = proj(8)
        oracle = EnumeratingOracle(p, range(100))
        cache = ModelCache(p)
        cache.add([{"x": v} for v in range(0, 100, 2)], ())
        assert saturating_count(oracle, p, 200, cache) == SaturatingCount.exact(100)
        # one combined clause, then one clause per fetched model
        assert oracle.stats.assertions_sent == 1 + 50
        assert oracle.stats.check_sat_calls == 50 + 1  # the last says unsat
        assert cache.members(()).size == 100

    def test_a_model_outside_the_cell_is_inconsistent(self):
        p = proj(8)
        oracle = IgnoresHashes(p, range(40))
        cache = ModelCache(p)
        c = low_bit_is_zero(8)
        oracle.push()
        oracle.assert_constraint(c)
        with pytest.raises(InconsistentOracle, match="outside the cell"):
            saturating_count(oracle, p, 73, cache, [c])
        assert oracle.depth == 1  # the count's frame is unwound

    def test_a_refinement_candidate_is_checked_too(self):
        # the boundary constraint meets every value, so the oracle's answers
        # lie in its cell; the first candidate's cell is only some of them
        p = proj(8)
        oracle = IgnoresHashes(p, range(40))
        rng = random.Random(3)
        chain = [generate_hash(p, 4, Family.PRIME, rng)]
        chain[0] = dataclasses.replace(chain[0], coeffs=(0, 0), offset=0, target=0)
        cache = ModelCache(p)
        with pytest.raises(InconsistentOracle, match="outside the cell"):
            fix_last_hash(
                cell_probe(oracle, p, chain, cache=cache),
                chain, 1, SaturatingCount.exact(40), p, rng,
            )

    def test_a_repeated_model_is_inconsistent(self):
        p = proj(8)
        oracle = IgnoresBlocks(p, range(40))
        with pytest.raises(InconsistentOracle, match="already returned"):
            saturating_count(oracle, p, 73, ModelCache(p))

    def test_a_known_model_returned_again_is_inconsistent(self):
        p = proj(8)
        oracle = IgnoresBlocks(p, range(40))
        cache = ModelCache(p)
        cache.add([{"x": 0}], ())
        with pytest.raises(InconsistentOracle, match="already returned"):
            saturating_count(oracle, p, 73, cache)


def scan_chain(p, values, family, seed, k, thresh=73, ell=1):
    """Cell counts of iteration k's keyed chain at every length up to the
    deepest worth probing, one constraint at a time: the linear scan the
    search must agree with."""
    chain_rng, _ = iteration_streams(seed, k)
    oracle = InMemoryOracle(p, values)
    counts = [saturating_count(oracle, p, thresh)]
    chain = []
    for _ in range(max_hash_index(p, family, ell)):
        c = generate_hash(p, ell, family, chain_rng)
        chain.append(c)
        oracle.push()
        oracle.assert_constraint(c)
        counts.append(saturating_count(oracle, p, thresh))
    return counts, chain


def cell_probe(oracle, p, chain, thresh=73, cache=None):
    """A probe as `find_boundary` and `fix_last_hash` call it: count the
    cell of the chain's first i constraints in a frame of its own."""

    def probe(i):
        oracle.push()
        for c in chain[:i]:
            oracle.assert_constraint(c)
        count = saturating_count(oracle, p, thresh, cache, chain[:i])
        oracle.pop()
        return count

    return probe


def first_exact(counts):
    return next(i for i, c in enumerate(counts) if c.is_exact)


class TestLedgerAndSearch:
    """`find_boundary` over scripted and real chains: where it probes, what
    it returns, and the monotonicity guard on the counts it sees."""

    @staticmethod
    def search(boundary, hint=1, max_index=100):
        seen = []

        def probe(i):
            seen.append(i)
            return SATURATED if i < boundary else SaturatingCount.exact(3)

        return find_boundary(probe, hint, max_index), seen

    def test_doubling_from_zero(self):
        assert self.search(1) == ((1, SaturatingCount.exact(3), 1), [1])

    def test_doubling_continues(self):
        (index, _, probes), seen = self.search(9)
        assert seen == [1, 2, 4, 8, 16, 12, 10, 9]
        assert (index, probes) == (9, 8)

    def test_bisection(self):
        (index, _, _), seen = self.search(12)
        assert seen == [1, 2, 4, 8, 16, 12, 10, 11]
        assert index == 12

    def test_clamped_by_max_index(self):
        (index, _, _), seen = self.search(6, max_index=6)
        assert seen == [1, 2, 4, 6, 5]
        assert index == 6

    def test_saturated_at_max_index_is_exhausted(self):
        with pytest.raises(ExhaustedIndices):
            self.search(7, max_index=6)
        with pytest.raises(ExhaustedIndices):
            self.search(7, hint=6, max_index=6)

    def test_gallops_up_from_a_saturated_hint(self):
        (index, _, _), seen = self.search(30, hint=20)
        assert seen == [20, 21, 23, 27, 35, 31, 29, 30]
        assert index == 30

    def test_gallops_down_from_an_exact_hint(self):
        (index, _, probes), seen = self.search(3, hint=20)
        assert seen == [20, 19, 17, 13, 5, 2, 3]
        assert (index, probes) == (3, 7)

    def test_hint_is_clamped(self):
        assert self.search(1, hint=0)[1] == [1]
        assert self.search(1, hint=-5)[1] == [1]
        (index, _, _), seen = self.search(100, hint=500, max_index=100)
        assert seen == [100, 99]
        assert index == 100

    def test_monotonicity_enforced_on_counts(self):
        # 16 is exact at 5, then the shallower 12 claims fewer: inconsistent
        counts = {16: SaturatingCount.exact(5), 12: SaturatingCount.exact(2)}
        with pytest.raises(InconsistentOracle, match="not non-increasing"):
            find_boundary(lambda i: counts.get(i, SATURATED), 1, 100)
        # the same going down from a hint
        counts = {9: SaturatingCount.exact(2), 8: SaturatingCount.exact(1)}
        with pytest.raises(InconsistentOracle, match="not non-increasing"):
            find_boundary(lambda i: counts.get(i, SATURATED), 9, 100)

    @pytest.mark.parametrize("family, ell, n, width", [
        (Family.XOR, 1, 3_000, 16),
        (Family.PRIME, 4, 3_000, 16),
        (Family.SHIFT, 4, 3_000, 16),
    ])
    def test_boundary_matches_linear_scan(self, family, ell, n, width):
        p = proj(width)
        values = random.Random(width).sample(range(2**width), n)
        for k in range(3):
            counts, _ = scan_chain(p, values, family, seed=4, k=k, ell=ell)
            max_index = len(counts) - 1
            boundary = first_exact(counts)
            for hint in (1, boundary - 1, boundary, boundary + 1, max_index):
                index, count, _ = find_boundary(counts.__getitem__, hint, max_index)
                assert (index, count) == (boundary, counts[boundary])


class TestMaxIndexAndEstimate:
    def test_max_index_xor(self):
        assert max_hash_index(proj(8), Family.XOR, 1) == 9

    def test_max_index_prime(self):
        # p = 17: 17^2 = 289 >= 256
        assert max_hash_index(proj(8), Family.PRIME, 4) == 3

    def test_max_index_shift(self):
        assert max_hash_index(proj(8), Family.SHIFT, 4) == 3

    @staticmethod
    def replayed_estimates(family, cells_per_constraint, iterations=5):
        """The first iterations' estimates, replayed from their keyed
        streams: the count of the kept constraint's cell, times the cells
        of the constraints above the boundary and of the kept one."""
        p = proj(16)
        values = random.Random(16).sample(range(2**16), 3_000)
        estimates = []
        for k in range(iterations):
            counts, chain = scan_chain(p, values, family, seed=9, k=k, ell=4)
            index = first_exact(counts)
            probe = cell_probe(InMemoryOracle(p, values), p, chain)
            _, refine_rng = iteration_streams(9, k)
            kept_count, _, _ = fix_last_hash(
                probe, chain, index, counts[index], p, refine_rng
            )
            kept = chain[index - 1]
            estimates.append(
                kept_count.count * cells_per_constraint ** (index - 1) * kept.range_size
            )
        result = pact_count(InMemoryOracle(p, values), p, family=family, seed=9)
        return estimates, list(result.raw_estimates[:iterations])

    def test_estimate_scales_by_cells(self):
        # shift constraints at ell=4 each cut 2^4 cells
        replayed, counted = self.replayed_estimates(Family.SHIFT, 16)
        assert replayed == counted

    def test_estimate_prime_range(self):
        # prime constraints at ell=4 each cut 17 cells
        replayed, counted = self.replayed_estimates(Family.PRIME, 17)
        assert replayed == counted


class TestMedian:
    def test_odd(self):
        assert find_median([100, 3, 80]) == 80

    def test_even_takes_lower(self):
        assert find_median([4, 1, 3, 2]) == 2

    def test_empty(self):
        with pytest.raises(ValueError):
            find_median([])


def prepared_boundary(n, width, family, seed, thresh=73, ell=4):
    """Count the cell of one constraint over a size-n set: a boundary at
    index 1 when its count is exact."""
    p = proj(width)
    oracle = InMemoryOracle(p, range(n))
    rng = random.Random(seed)
    chain = [generate_hash(p, ell, family, rng)]
    probe = cell_probe(oracle, p, chain, thresh)
    return oracle, p, chain, rng, probe, probe(1)


class TestFixLastHash:
    def test_xor_is_untouched(self):
        # 100 solutions: one parity constraint leaves ~50, well under thresh
        oracle, p, chain, rng, probe, count = prepared_boundary(
            100, 10, Family.XOR, seed=1, ell=1
        )
        assert count.is_exact
        boundary = chain[0]
        kept_count, probes, exhausted = fix_last_hash(probe, chain, 1, count, p, rng)
        assert (chain, kept_count, probes, exhausted) == ([boundary], count, 0, False)
        assert oracle.depth == 0

    def test_prime_exhausts_and_keeps_coarsest(self):
        # n=150: cells at p=17 average ~9, and every coarser candidate
        # (11, 5, 3) still lands far below thresh=73, so the refinement
        # runs out of exponents
        oracle, p, chain, rng, probe, count = prepared_boundary(
            150, 10, Family.PRIME, seed=5
        )
        assert count.is_exact
        kept_count, probes, exhausted = fix_last_hash(probe, chain, 1, count, p, rng)
        assert exhausted
        assert probes == 3
        assert kept_count == probe(1)
        assert chain[0].range_size == 3  # coarsest prime kept
        assert oracle.depth == 0

    def test_a_saturating_candidate_puts_the_kept_constraint_back(self):
        # 9,000 values: a p=17 cell holds ~530 and a 17x17 one ~31, so the
        # boundary is at 2; the p=11 candidate's ~48 stays exact and the
        # p=5 one's ~106 saturates, so the p=11 candidate is put back
        p = proj(16)
        oracle = InMemoryOracle(p, range(9_000))
        rng = random.Random(0)
        chain = [generate_hash(p, 4, Family.PRIME, rng) for _ in range(2)]
        probe = cell_probe(oracle, p, chain)
        count = probe(2)
        assert count.is_exact and not probe(1).is_exact
        kept_count, probes, exhausted = fix_last_hash(probe, chain, 2, count, p, rng)
        assert (probes, exhausted) == (2, False)
        assert chain[1].range_size == 11
        assert kept_count == probe(2) == SaturatingCount.exact(47)
        assert oracle.depth == 0

    def test_precondition_checks(self):
        oracle, p, chain, rng, probe, count = prepared_boundary(
            150, 10, Family.PRIME, seed=5
        )
        with pytest.raises(ValueError):
            fix_last_hash(probe, chain, 1, SATURATED, p, rng)
        for index in (0, 2):
            with pytest.raises(ValueError):
                fix_last_hash(probe, chain, index, count, p, rng)


class TestPactCount:
    def test_early_exit_on_small_set(self):
        oracle = InMemoryOracle(proj(8), range(5))
        result = pact_count(oracle, proj(8), seed=7)
        assert result.estimate == 5
        assert result.early_exit
        assert result.raw_estimates == (5,)
        assert result.probe_counts == ()
        assert oracle.depth == 0

    def test_deterministic_for_a_seed(self):
        p = proj(10)
        runs = [
            pact_count(InMemoryOracle(p, range(500)), p, seed=7) for _ in range(2)
        ]
        assert runs[0].estimate == runs[1].estimate
        assert runs[0].raw_estimates == runs[1].raw_estimates

    def test_estimates_follow_the_keyed_chains(self):
        # xor keeps each boundary constraint, so iteration k's estimate is
        # fixed by its own chain: boundary count times cells, whatever the
        # search probed in it or in the iterations before
        n, p = 3_000, proj(16)
        values = random.Random(1).sample(range(2**16), n)
        result = pact_count(InMemoryOracle(p, values), p, seed=9)
        for k, estimate in enumerate(result.raw_estimates[:5]):
            counts, _ = scan_chain(p, values, Family.XOR, seed=9, k=k)
            index = first_exact(counts)
            assert estimate == counts[index].count * 2**index

    def test_seeds_differ(self):
        p = proj(10)
        a = pact_count(InMemoryOracle(p, range(500)), p, seed=7)
        b = pact_count(InMemoryOracle(p, range(500)), p, seed=8)
        assert a.raw_estimates != b.raw_estimates

    def test_xor_estimate_within_guarantee(self):
        n = 2276
        p = proj(13)
        oracle = InMemoryOracle(p, range(n))
        result = pact_count(oracle, p, epsilon=0.8, delta=0.2, seed=3)
        assert n / 1.8 <= result.estimate <= 1.8 * n
        assert not result.early_exit
        assert len(result.raw_estimates) == 67
        assert oracle.depth == 0
        assert result.stats.check_sat_calls > 0

    def test_prime_estimate_within_guarantee(self):
        n = 300
        p = proj(10)
        result = pact_count(
            InMemoryOracle(p, range(n)), p, family=Family.PRIME, seed=11
        )
        assert n / 1.8 <= result.estimate <= 1.8 * n
        assert len(result.raw_estimates) == 90

    def test_shift_estimate_within_guarantee(self):
        n = 300
        p = proj(10)
        result = pact_count(
            InMemoryOracle(p, range(n)), p, family=Family.SHIFT, seed=11
        )
        assert n / 1.8 <= result.estimate <= 1.8 * n

    def test_probe_budget_per_iteration(self):
        n = 2276
        p = proj(13)
        result = pact_count(InMemoryOracle(p, range(n)), p, seed=3)
        m = max_hash_index(p, Family.XOR, 1)
        bound = 2 * math.ceil(math.log2(m + 1)) + 1 + 1
        assert max(result.probe_counts) <= bound

    def test_exhaustion_kept_by_default(self):
        # 150 solutions under prime hashing: every iteration's refinement
        # exhausts (see TestFixLastHash), but the run still completes
        n, p = 150, proj(10)
        result = pact_count(
            InMemoryOracle(p, range(n)), p, family=Family.PRIME, seed=5
        )
        assert result.exhausted_refinements > 0
        assert n / 1.8 <= result.estimate <= 1.8 * n

    # One 16-bit set of 5,000 values; each row pins a count's median, a
    # digest of its raw estimates and of its probes per iteration, its
    # exhausted refinements, its check-sats when each cell is enumerated
    # model by model, and its check-sats when each is counted in one step.
    PINNED = [
        (Family.XOR, 1, 4992, "377898c99b89fe03", "2cc3a0933f285cab", 0, 3165, 165),
        (Family.XOR, 2, 5248, "dbd5bdfbfcf7bfc8", "26083f63962b4ea6", 0, 3126, 155),
        (Family.XOR, 3, 4992, "5d74ba7c4299d9af", "2e8c6c9f81f70220", 0, 3179, 163),
        (Family.PRIME, 1, 4760, "b595d58c6b1d1b77", "7453710870cf682e", 1, 4556, 447),
        (Family.PRIME, 2, 5185, "320178c0a815fa6d", "176c3135104fd787", 0, 4548, 446),
        (Family.PRIME, 3, 5015, "68b9af7f11b93a66", "26155f880e60bf41", 0, 4564, 449),
        (Family.SHIFT, 1, 4864, "f85fef356edabd0f", "ed4ec3575dbd3d2e", 0, 4440, 384),
        (Family.SHIFT, 2, 4608, "0577f7ae4e64626d", "5d99b70918fee135", 0, 4430, 391),
        (Family.SHIFT, 3, 4736, "f72a1b75a9159079", "4337511d7bdc0840", 0, 4426, 379),
    ]

    @pytest.mark.parametrize(
        "family, seed, estimate, raw, probes, exhausted, check_sats, one_step_check_sats",
        PINNED,
        ids=["-".join(map(str, row[:-1])) for row in PINNED],
    )
    def test_pinned_estimates(
        self, family, seed, estimate, raw, probes, exhausted, check_sats, one_step_check_sats
    ):
        def digest(values):
            return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()[:16]

        p = proj(16)
        values = random.Random(16).sample(range(2**16), 5_000)
        for oracle_type, sats in (
            (InMemoryOracle, one_step_check_sats),
            (EnumeratingOracle, check_sats),
        ):
            result = pact_count(oracle_type(p, values), p, family=family, seed=seed)
            assert (
                result.estimate,
                digest(result.raw_estimates),
                digest(result.probe_counts),
                result.exhausted_refinements,
                result.stats.check_sat_calls,
            ) == (estimate, raw, probes, exhausted, sats), oracle_type.__name__

    # The same nine counts' assertions (chain constraints, refinement
    # candidates and blocking clauses), when each cell is counted in one
    # step and when it is enumerated model by model.  They pin the
    # push/assert sequence of the boundary search and the refinement.
    PINNED_ASSERTIONS = [
        (Family.XOR, 1, 481, 3645),
        (Family.XOR, 2, 479, 3604),
        (Family.XOR, 3, 481, 3659),
        (Family.PRIME, 1, 447, 5002),
        (Family.PRIME, 2, 445, 4990),
        (Family.PRIME, 3, 448, 5010),
        (Family.SHIFT, 1, 383, 4820),
        (Family.SHIFT, 2, 390, 4817),
        (Family.SHIFT, 3, 378, 4801),
    ]

    @pytest.mark.parametrize(
        "family, seed, one_step_assertions, assertions",
        PINNED_ASSERTIONS,
        ids=[f"{family}-{seed}" for family, seed, *_ in PINNED_ASSERTIONS],
    )
    def test_pinned_assertions(self, family, seed, one_step_assertions, assertions):
        p = proj(16)
        values = random.Random(16).sample(range(2**16), 5_000)
        for oracle_type, sent in (
            (InMemoryOracle, one_step_assertions),
            (EnumeratingOracle, assertions),
        ):
            result = pact_count(oracle_type(p, values), p, family=family, seed=seed)
            assert result.stats.assertions_sent == sent, oracle_type.__name__

    # The sha256 of the solver transcript of a seed-1 count of the
    # solver-smoke `smoke-pure-256` instance through pact-minisolve: every
    # command pact sends and every reply it reads, in order.
    PINNED_TRANSCRIPTS = {
        Family.XOR: "0e1a8a47e70b6e8c1eac08f11a803defcf2f8a239dc5481bec2cf1336ce0aff6",
        Family.PRIME: "f954633c543081783401afe3a27cdae0c21a045ac9a0d1108919d61070aa7f2f",
        Family.SHIFT: "efcc1edd92a0006f6587c9f2439418a8e9167f29f1cb730178f4c339760d1057",
    }

    @pytest.mark.parametrize("family", list(PINNED_TRANSCRIPTS), ids=str)
    def test_pinned_transcripts(self, family, tmp_path):
        (spec,) = [s for s in smoke_preset(seed=0) if s.name == "smoke-pure-256"]
        instance = build(spec)
        p = resolve_projection(parse_declarations(instance.script), instance.projection)
        log = tmp_path / "wire.log"
        command = [sys.executable, "-m", "pact.minisolve"]
        with SubprocessOracle(command, instance.script, transcript=log) as oracle:
            pact_count(oracle, p, family=family, seed=1)
        digest = hashlib.sha256(log.read_bytes()).hexdigest()
        assert digest == self.PINNED_TRANSCRIPTS[family]

    def test_rejects_bad_arguments(self):
        oracle = InMemoryOracle(proj(4), range(4))
        with pytest.raises(InvalidParameters):
            pact_count(oracle, proj(4), epsilon=0)
        with pytest.raises(InvalidParameters):
            pact_count(oracle, ProjectionSet(()))
        oracle.push()
        with pytest.raises(InvalidParameters):
            pact_count(oracle, proj(4))
