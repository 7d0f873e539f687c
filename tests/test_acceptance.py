"""End-to-end acceptance gate.

Each test checks one shipping criterion and prints a single PASS/FAIL line
(visible under `pytest -s`).  Tolerances are pinned at module level; the
assertions use these values and nothing looser.
"""

import itertools
import json
import math
import random
import shutil
import sys
import time

import numpy as np

from pact.baseline import BaselineStatus, enumerate_count
from pact.cli import BenchConfig, RunConfig, run_bench, run_count
from pact.corpus import InstanceSpec, bench_preset, build, smoke_preset, write_corpus
from pact.counter import SATURATED, get_constants, pact_count, saturating_count
from pact.hashing import Family, HashConstraint, Slice, _widened_width_shift, eval_hash
from pact.oracle import InMemoryOracle, Oracle, SubprocessOracle
from pact.smtlib import ProjectionSet, SortedVar, parse_declarations, resolve_projection

TOLERANCE_FACTOR = 1.8       # 1 + epsilon at the default epsilon = 0.8
GUARANTEE_RATE = 0.80        # 1 - delta at the default delta = 0.2
XOR_MEAN_ERROR = 0.2
XOR_MAX_ERROR = 0.8
PRIME_SHIFT_MEAN_ERROR = 0.3
PROBE_SLOPE_LIMIT = 4.0
SMOKE_SEEDS = 5
SMOKE_REQUIRED = 4
BUDGET_HASH = 10.0           # seconds
BUDGET_COUNTER = 60.0
BUDGET_GUARANTEE = 1800.0
BUDGET_SMOKE = 600.0


def _report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {verdict} — {detail}"
    print(line)
    assert ok, line


def proj(width, name="x"):
    return ProjectionSet((SortedVar(name, f"(_ BitVec {width})", width),))


def within(estimate, true_count, factor=TOLERANCE_FACTOR):
    return true_count / factor <= estimate <= true_count * factor


SHIFT_SHAPES = (((2,), 1), ((2,), 2), ((3,), 2), ((1, 1), 1), ((2, 1), 2))


def _shift_pair_misses(widths, ell):
    """Input pairs on which the shift family, over every coefficient and
    offset choice, misses some output pair or hits it unevenly.

    The slices of `widths` cut one variable, low bits first.
    """
    total = sum(widths)
    bounds = list(itertools.accumulate(widths, initial=0))
    slices = tuple(Slice("x", total, lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    wbar = _widened_width_shift(slices, ell)
    cells = 1 << ell
    inputs = range(1 << total)
    values = np.array([
        [
            eval_hash(HashConstraint(Family.SHIFT, slices, tuple(a), b, cells, 0, ell, wbar),
                      {"x": x})
            for x in inputs
        ]
        for *a, b in itertools.product(range(1 << wbar), repeat=len(slices) + 1)
    ])
    share = len(values) // cells**2
    misses = 0
    for x, y in itertools.permutations(inputs, 2):
        hits = np.bincount(values[:, x] * cells + values[:, y], minlength=cells**2)
        misses += not (hits == share).all()
    return misses


def test_criterion_1_hash_families_are_uniform():
    started = time.monotonic()

    # prime family, p = 5: exhaustively over all (a, b), every pair of
    # distinct inputs maps onto every output pair exactly once
    p = 5
    misses = 0
    for x in range(p):
        for y in range(p):
            if x == y:
                continue
            hits = np.zeros((p, p), dtype=int)
            for a in range(p):
                for b in range(p):
                    c = HashConstraint(
                        family=Family.PRIME,
                        slices=(Slice("x", 3, 0, 3),),
                        coeffs=(a,),
                        offset=b,
                        range_size=p,
                        target=0,
                        ell=2,
                    )
                    hits[eval_hash(c, {"x": x}), eval_hash(c, {"x": y})] += 1
            if not (hits == 1).all():
                misses += 1
    prime_ok = misses == 0

    # shift family: exhaustively over all (a, b) at each slice shape, every
    # pair of distinct inputs maps onto every output pair equally often
    shift_ok = all(_shift_pair_misses(w, ell) == 0 for w, ell in SHIFT_SHAPES)

    # xor family: every nonzero 12-bit mask splits the full domain in half
    bits = 12
    domain = np.arange(2**bits, dtype=np.uint64)
    masks = np.arange(1, 2**bits, dtype=np.uint64)
    parities = np.bitwise_count(masks[:, None] & domain[None, :]) & 1
    ones = parities.sum(axis=1)
    xor_ok = bool((ones == 2 ** (bits - 1)).all())

    # tie the vectorized check to the reference evaluator
    rng = random.Random(0)
    agree = True
    for _ in range(50):
        mask, x = rng.randrange(1, 2**bits), rng.randrange(2**bits)
        c = HashConstraint(
            family=Family.XOR,
            slices=tuple(Slice("x", bits, i, i + 1) for i in range(bits)),
            coeffs=tuple((mask >> i) & 1 for i in range(bits)),
            offset=0,
            range_size=2,
            target=0,
            ell=1,
        )
        agree &= eval_hash(c, {"x": x}) == int(parities[mask - 1, x])
    elapsed = time.monotonic() - started
    _report(
        1,
        prime_ok and shift_ok and xor_ok and agree and elapsed < BUDGET_HASH,
        f"prime 1/25 uniform: {prime_ok}, shift uniform on {len(SHIFT_SHAPES)} slice "
        f"shapes: {shift_ok}, xor balanced on {len(masks)} masks: "
        f"{xor_ok}, evaluator agreement: {agree}, {elapsed:.1f}s",
    )


def test_criterion_2_counts_match_brute_force():
    started = time.monotonic()
    thresh = get_constants(0.8, 0.2, Family.XOR).thresh
    rng = random.Random(42)
    mismatches = 0
    trials = 200
    for _ in range(trials):
        width = rng.randint(1, 16)
        count = rng.randint(0, min(2 * thresh, 2**width))
        values = rng.sample(range(2**width), count)
        truth = len(set(values))
        oracle = InMemoryOracle(proj(width), values)
        got = saturating_count(oracle, proj(width), thresh)
        expected = SATURATED if truth >= thresh else got.exact(truth)
        if got != expected:
            mismatches += 1
        if enumerate_count(oracle, proj(width)).count != truth:
            mismatches += 1
        # the one-step in-memory count against the enumerate-and-block loop
        for cap in (thresh, None):
            if oracle.count_upto(proj(width), cap) != Oracle.count_upto(oracle, proj(width), cap):
                mismatches += 1
    elapsed = time.monotonic() - started
    _report(
        2,
        mismatches == 0 and elapsed < BUDGET_COUNTER,
        f"{trials} randomized instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_estimates_meet_the_guarantee():
    started = time.monotonic()
    combos = [
        (1_000, 16),
        (10_000, 16),
        (1_000, 20),
        (10_000, 20),
        (100_000, 20),  # 100k does not fit in 16 bits, so that pair is skipped
    ]
    runs = 100
    details = []
    all_ok = True
    rng = random.Random(7)
    for count, width in combos:
        values = rng.sample(range(2**width), count)
        oracle = InMemoryOracle(proj(width), values)
        for family in Family:
            good = 0
            for seed in range(runs):
                result = pact_count(oracle, proj(width), family=family, seed=seed)
                good += within(result.estimate, count)
            rate = good / runs
            details.append(f"{family} {count}/{width}b: {rate:.2f}")
            all_ok &= rate >= GUARANTEE_RATE
    elapsed = time.monotonic() - started
    _report(
        3,
        all_ok and elapsed < BUDGET_GUARANTEE,
        f"within {TOLERANCE_FACTOR}x rates [{', '.join(details)}] "
        f"(need {GUARANTEE_RATE}), {elapsed:.0f}s",
    )


def test_criterion_4_corpus_accuracy(tmp_path):
    manifest = write_corpus([build(s) for s in bench_preset(seed=0)], tmp_path / "c")
    summary = []
    ok = True
    for family in ("xor", "prime", "shift"):
        out = tmp_path / f"bench-{family}"
        rows, code = run_bench(
            BenchConfig(str(manifest), str(out), family=family, seed=1)
        )
        assert code == 0
        errors = [row.error_ratio for row in rows]
        mean, worst = sum(errors) / len(errors), max(errors)
        if family == "xor":
            ok &= mean <= XOR_MEAN_ERROR and worst <= XOR_MAX_ERROR
        else:
            ok &= mean <= PRIME_SHIFT_MEAN_ERROR
        summary.append(f"{family}: mean {mean:.3f} max {worst:.3f}")
    _report(
        4,
        ok,
        f"30 instances; {'; '.join(summary)} (xor mean<={XOR_MEAN_ERROR} "
        f"max<={XOR_MAX_ERROR}, others mean<={PRIME_SHIFT_MEAN_ERROR})",
    )


def _distinct_values(rng, width, count):
    if width < 63:  # random.sample cannot take a len() this large
        return rng.sample(range(2**width), count)
    values = set()
    while len(values) < count:
        values.add(rng.getrandbits(width))
    return sorted(values)


def test_criterion_5_probe_count_grows_slowly():
    cases = [(8, 200), (16, 50_000), (32, 100_000), (64, 100_000)]
    rng = random.Random(3)
    means = []
    for width, count in cases:
        values = _distinct_values(rng, width, count)
        oracle = InMemoryOracle(proj(width), values)
        probes = []
        for seed in (1, 2, 3):
            probes.extend(pact_count(oracle, proj(width), seed=seed).probe_counts)
        means.append(sum(probes) / len(probes))
    slope = float(np.polyfit([math.log2(w) for w, _ in cases], means, 1)[0])
    _report(
        5,
        slope <= PROBE_SLOPE_LIMIT,
        f"mean probes per iteration {[f'{m:.1f}' for m in means]} across widths "
        f"{[w for w, _ in cases]}, slope {slope:.2f} (limit {PROBE_SLOPE_LIMIT})",
    )


def _smoke_solver():
    for binary, flags in (("cvc5", " --incremental --produce-models"), ("z3", " -in")):
        if shutil.which(binary):
            return binary + flags, binary
    return [sys.executable, "-m", "pact.minisolve"], "bundled brute-force solver"


def test_criterion_6_live_solver_smoke():
    started = time.monotonic()
    command, label = _smoke_solver()
    lines = []
    ok = True
    for spec in smoke_preset(seed=0):
        inst = build(spec)
        script = parse_declarations(inst.script)
        projection = resolve_projection(script, inst.projection)
        deadline = time.monotonic() + 120
        with SubprocessOracle(command, inst.script, deadline=deadline) as oracle:
            base = enumerate_count(oracle, projection)
        ok &= base.status is BaselineStatus.EXACT and base.count == inst.true_count
        good = 0
        for seed in range(1, SMOKE_SEEDS + 1):
            deadline = time.monotonic() + 120
            with SubprocessOracle(command, inst.script, deadline=deadline) as oracle:
                result = pact_count(oracle, projection, seed=seed)
            good += within(result.estimate, inst.true_count)
        ok &= good >= SMOKE_REQUIRED
        lines.append(f"{spec.name}: baseline {base.count}, {good}/{SMOKE_SEEDS} in tolerance")
    elapsed = time.monotonic() - started
    _report(
        6,
        ok and elapsed < BUDGET_SMOKE,
        f"{label}; {'; '.join(lines)}; {elapsed:.0f}s",
    )


def test_criterion_7_records_are_reproducible(tmp_path):
    spec = InstanceSpec("det", "scatter", 10, 300, seed=5)
    inst = build(spec)
    script_path = tmp_path / "det.smt2"
    script_path.write_text(inst.script)
    factory = lambda script, projection: InMemoryOracle(projection, inst.solutions)
    config = RunConfig("count", str(script_path), project="x", seed=21)
    blobs = set()
    for _ in range(3):
        record, code = run_count(config, oracle_factory=factory)
        assert code == 0
        blobs.add(json.dumps(record.comparable(), sort_keys=True))
    _report(
        7,
        len(blobs) == 1,
        f"3 same-seed runs produced {len(blobs)} distinct record(s) "
        "after dropping wall-clock fields",
    )
