"""Differential check of the hash and blocking-clause semantics.

The rendered SMT-LIB2 text is what a solver sees; `eval_hash` is the
reference; `hashing.satisfied` is the vectorized evaluator, at every width,
that the in-memory oracle and the counter's model cache share; the cache
decides cell membership along a chain without asking any oracle.  All four must agree.
The rendered text is judged by minisolve's `Engine`, evaluated in-process
over a chosen set of points rather than a full grid, so widths above 64
bits are covered too.
"""

import random

import numpy as np
import pytest

from pact.counter import ModelCache
from pact.hashing import (
    Family,
    eval_hash,
    generate_hash,
    satisfied,
    value_columns,
)
from pact.minisolve import Engine, Frame, GridVar
from pact.oracle import InMemoryOracle
from pact.smtlib import BlockingClause, ProjectionSet, SortedVar, iter_top_forms, render_assertion

SHAPES = {
    "one-var": (6,),
    "two-var": (5, 3),
    "three-var": (9, 1, 4),
    "wide": (70,),
    "wide-and-narrow": (66, 4),
    # each side of every column dtype's width
    "8": (8,),
    "9": (9,),
    "16": (16,),
    "17": (17,),
    "32": (32,),
    "33": (33,),
    "64": (64,),
    "8-and-33": (8, 33),
}


def projection(widths):
    names = [f"v{i}" for i in range(len(widths))]
    return ProjectionSet(tuple(SortedVar(n, f"(_ BitVec {w})", w) for n, w in zip(names, widths)))


def points(widths, rng, n=120):
    """Random rows, plus rows of all ones and of the top bit alone, so every
    column's top bit is set somewhere."""
    rows = {tuple(rng.getrandbits(w) for w in widths) for _ in range(n)}
    rows.add(tuple((1 << w) - 1 for w in widths))
    rows.add(tuple(1 << (w - 1) for w in widths))
    return sorted(rows)


def columns(p, rows):
    """The columns as the in-memory oracle and the model cache keep them."""
    return dict(zip(p.names, value_columns([v.width for v in p.variables], rows)))


def engine_over(p, rows):
    """An Engine whose grid is exactly `rows`, one point per row, in
    minisolve's layout: uint64, or Python ints above 64 bits."""
    engine = Engine()
    for j, v in enumerate(p.variables):
        col = np.array([row[j] for row in rows], dtype=np.uint64 if v.width <= 64 else object)
        engine.grid[v.name] = GridVar("bv", v.width, col)
    engine.grid_size = len(rows)
    engine.frames = [Frame(np.ones(len(rows), dtype=bool))]
    return engine


def engine_survivors(p, rows, constraints):
    engine = engine_over(p, rows)
    for c in constraints:
        (sexpr, _form), = iter_top_forms(render_assertion(c))
        engine.add_assert(sexpr[1])
    assert not engine.frames[-1].tainted, "minisolve could not evaluate the rendered text"
    return {row for row, keep in zip(rows, engine.frames[-1].mask) if keep}


def reference_survivors(p, rows, constraints):
    return {
        row for row in rows
        if all(eval_hash(c, dict(zip(p.names, row))) == c.target for c in constraints)
    }


def chain(p, family, rng, length):
    # at ell 32 a SHIFT sum can take all 64 bits, and a PRIME sum can exceed them
    ell = 1 if family is Family.XOR else rng.choice((1, 2, 3, 4, 5, 6, 32))
    return [generate_hash(p, ell, family, rng) for _ in range(length)]


def fits_64_bits(c):
    """Whether 64 bits hold the constraint's arithmetic: its columns fit, a
    PRIME sum stays below its bound p + max coefficient x sum of (2^w - 1)
    < 2^64 (it is reduced once, at the end), and a SHIFT sum has wbar <= 64
    bits.  Past that, the kernel computes on Python ints."""
    if max(sl.parent_width for sl in c.slices) > 64:
        return False
    if c.family is Family.PRIME:
        bound = c.range_size + max(c.coeffs) * sum((1 << sl.width) - 1 for sl in c.slices)
        return bound < 1 << 64
    return c.family is Family.XOR or c.widened_width <= 64


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("family", list(Family), ids=str)
def test_rendered_text_matches_every_evaluator(family, shape):
    widths = SHAPES[shape]
    p = projection(widths)
    rng = random.Random(f"{family}/{shape}")
    rows = points(widths, rng)
    cols = columns(p, rows)
    for _ in range(8):
        constraints = chain(p, family, rng, rng.randint(1, 4))
        for i in range(len(constraints) + 1):
            prefix = constraints[:i]
            expected = reference_survivors(p, rows, prefix)
            assert engine_survivors(p, rows, prefix) == expected
            if prefix:
                met = satisfied(prefix, cols).all(axis=0)
                assert {row for row, keep in zip(rows, met) if keep} == expected
        # the cache as a count drives it: every cell a chain prefix, and
        # models found deep in the chain
        cache = ModelCache(p)
        early, late = rows[::2], rows[1::2]
        cache.add([dict(zip(p.names, row)) for row in early], ())
        for i in range(len(constraints) + 1):
            got = {early[m] for m in cache.members(constraints[:i])}
            assert got == reference_survivors(p, early, constraints[:i])
        deep = constraints[: len(constraints) // 2]
        found = sorted(reference_survivors(p, late, deep))
        cache.add([dict(zip(p.names, row)) for row in found], deep)
        cached = early + found
        for i in range(len(constraints) + 1):
            got = {cached[m] for m in cache.members(constraints[:i])}
            assert got == reference_survivors(p, cached, constraints[:i])

        oracle = InMemoryOracle(p, rows)
        for c in constraints:
            oracle.assert_constraint(c)
        assert set(oracle.live_values()) == reference_survivors(p, rows, constraints)


def vectorized_survivors(p, rows, cell):
    met = satisfied(cell, columns(p, rows)).all(axis=0)
    return {row for row, keep in zip(rows, met) if keep}


@pytest.mark.parametrize(
    "widths, ell, wbar",
    [((4,), 6, 9), ((8,), 10, 17), ((16,), 18, 33), ((64,), 32, 64), ((8, 33), 32, 64)],
)
def test_shift_sums_at_the_dtype_edges(widths, ell, wbar):
    """wbar = max(2w, w + ell - 1) lands one bit past uint8, uint16 and
    uint32, and on all of uint64: the sum wraps exactly mod 2^wbar only in
    a dtype of at least wbar bits."""
    p = projection(widths)
    rng = random.Random(f"shift-edge/{widths}")
    rows = points(widths, rng)
    cell = [generate_hash(p, ell, Family.SHIFT, rng) for _ in range(3)]
    assert cell[0].widened_width == wbar
    assert vectorized_survivors(p, rows, cell) == reference_survivors(p, rows, cell)


@pytest.mark.parametrize("widths, ell", [((64,), 32), ((8, 33), 33)])
def test_prime_sums_past_64_bits_run_on_python_ints(widths, ell):
    """A PRIME draw whose sum can pass 2^64 is summed in object dtype."""
    p = projection(widths)
    rng = random.Random(f"prime-edge/{widths}")
    rows = points(widths, rng)
    draws = (generate_hash(p, ell, Family.PRIME, rng) for _ in range(100))
    cell = [next(c for c in draws if not fits_64_bits(c))]
    assert cell[0].packed.dtype == object
    assert vectorized_survivors(p, rows, cell) == reference_survivors(p, rows, cell)


@pytest.mark.parametrize("family", [Family.PRIME, Family.SHIFT], ids=str)
def test_refinement_candidate_is_checked_by_every_evaluator(family):
    """A candidate drawn at a lower exponent than its chain is checked
    apart from the chain prefix it replaces the end of, also where the two
    exponents slice the projection alike (3-bit variables at 4 and 3)."""
    for widths in ((5, 3), (3, 3, 3)):
        p = projection(widths)
        rng = random.Random(f"candidate/{family}/{widths}")
        rows = points(widths, rng, n=1000)
        constraints = [generate_hash(p, 4, family, rng) for _ in range(2)]
        cache = ModelCache(p)
        cache.add([dict(zip(p.names, row)) for row in rows], ())
        for ell in (3, 2, 1):
            candidate = generate_hash(p, ell, family, rng)
            for i in (1, 2):
                cell = constraints[:i] + [candidate]
                expected = reference_survivors(p, rows, cell)
                assert engine_survivors(p, rows, cell) == expected
                assert {rows[m] for m in cache.members(cell)} == expected


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_blocking_clauses_single_and_combined(shape):
    widths = SHAPES[shape]
    p = projection(widths)
    rng = random.Random(f"block/{shape}")
    rows = points(widths, rng)
    for k in (1, 2, 7):
        blocked = rng.sample(rows, k)
        clause = BlockingClause(p, tuple(blocked))
        assert len(clause) == k
        expected = set(rows) - set(blocked)
        assert engine_survivors(p, rows, [clause]) == expected
        oracle = InMemoryOracle(p, rows)
        oracle.assert_constraint(clause)
        assert set(oracle.live_values()) == expected


def test_single_model_clause_renders_as_before():
    p = projection((4, 3))
    single = BlockingClause.from_model(p, {"v0": 5, "v1": 2})
    assert BlockingClause(p, ((5, 2),)) == single
    assert render_assertion(single) == "(assert (not (and (= v0 #b0101) (= v1 #b010))))"
    both = BlockingClause(p, ((5, 2), (0, 7)))
    assert render_assertion(both) == (
        "(assert (and (not (and (= v0 #b0101) (= v1 #b010))) "
        "(not (and (= v0 #b0000) (= v1 #b111)))))"
    )
