"""Differential check of the hash and blocking-clause semantics.

The rendered SMT-LIB2 text is what a solver sees; `eval_hash` is the
reference; `hashing.satisfied` is the vectorized evaluator the in-memory
oracle and the counter's model cache share; the cache decides cell
membership along a chain without asking any oracle.  All four must agree.
The rendered text is judged by minisolve's `Engine`, evaluated in-process
over a chosen set of points rather than a full grid, so widths above 64
bits are covered too.
"""

import random

import numpy as np
import pytest

from pact.counter import ModelCache
from pact.hashing import Family, eval_hash, generate_hash, hash_values, satisfied
from pact.minisolve import Engine, Frame, GridVar
from pact.oracle import InMemoryOracle
from pact.smtlib import BlockingClause, ProjectionSet, SortedVar, iter_top_forms, render_assertion

SHAPES = {
    "one-var": (6,),
    "two-var": (5, 3),
    "three-var": (9, 1, 4),
    "wide": (70,),
    "wide-and-narrow": (66, 4),
}


def projection(widths):
    names = [f"v{i}" for i in range(len(widths))]
    return ProjectionSet(tuple(SortedVar(n, f"(_ BitVec {w})", w) for n, w in zip(names, widths)))


def points(widths, rng, n=120):
    return sorted({tuple(rng.getrandbits(w) for w in widths) for _ in range(n)})


def columns(p, rows):
    return {
        v.name: np.array([row[j] for row in rows], dtype=np.uint64 if v.width <= 64 else object)
        for j, v in enumerate(p.variables)
    }


def engine_over(p, rows):
    """An Engine whose grid is exactly `rows`, one point per row."""
    engine = Engine()
    for name, col in columns(p, rows).items():
        width = next(v.width for v in p.variables if v.name == name)
        engine.grid[name] = GridVar("bv", width, col)
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
    ell = 1 if family is Family.XOR else rng.randint(1, 6)
    return [generate_hash(p, ell, family, rng) for _ in range(length)]


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
        if max(widths) <= 64:
            # narrow columns take the vectorized path, not the fallback
            assert hash_values(constraints, cols) is not None

        # the cache as a count drives it: constraints drawn one at a time,
        # cells probed in between, and models found deep in the chain
        cache = ModelCache(p)
        early, late = rows[::2], rows[1::2]
        cache.add([dict(zip(p.names, row)) for row in early], 0)
        for drawn, c in enumerate(constraints, start=1):
            cache.extend(c)
            for i in range(drawn + 1):
                got = {early[m] for m in cache.members(i)}
                assert got == reference_survivors(p, early, constraints[:i])
        deep = len(constraints) // 2
        found = sorted(reference_survivors(p, late, constraints[:deep]))
        cache.add([dict(zip(p.names, row)) for row in found], deep)
        cached = early + found
        for i in range(len(constraints) + 1):
            got = {cached[m] for m in cache.members(i)}
            assert got == reference_survivors(p, cached, constraints[:i])

        oracle = InMemoryOracle(p, rows)
        for c in constraints:
            oracle.assert_constraint(c)
        assert set(oracle.live_values()) == reference_survivors(p, rows, constraints)


@pytest.mark.parametrize("family", [Family.PRIME, Family.SHIFT], ids=str)
def test_refinement_candidate_is_checked_by_every_evaluator(family):
    """A candidate drawn at a coarser exponent than its chain is checked on
    its own, next to the chain prefix it replaces the end of."""
    p = projection((5, 3))
    rng = random.Random(f"candidate/{family}")
    rows = points((5, 3), rng)
    constraints = [generate_hash(p, 4, family, rng) for _ in range(3)]
    cache = ModelCache(p)
    cache.add([dict(zip(p.names, row)) for row in rows], 0)
    for c in constraints:
        cache.extend(c)
    for ell in (3, 2, 1):
        candidate = generate_hash(p, ell, family, rng)
        cell = constraints[:2] + [candidate]
        expected = reference_survivors(p, rows, cell)
        assert engine_survivors(p, rows, cell) == expected
        assert {rows[m] for m in cache.members(2, candidate)} == expected


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_blocking_clauses_single_and_combined(shape):
    widths = SHAPES[shape]
    p = projection(widths)
    rng = random.Random(f"block/{shape}")
    rows = points(widths, rng)
    for k in (1, 2, 7):
        blocked = rng.sample(rows, k)
        clause = BlockingClause.from_rows(p, blocked)
        assert len(clause) == k
        expected = set(rows) - set(blocked)
        assert engine_survivors(p, rows, [clause]) == expected
        oracle = InMemoryOracle(p, rows)
        oracle.assert_constraint(clause)
        assert set(oracle.live_values()) == expected


def test_single_model_clause_renders_as_before():
    p = projection((4, 3))
    single = BlockingClause.from_model(p, {"v0": 5, "v1": 2})
    assert BlockingClause.from_rows(p, [(5, 2)]) == single
    assert render_assertion(single) == "(assert (not (and (= v0 #b0101) (= v1 #b010))))"
    both = BlockingClause.from_rows(p, [(5, 2), (0, 7)])
    assert render_assertion(both) == (
        "(assert (and (not (and (= v0 #b0101) (= v1 #b010))) "
        "(not (and (= v0 #b0000) (= v1 #b111)))))"
    )
