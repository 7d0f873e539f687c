"""One count, two backends: the bundled solver and an in-memory oracle over
the instance's known solutions give the same estimates.

Hash draws are keyed by the seed and the iteration, and a cell count is
exact below the threshold, so a count's raw estimates, probes per
iteration and exhausted refinements depend on the seed and the solution
set alone: not on the backend, nor on the order in which models arrive.
A fault that moves one cell count by one (in rendering, reply parsing,
the order of owed acks, blocking clauses or the model cache) shows up
here.  Check-sats are left out: the in-memory oracle counts a cell in one
step, the solver model by model.  Next to the one-variable smoke corpus, a
two-variable product instance filters frames of more than one column.
"""

import sys
import time

import pytest

from pact.corpus import InstanceSpec, build, smoke_preset
from pact.counter import pact_count
from pact.hashing import Family
from pact.oracle import InMemoryOracle, SubprocessOracle
from pact.smtlib import parse_declarations, resolve_projection

MINISOLVE = [sys.executable, "-m", "pact.minisolve"]
SEEDS = (1, 2, 3)
SPECS = [*smoke_preset(seed=0), InstanceSpec("backends-product-300", "product", 7, 300, 5)]


def outcome(result):
    return result.raw_estimates, result.probe_counts, result.exhausted_refinements


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_solver_and_memory_counts_agree(spec):
    inst = build(spec)
    projection = resolve_projection(parse_declarations(inst.script), list(inst.projection))
    memory = InMemoryOracle(projection, inst.solutions)
    with SubprocessOracle(MINISOLVE, inst.script, deadline=time.monotonic() + 120) as solver:
        for family in Family:
            for seed in SEEDS:
                solved = pact_count(solver, projection, family=family, seed=seed)
                counted = pact_count(memory, projection, family=family, seed=seed)
                assert outcome(solved) == outcome(counted), (family, seed)
