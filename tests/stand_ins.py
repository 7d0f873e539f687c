"""Test stand-ins shared across test modules."""

from pact.oracle import InMemoryOracle, Oracle


class EnumeratingOracle(InMemoryOracle):
    """An in-memory oracle that counts a cell by the base class's
    enumerate-and-block loop, one check-sat, model and blocking clause at a
    time, as a solver process would, instead of in one step.  Fault
    stand-ins derive from it, so the faults they inject into check-sat,
    models or constraints reach the count."""

    count_upto = Oracle.count_upto
