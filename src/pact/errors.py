"""Exception hierarchy shared across the package."""


class PactError(Exception):
    """Base class for all package errors."""


class MalformedScript(PactError):
    """The input script is not well-formed SMT-LIB2 (carries a line number)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownVariable(PactError):
    """A projection name does not match any declared variable."""


class NonDiscreteProjection(PactError):
    """A projection variable has a non-bitvector sort."""


class InvalidParameters(PactError):
    """Counting parameters out of range (epsilon <= 0, delta outside (0,1), ...)."""


class RangeExceeded(PactError):
    """Prime search asked for a bound beyond the exact-primality range."""


class SolverCrashed(PactError):
    """The solver process exited or the pipe broke."""


class ProtocolError(PactError):
    """The solver sent something the client cannot interpret."""


class SolverUnknown(PactError):
    """The solver answered `unknown`; treated as a hard error, never as UNSAT."""


class OracleTimeout(PactError):
    """A query exceeded its wall-clock budget; the counting run is aborted.

    `count` is set by `count_upto`: the models it had counted when the
    budget ran out, a lower bound on the cell's count, and 0 when the
    budget was spent before it began."""

    count: int | None = None


class StackUnderflow(PactError):
    """pop() called at assertion-stack depth 0."""


class ExhaustedIndices(PactError):
    """Galloping search ran past the deepest usable hash index (internal bug guard)."""


class InconsistentOracle(PactError):
    """The oracle returned a model outside the cell or one it had returned before,
    or its cell counts grew along a hash chain or changed on a re-probe."""
