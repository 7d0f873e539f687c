"""Projected approximate model counting over an incremental SMT oracle."""

from .baseline import BaselineResult, BaselineStatus, enumerate_count
from .corpus import (
    GeneratedInstance,
    InstanceSpec,
    build as build_instance,
    load_manifest,
    write_corpus,
)
from .counter import (
    CountResult,
    find_boundary,
    find_median,
    fix_last_hash,
    get_constants,
    pact_count,
    saturating_count,
)
from .hashing import (
    Family,
    HashConstraint,
    Slice,
    eval_hash,
    generate_hash,
    slice_projection,
    smallest_prime_above,
)
from .oracle import InMemoryOracle, SolverResult, SubprocessOracle
from .smtlib import (
    BlockingClause,
    ProjectionSet,
    SmtScript,
    SortedVar,
    parse_declarations,
    render_assertion,
    resolve_projection,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineResult",
    "BaselineStatus",
    "BlockingClause",
    "CountResult",
    "Family",
    "GeneratedInstance",
    "HashConstraint",
    "InMemoryOracle",
    "InstanceSpec",
    "ProjectionSet",
    "Slice",
    "SmtScript",
    "SolverResult",
    "SortedVar",
    "SubprocessOracle",
    "build_instance",
    "enumerate_count",
    "eval_hash",
    "find_boundary",
    "find_median",
    "fix_last_hash",
    "generate_hash",
    "get_constants",
    "load_manifest",
    "pact_count",
    "parse_declarations",
    "render_assertion",
    "resolve_projection",
    "saturating_count",
    "slice_projection",
    "smallest_prime_above",
    "write_corpus",
]
