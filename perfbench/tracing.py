"""Spans recorded from outside pact: a timing proxy oracle and wrapped module names.

Nothing under src/ is changed.  `installed(tracer)` swaps a few module
attributes (the names pact's own modules look up at call time) for timing
wrappers and puts them back afterwards; `TimingOracle` wraps any `Oracle`
and records a span around every call while forwarding its stats, so the
counter sees exactly the oracle it would see untraced.

Self time is computed online: when a span ends its duration is added to its
parent's child time, and self time is the duration minus that.  Spans are
strictly nested within one thread, so this equals the duration minus the
part of the interval its children cover.  Aggregates are kept per
(operation kind, span name); raw spans are kept for the first operation of
each kind and for spans outside any operation, and written out at the end.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from pact import cli, corpus, counter, oracle
from pact.oracle import Oracle
from pact.smtlib import BlockingClause

NO_OP = "-"  # kind of spans recorded outside any operation (set-up, a whole sweep)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op_id: int | None = None
        self.op_kind = NO_OP
        # (kind, span name) -> [calls, seconds, self seconds]
        self.totals: dict[tuple[str, str], list] = {}
        # counters noted inside count operations, by name
        self.counts: dict[str, int] = {}
        # kept raw spans: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[list] = []  # [name, start, child seconds, kept index, kind]
        self._kept_kinds: set[str] = set()
        self._keep = True
        self._seen_models: set[tuple] = set()

    # -- operations

    def start_op(self, op_id: int, kind: str) -> None:
        self.op_id, self.op_kind = op_id, kind
        self._keep = kind not in self._kept_kinds
        self._kept_kinds.add(kind)
        self._seen_models.clear()

    def end_op(self) -> None:
        self.op_id, self.op_kind, self._keep = None, NO_OP, True

    # -- spans

    def begin(self, name: str) -> None:
        index = -1
        if self._keep:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        self._stack.append([name, self.clock(), 0.0, index, self.op_kind])

    def end(self) -> None:
        now = self.clock()
        name, start, child, index, kind = self._stack.pop()
        duration = now - start
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.setdefault((kind, name), [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = now

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def note_model(self, model: dict) -> None:
        """Count model fetches of a count that repeat an earlier fetch in it."""
        if self.op_kind != "count":
            return
        key = tuple(model.values())
        self.count("models_fetched")
        if key in self._seen_models:
            self.count("models_repeated")
        self._seen_models.add(key)

    def wrap(self, name: str, fn, on_result=None, materialize=False):
        """`fn` with a span around each call; a generator is consumed inside it."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = iter(list(out))
            finally:
                self.end()
            if on_result is not None:
                on_result(out)
            return out

        return timed

    def oracle_factory(self, cls):
        """Build `cls(...)` inside an `oracle.open` span and wrap it."""
        opened = self.wrap("oracle.open", cls)
        return lambda *args, **kwargs: TimingOracle(opened(*args, **kwargs), self)

    # -- read-out

    def total(self, name: str, field: int, kind: str | None = None) -> float:
        """Sum of one field (0 calls, 1 seconds, 2 self seconds) over kinds."""
        return sum(
            t[field] for (k, n), t in self.totals.items()
            if n == name and (kind is None or k == kind)
        )

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t[2] for (_k, n), t in self.totals.items() if n.startswith(prefix))


class TimingOracle(Oracle):
    """Transparent proxy: same answers, same stats, one span per call."""

    def __init__(self, inner: Oracle, tracer: Tracer):
        # no Oracle.__init__: the stats belong to the wrapped oracle
        self._inner = inner
        self._tracer = tracer

    @property
    def stats(self):
        return self._inner.stats

    @property
    def depth(self) -> int:
        return self._inner.depth

    def _call(self, name, fn, *args):
        self._tracer.begin(name)
        try:
            return fn(*args)
        finally:
            self._tracer.end()

    def push(self) -> None:
        self._call("oracle.push", self._inner.push)

    def pop(self) -> None:
        self._call("oracle.pop", self._inner.pop)

    def assert_constraint(self, constraint) -> None:
        name = "oracle.assert_block" if isinstance(constraint, BlockingClause) else "oracle.assert_hash"
        self._call(name, self._inner.assert_constraint, constraint)

    def check_sat(self):
        return self._call("oracle.check_sat", self._inner.check_sat)

    def get_projected_model(self, projection):
        model = self._call("oracle.get_model", self._inner.get_projected_model, projection)
        self._tracer.note_model(model)
        return model

    def close(self) -> None:
        self._call("oracle.close", self._inner.close)


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    w = tracer.wrap

    def on_count(result) -> None:
        tracer.count("iterations", len(result.probe_counts))
        tracer.count("probes", sum(result.probe_counts))

    def on_probe(result) -> None:
        tracer.count("saturated_probes", int(not result.is_exact))

    pact_count = w("counter.pact_count", counter.pact_count, on_result=on_count)
    return [
        (cli, "run_count", w("cli.run_count", cli.run_count)),
        (cli, "run_baseline", w("cli.run_baseline", cli.run_baseline)),
        (cli, "run_bench", w("cli.run_bench", cli.run_bench)),
        (cli, "parse_declarations", w("smtlib.parse_declarations", cli.parse_declarations)),
        (cli, "pact_count", pact_count),
        (counter, "pact_count", pact_count),
        (cli, "enumerate_count", w("baseline.enumerate_count", cli.enumerate_count)),
        (corpus, "build", w("corpus.build", corpus.build)),
        (counter, "generate_hash", w("hashing.generate_hash", counter.generate_hash)),
        (counter, "saturating_count",
         w("counter.saturating_count", counter.saturating_count, on_result=on_probe)),
        (oracle, "render_assertion", w("smtlib.render_assertion", oracle.render_assertion)),
        (oracle, "iter_top_forms",
         w("smtlib.iter_top_forms", oracle.iter_top_forms, materialize=True)),
        (cli, "InMemoryOracle", tracer.oracle_factory(oracle.InMemoryOracle)),
        (cli, "SubprocessOracle", tracer.oracle_factory(oracle.SubprocessOracle)),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route pact's calls through the tracer's wrappers for the block's duration."""
    saved = []
    try:
        for module, attr, replacement in _patches(tracer):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
