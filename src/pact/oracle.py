"""Solver oracles: an incremental SMT-LIB2 subprocess and an in-memory set.

Both expose the same handle: push/pop an assertion stack, add hash
constraints or blocking clauses, ask check-sat, extract values of the
projection variables from a model, and count a cell up to a threshold.
The subprocess backend renders constraints to SMT-LIB2 text and counts a
cell by enumerate-and-block (`Oracle.count_upto`, the only such loop),
which counts and blocks the cell's members in a `ModelCache` and caches
the models it fetches.  The in-memory backend holds an explicit finite
solution set, interprets constraints via the same `eval_hash` semantics
the rendered text encodes, and counts a cell in one step: its live rows
are the cell, so it never reads the cache.  Each of its frames holds the
live rows' values: a filter reads only the rows the frame below kept.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import operator
import os
import selectors
import shlex
import subprocess
import tempfile
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InconsistentOracle,
    MalformedScript,
    OracleTimeout,
    PactError,
    ProtocolError,
    SolverCrashed,
    SolverUnknown,
    StackUnderflow,
    UnknownVariable,
)
from .hashing import HashConstraint, column_dtype, satisfied, value_columns
from .smtlib import (
    BlockingClause,
    Form,
    ProjectionSet,
    SexprReader,
    SmtScript,
    bv_literal,
    iter_top_forms,
    parse_declarations,
    quote_symbol,
    render_assertion,
    unquote_symbol,
)


class SolverResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class QueryStats:
    check_sat_calls: int = 0
    assertions_sent: int = 0
    solver_time: float = 0.0

    def copy(self) -> "QueryStats":
        return replace(self)

    def minus(self, other: "QueryStats") -> "QueryStats":
        return QueryStats(
            self.check_sat_calls - other.check_sat_calls,
            self.assertions_sent - other.assertions_sent,
            self.solver_time - other.solver_time,
        )


class ModelCache:
    """The distinct projected models one count has fetched.

    A hash constraint reads only projection variables, so the cache decides
    with the hash semantics alone which of its models lie in a cell: those
    meeting each constraint of the cell it is handed, evaluated afresh on
    every cached model at each count.  Models are kept as one column per
    projection variable, as `hashing.value_columns` lays them out.
    """

    def __init__(self, projection: ProjectionSet):
        self.projection = projection
        self._widths = [v.width for v in projection.variables]
        self._columns = value_columns(self._widths, [])
        self._seen: set[tuple[int, ...]] = set()

    def _in_cell(self, columns, cell: Sequence[HashConstraint]) -> np.ndarray:
        """Whether each model in `columns` meets every constraint of `cell`,
        in runs of one range exponent and slicing, as `satisfied` takes them:
        a refinement candidate is drawn lower than the chain above it."""
        named = dict(zip(self.projection.names, columns))
        inside = np.ones(len(columns[0]), dtype=bool)
        for _, run in itertools.groupby(cell, key=lambda c: (c.ell, c.slices)):
            inside &= satisfied(list(run), named).all(axis=0)
        return inside

    def members(self, cell: Sequence[HashConstraint]) -> np.ndarray:
        """Indices of the cached models in `cell`."""
        if not self._seen:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(self._in_cell(self._columns, cell))

    def clause(self, at: np.ndarray) -> BlockingClause | None:
        """One assertion blocking the models at `at`, or None for none."""
        if not at.size:
            return None
        rows = zip(*(col[at].tolist() for col in self._columns))
        return BlockingClause(self.projection, tuple(rows))

    def add(self, models, cell: Sequence[HashConstraint]) -> None:
        """Cache models the oracle found in `cell`, after checking that each
        is new and lies in that cell."""
        if not models:
            return
        names = self.projection.names
        rows = [tuple(map(model.__getitem__, names)) for model in models]
        columns = value_columns(self._widths, rows)
        outside = ~self._in_cell(columns, cell)
        if outside.any():
            raise InconsistentOracle(
                "the oracle returned a model outside the cell it was counting: "
                f"{dict(zip(names, rows[int(np.argmax(outside))]))}"
            )
        for row in rows:
            if row in self._seen:
                raise InconsistentOracle(
                    "the oracle returned a model it had already returned: "
                    f"{dict(zip(names, row))}"
                )
            self._seen.add(row)
        self._columns = [np.concatenate(pair) for pair in zip(self._columns, columns)]


class Oracle(ABC):
    """Incremental solving handle the counting loop talks to."""

    deadline: float | None = None  # absolute time.monotonic() cutoff

    def __init__(self):
        self.stats = QueryStats()

    @property
    @abstractmethod
    def depth(self) -> int:
        """Current assertion-stack depth (pushes minus pops)."""

    @abstractmethod
    def push(self) -> None: ...

    @abstractmethod
    def pop(self) -> None: ...

    @abstractmethod
    def assert_constraint(self, constraint) -> None:
        """Add a HashConstraint or BlockingClause on the current frame."""

    @abstractmethod
    def check_sat(self) -> SolverResult: ...

    @abstractmethod
    def get_projected_model(self, projection: ProjectionSet) -> dict[str, int]:
        """Values of the projection variables; requires a preceding SAT."""

    def count_upto(
        self,
        projection: ProjectionSet,
        thresh: int | None = None,
        cache: ModelCache | None = None,
        cell: Sequence[HashConstraint] = (),
    ) -> int:
        """Models of the current frame, up to thresh (None: no cap), by
        enumerate-and-block inside a scratch frame, so the blocking clauses
        go with it.

        A spent `deadline` raises `OracleTimeout` first, with `count` 0.
        With a `cache`, its members in `cell` (the hash constraints the
        frame holds) are known models: thresh of them return thresh with
        nothing sent; fewer are counted and blocked with one assertion
        before the rest are enumerated, and the models fetched are checked
        against `cell` and cached.  Without one, no model is kept.  The
        deadline is checked again before every check-sat; an
        `OracleTimeout` carries the models counted so far as its `count`.
        """
        entry_depth, n, fetched = self.depth, 0, []
        try:
            if self._deadline_spent():
                raise OracleTimeout("time budget spent before counting a cell")
            if cache is not None:
                known = cache.members(cell)
                if thresh is not None and known.size >= thresh:
                    return thresh
                n = known.size
            self.push()
            if n:
                self.assert_constraint(cache.clause(known))
            while thresh is None or n < thresh:
                if self._deadline_spent():
                    raise OracleTimeout("time budget spent while counting a cell")
                result = self.check_sat()
                if result is SolverResult.UNSAT:
                    break
                if result is SolverResult.UNKNOWN:
                    raise SolverUnknown(
                        "solver answered unknown while counting a cell; "
                        "the estimate would be unsound"
                    )
                model = self.get_projected_model(projection)
                if cache is not None:
                    fetched.append(model)
                n += 1
                if thresh is None or n < thresh:
                    self.assert_constraint(BlockingClause.from_model(projection, model))
            if cache is not None:
                cache.add(fetched, cell)
        except BaseException as exc:
            if isinstance(exc, OracleTimeout):
                exc.count = n
            self.unwind(entry_depth)
            raise
        self.pop()
        return n

    def unwind(self, depth: int) -> None:
        """Pop down to `depth` on the way out of an error.  A pop that fails
        there (a dead solver cannot pop) is dropped: the error being
        unwound matters more."""
        try:
            while self.depth > depth:
                self.pop()
        except PactError:
            pass

    def _deadline_spent(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            self.close()
        except PactError:
            if exc_type is None:
                raise  # else the error in flight is the one to report
        return False


# ---------------------------------------------------------------------------
# in-memory backend


class InMemoryOracle(Oracle):
    """Oracle over an explicit finite set of projected assignments.

    The set is held once, as one read-only column per variable: its values
    in sorted row order, at the narrowest unsigned dtype of its width
    (`hashing.value_columns`); nothing is kept per row.  The constructor
    reads each solution once, into its values as Python ints (a scalar is
    one value), and checks its arity; a value that is not an integer, such
    as a float or a string, is rejected, not converted.  The rest is one
    numpy pass, the same at every width and for every input form: each
    column is range-checked by its minimum and maximum and cast to its
    dtype, the rows are put in tuple order by stable argsorts from the
    last column to the first, and each row equal to the one before it is
    dropped.  Those columns are frame 0.  Each frame holds the live rows'
    values, one column per variable in sorted row order, so the first model
    is always the smallest live row and every result is deterministic.  A
    push shares the top frame; a constraint replaces it with its survivors'
    values, one `np.compress` per column, so a filter reads only the rows
    that survived the frame below, and `count_upto` counts them without
    enumerating.  Hashes are filtered by `hashing.satisfied` at every width
    (in object dtype past 64 bits).  A blocking clause drops each live row
    equal to one of its rows on the clause's variables, whatever their
    order and however many it names.
    """

    def __init__(
        self,
        projection: ProjectionSet,
        solutions: Iterable[int | Sequence[int]],
    ):
        super().__init__()
        k = len(projection)
        if not k:
            raise ValueError("an in-memory oracle needs at least one projection variable")
        values: list[int] = []  # row-major, k per solution
        n = 0
        for n, sol in enumerate(solutions, 1):
            start = len(values)
            if isinstance(sol, (int, np.integer)):
                values.append(operator.index(sol))
            else:
                try:
                    if isinstance(sol, (str, bytes)):
                        raise TypeError
                    values.extend(map(operator.index, sol))
                except TypeError:
                    raise TypeError(f"solution {sol!r} is not an int or a sequence of ints") from None
            if len(values) - start != k:
                raise ValueError(f"expected {k} values per solution, got {len(values) - start}")
        table = np.array(values, dtype=object).reshape(n, k)
        columns = []
        for col, var in zip(table.T, projection.variables):
            for v in (col.min(), col.max()) if n else ():
                if not 0 <= v < 1 << var.width:
                    raise ValueError(f"value {v} out of range for width {var.width}")
            columns.append(col.astype(column_dtype(var.width)))
        order = np.arange(n)
        for col in reversed(columns):  # stable sorts, last key first: tuple order
            order = order[np.argsort(col[order], kind="stable")]
        columns = [col[order] for col in columns]
        fresh = np.zeros(n, dtype=bool)  # unequal to the row before it
        fresh[:1] = True
        for col in columns:
            fresh[1:] |= col[1:] != col[:-1]
        columns = [col[fresh] for col in columns]
        for col in columns:
            col.flags.writeable = False  # frame 0, which every frame may share
        self._frames: list[dict[str, np.ndarray]] = [dict(zip(projection.names, columns))]

    @property
    def depth(self) -> int:
        return len(self._frames) - 1

    def push(self) -> None:
        self._frames.append(self._frames[-1])  # columns are never changed in place

    def pop(self) -> None:
        if len(self._frames) == 1:
            raise StackUnderflow("pop at assertion-stack depth 0")
        self._frames.pop()

    def check_sat(self) -> SolverResult:
        t0 = time.perf_counter()
        live = self._live_rows()
        self.stats.check_sat_calls += 1
        self.stats.solver_time += time.perf_counter() - t0
        return SolverResult.SAT if live else SolverResult.UNSAT

    def get_projected_model(self, projection: ProjectionSet) -> dict[str, int]:
        if not self._live_rows():
            raise ProtocolError("model requested from an unsatisfiable state")
        live = self._frames[-1]
        try:
            return {name: int(live[name][0]) for name in projection.names}
        except KeyError as e:
            raise UnknownVariable(f"model requested for {e.args[0]!r}, not projected") from None

    def assert_constraint(self, constraint) -> None:
        self.stats.assertions_sent += 1
        live = self._frames[-1]
        if isinstance(constraint, BlockingClause):
            keep = ~self._blocked(constraint)
        elif isinstance(constraint, HashConstraint):
            keep = satisfied([constraint], live)[0]
        else:
            raise TypeError(f"cannot interpret {type(constraint).__name__} in memory")
        # compress, not col[keep]: on 250k uint32 values with a 50% mask boolean
        # indexing read 1.6-2.3 ms against 0.34-0.5 ms (2 cores, numpy 2.4)
        self._frames[-1] = {name: np.compress(keep, col) for name, col in live.items()}

    def count_upto(
        self,
        projection: ProjectionSet,
        thresh: int | None = None,
        cache: ModelCache | None = None,
        cell: Sequence[HashConstraint] = (),
    ) -> int:
        """Count the cell as `Oracle.count_upto` does, in one step: the live
        rows, or their distinct projected tuples when `projection` names
        fewer variables than the oracle holds, capped at thresh.  A spent
        `deadline` raises `OracleTimeout` with `count` 0 first.  No frame is
        pushed, no model is fetched and the cache is not read: the live
        rows are the cell.  Each call adds one to `stats.check_sat_calls`.
        """
        if self._deadline_spent():
            exc = OracleTimeout("time budget spent before counting a cell")
            exc.count = 0
            raise exc
        t0 = time.perf_counter()
        live = self._frames[-1]
        try:
            columns = {name: live[name] for name in projection.names}
        except KeyError as e:
            raise UnknownVariable(f"count requested for {e.args[0]!r}, not projected") from None
        if len(columns) < len(live):
            n = len(set(zip(*(col.tolist() for col in columns.values()))))
        else:
            n = self._live_rows()
        self.stats.check_sat_calls += 1
        self.stats.solver_time += time.perf_counter() - t0
        return n if thresh is None else min(n, thresh)

    def live_values(self) -> list[tuple[int, ...]]:
        """Surviving assignments on the current frame (introspection)."""
        return list(zip(*(col.tolist() for col in self._frames[-1].values())))

    def _live_rows(self) -> int:
        return len(next(iter(self._frames[-1].values())))

    def _blocked(self, clause: BlockingClause) -> np.ndarray:
        """Whether each live row equals one of the clause's rows."""
        try:
            columns = [self._frames[-1][name] for name in clause.projection.names]
        except KeyError as e:
            raise UnknownVariable(f"blocking clause names {e.args[0]!r}, not projected") from None
        dead = np.zeros(self._live_rows(), dtype=bool)
        for row in clause.rows:
            match = np.ones(dead.size, dtype=bool)
            for col, v in zip(columns, row):
                match &= col == v
            dead |= match
        return dead


# ---------------------------------------------------------------------------
# subprocess backend


_SKIP_HEADS = {
    "check-sat",
    "check-sat-assuming",
    "get-model",
    "get-value",
    "get-info",
    "get-assertions",
    "get-assignment",
    "get-unsat-core",
    "get-proof",
    "echo",
    "exit",
}

DEFAULT_SOLVER = "cvc5 --incremental --produce-models"
SOLVER_ENV_VAR = "PACT_SOLVER_CMD"


def default_solver_command() -> str:
    return os.environ.get(SOLVER_ENV_VAR) or DEFAULT_SOLVER


class SubprocessOracle(Oracle):
    """Client for any SMT-LIB2 solver process on stdin/stdout.

    The handle keeps `print-success` on so every command is acknowledged
    and loads the input script verbatim (minus interactive control
    commands).  A command whose only reply is `success` (the handshake, the
    script load, push, pop, assert) is buffered and not waited for; its ack
    is owed.  The buffer is flushed once, just before a read, and a command
    that answers (check-sat, get-value) first reads the owed acks, in
    order.  So a command the solver rejects raises `ProtocolError`, naming
    it, at the next answer, or in `close()` when nothing follows, and that
    ends the session: the commands after it were sent as if it had
    succeeded.  The constructor reads the load's acks before it returns.
    A flush never blocks: while the solver's input pipe is full, the handle
    reads what the solver sends, so neither side waits on the other.

    No read or write waits past `deadline`; one that runs out kills the
    solver and raises `OracleTimeout`, and the handle is unusable from then
    on.  A failure while starting up closes what was opened and re-raises.
    `stats.solver_time` is the time spent in check-sat and get-value,
    including the owed acks read there.  With a `transcript` path, every
    command and reply is appended to that file, which `close()` closes.
    """

    def __init__(
        self,
        command: str | Sequence[str] | None = None,
        script: SmtScript | str = "",
        *,
        deadline: float | None = None,
        transcript: str | Path | None = None,
    ):
        super().__init__()
        if command is None:
            command = default_solver_command()
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.script = parse_declarations(script) if isinstance(script, str) else script
        self.deadline = deadline
        self._transcript = None if transcript is None else open(transcript, "a", encoding="utf-8")
        self._stderr_file = None
        self._proc = None
        self._selector = None
        self._buf = bytearray()
        self._reader = SexprReader()
        self._unflushed = bytearray()
        self._owed: deque[str] = deque()  # commands whose `success` is not read yet
        self._depth = 0
        try:
            self._stderr_file = tempfile.TemporaryFile()
            try:
                self._proc = subprocess.Popen(
                    self.command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=self._stderr_file,
                )
            except OSError as exc:
                raise SolverCrashed(f"cannot start solver {self.command!r}: {exc}") from exc
            os.set_blocking(self._proc.stdin.fileno(), False)
            os.set_blocking(self._proc.stdout.fileno(), False)
            self._selector = selectors.DefaultSelector()
            self._selector.register(self._proc.stdout, selectors.EVENT_READ)
            self._send("(set-option :print-success true)")
            self._send("(set-option :produce-models true)")
            for cmd in self._script_commands():
                self._send(cmd)
            self._drain()
        except BaseException:
            self._teardown_process()  # nothing is read on the way out
            self.close()
            raise

    # -- process plumbing

    def _script_commands(self) -> list[str]:
        out = []
        for form in self.script.forms:
            if form.head in _SKIP_HEADS:
                continue
            if form.head == "set-option":
                # the handle owns the ack/model options
                lowered = form.text.lower()
                if ":print-success" in lowered or ":produce-models" in lowered:
                    continue
            out.append(form.text)
        return out

    def _log(self, direction: str, text: str) -> None:
        if self._transcript is not None:
            self._transcript.write(f"{direction} {text}\n")
            self._transcript.flush()

    def _stderr_tail(self) -> str:
        try:
            self._stderr_file.seek(0, os.SEEK_END)
            size = self._stderr_file.tell()
            self._stderr_file.seek(max(0, size - 2000))
            return self._stderr_file.read().decode(errors="replace")
        except Exception:
            return ""

    def _crashed(self, what: str) -> SolverCrashed:
        """End the session on a dead solver; the error to raise."""
        detail = f"{what}; stderr: {self._stderr_tail()}"
        self._teardown_process()
        return SolverCrashed(detail)

    def _write(self, text: str) -> None:
        """Buffer one command; it goes out with the next flush."""
        if self._proc is None:
            raise SolverCrashed("solver handle is no longer usable")
        self._log(">", text)
        self._unflushed += text.encode() + b"\n"

    def _flush(self) -> None:
        """Send the buffered commands without blocking: while the solver's
        input pipe is full, read what it sends, until the deadline (`_wait`)."""
        data, self._unflushed = memoryview(self._unflushed), bytearray()
        while data:
            try:
                data = data[os.write(self._proc.stdin.fileno(), data) :]
            except BlockingIOError:
                self._wait("solver did not read its input in time", writing=True)
            except OSError as exc:  # BrokenPipeError among them
                raise self._crashed(f"solver pipe broke: {exc}") from exc

    def _send(self, cmd: str) -> None:
        """Buffer a command whose only reply is `success`; its ack is owed."""
        self._write(cmd)
        self._owed.append(cmd)

    def _drain(self) -> None:
        """Flush, then read every owed ack in order.  A reply other than
        `success` ends the session."""
        self._flush()
        try:
            while self._owed:
                cmd = self._owed.popleft()
                answer, form = self._reply(cmd)
                if answer != "success":
                    raise ProtocolError(f"expected success for {cmd!r}, got {form.text!r}")
        except ProtocolError:
            self._teardown_process()
            raise

    def _wait(self, what: str, writing: bool = False) -> None:
        """Wait, no later than the deadline, for the solver's output, which
        goes into `_buf`, or, when `writing`, for room in its input.  A
        deadline that runs out first kills the solver and raises
        `OracleTimeout(what)`: the session ends."""
        timeout = None
        if self.deadline is not None:
            timeout = self.deadline - time.monotonic()
            if timeout <= 0:
                self._log("#", "timeout: killing the session")
                self._teardown_process()
                raise OracleTimeout(what)
        if writing:
            self._selector.register(self._proc.stdin, selectors.EVENT_WRITE)
        try:
            events = self._selector.select(timeout)
        finally:
            if writing:
                self._selector.unregister(self._proc.stdin)
        if not any(key.fileobj is self._proc.stdout for key, _ in events):
            return  # room in the solver's input, or the deadline to re-check
        try:
            chunk = os.read(self._proc.stdout.fileno(), 65536)
        except BlockingIOError:
            return
        if chunk == b"":
            raise self._crashed("solver exited unexpectedly")
        self._buf += chunk

    def _reply(self, waiting_for: str) -> tuple[object, Form]:
        """The next solver response, to the command `waiting_for`, as
        (sexpr, Form), read before the deadline.  One that does not come in
        time kills the solver: the session ends with the timeout."""
        while True:
            while (end := self._buf.find(b"\n")) < 0:
                self._wait(f"solver did not answer {waiting_for!r} in time")
            line = self._buf[:end].decode(errors="replace")
            del self._buf[: end + 1]  # cheap at the front of a bytearray
            try:
                replies = list(iter_top_forms(line + "\n", self._reader))
            except MalformedScript as exc:
                raise ProtocolError(f"unreadable solver reply {line!r}: {exc}") from exc
            if len(replies) > 1:
                raise ProtocolError(f"more than one reply in {line!r}")
            if replies:
                self._log("<", replies[0][1].text)
                return replies[0]

    def _teardown_process(self) -> None:
        """End the session: kill the solver; the handle is unusable after,
        and owes and sends nothing."""
        self._owed.clear()
        self._unflushed.clear()
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self._proc is not None:
            try:
                self._proc.kill()
                self._proc.wait(timeout=5)
            except Exception:
                pass
            for stream in (self._proc.stdin, self._proc.stdout):
                try:
                    stream.close()
                except Exception:
                    pass
            self._proc = None

    # -- oracle interface

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc else None

    def push(self) -> None:
        self._send("(push 1)")
        self._depth += 1

    def pop(self) -> None:
        if self._depth == 0:
            raise StackUnderflow("pop at assertion-stack depth 0")
        self._send("(pop 1)")
        self._depth -= 1

    def assert_constraint(self, constraint) -> None:
        self._send(render_assertion(constraint))
        self.stats.assertions_sent += 1

    def check_sat(self) -> SolverResult:
        t0 = time.perf_counter()
        self._write("(check-sat)")
        try:
            self._drain()
            answer, form = self._reply("(check-sat)")
        finally:
            self.stats.check_sat_calls += 1
            self.stats.solver_time += time.perf_counter() - t0
        if answer in ("sat", "unsat", "unknown"):
            return SolverResult(answer)
        raise ProtocolError(f"unexpected check-sat answer {form.text!r}")

    def get_projected_model(self, projection: ProjectionSet) -> dict[str, int]:
        names = " ".join(quote_symbol(n) for n in projection.names)
        cmd = f"(get-value ({names}))"
        t0 = time.perf_counter()
        self._write(cmd)
        try:
            self._drain()
            pairs, form = self._reply(cmd)
        finally:
            self.stats.solver_time += time.perf_counter() - t0
        text = form.text
        if isinstance(pairs, str):
            raise ProtocolError(f"cannot parse get-value answer {text!r}")
        if pairs[:1] == ["error"]:
            raise ProtocolError(f"get-value failed: {text}")
        values: dict[str, int] = {}
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)):
                raise ProtocolError(f"malformed get-value pair in {text!r}")
            values[unquote_symbol(pair[0])] = pair[1]
        out: dict[str, int] = {}
        for var in projection.variables:
            if var.name not in values:
                raise ProtocolError(f"solver omitted {var.name!r} in {text!r}")
            out[var.name] = _bv_value(values[var.name], var, text)
        return out

    def close(self) -> None:
        """Read the owed acks, so a rejected last pop still raises, then
        end the solver.  With the deadline spent they are not read: no
        answer depends on them, and no read waits past the deadline."""
        try:
            if self._proc is not None and not self._deadline_spent():
                self._drain()
                self._write("(exit)")
                with contextlib.suppress(SolverCrashed):
                    self._flush()  # a solver already gone needs no exit
        finally:
            self._teardown_process()
            if self._stderr_file is not None:
                self._stderr_file.close()
                self._stderr_file = None
            if self._transcript is not None:
                self._transcript.close()
                self._transcript = None


def _bv_value(term, var, context: str) -> int:
    """The value of bitvector `var` in a get-value reply: a literal of
    its width, or a decimal numeral below 2^width."""
    literal = bv_literal(term)
    if literal is not None:
        value, width = literal
        if width != var.width:
            raise ProtocolError(f"{width}-bit value {term!r} for {var.name!r} (width {var.width})")
        return value
    if not (isinstance(term, str) and term.isascii() and term.isdigit()):
        raise ProtocolError(f"cannot parse bitvector value {term!r} in {context!r}")
    if int(term) >> var.width:
        raise ProtocolError(f"value {term} out of range for {var.name!r} (width {var.width})")
    return int(term)
