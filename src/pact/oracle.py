"""Solver oracles: an incremental SMT-LIB2 subprocess and an in-memory set.

Both expose the same handle: push/pop an assertion stack, add hash
constraints or blocking clauses, ask check-sat, and extract values of the
projection variables from a model.  The subprocess backend renders
constraints to SMT-LIB2 text; the in-memory backend holds an explicit
finite solution set over the projection variables and interprets
constraints structurally via the same `eval_hash` semantics the rendered
text encodes.
"""

from __future__ import annotations

import enum
import os
import selectors
import shlex
import subprocess
import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    MalformedScript,
    OracleTimeout,
    ProtocolError,
    SolverCrashed,
    StackUnderflow,
    UnknownVariable,
)
from .hashing import Family, HashConstraint, eval_hash
from .smtlib import (
    BlockingClause,
    Form,
    ProjectionSet,
    SexprReader,
    SmtScript,
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
    TIMEOUT = "timeout"


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


class Oracle(ABC):
    """Incremental solving handle the counting loop talks to."""

    def __init__(self):
        self.stats = QueryStats()
        self.deadline: float | None = None  # absolute time.monotonic() cutoff

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

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# in-memory backend


class _Frame:
    __slots__ = ("mask", "cursor")

    def __init__(self, mask: np.ndarray, cursor: int):
        self.mask = mask
        self.cursor = cursor


class InMemoryOracle(Oracle):
    """Oracle over an explicit finite set of projected assignments.

    Rows are kept sorted, so model enumeration order (and therefore every
    downstream result) is deterministic.  Constraint filtering is
    vectorized with numpy where slice arithmetic fits in 64 bits and falls
    back to the scalar `eval_hash` otherwise.
    """

    def __init__(
        self,
        projection: ProjectionSet,
        solutions: Iterable[int | Sequence[int]],
    ):
        super().__init__()
        self.projection = projection
        k = len(projection)
        widths = [v.width for v in projection.variables]
        rows: set[tuple[int, ...]] = set()
        for sol in solutions:
            row = (int(sol),) if isinstance(sol, (int, np.integer)) else tuple(
                int(v) for v in sol
            )
            if len(row) != k:
                raise ValueError(f"expected {k} values per solution, got {len(row)}")
            for v, w in zip(row, widths):
                if not 0 <= v < (1 << w):
                    raise ValueError(f"value {v} out of range for width {w}")
            rows.add(row)
        self._rows: list[tuple[int, ...]] = sorted(rows)
        self._row_index = {row: i for i, row in enumerate(self._rows)}
        self._widths = widths
        n = len(self._rows)
        if all(w <= 64 for w in widths):
            self._columns = [
                np.fromiter((row[j] for row in self._rows), dtype=np.uint64, count=n)
                for j in range(k)
            ]
        else:
            self._columns = None
        self._frames: list[_Frame] = [_Frame(np.ones(n, dtype=bool), 0)]

    @property
    def depth(self) -> int:
        return len(self._frames) - 1

    def push(self) -> None:
        top = self._frames[-1]
        self._frames.append(_Frame(top.mask.copy(), top.cursor))

    def pop(self) -> None:
        if len(self._frames) == 1:
            raise StackUnderflow("pop at assertion-stack depth 0")
        self._frames.pop()

    def _first_live(self) -> int | None:
        frame = self._frames[-1]
        mask = frame.mask
        if frame.cursor >= mask.size:
            return None
        tail = mask[frame.cursor:]
        pos = int(np.argmax(tail))
        if not tail[pos]:
            frame.cursor = mask.size
            return None
        frame.cursor += pos
        return frame.cursor

    def check_sat(self) -> SolverResult:
        t0 = time.perf_counter()
        live = self._first_live()
        self.stats.check_sat_calls += 1
        self.stats.solver_time += time.perf_counter() - t0
        return SolverResult.SAT if live is not None else SolverResult.UNSAT

    def get_projected_model(self, projection: ProjectionSet) -> dict[str, int]:
        live = self._first_live()
        if live is None:
            raise ProtocolError("model requested from an unsatisfiable state")
        return dict(zip(projection.names, self._rows[live]))

    def assert_constraint(self, constraint) -> None:
        self.stats.assertions_sent += 1
        frame = self._frames[-1]
        if isinstance(constraint, BlockingClause):
            self._apply_blocking(constraint, frame)
        elif isinstance(constraint, HashConstraint):
            self._apply_hash(constraint, frame)
        else:
            raise TypeError(f"cannot interpret {type(constraint).__name__} in memory")

    def live_values(self) -> list[tuple[int, ...]]:
        """Surviving assignments on the current frame (introspection)."""
        mask = self._frames[-1].mask
        return [self._rows[i] for i in np.nonzero(mask)[0]]

    # -- filtering internals

    def _apply_blocking(self, clause: BlockingClause, frame: _Frame) -> None:
        positions = {name: i for i, name in enumerate(self.projection.names)}
        for name, _w, _v in clause.assignments:
            if name not in positions:
                raise UnknownVariable(f"blocking clause names {name!r}, not projected")
        if len(clause.assignments) == len(self.projection):
            values = [0] * len(self.projection)
            for name, _w, v in clause.assignments:
                values[positions[name]] = v
            idx = self._row_index.get(tuple(values))
            if idx is not None:
                frame.mask[idx] = False
            return
        # partial clause: kill every row matching the given assignments
        keep = np.ones(len(self._rows), dtype=bool)
        for name, _w, v in clause.assignments:
            j = positions[name]
            if self._columns is not None:
                keep &= self._columns[j] == np.uint64(v)
            else:
                col = np.fromiter(
                    (row[j] == v for row in self._rows), dtype=bool, count=len(self._rows)
                )
                keep &= col
        frame.mask &= ~keep

    def _apply_hash(self, constraint: HashConstraint, frame: _Frame) -> None:
        values = self._vector_hash_values(constraint)
        if values is not None:
            frame.mask &= values == constraint.target
            return
        names = self.projection.names
        for i in np.nonzero(frame.mask)[0]:
            model = dict(zip(names, self._rows[i]))
            if eval_hash(constraint, model) != constraint.target:
                frame.mask[i] = False

    def _vector_hash_values(self, c: HashConstraint) -> np.ndarray | None:
        """Hash value per row, or None when 64-bit arithmetic can't hold it."""
        if self._columns is None:
            return None
        n = len(self._rows)
        position = {name: i for i, name in enumerate(self.projection.names)}
        if c.family is Family.XOR:
            select: dict[int, int] = {}
            for coeff, sl in zip(c.coeffs, c.slices):
                if coeff:
                    j = position[sl.var]
                    select[j] = select.get(j, 0) | (1 << sl.lo)
            acc = np.zeros(n, dtype=np.uint64)
            for j, bits in select.items():
                acc ^= self._columns[j] & np.uint64(bits)
            return np.bitwise_count(acc) & np.uint64(1)
        if c.family is Family.PRIME:
            p = c.range_size
            # stepwise mod keeps every intermediate below d*p + p^2
            if any(
                coeff * ((1 << sl.width) - 1) >= (1 << 63)
                for coeff, sl in zip(c.coeffs, c.slices)
            ):
                return None
            acc = np.zeros(n, dtype=np.uint64)
            for coeff, sl in zip(c.coeffs, c.slices):
                col = self._columns[position[sl.var]]
                v = (col >> np.uint64(sl.lo)) & np.uint64((1 << sl.width) - 1)
                acc += (np.uint64(coeff) * v) % np.uint64(p)
            acc += np.uint64(c.offset % p)
            return acc % np.uint64(p)
        if c.family is Family.SHIFT:
            wbar = c.widened_width
            if wbar > 64:
                return None
            # uint64 wraparound is exact mod 2^64, and 2^wbar divides 2^64
            acc = np.zeros(n, dtype=np.uint64)
            for coeff, sl in zip(c.coeffs, c.slices):
                col = self._columns[position[sl.var]]
                v = (col >> np.uint64(sl.lo)) & np.uint64((1 << sl.width) - 1)
                acc += np.uint64(coeff) * v
            acc += np.uint64(c.offset)
            acc &= np.uint64((1 << wbar) - 1)
            return acc >> np.uint64(wbar - c.ell)
        return None


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
    "reset",
}

DEFAULT_SOLVER = "cvc5 --incremental --produce-models"
SOLVER_ENV_VAR = "PACT_SOLVER_CMD"


def default_solver_command() -> str:
    return os.environ.get(SOLVER_ENV_VAR) or DEFAULT_SOLVER


class SubprocessOracle(Oracle):
    """Client for any SMT-LIB2 solver process on stdin/stdout.

    The handle keeps `print-success` on so every command is acknowledged,
    loads the input script verbatim (minus interactive control commands),
    and journals state-changing commands so the session can be replayed
    after a timeout kill.
    """

    def __init__(
        self,
        command: str | Sequence[str] | None = None,
        script: SmtScript | str = "",
        *,
        query_timeout: float | None = None,
        deadline: float | None = None,
        transcript=None,
    ):
        super().__init__()
        if command is None:
            command = default_solver_command()
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.script = parse_declarations(script) if isinstance(script, str) else script
        self.query_timeout = query_timeout
        self.deadline = deadline
        self._transcript = None
        self._owns_transcript = False
        if transcript is not None:
            if isinstance(transcript, (str, Path)):
                self._transcript = open(transcript, "a", encoding="utf-8")
                self._owns_transcript = True
            else:
                self._transcript = transcript
        self._proc: subprocess.Popen | None = None
        self._selector: selectors.BaseSelector | None = None
        self._stderr_file = None
        self._buf = b""
        self._depth = 0
        self._dead = False
        self._journal: list[list[str]] = []
        self._spawn()
        self._load_initial()

    # -- process plumbing

    def _spawn(self) -> None:
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
        os.set_blocking(self._proc.stdout.fileno(), False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._proc.stdout, selectors.EVENT_READ)
        self._buf = b""
        self._reader = SexprReader()  # a replayed session starts no half reply

    def _load_initial(self) -> None:
        base: list[str] = []
        for cmd in (
            "(set-option :print-success true)",
            "(set-option :produce-models true)",
        ):
            self._send_expect_success(cmd)
            base.append(cmd)
        for cmd in self._script_commands():
            self._send_expect_success(cmd)
            base.append(cmd)
        self._journal = [base]

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

    def _write(self, text: str) -> None:
        if self._dead or self._proc is None or self._proc.stdin.closed:
            raise SolverCrashed("solver handle is no longer usable")
        self._log(">", text)
        try:
            self._proc.stdin.write(text.encode() + b"\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self._dead = True
            raise SolverCrashed(
                f"solver pipe broke: {exc}; stderr: {self._stderr_tail()}"
            ) from exc

    def _read_line(self, deadline: float | None) -> str | None:
        while b"\n" not in self._buf:
            timeout = None
            if deadline is not None:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    return None
            events = self._selector.select(timeout)
            if not events:
                continue  # re-check the deadline
            try:
                chunk = os.read(self._proc.stdout.fileno(), 65536)
            except BlockingIOError:
                continue
            if chunk == b"":
                self._dead = True
                raise SolverCrashed(
                    f"solver exited unexpectedly; stderr: {self._stderr_tail()}"
                )
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode(errors="replace")

    def _read_response(self, budget: float | None) -> tuple[object, Form] | None:
        """One solver response as (sexpr, Form); None when the budget ran out."""
        deadline = time.monotonic() + budget if budget is not None else None
        while True:
            line = self._read_line(deadline)
            if line is None:
                return None
            try:
                replies = list(iter_top_forms(line + "\n", self._reader))
            except MalformedScript as exc:
                raise ProtocolError(f"unreadable solver reply {line!r}: {exc}") from exc
            if len(replies) > 1:
                raise ProtocolError(f"more than one reply in {line!r}")
            if replies:
                self._log("<", replies[0][1].text)
                return replies[0]

    def _budget(self) -> float | None:
        candidates = []
        if self.query_timeout is not None:
            candidates.append(self.query_timeout)
        if self.deadline is not None:
            candidates.append(self.deadline - time.monotonic())
        return min(candidates) if candidates else None

    def _send_expect_success(self, cmd: str) -> None:
        self._write(cmd)
        resp = self._read_response(self._budget())
        if resp is None:
            self._restart_after_timeout()
            raise OracleTimeout(f"solver did not acknowledge {cmd!r} in time")
        if resp[0] != "success":
            raise ProtocolError(f"expected success for {cmd!r}, got {resp[1].text!r}")

    def _restart_after_timeout(self) -> None:
        """Kill the wedged process, respawn, and replay the journal."""
        self._log("#", "timeout: killing and replaying session")
        self._teardown_process()
        try:
            self._spawn()
            for frame in self._journal:
                for cmd in frame:
                    self._write(cmd)
                    resp = self._read_response(self.query_timeout)
                    if resp is None or resp[0] != "success":
                        raise ProtocolError(f"replay of {cmd!r} was not acknowledged")
        except Exception:
            self._dead = True

    def _teardown_process(self) -> None:
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
        self._send_expect_success("(push 1)")
        self._journal.append(["(push 1)"])
        self._depth += 1

    def pop(self) -> None:
        if self._depth == 0:
            raise StackUnderflow("pop at assertion-stack depth 0")
        self._send_expect_success("(pop 1)")
        self._journal.pop()
        self._depth -= 1

    def assert_text(self, assertion: str) -> None:
        self._send_expect_success(assertion)
        self._journal[-1].append(assertion)
        self.stats.assertions_sent += 1

    def assert_constraint(self, constraint) -> None:
        self.assert_text(render_assertion(constraint))

    def check_sat(self) -> SolverResult:
        t0 = time.perf_counter()
        self._write("(check-sat)")
        resp = self._read_response(self._budget())
        self.stats.check_sat_calls += 1
        self.stats.solver_time += time.perf_counter() - t0
        if resp is None:
            self._restart_after_timeout()
            return SolverResult.TIMEOUT
        answer, form = resp
        if answer in ("sat", "unsat", "unknown"):
            return SolverResult(answer)
        raise ProtocolError(f"unexpected check-sat answer {form.text!r}")

    def get_projected_model(self, projection: ProjectionSet) -> dict[str, int]:
        names = " ".join(quote_symbol(n) for n in projection.names)
        t0 = time.perf_counter()
        self._write(f"(get-value ({names}))")
        resp = self._read_response(self._budget())
        self.stats.solver_time += time.perf_counter() - t0
        if resp is None:
            self._restart_after_timeout()
            raise OracleTimeout("solver did not answer get-value in time")
        pairs, form = resp
        text = form.text
        if isinstance(pairs, str):
            raise ProtocolError(f"cannot parse get-value answer {text!r}")
        if pairs[:1] == ["error"]:
            raise ProtocolError(f"get-value failed: {text}")
        values: dict[str, int] = {}
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)):
                raise ProtocolError(f"malformed get-value pair in {text!r}")
            values[unquote_symbol(pair[0])] = _parse_bv_value(pair[1], text)
        out: dict[str, int] = {}
        for var in projection.variables:
            if var.name not in values:
                raise ProtocolError(f"solver omitted {var.name!r} in {text!r}")
            v = values[var.name]
            if not 0 <= v < (1 << var.width):
                raise ProtocolError(
                    f"value {v} out of range for {var.name!r} (width {var.width})"
                )
            out[var.name] = v
        return out

    def close(self) -> None:
        if self._proc is not None and not self._dead:
            try:
                self._write("(exit)")
            except SolverCrashed:
                pass
        self._teardown_process()
        if self._stderr_file is not None:
            self._stderr_file.close()
            self._stderr_file = None
        if self._owns_transcript and self._transcript is not None:
            self._transcript.close()
            self._transcript = None


def _parse_bv_value(value, context: str) -> int:
    if isinstance(value, str):
        if value.startswith("#b"):
            return int(value[2:], 2)
        if value.startswith("#x"):
            return int(value[2:], 16)
        if value.isdigit():
            return int(value)
    elif (
        isinstance(value, list)
        and len(value) == 3
        and value[0] == "_"
        and isinstance(value[1], str)
        and value[1].startswith("bv")
    ):
        return int(value[1][2:])
    raise ProtocolError(f"cannot parse bitvector value {value!r} in {context!r}")
