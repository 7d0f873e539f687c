"""Command line front end.

Four subcommands: `count` runs the approximate counter on one script,
`baseline` enumerates it exactly, `bench` sweeps a generated corpus and
writes records plus cactus/accuracy tables, and `corpus` generates the
instances the bench consumes.  `count` and `baseline` share one run path,
which reads the script, opens the oracle under the run's deadline and
turns errors into records; they differ only in what they run on the
oracle.  Results are emitted as one JSON record per run so downstream
tooling never parses log text.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import corpus
from .baseline import BaselineStatus, enumerate_count
from .counter import fresh_seed, pact_count
from .errors import MalformedScript, OracleTimeout, PactError
from .hashing import Family
from .oracle import InMemoryOracle, SubprocessOracle
from .smtlib import (
    SmtScript,
    parse_declarations,
    projection_comment_names,
    read_projection_file,
    resolve_projection,
)

EXIT_OK = 0
EXIT_TIMEOUT = 2
EXIT_ERROR = 3

_TIMING_FIELDS = ("wall_time", "solver_time")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one count/baseline run; echoed in records."""

    mode: str
    input: str
    project: str | None = None  # space/comma names, or @file
    epsilon: float = 0.8
    delta: float = 0.2
    family: str = "xor"
    seed: int | None = None
    solver_cmd: str | None = None  # None: $PACT_SOLVER_CMD, then built-in default
    timeout: float = 3600.0
    out: str | None = None


@dataclass(frozen=True)
class ResultRecord:
    instance: str
    mode: str
    status: str  # ok | timeout | error
    count: int | None
    seed: int | None
    wall_time: float
    solver_time: float
    check_sat_calls: int
    assertions_sent: int
    config: dict
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ResultRecord":
        return cls(**json.loads(line))

    def comparable(self) -> dict:
        """The record minus wall-clock fields, for determinism checks."""
        stripped = asdict(self)
        for name in _TIMING_FIELDS:
            stripped.pop(name)
        return stripped


def _projection_for(config: RunConfig, script: SmtScript):
    """The names of the first source present: --project, then a .proj
    sidecar, then a script comment.  None there is an error."""
    sidecar = Path(config.input).with_suffix(".proj")
    if config.project is not None:
        if config.project.startswith("@"):
            names = read_projection_file(config.project[1:])
        else:
            names = config.project.replace(",", " ").split()
    elif sidecar.exists():
        names = read_projection_file(sidecar)
    else:
        names = projection_comment_names(script.text)
    if not names:
        raise MalformedScript(
            "no projection given: pass --project, add a .proj sidecar, "
            "or a '; projected-vars:' comment in the script"
        )
    return resolve_projection(script, names)


def _record(config: RunConfig, status: str, count, seed, stats, started, detail=""):
    return ResultRecord(
        instance=config.input,
        mode=config.mode,
        status=status,
        count=count,
        seed=seed,
        wall_time=time.monotonic() - started,
        solver_time=stats.solver_time if stats else 0.0,
        check_sat_calls=stats.check_sat_calls if stats else 0,
        assertions_sent=stats.assertions_sent if stats else 0,
        config=asdict(config),
        detail=detail,
    )


def _count(config: RunConfig, oracle, projection):
    result = pact_count(
        oracle,
        projection,
        epsilon=config.epsilon,
        delta=config.delta,
        family=Family[config.family.upper()],
        seed=config.seed,
    )
    return "ok", result.estimate, result.seed, result.stats, ""


def _baseline(config: RunConfig, oracle, projection):
    result = enumerate_count(oracle, projection)
    if result.status is BaselineStatus.TIMED_OUT:
        detail = "partial count, enumeration hit the time budget"
        return "timeout", result.count, None, result.stats, detail
    return "ok", result.count, None, result.stats, ""


_EXIT_CODES = {"ok": EXIT_OK, "timeout": EXIT_TIMEOUT, "error": EXIT_ERROR}


def _run(config: RunConfig, oracle_factory, measure) -> tuple[ResultRecord, int]:
    """The run path of `count` and `baseline`: read and parse the script,
    resolve the projection, open the oracle with the run's deadline on it,
    and let `measure(config, oracle, projection)` give the record's
    (status, count, seed, stats, detail).  A pact error, a bad value or an
    unreadable file ends as a timeout or error record, which carries the
    stats of the work done up to then."""
    started = time.monotonic()
    deadline = started + config.timeout
    oracle = None
    try:
        script = parse_declarations(Path(config.input).read_text())
        projection = _projection_for(config, script)
        if oracle_factory is None:
            oracle = SubprocessOracle(
                config.solver_cmd,  # None falls through to the environment/default
                script,
                deadline=deadline,  # loading the script counts against it too
            )
        else:
            oracle = oracle_factory(script, projection)
        oracle.deadline = deadline
        with oracle:
            status, count, seed, stats, detail = measure(config, oracle, projection)
    except (OSError, PactError, ValueError) as exc:
        status = "timeout" if isinstance(exc, OracleTimeout) else "error"
        stats = oracle.stats if oracle is not None else None  # the work done
        count, seed, detail = None, config.seed, str(exc)
    record = _record(config, status, count, seed, stats, started, detail)
    return record, _EXIT_CODES[status]


def run_count(config: RunConfig, oracle_factory=None) -> tuple[ResultRecord, int]:
    """Approximate count of one script.  `oracle_factory(script, projection)`
    overrides solver spawning, which keeps tests and the memory backend
    hermetic.  A config without a seed gets a fresh one first, so every
    record, timeout and error records too, names the seed that repeats it."""
    if config.seed is None:
        config = replace(config, seed=fresh_seed())
    return _run(config, oracle_factory, _count)


def run_baseline(config: RunConfig, oracle_factory=None) -> tuple[ResultRecord, int]:
    """Exact enumeration of one script; a partial count on timeout."""
    return _run(config, oracle_factory, _baseline)


@dataclass(frozen=True)
class BenchConfig:
    manifest: str
    out: str
    backend: str = "memory"  # memory | solver
    epsilon: float = 0.8
    delta: float = 0.2
    family: str = "xor"
    seed: int = 0
    solver_cmd: str | None = None
    timeout: float = 300.0  # per instance
    jobs: int = 1


@dataclass(frozen=True)
class BenchRow:
    name: str
    true_count: int
    record: ResultRecord

    @property
    def error_ratio(self) -> float:
        """max(true/est, est/true) - 1; infinite when either side is zero."""
        if self.record.count in (None, 0) or self.true_count == 0:
            return float("inf")
        est = self.record.count
        return max(self.true_count / est, est / self.true_count) - 1.0


def run_bench(config: BenchConfig, progress=None) -> tuple[list[BenchRow], int]:
    """Count every manifest instance, collecting per-instance records.

    Failures are recorded and the sweep continues; the exit code reflects
    the worst individual outcome.  The solver backend counts `config.jobs`
    instances at once; memory counts hold the interpreter lock, so that
    backend counts one at a time.
    """
    if config.backend not in ("memory", "solver"):
        raise ValueError(f"unknown backend {config.backend!r}")
    entries = corpus.load_manifest(config.manifest)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[BenchRow] = []
    lock = threading.Lock()

    def one(entry: corpus.ManifestEntry) -> None:
        run_config = RunConfig(
            mode="count",
            input=str(entry.script_path),
            epsilon=config.epsilon,
            delta=config.delta,
            family=config.family,
            seed=config.seed,
            solver_cmd=config.solver_cmd,
            timeout=config.timeout,
        )
        started = time.monotonic()
        true_count = entry.spec.count  # the generator's count, until built
        try:
            inst = corpus.build(entry.spec)
            true_count = inst.true_count
            run_config = replace(run_config, project=" ".join(inst.projection))
            if config.backend == "memory":
                factory = lambda script, projection: InMemoryOracle(
                    projection, inst.solutions
                )
                record, _ = run_count(run_config, oracle_factory=factory)
            else:
                record, _ = run_count(run_config)
        except Exception as exc:  # any fault is this instance's record, not the sweep's end
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = (
                f"{type(exc).__name__}: {exc} "
                f"(at {Path(where.filename).name}:{where.lineno} in {where.name})"
            )
            record = _record(run_config, "error", None, config.seed, None, started, detail)
        row = BenchRow(entry.spec.name, true_count, record)
        with lock:
            rows.append(row)
            if progress:
                progress(row)

    jobs = config.jobs if config.backend == "solver" else 1
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        list(pool.map(one, entries))

    rows.sort(key=lambda r: r.name)
    _write_bench_tables(out_dir, rows)
    statuses = {row.record.status for row in rows}
    if "error" in statuses:
        return rows, EXIT_ERROR
    if "timeout" in statuses:
        return rows, EXIT_TIMEOUT
    return rows, EXIT_OK


def _write_bench_tables(out_dir: Path, rows: list[BenchRow]) -> None:
    with open(out_dir / "records.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row.record.to_json() + "\n")
    solved = sorted(
        (row.record.wall_time for row in rows if row.record.status == "ok")
    )
    with open(out_dir / "cactus.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solved", "time"])
        for i, t in enumerate(solved, start=1):
            writer.writerow([i, f"{t:.6f}"])
    with open(out_dir / "accuracy.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "true_count", "estimate", "error_ratio"])
        for row in rows:
            if row.record.status != "ok":
                continue
            writer.writerow(
                [row.name, row.true_count, row.record.count, f"{row.error_ratio:.6f}"]
            )


def run_corpus(preset: str, seed: int, out: str) -> Path:
    specs = corpus.PRESETS[preset](seed)
    instances = [corpus.build(s) for s in specs]
    return corpus.write_corpus(instances, out)


def _emit(record: ResultRecord, out: str | None) -> None:
    line = record.to_json()
    print(line)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pact",
        description="Approximate projected model counting for SMT-LIB2 scripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = [str(f) for f in Family]

    def add_io(p):
        p.add_argument("input", help="SMT-LIB2 script")
        p.add_argument(
            "--project",
            help="projected variable names (space or comma separated), or @file",
        )
        p.add_argument("--solver-cmd", help="solver command line (default: $PACT_SOLVER_CMD)")
        p.add_argument("--timeout", type=float, help="time budget in seconds")
        p.add_argument("--out", help="append the JSON record to this file")

    count = sub.add_parser("count", help="estimate the projected model count")
    add_io(count)
    count.add_argument("--epsilon", type=float, help=f"tolerance (default {RunConfig.epsilon})")
    count.add_argument("--delta", type=float, help=f"confidence slack (default {RunConfig.delta})")
    count.add_argument("--family", choices=families)
    count.add_argument("--seed", type=int, help="RNG seed (drawn fresh when omitted)")

    baseline = sub.add_parser("baseline", help="enumerate the exact count")
    add_io(baseline)

    bench = sub.add_parser("bench", help="run the counter over a corpus manifest")
    bench.add_argument("manifest", help="manifest.json produced by `pact corpus`")
    bench.add_argument("--backend", choices=("memory", "solver"))
    bench.add_argument("--epsilon", type=float)
    bench.add_argument("--delta", type=float)
    bench.add_argument("--family", choices=families)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--solver-cmd")
    bench.add_argument("--timeout", type=float, help="per-instance budget")
    bench.add_argument("--jobs", type=int, help="instances counted at once; memory runs serially")
    bench.add_argument("--out", default="pact-bench", help="output directory")

    gen = sub.add_parser("corpus", help="generate a benchmark corpus")
    gen.add_argument("--preset", choices=sorted(corpus.PRESETS), default="bench30")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="pact-corpus", help="output directory")

    return parser


def _config_from(cls, args: argparse.Namespace, **extra):
    """A RunConfig or BenchConfig from the parsed options it has fields for;
    an option left out parses as None and takes the field's default."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names and v is not None}, **extra)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("count", "baseline"):
        run = run_count if args.command == "count" else run_baseline
        record, code = run(_config_from(RunConfig, args, mode=args.command))
        _emit(record, args.out)
        return code
    if args.command == "bench":
        config = _config_from(BenchConfig, args)
        rows, code = run_bench(
            config,
            progress=lambda row: print(
                f"{row.name}: {row.record.status} "
                f"count={row.record.count} true={row.true_count} "
                f"({row.record.wall_time:.2f}s)",
                file=sys.stderr,
            ),
        )
        print(str(Path(config.out) / "records.jsonl"))
        return code
    manifest = run_corpus(args.preset, args.seed, args.out)
    print(str(manifest))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
