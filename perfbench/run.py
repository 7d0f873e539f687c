#!/usr/bin/env python3
"""Seeded performance benchmark for pact.

    python3 perfbench/run.py --workload mem-large --seed 1 --seconds 30 --trace 0

Runs one workload named in BENCHMARK.json against the pact sources of this
checkout: `src/` goes first on sys.path, and the solver is
`python -m pact.minisolve` from that same `src/` (PACT_SOLVER_CMD is never
consulted).  The seed generates every input.  Each workload is a closed
loop with one client: the next operation (one count or baseline call)
starts when the previous one returns.  The loop repeats whole rounds of
the workload's fixed operation list until about --seconds have passed, so
the deterministic numbers (check-sats per op, share within tolerance, the
estimate digest) do not depend on timing.

Every output is checked: a baseline must equal the generator's true count,
and the share of estimates within 1 + epsilon of it must be at least
1 - delta.  An operation that raises or overruns its time budget counts as
failed and the run goes on.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
loop runs once untraced and then, for the same number of rounds, under the
timing proxies of tracing.py; the metrics are the per-layer ones plus
trace.overhead.  A report goes to stdout and perfbench/out/, and the last
stdout line is one JSON object {correct, attempted, failed, metrics}.  The
exit status is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy as np

    import pact
    from pact import cli, corpus, counter
    from pact.hashing import Family
    from pact.smtlib import parse_declarations, resolve_projection
except ImportError as exc:
    sys.exit(f"perfbench: cannot import pact from {SRC}: {exc}")

import tracing

STARTED = time.perf_counter()
EPSILON, DELTA = 0.8, 0.2  # the CLI defaults
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 2.0, 50  # setup_s is the median of these
OP_BUDGET = 30.0  # seconds; an operation running longer is a failure
RUN_CAP = 120.0  # no round starts this long after the process started
SOLVER_CMD = shlex.join([sys.executable, "-m", "pact.minisolve"])
TAIL_PERCENTILES = (99, 95, 90, 75)


class OpFailed(Exception):
    """An operation that returned without a usable result."""


class OpBudgetExceeded(Exception):
    """An operation ran past its time budget."""


@contextmanager
def time_budget(seconds: float):
    """Raise OpBudgetExceeded in the main thread after `seconds`."""

    def on_alarm(signum, frame):
        raise OpBudgetExceeded(f"operation ran past its {seconds:g} s budget")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class OpResult:
    key: str  # names the operation within a round
    kind: str  # "count" or "baseline"
    value: int
    truth: int
    check_sats: int

    @property
    def within_tolerance(self) -> bool:
        return self.truth / (1 + EPSILON) <= self.value <= self.truth * (1 + EPSILON)


@dataclass
class Phase:
    """One closed-loop pass: completed results, their times, and failures."""

    tracer: tracing.Tracer | None = None
    results: list[OpResult] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    rounds: list[tuple[int, float, float]] = field(default_factory=list)  # (ops, wall, cpu)
    wall: float = 0.0
    cpu: float = 0.0  # user + sys of this process and its children
    child_cpu: float = 0.0
    _next_id: int = 0

    @property
    def attempted(self) -> int:
        return len(self.results) + len(self.failures)

    def begin_op(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.start_op(self._next_id, kind)
        self._next_id += 1

    def end_op(self) -> None:
        if self.tracer is not None:
            self.tracer.end_op()

    def done(self, result: OpResult, seconds: float) -> None:
        self.results.append(result)
        self.seconds.append(seconds)

    def fail(self, key: str, exc: BaseException) -> None:
        self.failures.append((key, f"{type(exc).__name__}: {exc}"))

    def run(self, key: str, kind: str, fn) -> None:
        """Time one operation from outside, under the per-operation budget."""
        self.begin_op(kind)
        t0 = time.perf_counter()
        try:
            with time_budget(OP_BUDGET + 5):
                result = fn()
        except Exception as exc:
            self.fail(key, exc)
            return
        finally:
            self.end_op()
        self.done(result, time.perf_counter() - t0)


def _record_result(key: str, kind: str, record, truth: int) -> OpResult:
    if record.status != "ok" or record.count is None:
        raise OpFailed(f"status {record.status}: {record.detail}")
    return OpResult(key, kind, record.count, truth, record.check_sat_calls)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _projection(width: int):
    script = parse_declarations(f"(declare-const x (_ BitVec {width}))")
    return resolve_projection(script, ["x"])


# ---------------------------------------------------------------------------
# workloads
#
# Oracles are built through pact.cli's names (cli.InMemoryOracle,
# cli.SubprocessOracle) and library calls go through module attributes, so
# the traced run sees them exactly where tracing.installed() wraps them.


class MemLarge:
    """Library counts on prebuilt in-memory oracles; building them is set-up."""

    XOR_ROWS, XOR_WIDTH = 250_000, 32
    ARITH_ROWS, ARITH_WIDTH = 50_000, 20

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        sets = {}
        for name, rows, width in (
            ("xor", self.XOR_ROWS, self.XOR_WIDTH),
            ("arith", self.ARITH_ROWS, self.ARITH_WIDTH),
        ):
            projection = _projection(width)
            values = rng.sample(range(1 << width), rows)
            sets[name] = (projection, cli.InMemoryOracle(projection, values), rows)
        ops = [
            ("xor", "xor", seed),
            ("xor", "xor", seed + 1),
            ("arith", "prime", seed),
            ("arith", "shift", seed),
        ]
        return sets, ops

    def run_round(self, state, phase: Phase) -> None:
        sets, ops = state
        for set_name, family, count_seed in ops:
            projection, oracle, truth = sets[set_name]
            key = f"{family}/{set_name}/seed{count_seed}"
            phase.run(key, "count", lambda: self._count(
                key, oracle, projection, family, count_seed, truth))

    @staticmethod
    def _count(key, oracle, projection, family, seed, truth) -> OpResult:
        try:
            result = counter.pact_count(
                oracle, projection, epsilon=EPSILON, delta=DELTA,
                family=Family(family), seed=seed,
            )
        except BaseException:
            while oracle.depth:  # leave the shared oracle usable
                oracle.pop()
            raise
        return OpResult(key, "count", result.estimate, truth, result.stats.check_sat_calls)


class MemSmall:
    """`pact bench` sweeps of the bench30 corpus on the memory backend, --jobs 1.

    The corpus is the documented preset (corpus seed 0) and the workload
    seed is the bench seed: a seeded corpus would change the mix of
    instance sizes, and with it check-sats per op by over 10%, from seed
    to seed.
    """

    FAMILIES = ("xor", "shift")
    CORPUS_SEED = 0

    def setup(self, seed: int, workdir: Path):
        return cli.run_corpus("bench30", self.CORPUS_SEED, str(workdir / "bench30")), seed

    def run_round(self, state, phase: Phase) -> None:
        manifest, seed = state
        for family in self.FAMILIES:
            config = cli.BenchConfig(
                manifest=str(manifest), out=str(manifest.parent / "bench-out"),
                backend="memory", epsilon=EPSILON, delta=DELTA, family=family,
                seed=seed, timeout=OP_BUDGET, jobs=1,
            )
            last = time.perf_counter()

            def progress(row) -> None:
                # called from the sweep's worker thread after each instance
                nonlocal last
                now = time.perf_counter()
                phase.end_op()
                key = f"{family}/{row.name}"
                try:
                    result = _record_result(key, "count", row.record, row.true_count)
                except OpFailed as exc:
                    phase.fail(key, exc)
                else:
                    phase.done(result, now - last)
                last = now
                phase.begin_op("count")

            phase.begin_op("count")
            try:
                cli.run_bench(config, progress=progress)
            except Exception as exc:  # the rest of this sweep is not attempted
                phase.fail(f"{family}/sweep", exc)
            finally:
                phase.end_op()


class SolverSmoke:
    """CLI counts and baselines through a pact-minisolve subprocess.

    Three operations do real solver work (the 4096-solution baseline, an
    xor and a prime count of the 256-solution instances) and two are
    dominated by spawning the solver (the hybrid baseline, and the
    early-exit count of the 20-solution instance), so the median operation
    is a solver-bound one; spawn times vary by up to 2x between runs.
    Counts of the 4096-solution instance (6-9 s each) are left out to keep
    a round near ten seconds.
    """

    OPS = (
        ("smoke-pure-4096", "baseline", None),
        ("smoke-hybrid-256", "baseline", None),
        ("smoke-pure-20", "count", "xor"),
        ("smoke-pure-256", "count", "xor"),
        ("smoke-hybrid-256", "count", "prime"),
    )

    def setup(self, seed: int, workdir: Path):
        manifest = cli.run_corpus("solver-smoke", seed, str(workdir / "smoke"))
        return {e.spec.name: e for e in corpus.load_manifest(manifest)}, seed

    def run_round(self, state, phase: Phase) -> None:
        entries, seed = state
        for name, kind, family in self.OPS:
            entry = entries[name]
            key = f"{family or kind}/{name}"
            config = cli.RunConfig(
                mode=kind, input=str(entry.script_path), epsilon=EPSILON,
                delta=DELTA, family=family or "xor",
                seed=seed if kind == "count" else None,
                solver_cmd=SOLVER_CMD, timeout=OP_BUDGET,
            )
            call = cli.run_count if kind == "count" else cli.run_baseline
            phase.run(key, kind, lambda: _record_result(
                key, kind, call(config)[0], entry.spec.count))


WORKLOADS = {"mem-large": MemLarge, "mem-small": MemSmall, "solver-smoke": SolverSmoke}


# ---------------------------------------------------------------------------
# measurement


def _cpu_seconds() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def closed_loop(workload, state, seconds: float | None, tracer=None, rounds=None) -> Phase:
    """Whole rounds until `rounds` are done or about `seconds` have passed."""
    phase = Phase(tracer)
    own0, kids0 = _cpu_seconds()
    t0 = time.perf_counter()
    while True:
        done0, r0, cpu0 = len(phase.results), time.perf_counter(), sum(_cpu_seconds())
        workload.run_round(state, phase)
        now = time.perf_counter()
        phase.rounds.append((len(phase.results) - done0, now - r0, sum(_cpu_seconds()) - cpu0))
        phase.wall = now - t0
        n = len(phase.rounds)
        if rounds is not None:
            done = n >= rounds
        else:  # stop at the round boundary nearest to `seconds`
            done = phase.wall + phase.wall / n / 2 > seconds
        if done or now - STARTED > RUN_CAP:
            break
    own1, kids1 = _cpu_seconds()
    phase.child_cpu = kids1 - kids0
    phase.cpu = own1 - own0 + phase.child_cpu
    return phase


def warm_up() -> None:
    """One small count, so lazy imports and first calls are not timed."""
    projection = _projection(10)
    counter.pact_count(cli.InMemoryOracle(projection, range(300)), projection, seed=0)


def tail_percentile(n: int) -> int | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def percentile_report(samples: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    ordered = sorted(samples)
    report = {"n": len(ordered), "p50": statistics.median(ordered) if ordered else None}
    p = tail_percentile(len(ordered))
    if p is not None:  # nearest rank
        report[f"p{p}"] = ordered[-(-p * len(ordered) // 100) - 1]
    return report


def estimate_digest(results: list[OpResult]) -> str:
    first = {}
    for r in results:
        first.setdefault(r.key, r.value)
    blob = json.dumps(sorted(first.items()), separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def output_checks(phase: Phase) -> list[str]:
    """Failed output checks; an empty list means every output is right."""
    problems = []
    if not phase.results:
        problems.append("no operation completed")
    for r in phase.results:
        if r.kind == "baseline" and r.value != r.truth:
            problems.append(f"{r.key}: baseline {r.value} != true count {r.truth}")
    counts = [r for r in phase.results if r.kind == "count"]
    if counts:
        share = sum(r.within_tolerance for r in counts) / len(counts)
        if share < 1 - DELTA:
            problems.append(f"only {share:.3f} of estimates within 1+epsilon (< 1-delta)")
    return problems


def end_to_end(phase: Phase, setups: list[float]) -> dict[str, float]:
    """Throughput and CPU are medians over rounds, so one slow stretch of
    the machine moves them less than a whole-phase mean would."""
    counts = [r for r in phase.results if r.kind == "count"]
    done = max(1, len(phase.results))
    return {
        "ops_per_s": statistics.median(_ratio(n, wall) for n, wall, _ in phase.rounds),
        "op_s.p50": statistics.median(phase.seconds) if phase.seconds else 0.0,
        "cpu_s_per_op": statistics.median(_ratio(cpu, n) for n, _, cpu in phase.rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "check_sats_per_op": sum(r.check_sats for r in phase.results) / done,
        "within_tolerance": (
            sum(r.within_tolerance for r in counts) / len(counts) if counts else 1.0
        ),
    }


QUERY_SPANS = ("oracle.push", "oracle.pop", "oracle.assert_hash", "oracle.assert_block",
               "oracle.check_sat", "oracle.get_model")
PER_OP_SPANS = QUERY_SPANS + ("smtlib.render_assertion", "smtlib.iter_top_forms",
                              "smtlib.parse_declarations", "hashing.generate_hash",
                              "counter.saturating_count")
LAYERS = ("cli", "corpus", "smtlib", "hashing", "counter", "oracle", "baseline")


def per_layer(tracer: tracing.Tracer, phase: Phase, overhead: float) -> dict[str, float]:
    """Per-layer numbers of the traced phase, per completed operation."""
    ops = max(1, len(phase.results))
    count_ops = sum(r.kind == "count" for r in phase.results)
    baseline_ops = sum(r.kind == "baseline" for r in phase.results)
    def calls(name, kind=None):
        return tracer.total(name, 0, kind)

    def secs(name, kind=None):
        return tracer.total(name, 1, kind)

    counted = tracer.counts.get
    out = {}
    for name in PER_OP_SPANS:
        out[f"{name}.calls"] = calls(name) / ops
        out[f"{name}.s"] = secs(name) / ops
    for name in ("cli.run_count", "cli.run_baseline", "cli.run_bench", "corpus.build"):
        out[f"{name}.s"] = secs(name) / ops
    for name in ("oracle.open", "oracle.close"):
        out[f"{name}.s"] = _ratio(secs(name), calls(name))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self(layer) / ops
    probes = calls("counter.saturating_count")
    out.update({
        "oracle.round_trips_per_op": sum(calls(n) for n in QUERY_SPANS) / ops,
        "oracle.solver_wait_s": sum(tracer.total(n, 2) for n in QUERY_SPANS) / ops,
        "counter.models_per_probe": _ratio(calls("oracle.get_model", "count"), probes),
        "counter.repeat_model_share": _ratio(counted("models_repeated", 0),
                                             counted("models_fetched", 0)),
        "counter.saturated_probe_share": _ratio(counted("saturated_probes", 0), probes),
        "counter.probes_per_iteration": _ratio(counted("probes", 0), counted("iterations", 0)),
        "counter.iterations": _ratio(counted("iterations", 0), count_ops),
        "minisolve.cpu_s": phase.child_cpu / ops,
        "baseline.enumerate_count.s": _ratio(secs("baseline.enumerate_count"), baseline_ops),
        "baseline.enumerate_count.check_sats": _ratio(calls("oracle.check_sat", "baseline"),
                                                      baseline_ops),
        "trace.overhead": overhead,
    })
    return out


def run_context() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a plain copy of the tree has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_commit": commit,
        "pact_file": str(Path(pact.__file__).resolve().relative_to(ROOT)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def measure_end_to_end(workload, seed: int, seconds: float, workdir: Path, report: dict):
    """Set up several times, then one untraced closed loop."""
    setups = []
    state = None
    # cheap set-ups repeat until two seconds are spent, for a steadier median
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
        state = None  # let the previous set-up go before building the next
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
    phase = closed_loop(workload, state, seconds)
    report["setup_s"] = setups
    return phase, end_to_end(phase, setups), output_checks(phase)


def measure_per_layer(workload, seed: int, seconds: float, workdir: Path, report: dict):
    """An untraced loop for half of `seconds`, then as many rounds traced."""
    state = workload.setup(seed, workdir)
    untraced = closed_loop(workload, state, seconds / 2)
    state = None
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        state = workload.setup(seed, workdir)
        phase = closed_loop(workload, state, None, tracer, rounds=len(untraced.rounds))
    state = None
    overhead = (phase.wall / len(phase.rounds)) / (untraced.wall / len(untraced.rounds)) - 1
    problems = output_checks(untraced) + output_checks(phase)
    if estimate_digest(phase.results) != estimate_digest(untraced.results):
        problems.append("traced estimates differ from untraced ones")
    spans_path = HERE / "out" / f"{report['workload']}-seed{seed}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
    report.update(untraced_wall_s=untraced.wall, untraced_rounds=len(untraced.rounds),
                  spans_file=str(spans_path.relative_to(ROOT)))
    return phase, per_layer(tracer, phase, overhead), problems


def main(argv=None) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(pact.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: pact imported from {pact.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # SubprocessOracle keeps the solver's stderr in a temporary file
    tempfile.tempdir = os.environ["TMPDIR"] = str(workdir)
    workload = WORKLOADS[args.workload]()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": run_context()}
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        warm_up()
        phase, metrics, problems = measure(workload, args.seed, args.seconds, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = definition["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    result = {
        "correct": not problems,
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    report.update({
        "rounds": phase.rounds, "wall_s": phase.wall, "cpu_s": phase.cpu,
        "failed_share": _ratio(len(phase.failures), phase.attempted),
        "op_s": percentile_report(phase.seconds),
        "estimate_digest": estimate_digest(phase.results),
        "problems": problems, "failures": phase.failures, "result": result,
        "ops": [dict(asdict(r), seconds=s) for r, s in zip(phase.results, phase.seconds)],
    })
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{phase.attempted} ops in {len(phase.rounds)} round(s), {phase.wall:.2f} s")
    for m in spec:
        print(f"  {m['name']:<38} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  {'failed_share':<38} {report['failed_share']:.6g} "
          f"({len(phase.failures)}/{phase.attempted})")
    print(f"  {'op_s':<38} {json.dumps(report['op_s'])}")
    print(f"  {'estimate_digest':<38} {report['estimate_digest']}")
    print(f"  {'context':<38} {json.dumps(report['context'])}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
