"""CLI tests: record round trips, projection precedence, exit codes, and
the bench harness outputs."""

import csv
import json
import sys
import threading
import time
from dataclasses import replace

import pytest

from pact import cli
from pact.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TIMEOUT,
    BenchConfig,
    ResultRecord,
    RunConfig,
    main,
    run_baseline,
    run_bench,
    run_count,
)
from pact.corpus import InstanceSpec, build, write_corpus
from pact.errors import OracleTimeout, SolverUnknown
from pact.hashing import HashConstraint
from pact.oracle import InMemoryOracle, SolverResult, SubprocessOracle
from pact.smtlib import parse_declarations, resolve_projection
from stand_ins import EnumeratingOracle

MINISOLVE_CMD = f"{sys.executable} -m pact.minisolve"


def memory_factory(inst):
    return lambda script, projection: InMemoryOracle(projection, inst.solutions)


class DropsEveryThirdHash(EnumeratingOracle):
    """An inconsistent oracle: silently ignores every third hash constraint."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hashes = 0

    def assert_constraint(self, constraint):
        if isinstance(constraint, HashConstraint):
            self.hashes += 1
            if self.hashes % 3 == 0:
                return
        super().assert_constraint(constraint)


class TimesOutAtCheckSat(EnumeratingOracle):
    """A memory oracle whose n-th check-sat times out."""

    def __init__(self, n, *args):
        super().__init__(*args)
        self.n = n

    def check_sat(self):
        result = super().check_sat()
        if self.stats.check_sat_calls == self.n:
            raise OracleTimeout(f"check-sat {self.n} timed out")
        return result


class AnswersUnknownAtCheckSat(EnumeratingOracle):
    """A memory oracle whose n-th check-sat answers unknown."""

    def __init__(self, n, *args):
        super().__init__(*args)
        self.n = n

    def check_sat(self):
        result = super().check_sat()
        return SolverResult.UNKNOWN if self.stats.check_sat_calls == self.n else result


def write_instance(tmp_path, spec, sidecar=True):
    inst = build(spec)
    script = tmp_path / f"{spec.name}.smt2"
    script.write_text(inst.script)
    if sidecar:
        (tmp_path / f"{spec.name}.proj").write_text(
            "".join(f"{n}\n" for n in inst.projection)
        )
    return inst, script


class TestRecord:
    def test_json_round_trip(self):
        record = ResultRecord(
            instance="a.smt2",
            mode="count",
            status="ok",
            count=42,
            seed=7,
            wall_time=0.5,
            solver_time=0.1,
            check_sat_calls=10,
            assertions_sent=20,
            config={"epsilon": 0.8},
            detail="",
        )
        assert ResultRecord.from_json(record.to_json()) == record

    def test_json_keys_are_sorted(self):
        record = ResultRecord("a", "count", "ok", 1, 1, 0, 0, 0, 0, {})
        keys = list(json.loads(record.to_json()))
        assert keys == sorted(keys)


class TestProjectionPrecedence:
    def spec(self):
        return InstanceSpec("inst", "interval", 8, 20, seed=1)

    def test_explicit_names_win(self, tmp_path):
        inst, script = write_instance(tmp_path, self.spec())
        config = RunConfig("baseline", str(script), project="x")
        record, code = run_baseline(config, memory_factory(inst))
        assert (code, record.count) == (EXIT_OK, 20)

    def test_at_file(self, tmp_path):
        inst, script = write_instance(tmp_path, self.spec(), sidecar=False)
        listing = tmp_path / "vars.txt"
        listing.write_text("x\n")
        config = RunConfig("baseline", str(script), project=f"@{listing}")
        record, code = run_baseline(config, memory_factory(inst))
        assert (code, record.count) == (EXIT_OK, 20)

    def test_sidecar_when_no_flag(self, tmp_path):
        inst, script = write_instance(tmp_path, self.spec())
        record, code = run_baseline(RunConfig("baseline", str(script)), memory_factory(inst))
        assert (code, record.count) == (EXIT_OK, 20)

    def test_comment_when_no_sidecar(self, tmp_path):
        inst, script = write_instance(tmp_path, self.spec(), sidecar=False)
        record, code = run_baseline(RunConfig("baseline", str(script)), memory_factory(inst))
        assert (code, record.count) == (EXIT_OK, 20)

    def test_error_when_nothing_names_the_projection(self, tmp_path):
        inst, script = write_instance(tmp_path, self.spec(), sidecar=False)
        bare = "\n".join(
            line for line in script.read_text().splitlines() if not line.startswith(";")
        )
        script.write_text(bare)
        record, code = run_baseline(RunConfig("baseline", str(script)), memory_factory(inst))
        assert code == EXIT_ERROR
        assert record.status == "error"
        assert "projection" in record.detail

    @pytest.mark.parametrize("mode", ["count", "baseline"])
    @pytest.mark.parametrize("source", ["commas", "empty @file", "empty sidecar"])
    def test_an_empty_projection_starts_no_solver(self, tmp_path, monkeypatch, source, mode):
        # the script's comment names x: the first source present decides
        spawned = []
        monkeypatch.setattr(cli, "SubprocessOracle", lambda *args, **kw: spawned.append(args))
        _, script = write_instance(tmp_path, self.spec(), sidecar=False)
        project = None
        if source == "commas":
            project = ","
        elif source == "empty @file":
            (tmp_path / "vars.txt").write_text("# no names\n")
            project = f"@{tmp_path / 'vars.txt'}"
        else:
            script.with_suffix(".proj").write_text("")
        run = run_count if mode == "count" else run_baseline
        record, code = run(RunConfig(mode, str(script), project=project, solver_cmd=MINISOLVE_CMD))
        assert (record.status, code, spawned) == ("error", EXIT_ERROR, [])
        assert "no projection given" in record.detail

    def test_unknown_name_is_an_error(self, tmp_path):
        inst, script = write_instance(tmp_path, self.spec())
        config = RunConfig("baseline", str(script), project="zebra")
        record, code = run_baseline(config, memory_factory(inst))
        assert code == EXIT_ERROR


class TestRunCount:
    def test_small_instance_is_exact(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 8, 20, seed=1)
        inst, script = write_instance(tmp_path, spec)
        config = RunConfig("count", str(script), seed=5)
        record, code = run_count(config, memory_factory(inst))
        assert code == EXIT_OK
        assert record.count == 20  # under the saturation threshold: exact
        assert record.seed == 5
        assert record.config["epsilon"] == 0.8

    def test_estimate_within_tolerance(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 10, 300, seed=2)
        inst, script = write_instance(tmp_path, spec)
        config = RunConfig("count", str(script), seed=5)
        record, code = run_count(config, memory_factory(inst))
        assert code == EXIT_OK
        assert 300 / 1.8 <= record.count <= 300 * 1.8

    def test_fresh_seed_is_echoed(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 8, 20, seed=1)
        inst, script = write_instance(tmp_path, spec)
        record, _ = run_count(RunConfig("count", str(script)), memory_factory(inst))
        assert record.seed is not None

    def test_timed_out_count_records_its_fresh_seed(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 16, 30_000, seed=1)
        inst, script = write_instance(tmp_path, spec)
        config = RunConfig("count", str(script), timeout=0.001)
        record, code = run_count(config, memory_factory(inst))
        assert code == EXIT_TIMEOUT
        assert isinstance(record.seed, int)
        assert record.config["seed"] == record.seed
        rerun = replace(config, seed=record.seed, timeout=600.0)
        again, code = run_count(rerun, memory_factory(inst))
        assert (code, again.status, again.seed) == (EXIT_OK, "ok", record.seed)

    def test_same_seed_same_record(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 10, 300, seed=2)
        inst, script = write_instance(tmp_path, spec)
        config = RunConfig("count", str(script), seed=9)
        first, _ = run_count(config, memory_factory(inst))
        second, _ = run_count(config, memory_factory(inst))
        assert first.comparable() == second.comparable()
        assert first.check_sat_calls > 0

    def test_inconsistent_oracle_is_an_error_record(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 12, 2000, seed=1)
        inst, script = write_instance(tmp_path, spec)
        factory = lambda script, projection: DropsEveryThirdHash(
            projection, inst.solutions
        )
        record, code = run_count(RunConfig("count", str(script), seed=1), factory)
        assert code == EXIT_ERROR
        assert record.status == "error"
        assert "outside the cell" in record.detail

    def test_memory_backend_honours_the_timeout(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 16, 30_000, seed=1)
        inst, script = write_instance(tmp_path, spec)
        config = RunConfig("count", str(script), seed=1, timeout=0.001)
        record, code = run_count(config, memory_factory(inst))
        assert code == EXIT_TIMEOUT
        assert record.status == "timeout"
        assert record.count is None

    def test_timeout_record_keeps_the_work_done(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 10, 300, seed=2)
        inst, script = write_instance(tmp_path, spec)
        factory = lambda script, projection: TimesOutAtCheckSat(40, projection, inst.solutions)
        record, code = run_count(RunConfig("count", str(script), seed=5), factory)
        assert (record.status, code) == ("timeout", EXIT_TIMEOUT)
        assert record.check_sat_calls == 40
        assert record.assertions_sent > 0

    def test_unknown_answer_is_an_error_record(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 8, 20, seed=1)
        inst, script = write_instance(tmp_path, spec)
        projection = resolve_projection(parse_declarations(inst.script), list(inst.projection))
        oracle = AnswersUnknownAtCheckSat(3, projection, inst.solutions)
        oracle.push()
        with pytest.raises(SolverUnknown):
            oracle.count_upto(projection)
        assert oracle.depth == 1  # unwound to where the count started

        factory = lambda script, projection: AnswersUnknownAtCheckSat(
            3, projection, inst.solutions
        )
        record, code = run_count(RunConfig("count", str(script), seed=1), factory)
        assert (record.status, code) == ("error", EXIT_ERROR)
        assert "unknown" in record.detail
        assert "Traceback" not in record.to_json()

    def test_missing_file(self):
        record, code = run_count(RunConfig("count", "no/such/file.smt2"))
        assert code == EXIT_ERROR
        assert record.status == "error"


class TestRunBaseline:
    def test_timeout_reports_partial_count(self, tmp_path):
        spec = InstanceSpec("inst", "interval", 8, 20, seed=1)
        inst, script = write_instance(tmp_path, spec)
        config = RunConfig("baseline", str(script), timeout=-1.0)
        record, code = run_baseline(config, memory_factory(inst))
        assert code == EXIT_TIMEOUT
        assert record.status == "timeout"
        assert record.count == 0


    def test_solver_baseline_keeps_its_partial_count_at_a_spent_deadline(self, tmp_path):
        # the acks of the last commands are owed when the deadline is spent
        # between check-sats; closing the session must not wait for them
        class SpendsTheDeadlineAtTheThirdModel(SubprocessOracle):
            models = 0

            def get_projected_model(self, projection):
                model = super().get_projected_model(projection)
                self.models += 1
                if self.models == 3:
                    self.deadline = time.monotonic()
                return model

        _, script = write_instance(tmp_path, InstanceSpec("inst", "interval", 8, 20, seed=1))
        factory = lambda script, projection: SpendsTheDeadlineAtTheThirdModel(
            MINISOLVE_CMD, script
        )
        record, code = run_baseline(RunConfig("baseline", str(script)), factory)
        assert (record.status, code, record.count) == ("timeout", EXIT_TIMEOUT, 3)


class TestSolverHang:
    """A solver that stalls past the run's deadline ends every runner as a
    timeout with exit 2, whatever the dead session does to the unwinding."""

    @pytest.mark.parametrize("runner", ["count", "baseline", "bench"])
    def test_hang_after_the_third_model_is_a_timeout(self, tmp_path, monkeypatch, runner):
        flag = tmp_path / "hang"
        cmd = f"{MINISOLVE_CMD} --hang-flag-file {flag}"

        class HangsAfterThirdModel(SubprocessOracle):
            models = 0

            def get_projected_model(self, projection):
                model = super().get_projected_model(projection)
                self.models += 1
                if self.models == 3:
                    flag.touch()  # the next check-sat stalls
                return model

        inst, script = write_instance(tmp_path, InstanceSpec("inst", "interval", 8, 20, seed=1))
        timeout = 5.0
        if runner == "bench":
            monkeypatch.setattr(cli, "SubprocessOracle", HangsAfterThirdModel)
            manifest = write_corpus([inst], tmp_path / "corpus")
            config = BenchConfig(
                str(manifest), str(tmp_path / "bench"), backend="solver",
                solver_cmd=cmd, timeout=timeout, seed=1,
            )
            rows, code = run_bench(config)
            record = rows[0].record
        else:
            run = run_count if runner == "count" else run_baseline
            config = RunConfig(runner, str(script), seed=1, timeout=timeout)
            factory = lambda script, projection: HangsAfterThirdModel(cmd, script)
            record, code = run(config, factory)
        assert (record.status, code) == ("timeout", EXIT_TIMEOUT), record.detail
        if runner == "baseline":
            assert record.count == 3
            assert record.check_sat_calls > 0


class TestBench:
    def manifest(self, tmp_path, specs=None):
        specs = specs or [
            InstanceSpec("b-one", "interval", 9, 150, seed=1),
            InstanceSpec("b-two", "scatter", 9, 200, seed=2),
        ]
        return write_corpus([build(s) for s in specs], tmp_path / "corpus")

    def test_memory_backend_tables(self, tmp_path):
        manifest = self.manifest(tmp_path)
        out = tmp_path / "bench"
        config = BenchConfig(str(manifest), str(out), jobs=2, seed=3)
        threads = []
        rows, code = run_bench(config, progress=lambda row: threads.append(threading.get_ident()))
        assert code == EXIT_OK
        assert [r.name for r in rows] == ["b-one", "b-two"]
        assert len(threads) == 2 and len(set(threads)) == 1  # memory sweeps run serially
        for row in rows:
            assert row.record.status == "ok"
            assert row.error_ratio <= 0.8

        lines = (out / "records.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert ResultRecord.from_json(lines[0]).status == "ok"

        with open(out / "cactus.csv") as fh:
            cactus = list(csv.DictReader(fh))
        assert [int(r["solved"]) for r in cactus] == [1, 2]
        times = [float(r["time"]) for r in cactus]
        assert times == sorted(times)

        with open(out / "accuracy.csv") as fh:
            accuracy = list(csv.DictReader(fh))
        assert {r["instance"] for r in accuracy} == {"b-one", "b-two"}

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        manifest = self.manifest(tmp_path)
        (tmp_path / "corpus" / "b-one.smt2").unlink()
        out = tmp_path / "bench"
        rows, code = run_bench(BenchConfig(str(manifest), str(out), seed=3))
        assert code == EXIT_ERROR
        by_name = {r.name: r.record.status for r in rows}
        assert by_name == {"b-one": "error", "b-two": "ok"}

    def test_inconsistent_oracle_does_not_abort_the_sweep(self, tmp_path, monkeypatch):
        manifest = self.manifest(tmp_path, [
            InstanceSpec("b-one", "interval", 12, 2000, seed=1),
            InstanceSpec("b-two", "scatter", 12, 1500, seed=2),
        ])
        monkeypatch.setattr(cli, "InMemoryOracle", DropsEveryThirdHash)
        out = tmp_path / "bench"
        rows, code = run_bench(BenchConfig(str(manifest), str(out), seed=1))
        assert [r.name for r in rows] == ["b-one", "b-two"]
        assert "error" in {r.record.status for r in rows}
        assert code == EXIT_ERROR
        assert len((out / "records.jsonl").read_text().splitlines()) == 2

    def test_unexpected_errors_do_not_abort_the_sweep(self, tmp_path, monkeypatch):
        manifest = self.manifest(tmp_path)
        real_build = cli.corpus.build

        def build(spec):
            if spec.name == "b-one":
                raise RuntimeError("generator broke")
            return real_build(spec)

        monkeypatch.setattr(cli.corpus, "build", build)
        out = tmp_path / "bench"
        rows, code = run_bench(BenchConfig(str(manifest), str(out), seed=3))
        assert code == EXIT_ERROR
        assert {r.name: r.record.status for r in rows} == {"b-one": "error", "b-two": "ok"}
        assert "RuntimeError: generator broke" in rows[0].record.detail
        assert len((out / "records.jsonl").read_text().splitlines()) == 2

    def test_an_oracle_fault_does_not_abort_the_sweep(self, tmp_path, monkeypatch):
        class Broken(EnumeratingOracle):
            def check_sat(self):
                raise RuntimeError("oracle broke")

        manifest = self.manifest(tmp_path)
        monkeypatch.setattr(cli, "InMemoryOracle", Broken)
        rows, code = run_bench(BenchConfig(str(manifest), str(tmp_path / "bench"), seed=3))
        assert code == EXIT_ERROR
        assert [r.record.status for r in rows] == ["error", "error"]
        assert all("oracle broke" in r.record.detail for r in rows)

    def test_memory_sweep_records_timeouts_and_finishes(self, tmp_path, capsys):
        manifest = self.manifest(tmp_path, [
            InstanceSpec("b-one", "interval", 12, 2000, seed=1),
            InstanceSpec("b-two", "scatter", 12, 1500, seed=2),
        ])
        out = tmp_path / "bench"
        code = main([
            "bench", str(manifest), "--backend", "memory", "--timeout", "0.001",
            "--out", str(out),
        ])
        assert code == EXIT_TIMEOUT
        lines = (out / "records.jsonl").read_text().splitlines()
        assert [ResultRecord.from_json(line).status for line in lines] == ["timeout"] * 2

    def test_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError):
            run_bench(BenchConfig("m.json", str(tmp_path), backend="quantum"))


class TestMain:
    def test_corpus_then_bench(self, tmp_path, capsys):
        out = tmp_path / "c"
        code = main(
            ["corpus", "--preset", "solver-smoke", "--seed", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        manifest = capsys.readouterr().out.strip()
        assert manifest.endswith("manifest.json")
        assert (out / "smoke-pure-20.smt2").exists()

    def test_count_with_solver(self, tmp_path, capsys):
        spec = InstanceSpec("inst", "interval", 8, 20, seed=1)
        _, script = write_instance(tmp_path, spec)
        code = main(
            [
                "count",
                str(script),
                "--solver-cmd",
                MINISOLVE_CMD,
                "--seed",
                "4",
                "--out",
                str(tmp_path / "rec.jsonl"),
            ]
        )
        assert code == EXIT_OK
        record = ResultRecord.from_json(capsys.readouterr().out)
        assert record.count == 20
        saved = (tmp_path / "rec.jsonl").read_text().strip()
        assert ResultRecord.from_json(saved) == record

    @pytest.mark.parametrize("mode", ["count", "baseline"])
    def test_a_script_with_reset_is_an_error(self, tmp_path, capsys, mode):
        # loaded whole, the script would keep `(assert false)` past the reset
        script = tmp_path / "reset.smt2"
        script.write_text(
            "(declare-const x (_ BitVec 2))\n(assert false)\n(reset)\n"
            "(declare-const y (_ BitVec 2))\n"
        )
        code = main([mode, str(script), "--project", "y", "--solver-cmd", MINISOLVE_CMD])
        record = ResultRecord.from_json(capsys.readouterr().out)
        assert (record.status, code, record.count) == ("error", EXIT_ERROR, None)
        assert "line 3" in record.detail and "reset" in record.detail

    def test_baseline_uses_environment_solver(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PACT_SOLVER_CMD", MINISOLVE_CMD)
        spec = InstanceSpec("inst", "scatter", 8, 25, seed=6)
        _, script = write_instance(tmp_path, spec)
        code = main(["baseline", str(script)])
        assert code == EXIT_OK
        record = ResultRecord.from_json(capsys.readouterr().out)
        assert record.count == 25
        assert record.mode == "baseline"

    def test_bench_subcommand(self, tmp_path, capsys):
        manifest = write_corpus(
            [build(InstanceSpec("b", "interval", 9, 120, seed=1))],
            tmp_path / "corpus",
        )
        out = tmp_path / "bench"
        code = main(["bench", str(manifest), "--out", str(out), "--seed", "2"])
        assert code == EXIT_OK
        assert (out / "records.jsonl").exists()
        assert "records.jsonl" in capsys.readouterr().out
