"""Instance generator tests: reproducibility, script/solution agreement,
and manifest round trips."""

import sys
import time

import pytest

from pact.baseline import BaselineStatus, enumerate_count
from pact.corpus import (
    InstanceSpec,
    PRESETS,
    _split_count,
    bench_preset,
    build,
    load_manifest,
    smoke_preset,
    write_corpus,
)
from pact.oracle import InMemoryOracle, SubprocessOracle
from pact.smtlib import (
    parse_declarations,
    projection_comment_names,
    resolve_projection,
)

MINISOLVE = [sys.executable, "-m", "pact.minisolve"]


def enumerate_script(inst):
    """Count the instance's script with the bundled solver."""
    script = parse_declarations(inst.script)
    projection = resolve_projection(script, inst.projection)
    with SubprocessOracle(
        MINISOLVE, inst.script, deadline=time.monotonic() + 30
    ) as oracle:
        result = enumerate_count(oracle, projection)
    assert result.status is BaselineStatus.EXACT
    return result.count


class TestBuild:
    def test_deterministic(self):
        spec = InstanceSpec("a", "scatter", 10, 50, seed=4)
        one, two = build(spec), build(spec)
        assert one.script == two.script
        assert one.solutions == two.solutions

    def test_interval_solutions_are_contiguous(self):
        inst = build(InstanceSpec("a", "interval", 8, 20, seed=1))
        values = [v for (v,) in inst.solutions]
        assert values == list(range(values[0], values[0] + 20))
        assert inst.true_count == 20

    def test_full_domain_interval(self):
        inst = build(InstanceSpec("a", "interval", 4, 16, seed=0))
        assert "(assert true)" in inst.script
        assert inst.true_count == 16

    def test_scatter_is_disjoint(self):
        inst = build(InstanceSpec("a", "scatter", 10, 100, seed=9))
        assert len(set(inst.solutions)) == 100

    def test_product_projection(self):
        inst = build(InstanceSpec("a", "product", 6, 12, seed=3))
        assert inst.projection == ("x", "y")
        assert inst.true_count == 12

    def test_split_count(self):
        assert _split_count(12) == (3, 4)
        assert _split_count(4096) == (64, 64)
        assert _split_count(997) == (1, 997)  # prime

    @pytest.mark.parametrize(
        "spec",
        [
            InstanceSpec("a", "interval", 4, 17, seed=0),  # over the domain
            InstanceSpec("a", "scatter", 8, 1, seed=0),
            InstanceSpec("a", "nonsense", 8, 4, seed=0),
            InstanceSpec("a", "interval", 8, 0, seed=0),
            InstanceSpec("a", "product", 8, 4, seed=0, aux=True),
        ],
    )
    def test_rejected_specs(self, spec):
        with pytest.raises(ValueError):
            build(spec)

    def test_comment_carries_projection(self):
        inst = build(InstanceSpec("a", "product", 6, 12, seed=3))
        assert projection_comment_names(inst.script) == ["x", "y"]


class TestScriptAgreement:
    # the generator's claimed solutions versus what the script actually admits

    @pytest.mark.parametrize(
        "spec",
        [
            InstanceSpec("iv", "interval", 8, 20, seed=11),
            InstanceSpec("sc", "scatter", 8, 30, seed=12),
            InstanceSpec("pr", "product", 4, 12, seed=13),
            InstanceSpec("hy", "hybrid", 8, 20, seed=14),
            InstanceSpec("ax", "interval", 8, 10, seed=15, aux=True),
        ],
        ids=lambda s: s.name,
    )
    def test_solver_agrees_with_generator(self, spec):
        inst = build(spec)
        assert enumerate_script(inst) == inst.true_count

    def test_memory_oracle_accepts_solutions(self):
        inst = build(InstanceSpec("pr", "product", 6, 12, seed=3))
        script = parse_declarations(inst.script)
        projection = resolve_projection(script, inst.projection)
        oracle = InMemoryOracle(projection, inst.solutions)
        assert enumerate_count(oracle, projection).count == 12


class TestManifest:
    def test_round_trip(self, tmp_path):
        specs = [
            InstanceSpec("one", "interval", 8, 20, seed=1),
            InstanceSpec("two", "product", 6, 12, seed=2),
        ]
        manifest = write_corpus([build(s) for s in specs], tmp_path)
        entries = load_manifest(manifest)
        assert [e.spec for e in entries] == specs
        for entry in entries:
            assert entry.script_path.exists()
            names = entry.proj_path.read_text().split()
            assert tuple(names) == build(entry.spec).projection

    def test_scripts_rebuild_from_specs(self, tmp_path):
        inst = build(InstanceSpec("one", "scatter", 9, 40, seed=5))
        manifest = write_corpus([inst], tmp_path)
        (entry,) = load_manifest(manifest)
        assert build(entry.spec).script == entry.script_path.read_text()


class TestPresets:
    def test_bench_preset_shape(self):
        specs = bench_preset(seed=0)
        assert len(specs) == 30
        assert len({s.name for s in specs}) == 30
        for spec in specs:
            assert 100 <= spec.count <= 5000
            inst = build(spec)  # internal consistency check runs here
            assert inst.true_count == spec.count

    def test_smoke_preset_builds(self):
        counts = sorted(build(s).true_count for s in smoke_preset())
        assert counts == [20, 256, 256, 4096]

    def test_preset_registry(self):
        assert set(PRESETS) == {"bench30", "solver-smoke"}
