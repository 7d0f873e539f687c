"""Seeded benchmark instances with known projected counts.

Each instance is a small SMT-LIB2 script over bitvectors whose projected
solution set is laid out directly, so the true count is known without ever
running a solver.  Instances rebuild byte-identically from their seed,
which lets a manifest store parameters instead of solution sets.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from .smtlib import bv_text

KINDS = ("interval", "scatter", "product", "hybrid")


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters that fully determine one generated instance."""

    name: str
    kind: str
    width: int
    count: int
    seed: int
    aux: bool = False  # add a non-projected derived bitvector


@dataclass(frozen=True)
class GeneratedInstance:
    spec: InstanceSpec
    script: str
    projection: tuple[str, ...]
    solutions: tuple[tuple[int, ...], ...]

    @property
    def true_count(self) -> int:
        return len(self.solutions)


@dataclass(frozen=True)
class ManifestEntry:
    spec: InstanceSpec
    script_path: Path
    proj_path: Path


def _interval_term(var: str, width: int, lo: int, hi: int) -> str:
    """Membership in [lo, hi); bounds at the domain edge are dropped."""
    parts = []
    if lo > 0:
        parts.append(f"(bvuge {var} {bv_text(lo, width)})")
    if hi < 2**width:
        parts.append(f"(bvult {var} {bv_text(hi, width)})")
    if not parts:
        return "true"
    if len(parts) == 1:
        return parts[0]
    return f"(and {parts[0]} {parts[1]})"


def _place(rng: random.Random, width: int, length: int) -> int:
    return rng.randrange(2**width - length + 1)


def _segments(rng: random.Random, width: int, count: int) -> list[tuple[int, int]]:
    """Disjoint intervals with lengths summing to count."""
    pieces = rng.randint(2, min(8, count))
    cuts = sorted(rng.sample(range(1, count), pieces - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [count])]
    free = 2**width - count
    offsets = sorted(rng.randint(0, free) for _ in range(pieces))
    segments = []
    consumed = 0
    for offset, length in zip(offsets, lengths):
        segments.append((offset + consumed, length))
        consumed += length
    return segments


def _split_count(count: int) -> tuple[int, int]:
    """Factor count = a * b with a as close to sqrt(count) as divisors allow."""
    for a in range(math.isqrt(count), 0, -1):
        if count % a == 0:
            return a, count // a
    raise AssertionError("unreachable: 1 always divides")


def build(spec: InstanceSpec) -> GeneratedInstance:
    if spec.kind not in KINDS:
        raise ValueError(f"unknown instance kind {spec.kind!r}")
    if spec.count < 1:
        raise ValueError("count must be positive")
    if spec.kind == "scatter" and spec.count < 2:
        raise ValueError("scatter needs at least two solutions")
    if spec.kind != "product" and spec.count > 2**spec.width:
        raise ValueError(f"count {spec.count} exceeds a {spec.width}-bit domain")
    if spec.aux and spec.kind not in ("interval", "scatter"):
        raise ValueError("aux variables are only wired up for single-var kinds")

    rng = random.Random(spec.seed)
    w = spec.width
    logic = "QF_BVFP" if spec.kind == "hybrid" else "QF_BV"
    declarations = [f"(declare-const x (_ BitVec {w}))"]
    assertions: list[str] = []
    projection = ("x",)

    if spec.kind in ("interval", "hybrid"):
        lo = _place(rng, w, spec.count)
        assertions.append(_interval_term("x", w, lo, lo + spec.count))
        solutions = [(v,) for v in range(lo, lo + spec.count)]
    elif spec.kind == "scatter":
        segments = _segments(rng, w, spec.count)
        terms = [_interval_term("x", w, a, a + n) for a, n in segments]
        assertions.append(f"(or {' '.join(terms)})")
        solutions = [(v,) for a, n in segments for v in range(a, a + n)]
    else:  # product
        c1, c2 = _split_count(spec.count)
        if c2 > 2**w:
            raise ValueError(f"count {spec.count} does not factor into {w}-bit axes")
        declarations.append(f"(declare-const y (_ BitVec {w}))")
        projection = ("x", "y")
        lox, loy = _place(rng, w, c1), _place(rng, w, c2)
        assertions.append(
            f"(and {_interval_term('x', w, lox, lox + c1)} "
            f"{_interval_term('y', w, loy, loy + c2)})"
        )
        solutions = [
            (xv, yv)
            for xv in range(lox, lox + c1)
            for yv in range(loy, loy + c2)
        ]

    if spec.kind == "hybrid":
        # a non-projected float constrained independently of x
        declarations.append("(declare-const f Float32)")
        assertions.append("(fp.lt f (_ +zero 8 24))")
    if spec.aux:
        declarations.append(f"(declare-const t (_ BitVec {w}))")
        assertions.append("(= t (bvnot x))")

    solutions_t = tuple(sorted(solutions))
    if len(set(solutions_t)) != spec.count:
        raise AssertionError(f"{spec.name}: built {len(set(solutions_t))} "
                             f"solutions, wanted {spec.count}")

    lines = [
        f"; {spec.name}: {spec.kind} instance, {spec.count} projected solutions",
        f"; projected-vars: {' '.join(projection)}",
        f"(set-logic {logic})",
        *declarations,
        *(f"(assert {a})" for a in assertions),
        "(check-sat)",
    ]
    return GeneratedInstance(spec, "\n".join(lines) + "\n", projection, solutions_t)


def write_corpus(instances: Iterable[GeneratedInstance], out_dir) -> Path:
    """Write scripts, projection sidecars, and a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for inst in instances:
        script = out / f"{inst.spec.name}.smt2"
        proj = out / f"{inst.spec.name}.proj"
        script.write_text(inst.script)
        proj.write_text("".join(f"{name}\n" for name in inst.projection))
        entries.append({**asdict(inst.spec), "script": script.name, "proj": proj.name})
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"instances": entries}, indent=2, sort_keys=True) + "\n")
    return manifest


def load_manifest(path) -> list[ManifestEntry]:
    path = Path(path)
    data = json.loads(path.read_text())
    entries = []
    for raw in data["instances"]:
        script = path.parent / raw.pop("script")
        proj = path.parent / raw.pop("proj")
        entries.append(ManifestEntry(InstanceSpec(**raw), script, proj))
    return entries


def bench_preset(seed: int = 0) -> list[InstanceSpec]:
    """Thirty mixed instances with counts spread log-uniformly over 100..5000."""
    rng = random.Random(seed)
    kinds = ("interval", "scatter", "product")
    specs = []
    for i in range(30):
        kind = kinds[i % 3]
        count = round(100 * 50 ** rng.random())
        width = rng.choice((13, 14, 16))
        aux = kind != "product" and i % 7 == 0
        specs.append(InstanceSpec(f"bench-{i:02d}", kind, width, count, seed * 1000 + i, aux))
    return specs


def smoke_preset(seed: int = 0) -> list[InstanceSpec]:
    """A handful of small instances for exercising a live solver end to end."""
    return [
        InstanceSpec("smoke-pure-20", "interval", 8, 20, seed + 1),
        InstanceSpec("smoke-pure-256", "scatter", 10, 256, seed + 2),
        InstanceSpec("smoke-pure-4096", "interval", 13, 4096, seed + 3),
        InstanceSpec("smoke-hybrid-256", "hybrid", 10, 256, seed + 4),
    ]


PRESETS = {"bench30": bench_preset, "solver-smoke": smoke_preset}
