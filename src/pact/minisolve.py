"""A bounded brute-force SMT-LIB2 solver for tests and demos.

Enumerates bitvector/boolean state spaces as an explicit numpy grid (up to
2^22 points).  A side condition is an assert over floating-point and Real
variables only.  Each variable the side conditions mention takes each of
eight candidates (0, 1, -1, 0.5, 2, -2, +oo and -oo for a float; 0, 1, -1,
1/2, 2, -2, 100 and -100 for a Real), and an assignment of candidates that
satisfies them all is a witness.  Speaks enough of the interactive SMT-LIB2
protocol to act as an incremental oracle: print-success acknowledgements,
push/pop, check-sat, get-value.  Anything outside its fragment gets an
honest `unknown`, never a guess.  So do side conditions that mention more
than four variables or have no witness, a Real division with a zero
divisor among the candidates, and an assert that mixes grid and
floating-point or Real variables.

Every term evaluates to a numpy array over the grid or over the candidate
assignments (one element when it names no variable); `let` binds any
value.  A width-w bitvector is stored as uint64 when w <= 64 and as Python
ints (object dtype) above, always reduced mod 2^w: `_dtype` is the one
place that chooses, and `_bv` reduces every operator's result that can
leave the range; `_widen` only re-types a value an extension or a
concatenation widens.  A boolean is a bool array.  A float is float64,
with IEEE inf and NaN whatever its declared precision and rounding mode,
and a Real is an object array of Fractions.

Run as `pact-minisolve`; see --help for the test-only hang knob.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import operator
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import MalformedScript
from .smtlib import SexprReader, iter_top_forms, unquote_symbol
from .smtlib import bitvector_width, bv_literal, bv_text, declaration


class Unsupported(Exception):
    """Raised internally when a term falls outside the solvable fragment."""


@dataclass
class GridVar:
    kind: str  # "bv" | "bool"
    width: int  # 1 for bool
    col: np.ndarray | None  # None: declared after the grid overflowed


@dataclass
class BVVal:
    width: int
    arr: np.ndarray  # _dtype(width), every element < 2^width


@dataclass
class BoolVal:
    arr: np.ndarray  # bool


@dataclass
class NumVal:
    arr: np.ndarray  # float64 for a FloatingPoint value, Fractions (object) for a Real


@dataclass
class Frame:
    mask: np.ndarray
    theory: list = field(default_factory=list)  # (term, the theory names it mentions)
    tainted: bool = False


_CANDIDATES = {  # the values sampled for a theory variable, by sort
    "fp": np.array([0.0, 1.0, -1.0, 0.5, 2.0, -2.0, np.inf, -np.inf]),
    "real": np.array([Fraction(x) for x in (0, 1, -1, "1/2", 2, -2, 100, -100)], dtype=object),
}
_FP_SPECIALS = {"+zero": 0.0, "-zero": -0.0, "+oo": np.inf, "-oo": -np.inf, "NaN": np.nan}
_MAX_THEORY_VARS = 4
_MAX_GRID_BITS = 22
_SORT_KINDS = {"Bool": ("bool", 1), "Real": ("real", 0)}  # and (_ BitVec w), (_ FloatingPoint e s)
_SORT_KINDS.update(dict.fromkeys(("Float16", "Float32", "Float64", "Float128"), ("fp", 0)))
_HANG_SECONDS = 60.0

_BV_FOLDS = {
    "bvadd": operator.add, "bvsub": operator.sub, "bvmul": operator.mul,
    "bvand": operator.and_, "bvor": operator.or_, "bvxor": operator.xor,
}
_BV_COMPARISONS = {"lt": operator.lt, "le": operator.le, "gt": operator.gt, "ge": operator.ge}
_NUM_ORDER = {
    "<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge,
    "fp.lt": operator.lt, "fp.gt": operator.gt, "fp.leq": operator.le,
    "fp.geq": operator.ge, "fp.eq": operator.eq,
}
_NUM_FOLDS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "fp.add": operator.add, "fp.sub": operator.sub, "fp.mul": operator.mul,
    "fp.div": operator.truediv,
}


def _dtype(width: int):
    """How a width-bit value is stored: uint64 up to 64 bits, Python ints above."""
    return np.uint64 if width <= 64 else object


def _bv(arr: np.ndarray, width: int) -> BVVal:
    """A width-bit value from any integer array: reduced mod 2^width and
    stored at the width's dtype."""
    dtype = _dtype(width)
    if dtype is object:
        arr = arr.astype(object, copy=False)  # widen before reducing
    return BVVal(width, (arr & ((1 << width) - 1)).astype(dtype, copy=False))


def _widen(x: BVVal, width: int) -> BVVal:
    """`x` as a value of `width` >= x.width bits: already reduced, so only
    the dtype changes, and only where `width` crosses 64 bits."""
    return BVVal(width, x.arr.astype(_dtype(width), copy=False))


def _bv_literal(value: int, width: int) -> BVVal:
    """A `bv_literal` (value, width), already reduced."""
    return BVVal(width, np.array([value], dtype=_dtype(width)))


def _fp_special(indexed) -> NumVal:
    """(_ +zero e s) and the other special floating-point values."""
    name = indexed[1] if len(indexed) >= 2 else None
    if not (isinstance(name, str) and name in _FP_SPECIALS):
        raise Unsupported(f"indexed term {indexed!r}")
    return NumVal(np.array([_FP_SPECIALS[name]]))


def _decode_fp_literal(sign: str, exp: str, sig: str) -> float:
    for part in (sign, exp, sig):
        if not part.startswith("#b"):
            raise Unsupported("fp literal parts must be binary")
    s = int(sign[2:], 2)
    e_bits, m_bits = exp[2:], sig[2:]
    e, m = int(e_bits, 2), int(m_bits, 2)
    ew, mw = len(e_bits), len(m_bits)
    bias = (1 << (ew - 1)) - 1
    if e == (1 << ew) - 1:
        if m:
            return float("nan")
        return float("-inf") if s else float("inf")
    if e == 0:
        mag = m / (1 << mw) * 2.0 ** (1 - bias)
    else:
        mag = (1 + m / (1 << mw)) * 2.0 ** (e - bias)
    return -mag if s else mag


class Engine:
    def __init__(self):
        self.print_success = False
        self.grid: dict[str, GridVar] = {}
        self.theory: dict[str, str] = {}  # name -> "fp" | "real"
        self.total_bits = 0
        self.grid_size = 1
        self.frames: list[Frame] = [Frame(np.ones(1, dtype=bool))]

    # -- declarations

    def declare(self, name: str, sort) -> str | None:
        """Register a symbol; returns an error message or None."""
        if name in self.grid or name in self.theory:
            return f"symbol {name} already declared"
        kind = self._sort_kind(sort)
        if kind is None:
            # unknown sort: remember nothing, poison the current frame
            self.frames[-1].tainted = True
            return None
        label, width = kind
        if label in ("fp", "real"):
            self.theory[name] = label
            return None
        bits = width if label == "bv" else 1
        if self.total_bits + bits > _MAX_GRID_BITS:
            self.grid[name] = GridVar(label, width, None)
            self.total_bits += bits
            return None
        dom = 1 << bits
        for var in self.grid.values():
            if var.col is not None:
                var.col = np.repeat(var.col, dom)
        for frame in self.frames:
            frame.mask = np.repeat(frame.mask, dom)
        if label == "bool":
            values = np.array([False, True])
        else:
            values = np.arange(dom, dtype=_dtype(width))
        self.grid[name] = GridVar(label, width, np.tile(values, self.grid_size))
        self.grid_size *= dom
        self.total_bits += bits
        return None

    @staticmethod
    def _sort_kind(sort):
        width = bitvector_width(sort)
        if width is not None:
            return ("bv", width)
        if isinstance(sort, str):
            return _SORT_KINDS.get(sort)
        if len(sort) == 4 and sort[:2] == ["_", "FloatingPoint"]:
            return ("fp", 0)
        return None

    # -- assert classification

    def _free_names(self, e, bound: frozenset) -> set[str]:
        if isinstance(e, str):
            name = unquote_symbol(e)
            if name in bound:
                return set()
            if name in self.grid or name in self.theory:
                return {name}
            return set()
        if not e:
            return set()
        out: set[str] = set()
        if e[0] == "let" and len(e) == 3:
            inner = bound
            for binding in e[1]:
                out |= self._free_names(binding[1], bound)
                inner = inner | {unquote_symbol(binding[0])}
            return out | self._free_names(e[2], inner)
        for sub in e:
            out |= self._free_names(sub, bound)
        return out

    def add_assert(self, term) -> None:
        frame = self.frames[-1]
        names = self._free_names(term, frozenset())
        grid_names = {n for n in names if n in self.grid}
        theory_names = names - grid_names
        if theory_names and grid_names:
            frame.tainted = True
            return
        if theory_names:
            frame.theory.append((term, theory_names))
            return
        if any(self.grid[n].col is None for n in grid_names):
            frame.tainted = True
            return
        try:
            val = self._eval(term, {})
        except Unsupported:
            frame.tainted = True
            return
        if not isinstance(val, BoolVal):
            frame.tainted = True
            return
        frame.mask = frame.mask & val.arr

    # -- evaluation: bitvectors and booleans over the grid, numbers over the candidates

    def _eval(self, e, env):
        if isinstance(e, str):
            return self._eval_atom(e, env)
        if not e:
            raise Unsupported("empty application")
        head = e[0]
        if isinstance(head, list):
            return self._eval_indexed(head, e[1:], env)
        if head == "_":
            literal = bv_literal(e)
            if literal is not None:
                return _bv_literal(*literal)
            return _fp_special(e)
        if head == "let" and len(e) == 3:
            inner = dict(env)
            for binding in e[1]:
                if not (isinstance(binding, list) and len(binding) == 2):
                    raise Unsupported("malformed let binding")
                inner[unquote_symbol(binding[0])] = self._eval(binding[1], env)
            return self._eval(e[2], inner)
        args = e[1:]
        return self._eval_app(head, args, env)

    def _eval_atom(self, token: str, env):
        name = unquote_symbol(token)
        if name in env:
            return env[name]
        if token == "true":
            return BoolVal(np.ones(1, dtype=bool))
        if token == "false":
            return BoolVal(np.zeros(1, dtype=bool))
        literal = bv_literal(token)
        if literal is not None:
            return _bv_literal(*literal)
        var = self.grid.get(name)
        if var is not None:
            if var.col is None:
                raise Unsupported(f"{name} exceeded the grid budget")
            if var.kind == "bool":
                return BoolVal(var.col)
            return BVVal(var.width, var.col)
        try:  # a decimal or a numeral: a Real, as `0.5` and `-1` are
            return NumVal(np.array([Fraction(token)], dtype=object))
        except ValueError:
            raise Unsupported(f"unknown atom {token}") from None

    def _eval_indexed(self, head, args, env):
        if not (head and head[0] == "_"):
            raise Unsupported("unknown applied form")
        if not args:  # ((_ +zero 8 24)) written as an application
            return _fp_special(head)
        if head[1] == "extract" and len(head) == 4 and len(args) == 1:
            hi, lo = int(head[2]), int(head[3])
            x = self._expect(BVVal, args[0], env)
            if not 0 <= lo <= hi < x.width:
                raise Unsupported("extract out of range")
            return _bv(x.arr >> lo, hi - lo + 1)
        if head[1] == "zero_extend" and len(head) == 3 and len(args) == 1:
            x = self._expect(BVVal, args[0], env)
            return _widen(x, x.width + int(head[2]))
        if head[1] == "sign_extend" and len(head) == 3 and len(args) == 1:
            x = self._expect(BVVal, args[0], env)
            wide = _widen(x, x.width + int(head[2]))
            high = (1 << wide.width) - (1 << x.width)
            negative = (wide.arr >> (x.width - 1)) == 1
            return _bv(np.where(negative, wide.arr | high, wide.arr), wide.width)
        raise Unsupported(f"indexed operator {head!r}")

    def _expect(self, kind, e, env):
        """`e`'s value, which must be a `kind` (BVVal, BoolVal or NumVal)."""
        v = self._eval(e, env)
        if not isinstance(v, kind):
            raise Unsupported(f"expected a {kind.__name__} term")
        return v

    def _eval_app(self, head: str, args, env):
        if head == "not" and len(args) == 1:
            return BoolVal(~self._expect(BoolVal, args[0], env).arr)
        if head in ("and", "or", "xor") and args:
            acc = self._expect(BoolVal, args[0], env).arr
            for a in args[1:]:
                v = self._expect(BoolVal, a, env).arr
                acc = acc & v if head == "and" else acc | v if head == "or" else acc ^ v
            return BoolVal(acc)
        if head == "=>" and len(args) >= 2:
            vals = [self._expect(BoolVal, a, env).arr for a in args]
            acc = vals[-1]
            for v in reversed(vals[:-1]):
                acc = ~v | acc
            return BoolVal(acc)
        if head in ("=", "distinct") and len(args) >= 2:
            vals = [self._eval(a, env) for a in args]
            return self._equality(head, vals)
        if head == "ite" and len(args) == 3:
            c = self._expect(BoolVal, args[0], env).arr
            t, f = self._eval(args[1], env), self._eval(args[2], env)
            if isinstance(t, BoolVal) and isinstance(f, BoolVal):
                return BoolVal(np.where(c, t.arr, f.arr))
            if isinstance(t, BVVal) and isinstance(f, BVVal) and t.width == f.width:
                return BVVal(t.width, np.where(c, t.arr, f.arr))
            raise Unsupported("ite branches disagree")
        if head.startswith("bv"):
            return self._eval_bvop(head, args, env)
        if head == "concat" and len(args) >= 2:
            acc = self._expect(BVVal, args[0], env)
            for a in args[1:]:
                nxt = self._expect(BVVal, a, env)
                width = acc.width + nxt.width
                acc = BVVal(width, _widen(acc, width).arr << nxt.width | _widen(nxt, width).arr)
            return acc
        return self._eval_num(head, args, env)

    def _equality(self, head: str, vals):
        def eq(a, b):
            if type(a) is not type(b) or isinstance(a, BVVal) and a.width != b.width:
                raise Unsupported("ill-sorted equality")
            if isinstance(a, NumVal) and a.arr.dtype == b.arr.dtype == float:
                # `=` on floats is identity, not fp.eq: NaN = NaN, +zero != -zero
                same = (a.arr == b.arr) & (np.signbit(a.arr) == np.signbit(b.arr))
                return same | np.isnan(a.arr) & np.isnan(b.arr)
            return a.arr == b.arr

        if head == "=":
            acc = None
            for a, b in zip(vals, vals[1:]):
                step = eq(a, b)
                acc = step if acc is None else acc & step
            return BoolVal(acc)
        acc = None
        for a, b in itertools.combinations(vals, 2):
            step = ~eq(a, b)
            acc = step if acc is None else acc & step
        return BoolVal(acc)

    def _eval_bvop(self, head: str, args, env):
        vals = [self._expect(BVVal, a, env) for a in args]
        if head == "bvnot" and len(vals) == 1:
            return _bv(~vals[0].arr, vals[0].width)
        if head == "bvneg" and len(vals) == 1:
            return _bv(0 - vals[0].arr, vals[0].width)
        if len(vals) < 2:
            raise Unsupported(f"{head} arity")
        width = vals[0].width
        if any(v.width != width for v in vals):
            raise Unsupported(f"{head} mixes widths")
        if head in _BV_FOLDS:  # uint64 wraps mod 2^64, so one reduction at the end
            return _bv(functools.reduce(_BV_FOLDS[head], (v.arr for v in vals)), width)
        if len(vals) != 2:
            raise Unsupported(f"{head} arity")
        ax, ay = vals[0].arr, vals[1].arr
        if head == "bvudiv":  # x / 0 is all ones, which ~0 is
            return _bv(np.where(ay == 0, ~ay, ax // np.maximum(ay, 1)), width)
        if head == "bvurem":  # x % 0 is x
            return _bv(np.where(ay == 0, ax, ax % np.maximum(ay, 1)), width)
        if head == "bvshl":  # a shift by width or more moves every bit out
            return _bv(ax << np.minimum(ay, width), width)
        if head == "bvlshr":
            return _bv(ax >> np.minimum(ay, width), width)
        if head == "bvashr":  # a negative x is the complement of its complement shifted
            sh = np.minimum(ay, width - 1)
            complement = ~ax & ((1 << width) - 1)
            return _bv(np.where(ax >> (width - 1) == 1, ~(complement >> sh), ax >> sh), width)
        if head in ("bvult", "bvule", "bvugt", "bvuge", "bvslt", "bvsle", "bvsgt", "bvsge"):
            if head[2] == "s":  # flipping the sign bit orders signed values as unsigned
                flip = 1 << (width - 1)
                ax, ay = ax ^ flip, ay ^ flip
            return BoolVal(_BV_COMPARISONS[head[-2:]](ax, ay))
        raise Unsupported(f"bitvector operator {head}")

    def _eval_num(self, head: str, args, env):
        if head == "fp" and len(args) == 3 and all(isinstance(a, str) for a in args):
            return NumVal(np.array([_decode_fp_literal(*args)]))
        if head in _NUM_ORDER and len(args) >= 2:
            vals = [self._expect(NumVal, a, env).arr for a in args]
            steps = (_NUM_ORDER[head](a, b) for a, b in zip(vals, vals[1:]))
            return BoolVal(functools.reduce(operator.and_, steps))
        if head in ("-", "fp.neg", "fp.abs") and len(args) == 1:
            x = self._expect(NumVal, args[0], env).arr
            return NumVal(abs(x) if head == "fp.abs" else -x)
        if head in _NUM_FOLDS:
            if head.startswith("fp."):
                if len(args) != 3:
                    raise Unsupported(f"{head} arity")
                args = args[1:]  # float64 rounds to nearest whatever the mode
            elif len(args) < 2:
                raise Unsupported(f"{head} arity")
            vals = [self._expect(NumVal, a, env).arr for a in args]
            if head.startswith("fp."):  # IEEE arithmetic in float64, whatever the sorts
                vals = [v.astype(float, copy=False) for v in vals]
            if head == "/" and any((v == 0).any() for v in vals[1:]):
                raise Unsupported("real division by zero")
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # inf and NaN
                return NumVal(functools.reduce(_NUM_FOLDS[head], vals))
        raise Unsupported(f"operator {head}")

    # -- theory side conditions (sampled witnesses)

    def _theory_witness(self) -> bool:
        """True when some candidate assignment of the names the theory
        asserts mention satisfies every one of them; False when none does or
        the asserts fall outside the fragment."""
        asserts = [a for fr in self.frames for a in fr.theory]
        if not asserts:
            return True
        names = sorted(set().union(*(mentioned for _term, mentioned in asserts)))
        if len(names) > _MAX_THEORY_VARS:
            return False
        # one row per candidate assignment: at most 8^4 rows
        columns = np.meshgrid(*(_CANDIDATES[self.theory[n]] for n in names), indexing="ij")
        env = {n: NumVal(col.ravel()) for n, col in zip(names, columns)}
        try:
            rows = functools.reduce(
                operator.and_, (self._expect(BoolVal, term, env).arr for term, _ in asserts)
            )
        except Unsupported:
            return False
        return bool(rows.any())

    # -- commands

    def push(self, n: int) -> None:
        for _ in range(n):
            # shared: declare and assert replace a frame's mask and never
            # write into it
            self.frames.append(Frame(self.frames[-1].mask))

    def pop(self, n: int) -> str | None:
        if n > len(self.frames) - 1:
            return "pop below assertion stack"
        for _ in range(n):
            self.frames.pop()
        return None

    def check_sat(self) -> str:
        mask = self.frames[-1].mask
        empty = not bool(mask.any())
        if empty:
            return "unsat"
        if any(fr.tainted for fr in self.frames):
            return "unknown"
        return "sat" if self._theory_witness() else "unknown"

    def get_value(self, terms) -> str:
        mask = self.frames[-1].mask
        if not mask.any() or any(fr.tainted for fr in self.frames):
            return '(error "no model available")'
        idx = int(np.argmax(mask))
        parts = []
        for tok in terms:
            if not isinstance(tok, str):
                return '(error "get-value supports plain symbols only")'
            var = self.grid.get(unquote_symbol(tok))
            if var is None or var.col is None:
                return f'(error "no value for {unquote_symbol(tok)}")'
            raw = var.col[idx]
            if var.kind == "bool":
                rendered = "true" if bool(raw) else "false"
            else:
                rendered = bv_text(int(raw), var.width)
            parts.append(f"({tok} {rendered})")
        return "(" + " ".join(parts) + ")"


def _clean(message: str) -> str:
    return message.replace('"', "'").replace("\n", " ")


def _run(engine: Engine, args) -> int:
    out = sys.stdout

    def reply(text: str) -> None:
        out.write(text + "\n")
        out.flush()

    def ack() -> None:
        if engine.print_success:
            reply("success")

    def handle(sexpr) -> bool:
        head = sexpr[0] if sexpr and isinstance(sexpr[0], str) else None
        if head == "set-option":
            if len(sexpr) == 3 and sexpr[1] == ":print-success":
                engine.print_success = sexpr[2] == "true"
            ack()
        elif head in ("set-logic", "set-info"):
            ack()
        elif head in ("declare-const", "declare-fun"):
            decl = declaration(sexpr)
            if decl is None:  # a function with arguments: outside the fragment
                engine.frames[-1].tainted = True
                ack()
            elif err := engine.declare(*decl):
                reply(f'(error "{err}")')
            else:
                ack()
        elif head == "define-fun":
            engine.frames[-1].tainted = True
            ack()
        elif head == "assert" and len(sexpr) == 2:
            engine.add_assert(sexpr[1])
            ack()
        elif head == "push":
            engine.push(int(sexpr[1]) if len(sexpr) > 1 else 1)
            ack()
        elif head == "pop":
            err = engine.pop(int(sexpr[1]) if len(sexpr) > 1 else 1)
            if err:
                reply(f'(error "{err}")')
            else:
                ack()
        elif head == "check-sat":
            if args.hang_flag_file and os.path.exists(args.hang_flag_file):
                os.unlink(args.hang_flag_file)
                time.sleep(_HANG_SECONDS)
            reply(engine.check_sat())
        elif head == "get-value" and len(sexpr) == 2 and isinstance(sexpr[1], list):
            reply(engine.get_value(sexpr[1]))
        elif head == "echo" and len(sexpr) == 2:
            reply(sexpr[1])
        elif head == "reset-assertions":  # a script's own: the oracle passes it on
            base = engine.frames[0]
            engine.frames = [Frame(np.ones_like(base.mask))]
            ack()
        elif head == "exit":
            ack()
            return False
        else:
            reply(f'(error "unsupported command {head}")')
        return True

    reader = SexprReader()
    for line in sys.stdin:
        try:
            for sexpr, _form in iter_top_forms(line, reader):
                if isinstance(sexpr, str):
                    reply(f'(error "unexpected input {_clean(sexpr)}")')
                    continue
                try:
                    keep_going = handle(sexpr)
                except MalformedScript as exc:  # a malformed declaration or BitVec width
                    reply(f'(error "{_clean(str(exc))}")')
                    continue
                except Exception as exc:
                    reply(f'(error "internal: {_clean(repr(exc))}")')
                    continue
                if not keep_going:
                    return 0
        except MalformedScript as exc:
            reply(f'(error "{_clean(str(exc))}")')
            reader = SexprReader()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pact-minisolve",
        description="Bounded brute-force SMT-LIB2 solver (testing backend).",
    )
    parser.add_argument(
        "--hang-flag-file",
        default=None,
        help="if this file exists when check-sat arrives, delete it and stall"
        f" once for {_HANG_SECONDS:g} s",
    )
    args = parser.parse_args(argv)
    engine = Engine()
    try:
        return _run(engine, args)
    except (KeyboardInterrupt, BrokenPipeError):
        return 1


if __name__ == "__main__":
    sys.exit(main())
