"""SMT-LIB2 front end: the one place that knows SMT-LIB syntax.

Its incremental reader splits input scripts, solver replies and minisolve
input alike into top-level forms.  It reads declarations (`declaration`),
BitVec sorts (`bitvector_width`) and bitvector literals (`bv_literal`) for
the script parser, the subprocess oracle's reply parser and minisolve
alike.  It resolves the projection set, and renders hash constraints /
blocking clauses as SMT-LIB2 assertions over pure QF_BV operators with `#b`
literals (`bv_text`).  Input scripts are never rewritten: downstream code
works with verbatim top-level form slices.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import MalformedScript, NonDiscreteProjection, UnknownVariable

if TYPE_CHECKING:  # only for annotations; rendering dispatches on attributes
    from .hashing import HashConstraint


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>;[^\n]*)
      | (?P<lp>\()
      | (?P<rp>\))
      | (?P<string>"(?:[^"]|"")*")
      | (?P<quoted>\|[^|]*\|)
      | (?P<atom>[^\s()";|]+)
    """,
    re.VERBOSE,
)

# SMT-LIB simple symbols need no |...| quoting
_SIMPLE_SYMBOL_RE = re.compile(r"[a-zA-Z~!@$%^&*_+=<>.?/-][a-zA-Z0-9~!@$%^&*_+=<>.?/-]*\Z")

_WIDTH_RE = re.compile(r"0*[1-9][0-9]*\Z")
# `#b...`, `#x...`, and `(_ bvN w)` as its three atoms joined by spaces
_BV_LITERAL_RE = re.compile(r"#b([01]+)\Z|#x([0-9a-fA-F]+)\Z|_ bv([0-9]+) (0*[1-9][0-9]*)\Z")

_PROJECTED_VARS_RE = re.compile(r"^\s*;+\s*projected-vars:\s*(.*?)\s*$", re.MULTILINE)


@dataclass(frozen=True)
class Form:
    """One top-level form: its verbatim text slice, head symbol, line."""

    text: str
    head: str | None
    line: int


class SexprReader:
    """What one text stream leaves open between `iter_top_forms` calls.

    It keeps the stack of open forms, the text of the open top-level form
    read so far, and a token cut at the end of the last chunk, so that each
    chunk is scanned once.
    """

    __slots__ = ("stack", "parts", "tail", "line", "open_line")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.parts: list[str] = []  # earlier chunks' text of the open top-level form
        self.tail = ""  # unscanned start of a token cut at the end of the last chunk
        self.line = 1  # line number where `tail` starts
        self.open_line = 0  # line of the open top-level form's '('


def iter_top_forms(
    text: str, reader: SexprReader | None = None
) -> Iterator[tuple[object, Form]]:
    """Yield (nested_sexpr, Form) for each top-level form completed in `text`.

    The nested representation is lists of atom strings; a top-level atom
    is yielded as its string.  Without a reader, `text` is a whole script
    and an unclosed form raises MalformedScript.  With one, `text` continues
    the reader's stream: an open form, or a token that may go on in the next
    chunk, waits in the reader.  Raises MalformedScript on an unmatched ')'
    and on input no token can start (an unterminated string at the end of a
    whole script).
    """
    final = reader is None
    if final:
        reader = SexprReader()
    stack = reader.stack
    text = reader.tail + text
    n = len(text)
    match = _TOKEN_RE.match
    line, line_pos = reader.line, 0  # `line` is the line number at `line_pos`
    start = pos = 0  # start: the open top-level form's first character here
    while pos < n:
        m = match(text, pos)
        if m is None:
            if not final:  # an unterminated string or |symbol| may end later
                break
            line += text.count("\n", line_pos, pos)
            raise MalformedScript(f"unreadable input near {text[pos:pos + 20]!r}", line)
        end = m.end()
        kind = m.lastgroup
        if kind == "ws":
            pass
        elif kind == "lp":
            if not stack:
                start = pos
                line += text.count("\n", line_pos, pos)
                line_pos = pos
                reader.open_line = line
            stack.append([])
        elif kind == "rp":
            if not stack:
                line += text.count("\n", line_pos, pos)
                raise MalformedScript("unmatched ')'", line)
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                form_text = text[start:end]
                if reader.parts:
                    form_text = "".join(reader.parts) + form_text
                    reader.parts.clear()
                head = done[0] if done and isinstance(done[0], str) else None
                yield done, Form(form_text, head, reader.open_line)
        elif not final and kind != "quoted" and (
            end == n or kind == "string" and text[end] == '"'
        ):
            # the next chunk may continue an atom, string or comment; a
            # string right before '"' may end in the first half of a ""
            break
        elif kind != "comment":
            value = m.group()
            if stack:
                stack[-1].append(value)
            else:
                line += text.count("\n", line_pos, pos)
                line_pos = pos
                yield value, Form(value, None, line)
        pos = end
    if final:
        if stack:
            raise MalformedScript("unbalanced '(' (unclosed form)", reader.open_line)
        return
    if stack:
        reader.parts.append(text[start:pos])
    reader.tail = text[pos:]
    reader.line = line + text.count("\n", line_pos, pos)


@dataclass(frozen=True)
class SortedVar:
    """A declared nullary symbol: name plus sort text, width for bitvectors."""

    name: str
    sort: str
    width: int | None

    @property
    def is_bitvector(self) -> bool:
        return self.width is not None


@dataclass(frozen=True)
class SmtScript:
    text: str
    declarations: tuple[SortedVar, ...]
    logic: str | None
    forms: tuple[Form, ...]

    def lookup(self, name: str) -> SortedVar | None:
        return self._by_name.get(name)

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {v.name: v for v in self.declarations})


@dataclass(frozen=True)
class ProjectionSet:
    """Bitvector variables to count over, in caller order."""

    variables: tuple[SortedVar, ...]

    @property
    def total_width(self) -> int:
        return sum(v.width for v in self.variables)

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __len__(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class BlockingClause:
    """Negation of one or more projected models: each row of `rows` holds
    one model's values of the `projection` variables, in their order."""

    projection: ProjectionSet
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_model(cls, projection: ProjectionSet, model: dict[str, int]) -> "BlockingClause":
        return cls(projection, (tuple(map(model.__getitem__, projection.names)),))

    def __len__(self) -> int:
        return len(self.rows)


def unquote_symbol(token: str) -> str:
    if len(token) >= 2 and token[0] == "|" and token[-1] == "|":
        return token[1:-1]
    return token


def quote_symbol(name: str) -> str:
    if _SIMPLE_SYMBOL_RE.match(name):
        return name
    if "|" in name or "\\" in name:
        raise MalformedScript(f"symbol {name!r} cannot be quoted")
    return f"|{name}|"


def declaration(sexpr, line: int | None = None):
    """(name, sort) of a `declare-const` or nullary `declare-fun` form, the
    sort as its nested form; None for any other form, a `declare-fun` that
    takes arguments among them.  Raises MalformedScript on a malformed one."""
    head = sexpr[0] if isinstance(sexpr, list) and sexpr else None
    if head == "declare-const":
        if len(sexpr) != 3 or not isinstance(sexpr[1], str):
            raise MalformedScript("malformed declare-const", line)
        return unquote_symbol(sexpr[1]), sexpr[2]
    if head == "declare-fun":
        if len(sexpr) != 4 or not isinstance(sexpr[1], str) or not isinstance(sexpr[2], list):
            raise MalformedScript("malformed declare-fun", line)
        return (unquote_symbol(sexpr[1]), sexpr[3]) if sexpr[2] == [] else None
    return None


def bitvector_width(sort, line: int | None = None) -> int | None:
    """The width of a `(_ BitVec w)` sort; None for any other sort.  Raises
    MalformedScript when w is not a positive integer."""
    if not (isinstance(sort, list) and len(sort) == 3 and sort[:2] == ["_", "BitVec"]):
        return None
    if not (isinstance(sort[2], str) and _WIDTH_RE.match(sort[2])):
        width = _render_sexpr(sort[2])
        raise MalformedScript(f"bitvector width must be a positive integer, got {width}", line)
    return int(sort[2])


def bv_literal(term) -> tuple[int, int] | None:
    """(value, width) of a bitvector literal: `#b...`, `#x...` or
    `(_ bvN w)`, whose N is taken mod 2^w; None for any other term."""
    if isinstance(term, list):
        if len(term) != 3 or not all(isinstance(t, str) for t in term):
            return None
        term = " ".join(term)
    m = _BV_LITERAL_RE.match(term)
    if m is None:
        return None
    binary, hexadecimal, numeral, width = m.groups()
    if binary is not None:
        return int(binary, 2), len(binary)
    if hexadecimal is not None:
        return int(hexadecimal, 16), 4 * len(hexadecimal)
    return int(numeral) % (1 << int(width)), int(width)


def _render_sexpr(sexpr) -> str:
    if isinstance(sexpr, str):
        return sexpr
    return "(" + " ".join(_render_sexpr(x) for x in sexpr) + ")"


def parse_declarations(text: str) -> SmtScript:
    """Parse a script's top level: declarations, logic, verbatim forms.
    A `(reset)` raises MalformedScript: an oracle loads the script whole,
    so what the script asserted before it would still hold."""
    declarations: list[SortedVar] = []
    seen: set[str] = set()
    logic: str | None = None
    forms: list[Form] = []
    for sexpr, form in iter_top_forms(text):
        if isinstance(sexpr, str):
            # stray top-level atom (legal SMT-LIB rejects it; be strict)
            raise MalformedScript(f"unexpected atom {sexpr!r}", form.line)
        forms.append(form)
        head = form.head
        if head == "reset":
            raise MalformedScript("(reset) is not supported in an input script", form.line)
        if head == "set-logic" and logic is None and len(sexpr) == 2:
            logic = unquote_symbol(sexpr[1])
            continue
        decl = declaration(sexpr, form.line)
        if decl is None:
            continue
        name, sort = decl
        if name in seen:
            raise MalformedScript(f"duplicate declaration of {name!r}", form.line)
        seen.add(name)
        width = bitvector_width(sort, form.line)
        sort_text = _render_sexpr(sort) if width is None else f"(_ BitVec {width})"
        declarations.append(SortedVar(name, sort_text, width))
    return SmtScript(text, tuple(declarations), logic, tuple(forms))


def resolve_projection(script: SmtScript, names: Iterable[str]) -> ProjectionSet:
    """Map projection names onto declared bitvector variables, keeping order."""
    variables: list[SortedVar] = []
    taken: set[str] = set()
    for raw in names:
        name = unquote_symbol(raw)
        if name in taken:
            continue
        var = script.lookup(name)
        if var is None:
            raise UnknownVariable(f"projection variable {name!r} is not declared")
        if not var.is_bitvector:
            raise NonDiscreteProjection(
                f"projection variable {name!r} has sort {var.sort}, not a bitvector"
            )
        variables.append(var)
        taken.add(name)
    return ProjectionSet(tuple(variables))


def projection_comment_names(text: str) -> list[str] | None:
    """Collect names from `; projected-vars: x y z` comment lines, if any."""
    names: list[str] = []
    for m in _PROJECTED_VARS_RE.finditer(text):
        names.extend(m.group(1).split())
    return names or None


def read_projection_file(path) -> list[str]:
    """Sidecar format: one variable name per line, # comments allowed."""
    names: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                names.append(line)
    return names


# ---------------------------------------------------------------------------
# rendering


def bv_text(value: int, width: int) -> str:
    """A width-bit value as a `#b` literal."""
    return "#b" + format(value, f"0{width}b")


def _extract(sl, lo: int, hi: int) -> str:
    name = quote_symbol(sl.var)
    if lo == 0 and hi == sl.parent_width:
        return name
    return f"((_ extract {hi - 1} {lo}) {name})"


def _extended(term: str, from_width: int, to_width: int) -> str:
    if from_width == to_width:
        return term
    return f"((_ zero_extend {to_width - from_width}) {term})"


def _render_linear_sum(constraint: "HashConstraint") -> str:
    """(bvadd (bvmul a_i x_i') ... b) at the widened width."""
    width = constraint.widened_width
    parts = [
        f"(bvmul {bv_text(coeff, width)} {_extended(_extract(sl, sl.lo, sl.hi), sl.width, width)})"
        for coeff, sl in zip(constraint.coeffs, constraint.slices)
    ]
    parts.append(bv_text(constraint.offset, width))
    if len(parts) == 1:
        return parts[0]
    return "(bvadd " + " ".join(parts) + ")"


def render_assertion(constraint) -> str:
    """Render a hash constraint or blocking clause as one `(assert ...)`;
    a clause blocking several models is a conjunction of negations.

    Uses only QF_BV operators (bvmul, bvadd, bvurem, extract, bvxor,
    zero_extend, =, not, and) and binary literals.
    """
    if isinstance(constraint, BlockingClause):
        symbols = [(quote_symbol(v.name), v.width) for v in constraint.projection.variables]
        negations = []
        for row in constraint.rows:
            eqs = [f"(= {sym} {bv_text(v, width)})" for (sym, width), v in zip(symbols, row)]
            body = eqs[0] if len(eqs) == 1 else "(and " + " ".join(eqs) + ")"
            negations.append(f"(not {body})")
        if len(negations) == 1:
            return f"(assert {negations[0]})"
        return "(assert (and " + " ".join(negations) + "))"

    from .hashing import Family  # deferred: hashing imports this module's types

    family = constraint.family
    if family is Family.XOR:
        bits = [  # one term per bit of the slice that its mask selects
            _extract(sl, sl.lo + i, sl.lo + i + 1)
            for coeff, sl in zip(constraint.coeffs, constraint.slices)
            for i in range(sl.width)
            if coeff >> i & 1
        ]
        if not bits:
            return "(assert true)" if constraint.target == 0 else "(assert false)"
        lhs = bits[0] if len(bits) == 1 else "(bvxor " + " ".join(bits) + ")"
        return f"(assert (= {lhs} {bv_text(constraint.target, 1)}))"

    width = constraint.widened_width
    total = _render_linear_sum(constraint)
    if family is Family.PRIME:
        lhs = f"(bvurem {total} {bv_text(constraint.range_size, width)})"
        return f"(assert (= {lhs} {bv_text(constraint.target, width)}))"
    if family is Family.SHIFT:
        lhs = f"((_ extract {width - 1} {width - constraint.ell}) {total})"
        return f"(assert (= {lhs} {bv_text(constraint.target, constraint.ell)}))"
    raise ValueError(f"unknown hash family {family!r}")
