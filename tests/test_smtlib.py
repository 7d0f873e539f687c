"""Script parsing, projection resolution, and assertion rendering."""

import pytest
from hypothesis import given, strategies as st

from pact.errors import MalformedScript, NonDiscreteProjection, UnknownVariable
from pact.hashing import Family, HashConstraint, Slice
from pact.smtlib import (
    BlockingClause,
    ProjectionSet,
    SexprReader,
    SortedVar,
    bitvector_width,
    bv_literal,
    bv_text,
    declaration,
    iter_top_forms,
    parse_declarations,
    projection_comment_names,
    read_projection_file,
    render_assertion,
    resolve_projection,
)


# ---------------------------------------------------------------------------
# declaration extraction


def test_parse_declare_const_bitvector():
    script = parse_declarations("(declare-const x (_ BitVec 8))")
    assert len(script.declarations) == 1
    var = script.declarations[0]
    assert var.name == "x"
    assert var.width == 8
    assert var.is_bitvector


def test_parse_declare_fun_other_sort():
    script = parse_declarations("(declare-fun y () Float32)")
    (var,) = script.declarations
    assert var.name == "y"
    assert var.width is None
    assert not var.is_bitvector
    assert var.sort == "Float32"


def test_parse_mixed_script_with_logic_and_asserts():
    text = """
    (set-logic QF_BVFP)
    (declare-const a (_ BitVec 4))
    ; a comment (with parens) and a fake (declare-const z (_ BitVec 2))
    (declare-fun b () (_ FloatingPoint 8 24))
    (assert (bvult a #b1000))
    (check-sat)
    """
    script = parse_declarations(text)
    assert script.logic == "QF_BVFP"
    assert [v.name for v in script.declarations] == ["a", "b"]
    assert script.declarations[0].width == 4
    assert script.declarations[1].sort == "(_ FloatingPoint 8 24)"


def test_parse_skips_non_nullary_declare_fun():
    text = "(declare-fun f ((_ BitVec 4)) (_ BitVec 4)) (declare-const x (_ BitVec 2))"
    script = parse_declarations(text)
    assert [v.name for v in script.declarations] == ["x"]


def test_parse_width_zero_rejected():
    with pytest.raises(MalformedScript):
        parse_declarations("(declare-const x (_ BitVec 0))")


def test_parse_unbalanced_parens_reports_line():
    text = "(set-logic QF_BV)\n(declare-const x (_ BitVec 4)\n(assert true)"
    with pytest.raises(MalformedScript) as exc:
        parse_declarations(text)
    assert exc.value.line is not None


def test_parse_duplicate_names_rejected():
    text = "(declare-const x (_ BitVec 4)) (declare-fun x () (_ BitVec 4))"
    with pytest.raises(MalformedScript):
        parse_declarations(text)


def test_parse_quoted_symbol_and_strings():
    text = '(set-info :source "ignore (declare-const fake (_ BitVec 2))")\n' \
           "(declare-const |my var| (_ BitVec 3))"
    script = parse_declarations(text)
    (var,) = script.declarations
    assert var.name == "my var"
    assert var.width == 3


def test_parse_stray_atom_rejected():
    with pytest.raises(MalformedScript, match="unexpected atom 'oops'") as exc:
        parse_declarations("(set-logic QF_BV)\noops\n(check-sat)")
    assert exc.value.line == 2


def parse_term(text):
    ((sexpr, _form),) = iter_top_forms(text)
    return sexpr


@pytest.mark.parametrize(
    "text, expected",
    [
        ("(declare-const x (_ BitVec 4))", ("x", ["_", "BitVec", "4"])),
        ("(declare-fun |a b| () Bool)", ("a b", "Bool")),
        ("(declare-fun f ((_ BitVec 4)) Bool)", None),  # takes arguments
        ("(assert (= x #b01))", None),
        ("(declare-const x)", "malformed declare-const"),
        ("(declare-const (x) Bool)", "malformed declare-const"),
        ("(declare-fun f (Int))", "malformed declare-fun"),
        ("(declare-fun f Int Int)", "malformed declare-fun"),
    ],
)
def test_declaration(text, expected):
    if isinstance(expected, str):
        with pytest.raises(MalformedScript, match=expected):
            declaration(parse_term(text))
    else:
        assert declaration(parse_term(text)) == expected


@pytest.mark.parametrize(
    "sort, expected",
    [
        ("(_ BitVec 12)", 12),
        ("Bool", None),
        ("(_ FloatingPoint 8 24)", None),
        ("(_ BitVec 007)", 7),
        ("(_ BitVec 0)", "must be a positive integer, got 0"),
        ("(_ BitVec w)", "must be a positive integer, got w"),
        ("(_ BitVec (4))", "must be a positive integer, got \\(4\\)"),
    ],
)
def test_bitvector_width(sort, expected):
    sexpr = parse_term(sort) if sort.startswith("(") else sort
    if isinstance(expected, str):
        with pytest.raises(MalformedScript, match=expected):
            bitvector_width(sexpr)
    else:
        assert bitvector_width(sexpr) == expected


@pytest.mark.parametrize(
    "term, expected",
    [
        ("#b0101", (5, 4)),
        ("#b00101", (5, 5)),
        ("#x05", (5, 8)),
        ("#xfF", (255, 8)),
        ("(_ bv5 4)", (5, 4)),
        ("(_ bv20 4)", (4, 4)),  # N mod 2^w
        ("(_ bv0 80)", (0, 80)),
        ("x", None),
        ("true", None),
        ("5", None),
        ("#b", None),
        ("#b012", None),
        ("(_ bv5 0)", None),
        ("(_ BitVec 4)", None),
        ("(bvadd #b01 #b10)", None),
    ],
)
def test_bv_literal(term, expected):
    assert bv_literal(parse_term(term)) == expected


@given(st.integers(1, 130).flatmap(lambda w: st.tuples(st.integers(0, 2**w - 1), st.just(w))))
def test_bv_literal_reads_bv_text(value_width):
    assert bv_literal(bv_text(*value_width)) == value_width


# ---------------------------------------------------------------------------
# the incremental reader


READER_TEXT = (
    "; header (with parens)\n"
    "(set-info :source \"a ) \"\" ( string\")\n"
    "(declare-const |odd ) name| (_ BitVec 3))\n"
    "(assert\n  (= |odd ) name| #b101)) ; trailing (\n"
    "success (check-sat)\n"
    "(get-value (|odd ) name|))\n"
)


def test_reader_forms_atoms_and_lines():
    forms = list(iter_top_forms(READER_TEXT))
    assert [form.line for _s, form in forms] == [2, 3, 4, 6, 6, 7]
    assert [form.head for _s, form in forms] == [
        "set-info", "declare-const", "assert", None, "check-sat", "get-value",
    ]
    assert forms[0][0] == ["set-info", ":source", '"a ) "" ( string"']
    assert forms[2][1].text == "(assert\n  (= |odd ) name| #b101))"
    assert forms[3][0] == forms[3][1].text == "success"


@given(st.lists(st.integers(0, len(READER_TEXT)), max_size=12))
def test_reader_chunks_read_like_the_whole_text(cuts):
    reader = SexprReader()
    got = []
    bounds = [0, *sorted(cuts), len(READER_TEXT)]
    for lo, hi in zip(bounds, bounds[1:]):
        got.extend(iter_top_forms(READER_TEXT[lo:hi], reader))
    assert got == list(iter_top_forms(READER_TEXT))
    assert reader.stack == [] and reader.tail == ""


def test_reader_holds_a_cut_token_until_it_ends():
    reader = SexprReader()
    assert list(iter_top_forms("(echo |a", reader)) == []
    assert list(iter_top_forms("b) c", reader)) == []
    assert list(iter_top_forms("d| #b0", reader)) == []
    (sexpr, form), = iter_top_forms("1)\n", reader)
    assert sexpr == ["echo", "|ab) cd|", "#b01"]
    assert form.text == "(echo |ab) cd| #b01)"


def test_reader_errors():
    with pytest.raises(MalformedScript, match="unmatched"):
        list(iter_top_forms("(a)\n)"))
    with pytest.raises(MalformedScript, match="unreadable") as exc:
        list(iter_top_forms('(a)\n(echo "open'))
    assert exc.value.line == 2
    reader = SexprReader()  # a stream may still close the string
    assert list(iter_top_forms('(echo "open', reader)) == []
    (sexpr, _form), = iter_top_forms(' string")\n', reader)
    assert sexpr == ["echo", '"open string"']


def test_comment_projection_names():
    text = "; projected-vars: x y\n(declare-const x (_ BitVec 2))\n; projected-vars: z\n"
    assert projection_comment_names(text) == ["x", "y", "z"]
    assert projection_comment_names("(assert true)") is None


def test_read_projection_file(tmp_path):
    f = tmp_path / "vars.proj"
    f.write_text("# header\nx\n\ny  # trailing\n")
    assert read_projection_file(f) == ["x", "y"]


# ---------------------------------------------------------------------------
# projection resolution


SCRIPT = parse_declarations(
    "(declare-const x (_ BitVec 8)) (declare-const y (_ BitVec 4)) (declare-fun f () Float32)"
    " (declare-const b Bool)"
)


def test_resolve_projection_order_and_width():
    proj = resolve_projection(SCRIPT, ["y", "x"])
    assert [v.name for v in proj.variables] == ["y", "x"]
    assert proj.total_width == 12


def test_resolve_projection_unknown_name():
    with pytest.raises(UnknownVariable):
        resolve_projection(SCRIPT, ["x", "nope"])


def test_resolve_projection_non_bitvector():
    for name in ("f", "b"):  # a float and a Bool
        with pytest.raises(NonDiscreteProjection):
            resolve_projection(SCRIPT, [name])


def test_resolve_projection_dedupes():
    proj = resolve_projection(SCRIPT, ["x", "x"])
    assert [v.name for v in proj.variables] == ["x"]


# ---------------------------------------------------------------------------
# rendering


def test_render_xor_two_bits_exact_text():
    c = HashConstraint(
        family=Family.XOR,
        slices=(Slice("x", 8, 0, 1), Slice("x", 8, 1, 2), Slice("x", 8, 2, 3)),
        coeffs=(1, 0, 1),
        offset=None,
        range_size=2,
        target=1,
        ell=1,
    )
    assert render_assertion(c) == (
        "(assert (= (bvxor ((_ extract 0 0) x) ((_ extract 2 2) x)) #b1))"
    )


def test_render_xor_single_bit_no_bvxor():
    c = HashConstraint(
        family=Family.XOR,
        slices=(Slice("x", 8, 3, 4),),
        coeffs=(1,),
        offset=None,
        range_size=2,
        target=1,
        ell=1,
    )
    assert render_assertion(c) == "(assert (= ((_ extract 3 3) x) #b1))"


def test_render_xor_empty_selection_is_constant():
    c = HashConstraint(
        family=Family.XOR,
        slices=(Slice("x", 8, 0, 1),),
        coeffs=(0,),
        offset=None,
        range_size=2,
        target=0,
        ell=1,
    )
    assert render_assertion(c) == "(assert true)"
    c2 = HashConstraint(
        family=Family.XOR,
        slices=(Slice("x", 8, 0, 1),),
        coeffs=(0,),
        offset=None,
        range_size=2,
        target=1,
        ell=1,
    )
    assert render_assertion(c2) == "(assert false)"


def bv(name, width):
    return SortedVar(name, f"(_ BitVec {width})", width)


def test_render_blocking_single_variable():
    b = BlockingClause(ProjectionSet((bv("x", 4),)), ((5,),))
    assert render_assertion(b) == "(assert (not (= x #b0101)))"


def test_render_blocking_two_variables():
    b = BlockingClause(ProjectionSet((bv("x", 2), bv("y", 3))), ((1, 6),))
    assert render_assertion(b) == "(assert (not (and (= x #b01) (= y #b110))))"


def test_render_prime_widened_width():
    # p=17, one full-width slice of a 4-bit variable, widened width 2*4+1 = 9
    c = HashConstraint(
        family=Family.PRIME,
        slices=(Slice("x", 4, 0, 4),),
        coeffs=(3,),
        offset=2,
        range_size=17,
        target=6,
        ell=4,
        widened_width=9,
    )
    assert render_assertion(c) == (
        "(assert (= (bvurem (bvadd (bvmul #b000000011 ((_ zero_extend 5) x))"
        " #b000000010) #b000010001) #b000000110))"
    )


def test_render_shift_top_bits_extract():
    # w=4, ell=2, wbar=8: value is bits [6, 8) of (5*x + 3) mod 2^8
    c = HashConstraint(
        family=Family.SHIFT,
        slices=(Slice("x", 4, 0, 4),),
        coeffs=(5,),
        offset=3,
        range_size=4,
        target=0,
        ell=2,
        widened_width=8,
    )
    assert render_assertion(c) == (
        "(assert (= ((_ extract 7 6) (bvadd (bvmul #b00000101 ((_ zero_extend 4) x))"
        " #b00000011)) #b00))"
    )


def test_render_partial_slice_uses_extract():
    c = HashConstraint(
        family=Family.PRIME,
        slices=(Slice("x", 8, 0, 4), Slice("x", 8, 4, 8)),
        coeffs=(3, 5),
        offset=2,
        range_size=17,
        target=0,
        ell=4,
        widened_width=10,
    )
    text = render_assertion(c)
    assert "((_ extract 3 0) x)" in text
    assert "((_ extract 7 4) x)" in text
    assert text.count("bvmul") == 2


ALLOWED_OPS = {
    "assert", "=", "not", "and", "true", "false",
    "bvxor", "bvmul", "bvadd", "bvurem", "concat",
    "_", "extract", "zero_extend",
}


def _symbols(sexpr):
    """Every atom nested in sexpr, bar binary literals, pipes stripped."""
    if isinstance(sexpr, str):
        return set() if sexpr.startswith("#b") else {sexpr.strip("|")}
    return set().union(*map(_symbols, sexpr))


@given(st.data())
def test_render_round_trip_and_purity(data):
    """Rendered text is balanced, parseable, and mentions only declared
    variables plus whitelisted operators and binary literals."""
    width = data.draw(st.integers(1, 16))
    family = data.draw(st.sampled_from([Family.XOR, Family.PRIME, Family.SHIFT]))
    import random

    from pact.hashing import generate_hash
    from pact.smtlib import ProjectionSet, SortedVar

    proj = ProjectionSet((SortedVar("v0", "(_ BitVec %d)" % width, width),))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    ell = 1 if family is Family.XOR else 4
    constraint = generate_hash(proj, ell, family, rng)
    text = render_assertion(constraint)
    # balances: the whole text parses back to exactly one form
    (sexpr, form), = iter_top_forms(text)
    assert form.text == text
    # purity: nothing outside declared vars, operators, literals
    extras = _symbols(sexpr) - ALLOWED_OPS - {"v0"}
    for sym in extras:
        assert sym.isdigit(), sym  # extract/zero_extend indices
