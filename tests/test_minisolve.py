"""Engine-level checks for the bundled brute-force solver.

The ground identities below were computed by hand from the SMT-LIB
bitvector semantics; asserting one and asking check-sat turns the engine
into its own judge (sat = identity holds on the unconstrained grid).
"""

import subprocess
import sys

import pytest

from pact.minisolve import Engine, _decode_fp_literal
from pact.smtlib import iter_top_forms


def parse_term(text):
    (sexpr, _form), = iter_top_forms(text)
    return sexpr


def ground_truth(assertion_text):
    engine = Engine()
    engine.add_assert(parse_term(assertion_text))
    return engine.check_sat()


# each pair: (term, expected truth); all values worked out on paper
GROUND_IDENTITIES = [
    ("(= (bvadd #b0101 #b0110) #b1011)", True),       # 5+6=11
    ("(= (bvmul #b0111 #b0011) #b0101)", True),       # 21 mod 16 = 5
    ("(= (bvsub #b0010 #b0101) #b1101)", True),       # 2-5 = -3 = 13
    ("(= (bvneg #b0101) #b1011)", True),              # 16-5 = 11
    ("(= (bvnot #b0101) #b1010)", True),
    ("(= (bvudiv #b0111 #b0000) #b1111)", True),      # div by zero: all ones
    ("(= (bvurem #b0111 #b0000) #b0111)", True),      # rem by zero: dividend
    ("(= (bvudiv #b0111 #b0010) #b0011)", True),      # 7 // 2
    ("(= (bvashr #b1000 #b0001) #b1100)", True),      # -8 >> 1 = -4
    ("(= (bvlshr #b1000 #b0001) #b0100)", True),
    ("(= (bvshl #b0011 #b0010) #b1100)", True),
    ("(= (bvshl #b0001 #b0100) #b0000)", True),       # shift >= width
    ("(= (bvlshr #b1111 #b1000) #b0000)", True),
    ("(bvslt #b1000 #b0111)", True),                  # -8 < 7 signed
    ("(bvult #b1000 #b0111)", False),                 # 8 < 7 unsigned
    ("(bvsge #b0001 #b1111)", True),                  # 1 >= -1 signed
    ("(= ((_ extract 2 1) #b0110) #b11)", True),
    ("(= ((_ sign_extend 2) #b10) #b1110)", True),
    ("(= ((_ zero_extend 2) #b10) #b0010)", True),
    ("(= (concat #b10 #b01) #b1001)", True),
    ("(= (bvxor #b0101 #b0011) #b0110)", True),
    ("(= (bvand #b0101 #b0011) #b0001)", True),
    ("(= (bvor #b0101 #b0011) #b0111)", True),
    ("(= (_ bv5 4) #b0101)", True),
    ("(= #x2a #b00101010)", True),                    # 42
    ("(let ((a #b01)) (= a #b01))", True),
    ("(ite (bvult #b01 #b10) true false)", True),
    ("(distinct #b00 #b01 #b10)", True),
    ("(distinct #b00 #b01 #b00)", False),
    ("(=> false true)", True),
    ("(=> true false)", False),
    ("(xor true false)", True),
    # uint64 shifts by exactly 64 must move every bit out
    ("(= (bvshl #xffffffffffffffff #x0000000000000040) #x0000000000000000)", True),
    ("(= (bvlshr #xffffffffffffffff #x0000000000000040) #x0000000000000000)", True),
    # 80-bit values, stored as Python ints; A = 2^79 + 5
    ("(= (bvudiv #x80000000000000000005 #x00000000000000000000) #xffffffffffffffffffff)", True),
    ("(= (bvurem #x80000000000000000005 #x00000000000000000000) #x80000000000000000005)", True),
    ("(= (bvudiv #x80000000000000000005 #x00000000000000000002) #x40000000000000000002)", True),
    ("(= (bvurem #x80000000000000000005 #x00000000000000000002) #x00000000000000000001)", True),
    ("(= ((_ sign_extend 8) #x8000000000000001) #xff8000000000000001)", True),  # 64 -> 72
    ("(= ((_ sign_extend 16) #x7000000000000001) #x00007000000000000001)", True),
    ("(= (ite (bvult #b01 #b10) #x80000000000000000005 #x00000000000000000001)"
     " #x80000000000000000005)", True),
    ("(= (bvshl #x80000000000000000005 (_ bv80 80)) (_ bv0 80))", True),    # shift >= width
    ("(= (bvlshr #x80000000000000000005 (_ bv81 80)) (_ bv0 80))", True),
    ("(= (bvashr #x80000000000000000005 (_ bv200 80)) #xffffffffffffffffffff)", True),
    ("(= (bvashr #x40000000000000000005 (_ bv80 80)) (_ bv0 80))", True),
    ("(= (bvashr #x80000000000000000005 (_ bv4 80)) #xf8000000000000000000)", True),
    ("(= ((_ extract 71 56) #x00abcd00000000000000) #xabcd)", True),          # across bit 64
    ("(= (concat #xab #xcd00000000000000) #xabcd00000000000000)", True),
    ("(bvslt #x80000000000000000000 #x00000000000000000001)", True),           # -2^79 < 1
    ("(bvslt #x00000000000000000001 #xffffffffffffffffffff)", False),          # 1 < -1
    ("(= (bvneg #x00000000000000000001) #xffffffffffffffffffff)", True),       # -1
    ("(= (bvmul #x80000000000000000000 #x00000000000000000002) (_ bv0 80))", True),  # 2^80
    ("(= (bvmul #x00000000010000000001 #x00000000010000000001) #x00000000020000000001)", True),
]


@pytest.mark.parametrize("term,expected", GROUND_IDENTITIES)
def test_ground_identity(term, expected):
    verdict = ground_truth(term)
    if expected:
        assert verdict == "sat"
    else:
        assert verdict in ("unsat", "unknown")


class TestGrid:
    def test_declare_and_count_models(self):
        engine = Engine()
        engine.declare("x", parse_term("(_ BitVec 4)"))
        engine.add_assert(parse_term("(assert (bvult x #b0101))")[1])
        assert engine.check_sat() == "sat"
        assert int(engine.frames[-1].mask.sum()) == 5

    def test_two_variables_grid(self):
        engine = Engine()
        engine.declare("x", parse_term("(_ BitVec 2)"))
        engine.declare("y", parse_term("(_ BitVec 2)"))
        engine.add_assert(parse_term("(= x y)"))
        assert int(engine.frames[-1].mask.sum()) == 4

    def test_bool_variable(self):
        engine = Engine()
        engine.declare("b", "Bool")
        engine.declare("x", parse_term("(_ BitVec 2)"))
        engine.add_assert(parse_term("(= b (bvult x #b10))"))
        assert int(engine.frames[-1].mask.sum()) == 4
        assert engine.check_sat() == "sat"

    def test_push_pop(self):
        engine = Engine()
        engine.declare("x", parse_term("(_ BitVec 3)"))
        engine.push(1)
        engine.add_assert(parse_term("(= x #b000)"))
        assert int(engine.frames[-1].mask.sum()) == 1
        engine.pop(1)
        assert int(engine.frames[-1].mask.sum()) == 8

    def test_unsat(self):
        engine = Engine()
        engine.declare("x", parse_term("(_ BitVec 3)"))
        engine.add_assert(parse_term("(and (= x #b000) (= x #b001))"))
        assert engine.check_sat() == "unsat"

    def test_get_value_rendering(self):
        engine = Engine()
        engine.declare("x", parse_term("(_ BitVec 4)"))
        engine.add_assert(parse_term("(= x #b0101)"))
        assert engine.get_value(["x"]) == "((x #b0101))"

    def test_oversize_grid_is_unknown_not_wrong(self):
        engine = Engine()
        engine.declare("x", parse_term("(_ BitVec 30)"))
        engine.add_assert(parse_term("(bvult x #b000000000000000000000000000101)"))
        assert engine.check_sat() == "unknown"

    def test_oversize_still_detects_plain_unsat(self):
        engine = Engine()
        engine.declare("x", parse_term("(_ BitVec 30)"))
        engine.add_assert("false")
        assert engine.check_sat() == "unsat"


class TestTheorySampling:
    def test_satisfiable_fp_side_condition(self):
        engine = Engine()
        engine.declare("f", parse_term("(_ FloatingPoint 8 24)"))
        engine.declare("x", parse_term("(_ BitVec 2)"))
        engine.add_assert(parse_term("(fp.lt f (_ +zero 8 24))"))
        assert engine.check_sat() == "sat"  # witness: f = -1.0

    def test_unwitnessed_theory_is_unknown(self):
        engine = Engine()
        engine.declare("r", "Real")
        engine.add_assert(parse_term("(< r r)"))
        assert engine.check_sat() == "unknown"

    def test_real_arithmetic_witness(self):
        engine = Engine()
        engine.declare("r", "Real")
        engine.add_assert(parse_term("(> (* r r) 3)"))
        assert engine.check_sat() == "sat"  # witness: r = 2

    def test_mixed_grid_theory_assert_taints(self):
        engine = Engine()
        engine.declare("x", parse_term("(_ BitVec 2)"))
        engine.declare("r", "Real")
        engine.add_assert(parse_term("(=> (= x #b00) (> r 0))"))
        assert engine.check_sat() == "unknown"

    def test_fp_literal_decoding(self):
        assert _decode_fp_literal("#b0", "#b01111111", "#b" + "0" * 23) == 1.0
        assert _decode_fp_literal("#b1", "#b10000000", "#b1" + "0" * 22) == -3.0
        assert _decode_fp_literal("#b0", "#b11111111", "#b" + "0" * 23) == float("inf")
        nan = _decode_fp_literal("#b0", "#b11111111", "#b1" + "0" * 22)
        assert nan != nan
        assert _decode_fp_literal("#b0", "#b00000000", "#b" + "0" * 23) == 0.0


class TestProtocol:
    def run_session(self, stdin_text, extra_args=()):
        proc = subprocess.run(
            [sys.executable, "-m", "pact.minisolve", *extra_args],
            input=stdin_text,
            capture_output=True,
            text=True,
            timeout=30,
        )
        return proc.stdout.strip().splitlines()

    def test_print_success_handshake(self):
        lines = self.run_session(
            "(set-option :print-success true)\n(set-logic QF_BV)\n(exit)\n"
        )
        assert lines == ["success", "success", "success"]

    def test_check_sat_and_get_value(self):
        lines = self.run_session(
            "(declare-const x (_ BitVec 3))\n"
            "(assert (= x #b011))\n"
            "(check-sat)\n"
            "(get-value (x))\n"
        )
        assert lines == ["sat", "((x #b011))"]

    def test_multiline_and_split_commands(self):
        lines = self.run_session(
            "(declare-const x\n  (_ BitVec 3))\n(assert (= x #b001)) (check-sat)\n"
        )
        assert lines == ["sat"]

    def test_comments_ignored(self):
        lines = self.run_session("; hello\n(check-sat) ; trailing\n")
        assert lines == ["sat"]

    def test_error_recovery(self):
        lines = self.run_session("(pop 5)\n(check-sat)\n")
        assert lines[0].startswith("(error")
        assert lines[1] == "sat"

    def test_quoted_symbol_round_trip(self):
        lines = self.run_session(
            "(declare-const |my var| (_ BitVec 2))\n"
            "(assert (= |my var| #b10))\n"
            "(get-value (|my var|))\n"
        )
        assert lines == ["((|my var| #b10))"]

    def test_unmatched_close_paren_recovers(self):
        lines = self.run_session(")\n(check-sat)\n")
        assert lines[0].startswith("(error")
        assert lines[1] == "sat"

    def test_stray_atom_is_an_error(self):
        lines = self.run_session("foo\n(check-sat)\n")
        assert lines == ['(error "unexpected input foo")', "sat"]

    def test_structure_characters_inside_strings_and_quoted_symbols(self):
        lines = self.run_session(
            '(echo "a ( b ; c )")\n'
            "(declare-const |x ( ; )| (_ BitVec 2))\n"
            "(assert (= |x ( ; )| #b10))\n"
            "(get-value (|x ( ; )|))\n"
        )
        assert lines == ['"a ( b ; c )"', "((|x ( ; )| #b10))"]

    def test_quoted_symbol_spanning_two_lines_is_one_command(self):
        lines = self.run_session(
            "(set-option :print-success true)\n"
            "(declare-const |a\nb| (_ BitVec 2))\n"
            "(assert (= |a\nb| #b01))\n"
            "(check-sat)\n"
        )
        assert lines == ["success", "success", "success", "sat"]

    @pytest.mark.parametrize(
        "declare, error",
        [
            ("(declare-const x (_ BitVec 0))", "bitvector width must be a positive integer, got 0"),
            ("(declare-const x (_ BitVec y))", "bitvector width must be a positive integer, got y"),
            ("(declare-fun f (Int))", "malformed declare-fun"),
            ("(declare-const x)", "malformed declare-const"),
        ],
    )
    def test_a_malformed_declaration_is_an_error_and_declares_nothing(self, declare, error):
        lines = self.run_session(
            "(set-option :print-success true)\n"
            f"{declare}\n"
            "(declare-const x (_ BitVec 2))\n"
            "(check-sat)\n"
        )
        assert lines == ["success", f'(error "{error}")', "success", "sat"]

    def test_a_function_with_arguments_taints_the_frame(self):
        lines = self.run_session("(declare-fun f ((_ BitVec 2)) Bool)\n(check-sat)\n")
        assert lines == ["unknown"]


def test_the_solver_loads_only_the_smtlib_front_end():
    code = "import sys, pact.minisolve; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'pact'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["pact", "pact.errors", "pact.minisolve", "pact.smtlib"]
