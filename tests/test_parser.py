"""Tests for the surface-syntax lexer and parser."""

from fractions import Fraction

import pytest

from repro.core import ast as A
from repro.core import types as T
from repro.core.errors import ParseError
from repro.core.grades import EPS, INFINITY
from repro.core.inference import infer
from repro.core.parser import parse_program, parse_term, parse_type, tokenize


class TestLexer:
    def test_identifiers_with_primes(self):
        tokens = tokenize("x' y1 _z")
        assert [t.text for t in tokens[:-1]] == ["x'", "y1", "_z"]

    def test_keywords_are_tagged(self):
        tokens = tokenize("function let rnd")
        assert all(t.kind == "keyword" for t in tokens[:-1])

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e-5")
        assert [t.text for t in tokens[:-1]] == ["1", "2.5", "1e-5"]

    def test_multichar_punctuation(self):
        tokens = tokenize("(| |) -o <>")
        assert [t.text for t in tokens[:-1]] == ["(|", "|)", "-o", "<>"]

    def test_comments_are_skipped(self):
        tokens = tokenize("x # a comment\ny // another\nz")
        assert [t.text for t in tokens[:-1]] == ["x", "y", "z"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("x\n  y")
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            tokenize("x $ y")


class TestTypeParser:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("num", T.NUM),
            ("unit", T.UNIT),
            ("bool", T.bool_type()),
            ("M[eps]num", T.Monadic(EPS, T.NUM)),
            ("M[2*eps]num", T.Monadic(2 * EPS, T.NUM)),
            ("![2.0]num", T.Bang(2, T.NUM)),
            ("![0.5]num", T.Bang(Fraction(1, 2), T.NUM)),
            ("![inf]num", T.Bang(INFINITY, T.NUM)),
            ("(num, num)", T.TensorProduct(T.NUM, T.NUM)),
            ("<num, num>", T.WithProduct(T.NUM, T.NUM)),
            ("num + unit", T.SumType(T.NUM, T.UNIT)),
            ("num -o num", T.Arrow(T.NUM, T.NUM)),
            ("num -o num -o num", T.Arrow(T.NUM, T.Arrow(T.NUM, T.NUM))),
            ("![2]M[eps]num", T.Bang(2, T.Monadic(EPS, T.NUM))),
            ("(num -o num)", T.Arrow(T.NUM, T.NUM)),
            ("(num, num) -o M[eps]num", T.Arrow(T.TensorProduct(T.NUM, T.NUM), T.Monadic(EPS, T.NUM))),
        ],
    )
    def test_types(self, source, expected):
        assert parse_type(source) == expected

    def test_bad_type(self):
        with pytest.raises(ParseError):
            parse_type("M[eps")

    @pytest.mark.parametrize(
        "source, column",
        [("num -o M[]num", 8), ("num -o ![eps eps]num", 8), ("num -o M[2 * * eps]num", 8)],
    )
    def test_bad_grade_annotation_is_a_located_parse_error(self, source, column):
        with pytest.raises(ParseError) as info:
            parse_type(source)
        assert "invalid grade annotation" in str(info.value)
        assert (info.value.line, info.value.column) == (1, column)

    def test_bad_box_scale_is_a_located_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_program("function f (x: num) : num {\n  let [y] = [x]{eps eps};\n  y\n}\n")
        assert "invalid grade annotation" in str(info.value)
        assert (info.value.line, info.value.column) == (2, 16)


class TestTermParser:
    def test_number_literal(self):
        term = parse_term("3.5")
        assert isinstance(term, A.Const) and term.value == Fraction(7, 2)

    def test_primitive_application(self):
        term = parse_term("mul (x, y)")
        assert isinstance(term, A.Op) and term.name == "mul"
        assert isinstance(term.value, A.TensorPair)

    def test_with_pair_argument(self):
        term = parse_term("add (|x, y|)")
        assert isinstance(term.value, A.WithPair)

    def test_sqrt_is_auto_boxed(self):
        term = parse_term("sqrt x")
        assert isinstance(term, A.Op) and isinstance(term.value, A.Box)
        assert term.value.scale == Fraction(1, 2)

    def test_rnd_and_ret(self):
        assert isinstance(parse_term("rnd x"), A.Rnd)
        assert isinstance(parse_term("ret x"), A.Ret)

    def test_plain_let_statement(self):
        term = parse_term("s = mul (x, x); rnd s")
        assert isinstance(term, A.Let)
        assert isinstance(term.body, A.Rnd)

    def test_monadic_let_statement(self):
        term = parse_term("let a = v; ret a")
        assert isinstance(term, A.LetBind)

    def test_let_box_statement(self):
        term = parse_term("let [y] = x; mul (y, y)")
        assert isinstance(term, A.LetBox)

    def test_nested_call_gets_a_let(self):
        # rnd (mul (x, x)) requires let-insertion because rnd takes a value.
        term = parse_term("rnd (mul (x, x))")
        assert isinstance(term, A.Let)
        assert isinstance(term.body, A.Rnd)

    def test_curried_application(self):
        term = parse_term("f a b")
        # f a is not a value, so the parser inserts a let before applying to b.
        assert isinstance(term, A.Let)
        assert isinstance(term.body, A.App)

    def test_if_desugars_to_case(self):
        term = parse_term("if is_pos x then ret x else ret 1")
        # The guard computation is let-bound, the case consumes it.
        assert isinstance(term, A.Let)
        assert isinstance(term.body, A.Case)

    def test_box_literal_with_scale(self):
        term = parse_term("[x]{2}")
        assert isinstance(term, A.Box) and term.scale == 2

    def test_unit_literal(self):
        assert isinstance(parse_term("<>"), A.UnitVal)

    def test_booleans(self):
        assert isinstance(parse_term("true"), A.Inl)
        assert isinstance(parse_term("false"), A.Inr)

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError):
            parse_term("mul (x,")


class TestProgramParser:
    SOURCE = """
    # The fused multiply-add of Fig. 8.
    function FMA (x: num) (y: num) (z: num) : M[eps]num {
      a = mul (x, y);
      b = add (|a, z|);
      rnd b
    }
    function twice (x: num) : M[2*eps]num {
      let a = FMA x 1 1;
      s = mul (a, 1);
      rnd s
    }
    """

    def test_definitions_are_recorded(self):
        program = parse_program(self.SOURCE)
        assert program.names() == ["FMA", "twice"]
        fma = program.definition("FMA")
        assert fma.arity == 3
        assert fma.return_annotation == T.Monadic(EPS, T.NUM)

    def test_term_for_includes_dependencies(self):
        program = parse_program(self.SOURCE)
        term = program.term_for("twice")
        assert isinstance(term, A.Let)  # FMA definition wrapped around
        assert A.free_variables(term) == set()

    def test_term_for_leaf_function_has_no_wrapping(self):
        program = parse_program(self.SOURCE)
        term = program.term_for("FMA")
        assert isinstance(term, A.Lambda)

    def test_main_term_defaults_to_last_definition(self):
        program = parse_program(self.SOURCE)
        main = program.main_term()
        assert A.free_variables(main) == set()

    def test_program_with_trailing_expression(self):
        program = parse_program(self.SOURCE + "\nFMA 2 3 4\n")
        assert program.main is not None
        assert A.free_variables(program.main_term()) == set()

    def test_unknown_definition_lookup(self):
        program = parse_program(self.SOURCE)
        with pytest.raises(KeyError):
            program.definition("nope")

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse_program("").main_term()

    def test_parsed_function_typechecks(self):
        program = parse_program(self.SOURCE)
        result = infer(program.term_for("FMA"), {})
        assert str(result.type) == "(num -o (num -o (num -o M[eps]num)))"
