"""Tests for the expression IR, the FPCore parser and the Λnum compiler."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ast as A
from repro.core import types as T
from repro.core.grades import EPS
from repro.core.inference import infer
from repro.core.semantics import run_both
from repro.core.semantics.evaluator import build_environment
from repro.floats.standard_model import StandardModel
from repro.frontend import expr as E
from repro.frontend.compiler import CompileError, compile_expression
from repro.frontend.fpcore import parse_fpcore, parse_sexpr

positive = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)).filter(lambda q: q > 0)


class TestExpressionIR:
    def test_operator_sugar(self):
        x = E.Var("x")
        expr = (x + 1) * x
        assert isinstance(expr, E.Mul) and isinstance(expr.left, E.Add)

    def test_free_variables_in_order(self):
        expr = E.Add(E.Var("b"), E.Mul(E.Var("a"), E.Var("b")))
        assert E.free_variables(expr) == ("b", "a")

    def test_operation_count(self):
        expr = E.Sqrt(E.Add(E.Mul(E.Var("x"), E.Var("x")), E.Var("y")))
        assert E.operation_count(expr) == 3

    def test_fma_counts_as_one_rounded_operation(self):
        assert E.operation_count(E.Fma(E.Var("a"), E.Var("x"), E.Var("b"))) == 1

    def test_to_string_prints_constants_past_the_integer_digit_limit(self):
        expr = E.Add(E.Var("x"), E.Const(Fraction(10 ** 5000)))
        assert E.to_string(expr) == "(x + 1" + "0" * 5000 + ")"

    def test_evaluate_exact(self):
        expr = E.Div(E.Var("x"), E.Add(E.Var("x"), E.Var("y")))
        value = E.evaluate_exact(expr, {"x": 1, "y": 3})
        assert value == Fraction(1, 4)

    def test_evaluate_exact_conditional(self):
        expr = E.Cond(E.Comparison("<", E.Var("x"), E.Const(1)), E.Var("x"), E.Const(1))
        assert E.evaluate_exact(expr, {"x": Fraction(1, 2)}) == Fraction(1, 2)
        assert E.evaluate_exact(expr, {"x": Fraction(2)}) == Fraction(1)

    def test_evaluate_fp_applies_rounding(self):
        expr = E.Add(E.Var("x"), E.Var("y"))
        exact = E.evaluate_exact(expr, {"x": "0.1", "y": "0.2"})
        approx = E.evaluate_fp(expr, {"x": "0.1", "y": "0.2"})
        assert approx != exact
        assert abs(approx - exact) / exact < Fraction(1, 2**50)

    def test_differentiate_product_rule(self):
        x = E.Var("x")
        expr = E.Mul(x, x)
        derivative = E.differentiate(expr, x)
        assert E.evaluate_exact(derivative, {"x": 5}) == 10

    def test_differentiate_with_respect_to_subexpression(self):
        inner = E.Add(E.Var("x"), E.Var("y"))
        expr = E.Sqrt(inner)
        derivative = E.differentiate(expr, inner)
        value = E.evaluate_exact(derivative, {"x": 2, "y": 2})
        assert value == Fraction(1, 4)  # 1 / (2 * sqrt(4))

    def test_differentiate_division(self):
        x, y = E.Var("x"), E.Var("y")
        derivative = E.differentiate(E.Div(x, y), y)
        assert E.evaluate_exact(derivative, {"x": 4, "y": 2}) == -1

    def test_to_string(self):
        expr = E.Div(E.Const(1), E.Sqrt(E.Var("x")))
        assert str(expr) == "(1 / sqrt(x))"


class TestFPCoreParser:
    def test_sexpr_reader(self):
        assert parse_sexpr("(+ x 1)") == ["+", "x", Fraction(1)]
        assert parse_sexpr("(a (b c) 2.5)") == ["a", ["b", "c"], Fraction("2.5")]

    def test_basic_core(self):
        core = parse_fpcore("(FPCore (x y) :name \"hypot\" (sqrt (+ (* x x) (* y y))))")
        assert core.arguments == ["x", "y"]
        assert core.name == "hypot"
        assert isinstance(core.expression, E.Sqrt)

    def test_precondition_ranges(self):
        core = parse_fpcore(
            "(FPCore (x) :pre (and (<= 0.1 x) (<= x 1000)) (+ x 1))"
        )
        assert core.input_ranges == {"x": (Fraction("0.1"), Fraction(1000))}

    def test_let_bindings_are_inlined(self):
        core = parse_fpcore("(FPCore (x) (let ((t (* x x))) (+ t 1)))")
        assert E.operation_count(core.expression) == 2
        assert E.evaluate_exact(core.expression, {"x": 3}) == 10

    def test_conditional(self):
        core = parse_fpcore("(FPCore (x) (if (< x 1) x (sqrt x)))")
        assert isinstance(core.expression, E.Cond)

    def test_variadic_addition(self):
        core = parse_fpcore("(FPCore (a b c) (+ a b c))")
        assert E.operation_count(core.expression) == 2

    def test_fma(self):
        core = parse_fpcore("(FPCore (a x b) (fma a x b))")
        assert isinstance(core.expression, E.Fma)

    def test_unsupported_operator(self):
        with pytest.raises(Exception):
            parse_fpcore("(FPCore (x) (sin x))")


class TestCompiler:
    def test_single_addition(self):
        program = compile_expression(E.Add(E.Var("x"), E.Var("y")))
        assert program.skeleton == {"x": T.NUM, "y": T.NUM}
        result = infer(program.term, program.skeleton)
        assert result.type == T.Monadic(EPS, T.NUM)

    def test_each_operation_rounds_once(self):
        expr = E.Sqrt(E.Add(E.Mul(E.Var("x"), E.Var("x")), E.Mul(E.Var("y"), E.Var("y"))))
        program = compile_expression(expr)
        assert A.count_rounds(program.term) == 4

    def test_hypot_grade(self):
        expr = E.Sqrt(E.Add(E.Mul(E.Var("x"), E.Var("x")), E.Mul(E.Var("y"), E.Var("y"))))
        program = compile_expression(expr)
        result = infer(program.term, program.skeleton)
        assert result.error_grade == Fraction(5, 2) * EPS

    def test_fma_single_rounding(self):
        program = compile_expression(E.Fma(E.Var("a"), E.Var("x"), E.Var("b")))
        assert A.count_rounds(program.term) == 1
        result = infer(program.term, program.skeleton)
        assert result.error_grade == EPS

    def test_unrounded_compilation(self):
        expr = E.Mul(E.Var("x"), E.Var("x"))
        program = compile_expression(expr, rounded=False)
        result = infer(program.term, program.skeleton)
        assert result.type == T.NUM
        assert result.sensitivity_of("x") == 2

    def test_constants_are_embedded(self):
        program = compile_expression(E.Add(E.Var("x"), E.Const(1)))
        result = infer(program.term, program.skeleton)
        assert result.error_grade == EPS

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(CompileError):
            compile_expression(E.Add(E.Var("x"), E.Const(0)))

    def test_subtraction_rejected(self):
        with pytest.raises(CompileError):
            compile_expression(E.Sub(E.Var("x"), E.Var("y")))

    def test_conditional_at_root(self):
        expr = E.Cond(E.Comparison(">", E.Var("a"), E.Var("b")), E.Var("a"), E.Var("b"))
        program = compile_expression(expr)
        result = infer(program.term, program.skeleton)
        assert isinstance(result.type, T.Monadic)

    def test_nested_conditional_rejected(self):
        inner = E.Cond(E.Comparison(">", E.Var("a"), E.Var("b")), E.Var("a"), E.Var("b"))
        with pytest.raises(CompileError):
            compile_expression(E.Add(inner, E.Var("c")))

    def test_guard_must_compare_inputs(self):
        guard = E.Comparison(">", E.Add(E.Var("a"), E.Var("b")), E.Var("b"))
        expr = E.Cond(guard, E.Var("a"), E.Var("b"))
        with pytest.raises(CompileError):
            compile_expression(expr)

    @given(
        x=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        y=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_compiled_fp_semantics_matches_standard_model(self, x, y):
        """The Λnum FP evaluation of a compiled program equals the expression's
        standard-model evaluation (same rounding at every operation).  Inputs
        are binary64 values so that neither side rounds them on entry."""
        x, y = Fraction(x), Fraction(y)
        expr = E.Div(E.Add(E.Mul(E.Var("x"), E.Var("x")), E.Var("y")), E.Var("y"))
        program = compile_expression(expr)
        environment = build_environment({"x": x, "y": y}, program.skeleton)
        ideal, approx = run_both(program.term, environment)
        assert ideal == E.evaluate_exact(expr, {"x": x, "y": y})
        assert approx == E.evaluate_fp(expr, {"x": x, "y": y}, StandardModel())
