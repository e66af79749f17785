"""Tests for the term syntax: values, free variables, substitution, printing."""

from fractions import Fraction

import pytest

from repro.core import ast as A
from repro.core.types import NUM


def _lambda_identity() -> A.Lambda:
    return A.Lambda("x", NUM, A.Var("x"))


class TestValues:
    def test_simple_values(self):
        assert A.is_value(A.Var("x"))
        assert A.is_value(A.UnitVal())
        assert A.is_value(A.Const(3))
        assert A.is_value(_lambda_identity())
        assert A.is_value(A.Err())

    def test_structured_values(self):
        assert A.is_value(A.WithPair(A.Var("x"), A.Const(1)))
        assert A.is_value(A.TensorPair(A.Var("x"), A.Var("y")))
        assert A.is_value(A.Inl(A.UnitVal()))
        assert A.is_value(A.Box(A.Var("x"), 2))
        assert A.is_value(A.Rnd(A.Const(1)))
        assert A.is_value(A.Ret(A.Var("x")))

    def test_blocked_let_bind_is_a_value(self):
        term = A.LetBind("y", A.Rnd(A.Const(1)), A.Ret(A.Var("y")))
        assert A.is_value(term)

    def test_non_values(self):
        assert not A.is_value(A.App(_lambda_identity(), A.Const(1)))
        assert not A.is_value(A.Op("add", A.WithPair(A.Const(1), A.Const(2))))
        assert not A.is_value(A.Let("x", A.Const(1), A.Var("x")))
        assert not A.is_value(A.LetBind("y", A.Ret(A.Const(1)), A.Ret(A.Var("y"))))

    def test_const_stores_exact_fraction(self):
        assert A.Const("0.1").value == Fraction(1, 10)
        assert A.Const(3).value == Fraction(3)

    def test_proj_index_validation(self):
        with pytest.raises(ValueError):
            A.Proj(3, A.Var("p"))

    def test_boolean_encodings(self):
        assert isinstance(A.true_value(), A.Inl)
        assert isinstance(A.false_value(), A.Inr)


class TestFreeVariables:
    def test_var(self):
        assert A.free_variables(A.Var("x")) == {"x"}

    def test_lambda_binds(self):
        term = A.Lambda("x", NUM, A.App(A.Var("f"), A.Var("x")))
        assert A.free_variables(term) == {"f"}

    def test_let_binds_body_only(self):
        term = A.Let("x", A.Var("y"), A.Var("x"))
        assert A.free_variables(term) == {"y"}

    def test_let_tensor_binds_two(self):
        term = A.LetTensor("a", "b", A.Var("p"), A.TensorPair(A.Var("a"), A.Var("b")))
        assert A.free_variables(term) == {"p"}

    def test_case_binds_per_branch(self):
        term = A.Case(A.Var("s"), "l", A.Var("l"), "r", A.Var("z"))
        assert A.free_variables(term) == {"s", "z"}


class TestSubstitution:
    def test_simple(self):
        term = A.substitute(A.Var("x"), {"x": A.Const(1)})
        assert isinstance(term, A.Const) and term.value == 1

    def test_shadowed_binder_not_substituted(self):
        term = A.Let("x", A.Const(1), A.Var("x"))
        result = A.substitute(term, {"x": A.Const(99)})
        assert isinstance(result.body, A.Var) and result.body.name == "x"

    def test_capture_avoidance(self):
        # (λy. x) with x := y must not capture the bound y.
        term = A.Lambda("y", NUM, A.Var("x"))
        result = A.substitute(term, {"x": A.Var("y")})
        assert isinstance(result, A.Lambda)
        assert result.parameter != "y"
        assert isinstance(result.body, A.Var) and result.body.name == "y"

    def test_substitutes_inside_operations(self):
        term = A.Op("add", A.WithPair(A.Var("x"), A.Var("y")))
        result = A.substitute(term, {"x": A.Const(1), "y": A.Const(2)})
        assert A.free_variables(result) == set()

    def test_substitution_in_case_branches(self):
        term = A.Case(A.Var("s"), "l", A.Var("z"), "r", A.Var("z"))
        result = A.substitute(term, {"z": A.Const(5)})
        assert A.free_variables(result) == {"s"}


class TestUtilities:
    def test_term_size_counts_nodes(self):
        term = A.Op("add", A.WithPair(A.Var("x"), A.Var("y")))
        assert A.term_size(term) == 4

    def test_count_rounds(self):
        term = A.LetBind("t", A.Rnd(A.Var("a")), A.Rnd(A.Var("t")))
        assert A.count_rounds(term) == 2

    def test_count_operations(self):
        term = A.Let("s", A.Op("mul", A.TensorPair(A.Var("x"), A.Var("x"))), A.Rnd(A.Var("s")))
        assert A.count_operations(term) == 1

    def test_pretty_round_trips_concepts(self):
        term = A.LetBind("t", A.Rnd(A.Var("a")), A.Ret(A.Var("t")))
        rendered = A.pretty(term)
        assert "let-bind" in rendered and "rnd a" in rendered

    def test_pretty_prints_constants_past_the_integer_digit_limit(self):
        assert A.pretty(A.Const(Fraction(10 ** 5000, 7))) == "1" + "0" * 5000 + "/7"

    def test_fresh_name_avoids_collisions(self):
        avoid = {"x", "x%0", "x%1"}
        name = A.fresh_name("x", avoid)
        assert name not in avoid
