"""Unit tests for the grade/sensitivity algebra (repro.core.grades)."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core.grades import (
    EPS,
    Grade,
    GradeError,
    INFINITY,
    ONE,
    SymbolRegistry,
    ZERO,
    as_grade,
    parse_grade,
)


class TestConstruction:
    def test_constant(self):
        grade = Grade.constant(3)
        assert grade.is_constant and grade.is_finite
        assert grade.evaluate() == 3

    def test_constant_fraction(self):
        assert Grade.constant(Fraction(1, 2)).evaluate() == Fraction(1, 2)

    def test_negative_constant_rejected(self):
        with pytest.raises(GradeError):
            Grade.constant(-1)

    def test_symbol(self):
        assert EPS.symbols() == ("eps",)
        assert EPS.evaluate() == Fraction(1, 2**52)

    def test_infinite(self):
        assert INFINITY.is_infinite
        assert not INFINITY.is_finite

    def test_zero_is_zero(self):
        assert ZERO.is_zero
        assert not ONE.is_zero

    def test_as_grade_from_int_float_fraction(self):
        assert as_grade(2) == Grade.constant(2)
        assert as_grade(0.5) == Grade.constant(Fraction(1, 2))
        assert as_grade(Fraction(3, 4)) == Grade.constant(Fraction(3, 4))

    def test_as_grade_from_string(self):
        assert as_grade("2*eps") == EPS * 2

    def test_as_grade_infinity_float(self):
        assert as_grade(float("inf")).is_infinite


class TestArithmetic:
    def test_addition(self):
        assert (EPS + EPS) == 2 * EPS

    def test_addition_with_constant(self):
        grade = EPS + 1
        assert grade.coefficient() == 1
        assert grade.coefficient("eps") == 1

    def test_multiplication_by_scalar(self):
        assert (3 * EPS).coefficient("eps") == 3

    def test_multiplication_of_symbols_is_polynomial(self):
        grade = EPS * EPS
        assert grade.coefficient("eps", "eps") == 1

    def test_zero_times_infinity_is_zero(self):
        assert (ZERO * INFINITY).is_zero
        assert (INFINITY * ZERO).is_zero

    def test_infinity_absorbs_addition(self):
        assert (INFINITY + EPS).is_infinite

    def test_infinity_absorbs_positive_multiplication(self):
        assert (INFINITY * ONE).is_infinite

    def test_distributes(self):
        left = (EPS + 1) * 2
        right = 2 * EPS + 2
        assert left == right


class TestOrdering:
    def test_constant_order(self):
        assert Grade.constant(1) <= Grade.constant(2)
        assert Grade.constant(2) > Grade.constant(1)

    def test_symbolic_order_uses_registry(self):
        assert EPS < ONE
        assert 2 * EPS < 3 * EPS

    def test_infinity_is_top(self):
        assert EPS <= INFINITY
        assert not (INFINITY <= EPS)
        assert INFINITY <= INFINITY

    def test_max_min(self):
        assert (2 * EPS).max(3 * EPS) == 3 * EPS
        assert (2 * EPS).min(3 * EPS) == 2 * EPS

    def test_numerically_equal(self):
        assert (2 * EPS).numerically_equal(Grade.constant(Fraction(1, 2**51)))
        assert not (2 * EPS) == Grade.constant(Fraction(1, 2**51))

    def test_unknown_symbol_comparison_raises(self):
        grade = Grade.symbol("mystery_symbol")
        with pytest.raises(GradeError):
            grade <= ONE


class TestHashingAndDisplay:
    def test_equal_grades_hash_equal(self):
        assert hash(EPS + EPS) == hash(2 * EPS)

    def test_str_constant(self):
        assert str(Grade.constant(3)) == "3"
        assert str(Grade.constant(Fraction(1, 2))) == "1/2"

    def test_str_symbolic(self):
        assert str(2 * EPS) == "2*eps"
        assert str(EPS) == "eps"
        assert str(INFINITY) == "inf"
        assert str(ZERO) == "0"

    def test_str_mixed(self):
        assert str(EPS + 3) == "3 + eps"

    def test_str_past_the_integer_digit_limit(self):
        # CPython's int-to-str limit (4,300 digits) stays in force; the
        # coefficients are printed without it.
        digits = "1" + "0" * 99999
        assert str(parse_grade("1e99999")) == digits
        assert str(parse_grade("1e99999*eps")) == f"{digits}*eps"
        assert str(Grade.constant(Fraction(10 ** 99999, 3))) == f"{digits}/3"


class TestParsing:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0", ZERO),
            ("1", ONE),
            ("eps", EPS),
            ("2*eps", 2 * EPS),
            ("2.0", Grade.constant(2)),
            ("0.5", Grade.constant(Fraction(1, 2))),
            ("3*eps + 4", 3 * EPS + 4),
            ("eps + eps", 2 * EPS),
            ("(1 + 1) * eps", 2 * EPS),
            ("inf", INFINITY),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_grade(text) == expected

    def test_parse_scientific(self):
        assert parse_grade("1e-3") == Grade.constant(Fraction("1e-3"))

    def test_parse_error_on_garbage(self):
        with pytest.raises(GradeError):
            parse_grade("2 *")

    def test_parse_error_on_bad_character(self):
        with pytest.raises(GradeError):
            parse_grade("2 @ eps")


class TestRegistry:
    def test_register_and_lookup(self):
        registry = SymbolRegistry()
        registry.register("u32", Fraction(1, 2**23))
        assert registry.value_of("u32") == Fraction(1, 2**23)

    def test_register_rejects_nonpositive(self):
        registry = SymbolRegistry()
        with pytest.raises(GradeError):
            registry.register("bad", 0)

    def test_unknown_symbol(self):
        registry = SymbolRegistry()
        with pytest.raises(GradeError):
            registry.value_of("nope")

    def test_evaluate_with_custom_registry(self):
        registry = SymbolRegistry({"eps": Fraction(1, 2**23)})
        assert (2 * EPS).evaluate(registry) == Fraction(1, 2**22)


class TestProperties:
    small = st.fractions(min_value=0, max_value=10)

    @given(small, small)
    def test_addition_commutative(self, a, b):
        assert Grade.constant(a) + Grade.constant(b) == Grade.constant(b) + Grade.constant(a)

    @given(small, small, small)
    def test_addition_associative(self, a, b, c):
        ga, gb, gc = map(Grade.constant, (a, b, c))
        assert (ga + gb) + gc == ga + (gb + gc)

    @given(small, small)
    def test_multiplication_matches_fraction_product(self, a, b):
        assert (Grade.constant(a) * Grade.constant(b)).evaluate() == a * b

    @given(small, small, small)
    def test_multiplication_distributes_over_addition(self, a, b, c):
        ga, gb, gc = map(Grade.constant, (a, b, c))
        assert ga * (gb + gc) == ga * gb + ga * gc

    @given(small)
    def test_order_reflexive(self, a):
        grade = Grade.constant(a)
        assert grade <= grade

    @given(small, small)
    def test_order_total(self, a, b):
        ga, gb = Grade.constant(a), Grade.constant(b)
        assert ga <= gb or gb <= ga
