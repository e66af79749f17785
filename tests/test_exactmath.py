"""Tests for the exact rational arithmetic helpers (sqrt, log, exp enclosures)."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.floats import exactmath
from repro.floats.exactmath import (
    exact_str,
    exp_enclosure,
    expm1_lower,
    expm1_upper,
    floor_log2,
    log_enclosure,
    log_ratio_enclosure,
    rp_distance_enclosure,
    rp_distance_max_upper,
    sqrt_is_exact,
    sqrt_round,
)

positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)).filter(
    lambda q: q > 0
)
small_rationals = st.fractions(min_value=Fraction(-2), max_value=Fraction(2))


class TestFloorLog2:
    def test_powers_of_two(self):
        assert floor_log2(Fraction(1)) == 0
        assert floor_log2(Fraction(2)) == 1
        assert floor_log2(Fraction(1, 2)) == -1
        assert floor_log2(Fraction(1, 4)) == -2

    def test_non_powers(self):
        assert floor_log2(Fraction(3)) == 1
        assert floor_log2(Fraction(5, 7)) == -1
        assert floor_log2(Fraction(1023)) == 9
        assert floor_log2(Fraction(1025)) == 10

    @given(value=positive_rationals)
    @settings(max_examples=80, deadline=None)
    def test_defining_property(self, value):
        exponent = floor_log2(value)
        assert Fraction(2) ** exponent <= value < Fraction(2) ** (exponent + 1)


class TestSqrtRound:
    def test_exact_squares(self):
        assert sqrt_round(Fraction(9, 4), 53, "RN") == Fraction(3, 2)
        assert sqrt_is_exact(Fraction(49))
        assert not sqrt_is_exact(Fraction(2))

    def test_directed_modes_bracket_the_root(self):
        for value in (Fraction(2), Fraction(1, 3), Fraction(12345, 67)):
            down = sqrt_round(value, 100, "RD")
            up = sqrt_round(value, 100, "RU")
            assert down * down <= value <= up * up
            assert down < up

    def test_nearest_is_between_directed(self):
        value = Fraction(2)
        down = sqrt_round(value, 60, "RD")
        up = sqrt_round(value, 60, "RU")
        nearest = sqrt_round(value, 60, "RN")
        assert nearest in (down, up)

    def test_precision_controls_error(self):
        value = Fraction(2)
        coarse = sqrt_round(value, 10, "RD")
        fine = sqrt_round(value, 200, "RD")
        assert abs(fine * fine - 2) < abs(coarse * coarse - 2)

    def test_zero(self):
        assert sqrt_round(Fraction(0), 53, "RU") == 0

    @given(value=positive_rationals)
    @settings(max_examples=60, deadline=None)
    def test_relative_accuracy(self, value):
        result = sqrt_round(value, 80, "RN")
        # |result^2 - value| / value <= ~2^-78
        assert abs(result * result - value) / value <= Fraction(1, 2**77)

    @given(value=positive_rationals)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_math_sqrt(self, value):
        result = sqrt_round(value, 80, "RN")
        assert float(result) == pytest_approx(math.sqrt(float(value)))


def pytest_approx(x: float, rel: float = 1e-12) -> float:
    import pytest

    return pytest.approx(x, rel=rel)


class TestLogEnclosures:
    @given(value=positive_rationals)
    @settings(max_examples=60, deadline=None)
    def test_log_enclosure_contains_math_log(self, value):
        low, high = log_enclosure(value)
        assert low <= high
        assert float(low) <= math.log(float(value)) + 1e-12
        assert math.log(float(value)) - 1e-12 <= float(high)

    def test_log_of_one_is_zero(self):
        low, high = log_enclosure(Fraction(1))
        assert low <= 0 <= high
        assert high - low < Fraction(1, 10**20)

    def test_log_ratio(self):
        low, high = log_ratio_enclosure(Fraction(3), Fraction(2))
        assert float(low) <= math.log(1.5) <= float(high)

    def test_enclosure_width_is_tiny(self):
        low, high = log_enclosure(Fraction(12345, 678))
        assert high - low < Fraction(1, 10**30)

    @given(x=positive_rationals, y=positive_rationals)
    @settings(max_examples=60, deadline=None)
    def test_rp_distance_is_symmetric_and_contains_truth(self, x, y):
        low_xy, high_xy = rp_distance_enclosure(x, y)
        low_yx, high_yx = rp_distance_enclosure(y, x)
        truth = abs(math.log(float(x) / float(y)))
        assert float(low_xy) <= truth + 1e-9
        assert truth - 1e-9 <= float(high_xy)
        # Symmetry of the metric.
        assert abs(float(low_xy - low_yx)) < 1e-12
        assert low_xy >= 0

    def test_rp_distance_of_equal_points_is_zero(self):
        low, high = rp_distance_enclosure(Fraction(5, 3), Fraction(5, 3))
        assert low == 0 and high == 0

    def test_rp_distance_resolves_tiny_perturbations(self):
        # A relative perturbation of 2^-52 is far below what float log can
        # resolve; the rational enclosure pins it to ~40 decimal digits.
        x = Fraction(1, 3)
        y = x * (1 + Fraction(1, 2**52))
        low, high = rp_distance_enclosure(x, y)
        assert Fraction(1, 2**53) < low <= high < Fraction(1, 2**51)


class TestExpEnclosures:
    @given(value=small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_exp_enclosure_contains_math_exp(self, value):
        low, high = exp_enclosure(value)
        assert low <= high
        truth = math.exp(float(value))
        assert float(low) <= truth * (1 + 1e-12)
        assert truth * (1 - 1e-12) <= float(high)

    def test_exp_zero(self):
        low, high = exp_enclosure(Fraction(0))
        assert low <= 1 <= high

    def test_expm1_bounds_order(self):
        value = Fraction(1, 2**40)
        assert expm1_lower(value) <= expm1_upper(value)
        assert expm1_upper(value) >= value  # e^x - 1 >= x for x >= 0

    def test_expm1_matches_equation_8(self):
        # Equation (8): eps = e^alpha - 1 <= alpha / (1 - alpha).
        alpha = Fraction(3, 2**52)
        assert expm1_upper(alpha) <= alpha / (1 - alpha)


def reference_atanh_series(z, terms):
    """The term-by-term Fraction sum the integer series must reproduce."""
    total = Fraction(0)
    power = z
    z_squared = z * z
    k = 1
    for _ in range(terms):
        total += power / k
        power *= z_squared
        k += 2
    remainder = abs(power) / (k * (1 - z_squared))
    if z >= 0:
        return total, total + remainder
    return total - remainder, total


# Arguments of the series: |z| < 1, with long numerators and denominators
# like those of the RP ratios the soundness sweeps produce.
series_arguments = st.builds(
    lambda denominator, share: Fraction(share, denominator),
    st.integers(min_value=1, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=2**200),
).filter(lambda z: -1 < z < 1)

# (ideal, value) pairs near ratio 1, as a run of the semantics yields.
ideals = st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)).filter(
    lambda q: q > 0
)
perturbations = st.builds(
    lambda numerator, shift: Fraction(numerator, 2**shift),
    st.integers(min_value=-(2**20), max_value=2**20),
    st.integers(min_value=20, max_value=80),
)


def eager_max_upper(pairs):
    return max(rp_distance_enclosure(x, y)[1] for x, y in pairs)


class TestAtanhSeries:
    @given(z=series_arguments, terms=st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_integer_series_equals_fraction_loop(self, z, terms):
        low, high = exactmath._atanh_series_enclosure(z, terms)
        ref_low, ref_high = reference_atanh_series(z, terms)
        # Equal reduced fractions have equal numerators and denominators.
        assert (low.numerator, low.denominator) == (ref_low.numerator, ref_low.denominator)
        assert (high.numerator, high.denominator) == (
            ref_high.numerator,
            ref_high.denominator,
        )

    def test_zero_and_zero_terms(self):
        assert exactmath._atanh_series_enclosure(Fraction(0), 40) == (0, 0)
        z = Fraction(-1, 3)
        assert exactmath._atanh_series_enclosure(z, 0) == reference_atanh_series(z, 0)

    def test_ln2_cache_is_keyed_by_terms(self, monkeypatch):
        monkeypatch.setattr(exactmath, "_LN2_CACHE", {})
        exactmath._log_enclosure_cached.cache_clear()
        fresh = log_enclosure(Fraction(3))  # 3 = 2^2 * 3/4: uses ln 2
        # A cheap pass asks for ln 2 first; the full-precision log must
        # not pick up its low-precision enclosure.
        monkeypatch.setattr(exactmath, "_LN2_CACHE", {})
        exactmath._log_enclosure_cached.cache_clear()
        exactmath._ln2_enclosure(4)
        assert log_enclosure(Fraction(3)) == fresh


class TestLazyMaximum:
    @given(ideal=ideals, d=perturbations, cheap=st.integers(min_value=0, max_value=39))
    @settings(max_examples=60, deadline=None)
    def test_fewer_terms_contain_the_full_upper_end(self, ideal, d, cheap):
        value = ideal * (1 + d)
        assume(value > 0)
        _low, full_high = rp_distance_enclosure(ideal, value)
        low, high = rp_distance_enclosure(ideal, value, cheap)
        assert low <= full_high <= high

    @given(
        ideal=ideals,
        ds=st.lists(perturbations, min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_eager_maximum(self, ideal, ds, data):
        values = [ideal * (1 + d) for d in ds]
        # Symmetric pairs ideal·(1±d) and repeats of earlier runs.
        values += [ideal * (1 - d) for d in ds]
        values += data.draw(st.lists(st.sampled_from(values), max_size=4))
        pairs = [(ideal, value) for value in values if value > 0]
        if not pairs:
            return
        assert rp_distance_max_upper(pairs) == eager_max_upper(pairs)

    def test_exact_ties(self):
        # ideal/(1+d) and ideal·(1+d) sit at exactly the same RP distance,
        # so the screen cannot separate them; both get the full series.
        ideal = Fraction(1, 3)
        d = Fraction(1, 2**52)
        pairs = [(ideal, ideal * (1 + d)), (ideal, ideal / (1 + d)), (ideal, ideal)]
        assert rp_distance_enclosure(*pairs[0]) == rp_distance_enclosure(*pairs[1])
        assert rp_distance_max_upper(pairs) == eager_max_upper(pairs)
        assert rp_distance_max_upper(pairs * 3) == eager_max_upper(pairs)

    def test_far_ratios(self):
        # Ratios that need argument reduction (k != 0 uses ln 2).
        pairs = [
            (Fraction(1), Fraction(3)),
            (Fraction(5), Fraction(1, 7)),
            (Fraction(2), Fraction(1)),
        ]
        assert rp_distance_max_upper(pairs) == eager_max_upper(pairs)

    def test_empty_is_zero(self):
        assert rp_distance_max_upper([]) == 0


class TestExactStr:
    def test_small_values_keep_their_str(self):
        for value in (Fraction(0), Fraction(-7), Fraction(3, 2**60), Fraction(-5, 3)):
            assert exact_str(value) == str(value)

    @pytest.mark.parametrize("denominator", [1, 3**9000])
    def test_values_past_the_digit_limit(self, denominator):
        value = Fraction(-(7**9000) - 2, denominator)
        with pytest.raises(ValueError):
            str(value)
        text = exact_str(value)
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == str(value)
        finally:
            sys.set_int_max_str_digits(previous)
        # The process-wide limit is left in place.
        with pytest.raises(ValueError):
            str(value)
