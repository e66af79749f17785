"""Exact rational helpers used throughout the error analysis.

Verifying the paper's bounds requires *exact* arithmetic: the relative
precision metric is ``RP(x, x̃) = |ln(x / x̃)|`` and the distances involved are
on the order of ``2^-52``, far below what a double-precision ``math.log`` can
resolve for ratios near 1.  This module provides:

* :func:`floor_log2` — exact ``⌊log2 x⌋`` of a positive rational;
* :func:`sqrt_round` — the square root of a positive rational correctly
  rounded to ``p`` significant bits in any IEEE rounding direction;
* :func:`log_enclosure` — a rational interval guaranteed to contain ``ln x``;
* :func:`log_ratio_enclosure` — a rational interval containing ``ln(a/b)``;
* :func:`rp_distance_enclosure` — a rational interval containing
  ``RP(x, y) = |ln(x / y)|``;
* :func:`rp_distance_max_upper` — the largest upper end of
  :func:`rp_distance_enclosure` over many pairs, computed lazily;
* :func:`exp_enclosure` — a rational interval containing ``exp x``;
* :func:`expm1_upper` / :func:`expm1_lower` — rational bounds on ``e^x - 1``
  used to convert RP bounds into relative-error bounds (Equation (8));
* :func:`exact_str` — ``str`` of a rational of any size, for reports.

Every bound returned here is *rigorous*: truncation errors of the underlying
series are accounted for with explicit rational remainder terms.

The logarithms come from the ``atanh`` series over exact rationals.  Its
partial sum is accumulated over one common integer denominator and reduced
once, so a 40-term series costs two big-number ``gcd`` calls rather than two
per term; the reduced :class:`Fraction` is unique, so the result is the same
one the term-by-term sum gives.  The soundness sweeps keep only the largest
RP distance per input point, and :func:`rp_distance_max_upper` runs the full
series only for the runs whose cheap few-term enclosure could still hold
that maximum; the value it returns is still the exact 40-term upper end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Dict, Iterable, Tuple

__all__ = [
    "floor_log2",
    "sqrt_round",
    "sqrt_is_exact",
    "log_enclosure",
    "log_ratio_enclosure",
    "exp_enclosure",
    "expm1_upper",
    "expm1_lower",
    "rp_distance_enclosure",
    "rp_distance_max_upper",
    "exact_str",
    "DEFAULT_SERIES_TERMS",
]

DEFAULT_SERIES_TERMS = 40
#: Series terms of the screening pass in :func:`rp_distance_max_upper`.
SCREEN_SERIES_TERMS = 4


def _pow2(exponent: int) -> Fraction:
    if exponent >= 0:
        return Fraction(1 << exponent)
    return Fraction(1, 1 << (-exponent))


def exact_str(value: Fraction) -> str:
    """``str(value)``, also for numerators and denominators of any length.

    CPython refuses to convert integers of more than
    ``sys.get_int_max_str_digits()`` digits (4,300 by default) to ``str``.
    That limit guards ``repro serve`` against quadratic parsing of huge
    literals, so it stays in place; the exact RP distances of long programs
    and huge grade literals pass it, and are printed through
    :func:`_decimal_str` instead.  Values under the limit keep their ``str``
    bytes.
    """
    try:
        return str(value)
    except ValueError:
        numerator = _decimal_str(value.numerator)
        if value.denominator == 1:
            return numerator
        return f"{numerator}/{_decimal_str(value.denominator)}"


def _decimal_str(number: int) -> str:
    """``str(number)`` without the digit limit, through :mod:`decimal`.

    ``decimal.Decimal(number)`` is quadratic in the digit count (19 s for
    a million digits on a 2-core VM).  Splitting ``number`` into bit
    halves and recombining them with :mod:`decimal`'s exact big-number
    multiplication takes 0.4 s there.
    """
    import decimal  # only reports this large need it

    powers: Dict[int, decimal.Decimal] = {}

    def power(bits: int) -> decimal.Decimal:
        """Exact ``2**bits``."""
        if bits not in powers:
            half = bits >> 1
            powers[bits] = (
                decimal.Decimal(2) ** bits if bits <= 128 else power(half) * power(bits - half)
            )
        return powers[bits]

    def convert(value: int, bits: int) -> decimal.Decimal:
        if bits <= 128:
            return decimal.Decimal(value)
        half = bits >> 1
        high = value >> half
        return convert(value - (high << half), half) + convert(high, bits - half) * power(half)

    magnitude = abs(number)
    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        digits = str(convert(magnitude, magnitude.bit_length()))
    return "-" + digits if number < 0 else digits


def floor_log2(value: Fraction) -> int:
    """Exact ``⌊log2 value⌋`` for a positive rational ``value``."""
    value = Fraction(value)
    if value <= 0:
        raise ValueError("floor_log2 requires a positive value")
    numerator, denominator = value.numerator, value.denominator
    # Initial guess from bit lengths, then correct by at most one step.
    estimate = numerator.bit_length() - denominator.bit_length()
    if _pow2(estimate) <= value:
        while _pow2(estimate + 1) <= value:
            estimate += 1
        return estimate
    while _pow2(estimate) > value:
        estimate -= 1
    return estimate


# ---------------------------------------------------------------------------
# Correctly rounded square roots of rationals
# ---------------------------------------------------------------------------


def sqrt_is_exact(value: Fraction) -> bool:
    """True when ``value`` has an exactly representable rational square root."""
    value = Fraction(value)
    if value < 0:
        return False
    if value == 0:
        return True
    num_root = isqrt(value.numerator)
    den_root = isqrt(value.denominator)
    return num_root * num_root == value.numerator and den_root * den_root == value.denominator


def _sqrt_floor_scaled(value: Fraction, scale_exponent: int) -> Tuple[int, bool]:
    """``(⌊sqrt(value) * 2^scale_exponent⌋, exact?)`` using only integers."""
    if scale_exponent >= 0:
        scaled = value * Fraction(1 << (2 * scale_exponent))
    else:
        scaled = value / Fraction(1 << (-2 * scale_exponent))
    numerator, denominator = scaled.numerator, scaled.denominator
    # sqrt(N/D) = sqrt(N*D) / D, so the floor is isqrt(N*D) // D.
    product = numerator * denominator
    root = isqrt(product)
    floor_value = root // denominator
    exact = root * root == product and root % denominator == 0
    return floor_value, exact


def sqrt_round(value: Fraction, precision: int = 256, mode: str = "RN") -> Fraction:
    """The square root of ``value`` rounded to ``precision`` significant bits.

    ``mode`` is one of ``"RU"`` (towards +∞), ``"RD"`` (towards −∞), ``"RZ"``
    (towards zero; identical to RD for non-negative arguments) and ``"RN"``
    (to nearest, ties to even).  The result is exact whenever the true square
    root fits in ``precision`` bits.
    """
    value = Fraction(value)
    if value < 0:
        raise ValueError("sqrt_round requires a non-negative argument")
    if value == 0:
        return Fraction(0)
    if sqrt_is_exact(value):
        return Fraction(isqrt(value.numerator), isqrt(value.denominator))

    # Exponent e with 2^e <= sqrt(value) < 2^(e+1) i.e. 4^e <= value < 4^(e+1).
    exponent = floor_log2(value) // 2 if floor_log2(value) >= 0 else -((-floor_log2(value) + 1) // 2)
    # Recompute robustly (the integer-division shortcut above is only a guess).
    while _pow2(2 * exponent) > value:
        exponent -= 1
    while _pow2(2 * (exponent + 1)) <= value:
        exponent += 1

    # We round to the grid of spacing 2^(exponent - precision + 1).
    scale = precision - 1 - exponent
    floor_mantissa, exact = _sqrt_floor_scaled(value, scale)
    quantum = _pow2(-scale)

    if exact:
        return Fraction(floor_mantissa) * quantum

    if mode in ("RD", "RZ"):
        mantissa = floor_mantissa
    elif mode == "RU":
        mantissa = floor_mantissa + 1
    elif mode == "RN":
        # Compare value against the square of the midpoint (m + 1/2) * quantum.
        midpoint_num = 2 * floor_mantissa + 1
        # value ? (midpoint_num/2 * quantum)^2  <=>  4 * value ? midpoint_num^2 * quantum^2
        lhs = 4 * value
        rhs = Fraction(midpoint_num * midpoint_num) * quantum * quantum
        if lhs > rhs:
            mantissa = floor_mantissa + 1
        elif lhs < rhs:
            mantissa = floor_mantissa
        else:
            mantissa = floor_mantissa if floor_mantissa % 2 == 0 else floor_mantissa + 1
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    return Fraction(mantissa) * quantum


# ---------------------------------------------------------------------------
# Rigorous enclosures of ln and exp
# ---------------------------------------------------------------------------

# ln 2 enclosures from the atanh series at t = 2, one per term count: a
# cheap screening pass must never hand its low-precision ln 2 to a later
# full-precision log_enclosure.
_LN2_CACHE: Dict[int, Tuple[Fraction, Fraction]] = {}


def _atanh_series_enclosure(z: Fraction, terms: int) -> Tuple[Fraction, Fraction]:
    """Enclosure of ``atanh(z) = Σ_{k odd} z^k / k`` for ``|z| < 1``.

    With ``z = p / q`` and ``n = terms``, the partial sum
    ``S_n = Σ_{i<n} p^(2i+1) / ((2i+1) q^(2i+1))`` is accumulated as one
    integer numerator over ``L q^(2n)``, where ``L`` is the lcm of the odd
    divisors ``1, 3, …, 2n-1``, and reduced once at the end.  The remainder
    satisfies ``|Σ_{i>=n} z^(2i+1) / (2i+1)| <= R_n = |z|^(2n+1) / ((2n+1) (1 - z^2))``,
    and the returned interval is ``[S_n, S_n + R_n]`` for ``z >= 0`` and
    ``[S_n - R_n, S_n]`` otherwise.
    """
    if not (-1 < z < 1):
        raise ValueError("atanh series requires |z| < 1")
    p, q = z.numerator, z.denominator
    p_squared, q_squared = p * p, q * q
    common = lcm(*range(1, 2 * terms, 2))
    numerator = 0
    power = p  # p^(2i+1)
    for i in range(terms):
        # Horner over q^2: term i ends up multiplied by q^(2(n-1-i)).
        numerator = numerator * q_squared + (common // (2 * i + 1)) * power
        power *= p_squared
    # S_n = numerator q / (L q^(2n)); ``power`` is now p^(2n+1), which
    # carries the sign of z, so S_n ± R_n (the outer end) is one fraction.
    numerator *= q
    denominator = common * q_squared**terms
    odd = 2 * terms + 1
    gap = q_squared - p_squared  # q^2 (1 - z^2) > 0
    total = Fraction(numerator, denominator)
    outer = Fraction(
        numerator * odd * gap + common * power * q, denominator * odd * gap
    )
    if z >= 0:
        return total, outer
    return outer, total


def _ln2_enclosure(terms: int = DEFAULT_SERIES_TERMS) -> Tuple[Fraction, Fraction]:
    cached = _LN2_CACHE.get(terms)
    if cached is None:
        # ln 2 = 2 atanh(1/3)
        low, high = _atanh_series_enclosure(Fraction(1, 3), terms)
        cached = _LN2_CACHE[terms] = (2 * low, 2 * high)
    return cached


def log_enclosure(value: Fraction, terms: int = DEFAULT_SERIES_TERMS) -> Tuple[Fraction, Fraction]:
    """A rational interval ``[lo, hi]`` with ``lo <= ln(value) <= hi``.

    Memoized: soundness sweeps evaluate the same handful of ratios (ideal
    vs floating-point values of a benchmark) thousands of times, and the
    atanh series over exact rationals is by far the dominating cost.
    """
    return _log_enclosure_cached(Fraction(value), terms)


@lru_cache(maxsize=16384)
def _log_enclosure_cached(value: Fraction, terms: int) -> Tuple[Fraction, Fraction]:
    if value <= 0:
        raise ValueError("log_enclosure requires a positive argument")
    # Argument reduction: value = 2^k * t with t in [3/4, 3/2).
    k = 0
    t = value
    while t >= Fraction(3, 2):
        t /= 2
        k += 1
    while t < Fraction(3, 4):
        t *= 2
        k -= 1
    # ln t = 2 atanh((t - 1) / (t + 1))
    z = (t - 1) / (t + 1)
    low_t, high_t = _atanh_series_enclosure(z, terms)
    low_t, high_t = 2 * low_t, 2 * high_t
    ln2_low, ln2_high = _ln2_enclosure(terms)
    if k >= 0:
        return low_t + k * ln2_low, high_t + k * ln2_high
    return low_t + k * ln2_high, high_t + k * ln2_low


def log_ratio_enclosure(
    numerator: Fraction, denominator: Fraction, terms: int = DEFAULT_SERIES_TERMS
) -> Tuple[Fraction, Fraction]:
    """A rational interval containing ``ln(numerator / denominator)``."""
    ratio = Fraction(numerator) / Fraction(denominator)
    return log_enclosure(ratio, terms)


def rp_distance_enclosure(
    x: Fraction, y: Fraction, terms: int = DEFAULT_SERIES_TERMS
) -> Tuple[Fraction, Fraction]:
    """A rational interval containing ``RP(x, y) = |ln(x / y)|`` for ``x, y > 0``.

    Memoized (the arguments are normalized to :class:`Fraction`, which
    hashes by exact value, so equal distances always share one entry).
    """
    return _rp_distance_cached(Fraction(x), Fraction(y), terms)


@lru_cache(maxsize=16384)
def _rp_distance_cached(x: Fraction, y: Fraction, terms: int) -> Tuple[Fraction, Fraction]:
    if x <= 0 or y <= 0:
        raise ValueError("the RP metric requires strictly positive values")
    low, high = log_ratio_enclosure(x, y, terms)
    if low >= 0:
        return low, high
    if high <= 0:
        return -high, -low
    return Fraction(0), max(-low, high)


def rp_distance_max_upper(pairs: Iterable[Tuple[Fraction, Fraction]]) -> Fraction:
    """``max(rp_distance_enclosure(x, y)[1] for x, y in pairs)``, lazily.

    The soundness sweeps measure many runs per input point but keep only
    the largest upper end, so the full series runs only where it can be
    that maximum.  Every distinct pair first gets a cheap enclosure
    ``[lo_i, hi_i]`` at ``m = SCREEN_SERIES_TERMS`` terms; the full
    ``n = DEFAULT_SERIES_TERMS``-term upper end is then computed only for
    the pairs with ``hi_i >= max_j lo_j``.  The empty maximum is ``0``.

    Why this is exact: the enclosures nest as the term count grows.  For
    ``z >= 0`` write the remainder as a series,
    ``R_n = z^(2n+1) / ((2n+1) (1 - z^2)) = Σ_{j>=n} z^(2j+1) / (2n+1)``.
    For ``m <= n``, ``S_m <= S_n`` (the extra terms are non-negative) and
    ``S_n + R_n = S_m + Σ_{m<=i<n} z^(2i+1) / (2i+1) + Σ_{j>=n} z^(2j+1) / (2n+1)
    <= S_m + Σ_{j>=m} z^(2j+1) / (2m+1) = S_m + R_m``, so the ``n``-term
    atanh interval lies inside the ``m``-term one (``z < 0`` is the
    mirror image).  The ln 2 interval nests the same way, ``ln t + k ln 2``
    is formed by interval arithmetic (monotone under inclusion) and the
    final ``|·|`` maps an interval to its exact image (also monotone).  So
    the ``n``-term interval of every pair lies inside its ``m``-term one, and its upper end ``u_i`` satisfies ``lo_i <= u_i <= hi_i``.  If
    pair ``k`` attains ``max_i u_i``, then ``hi_k >= u_k >= u_j >= lo_j``
    for every ``j``, so ``k`` survives the screen and the maximum over the
    survivors is the maximum over all pairs.
    """
    distinct = list(dict.fromkeys((Fraction(x), Fraction(y)) for x, y in pairs))
    if not distinct:
        return Fraction(0)
    cheap = [rp_distance_enclosure(x, y, SCREEN_SERIES_TERMS) for x, y in distinct]
    floor = max(low for low, _high in cheap)
    return max(
        rp_distance_enclosure(x, y)[1]
        for (x, y), (_low, high) in zip(distinct, cheap)
        if high >= floor
    )


def exp_enclosure(value: Fraction, terms: int = DEFAULT_SERIES_TERMS) -> Tuple[Fraction, Fraction]:
    """A rational interval ``[lo, hi]`` with ``lo <= exp(value) <= hi``.

    Memoized for the same reason as :func:`log_enclosure`: the RP →
    relative-error conversion (Equation (8)) evaluates ``expm1`` at the
    same certified bounds for every row of a table.
    """
    return _exp_enclosure_cached(Fraction(value), terms)


@lru_cache(maxsize=16384)
def _exp_enclosure_cached(value: Fraction, terms: int) -> Tuple[Fraction, Fraction]:
    # Argument reduction: exp(x) = exp(x / 2^k)^(2^k) with |x / 2^k| <= 1/2.
    k = 0
    reduced = value
    while abs(reduced) > Fraction(1, 2):
        reduced /= 2
        k += 1
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, terms + 1):
        term = term * reduced / i
        total += term
    # Remainder for |reduced| <= 1/2: |R| <= |term| * |reduced| / (1 - |reduced|) <= |term|.
    remainder = abs(term) * abs(reduced) / (1 - abs(reduced))
    low, high = total - remainder, total + remainder
    if low < 0:
        low = Fraction(0)
    for _ in range(k):
        low, high = low * low, high * high
    return low, high


def expm1_upper(value: Fraction, terms: int = DEFAULT_SERIES_TERMS) -> Fraction:
    """A rational upper bound on ``e^value - 1`` (for converting RP to relative error)."""
    _, high = exp_enclosure(value, terms)
    return high - 1


def expm1_lower(value: Fraction, terms: int = DEFAULT_SERIES_TERMS) -> Fraction:
    """A rational lower bound on ``e^value - 1``."""
    low, _ = exp_enclosure(value, terms)
    return low - 1
