"""Grades and sensitivities for the Λnum type system.

The typing rules of Λnum (Fig. 2 of the paper) manipulate two kinds of
quantities drawn from the extended non-negative reals ``R≥0 ∪ {∞}``:

* *sensitivities* ``s`` annotating variables and the ``!_s`` modality, and
* *error grades* ``u`` annotating the monadic type ``M_u``.

In the paper's prototype, error grades are reported symbolically as multiples
of the unit roundoff ``eps`` (e.g. ``2*eps``, ``3*eps + 4*u'``).  To reproduce
that behaviour while keeping all arithmetic exact, a :class:`Grade` is a
polynomial over named symbols with non-negative :class:`fractions.Fraction`
coefficients, plus a distinguished infinite element.  Every symbol carries a
concrete positive rational value (registered in :class:`SymbolRegistry`) so
that grades form a totally ordered semiring: comparisons are performed on the
exact rational evaluation, while printing keeps the symbolic form.

The convention ``0 * ∞ = ∞ * 0 = 0`` from Definition 4.2 is respected.

Grades are *interned* (hash-consed): :meth:`Grade.__new__` normalizes the
polynomial into a canonical term tuple and returns the unique live instance
for it, so structural equality is pointer comparison, ``hash`` is a cached
integer, and the exact rational ``evaluate()`` is computed once per distinct
grade for the whole process.  This is what makes the ``lru_cache`` fast
paths on the ring operations and the enclosure computations hit at
dictionary-identity speed during inference on very large terms (Table 4).
"""

from __future__ import annotations

import threading
import weakref
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Tuple, Union

from ..floats.exactmath import exact_str

__all__ = [
    "Grade",
    "GradeError",
    "SymbolRegistry",
    "DEFAULT_REGISTRY",
    "EPS",
    "EPS_SYMBOL",
    "INFINITY",
    "ZERO",
    "ONE",
    "as_grade",
    "parse_grade",
    "grade_memo_stats",
]

GradeLike = Union["Grade", int, float, Fraction, str]

#: Monomial: a sorted tuple of symbol names.  The empty tuple is the constant
#: monomial.
Monomial = Tuple[str, ...]


class GradeError(ValueError):
    """Raised for malformed grade arithmetic (negative values, unknown symbols)."""


class SymbolRegistry:
    """Maps grade symbols (such as ``eps``) to exact positive rational values.

    The registry is what makes symbolic grades totally ordered: a grade is
    compared by evaluating its polynomial at the registered symbol values.
    """

    def __init__(self, values: Mapping[str, Fraction] | None = None) -> None:
        self._values: Dict[str, Fraction] = {}
        self._version = 0
        if values:
            for name, value in values.items():
                self.register(name, value)

    def register(self, name: str, value: Union[int, float, Fraction]) -> None:
        """Register ``name`` with an exact positive value."""
        frac = Fraction(value)
        if frac <= 0:
            raise GradeError(f"symbol {name!r} must have a positive value, got {frac}")
        self._values[name] = frac
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter; memoized grade evaluations key on it."""
        return self._version

    def value_of(self, name: str) -> Fraction:
        try:
            return self._values[name]
        except KeyError:
            raise GradeError(
                f"grade symbol {name!r} has no registered value; "
                f"register it with SymbolRegistry.register"
            ) from None

    def known(self, name: str) -> bool:
        return name in self._values

    def names(self) -> Iterable[str]:
        return tuple(self._values)

    def copy(self) -> "SymbolRegistry":
        return SymbolRegistry(dict(self._values))


#: Unit roundoff for binary64 with a *directed* rounding mode (round towards
#: +∞), the instantiation used throughout Section 5/6 of the paper:
#: ``eps = 2^(1 - p) = 2^-52``.
_BINARY64_DIRECTED_EPS = Fraction(1, 2**52)

EPS_SYMBOL = "eps"

DEFAULT_REGISTRY = SymbolRegistry({EPS_SYMBOL: _BINARY64_DIRECTED_EPS})

#: Global intern table: normalized polynomial -> the unique live Grade.
#: Weak values keep the table from pinning transient grades (e.g. the
#: per-operation partial sums of a million-node inference) in memory; the
#: module constants below hold the ubiquitous ones strongly.
_INTERN: "weakref.WeakValueDictionary[tuple, Grade]" = weakref.WeakValueDictionary()

#: Interning must be atomic across threads: a check-then-insert race would
#: create two live instances of the same polynomial, silently breaking the
#: identity-based ``__eq__``.  Threads meet here in the ``repro serve``
#: process (the asyncio loop fingerprints requests while a worker thread
#: infers and the process-pool result thread unpickles reports).
_INTERN_LOCK = threading.Lock()


def _restore_grade(infinite: bool, items: tuple) -> "Grade":
    """Unpickling hook: rebuild through the interning constructor."""
    if infinite:
        return Grade(infinite=True)
    return Grade(dict(items))


#: The shared comparison key of the (unique, interned) infinite grade: it
#: never depends on a registry, so one tuple serves every comparison.
_INFINITE_CMP_KEY = (1, Fraction(0))


class Grade:
    """An element of ``R≥0 ∪ {∞}`` represented as a symbolic polynomial.

    Grades are immutable, hashable and *interned*: constructing a grade with
    an already-seen normalized polynomial returns the existing instance, so
    ``==`` on two grades is a pointer comparison.  Construct them with
    :meth:`Grade.constant`, :meth:`Grade.symbol`, :meth:`Grade.infinite`, or
    the module helpers :data:`ZERO`, :data:`ONE`, :data:`EPS`,
    :data:`INFINITY` and :func:`as_grade`.
    """

    __slots__ = (
        "_terms",
        "_infinite",
        "_hash",
        "_eval_cache",
        "_key_cache",
        "__weakref__",
    )

    def __new__(
        cls,
        terms: Mapping[Monomial, Fraction] | None = None,
        *,
        infinite: bool = False,
    ) -> "Grade":
        cleaned: Dict[Monomial, Fraction] = {}
        if not infinite and terms:
            for mono, coeff in terms.items():
                frac = Fraction(coeff)
                if frac < 0:
                    raise GradeError(f"grade coefficients must be non-negative, got {frac}")
                if frac == 0:
                    continue
                key = tuple(sorted(mono))
                if key in cleaned:
                    cleaned[key] += frac
                else:
                    cleaned[key] = frac
        intern_key = (bool(infinite), tuple(sorted(cleaned.items())))
        with _INTERN_LOCK:
            existing = _INTERN.get(intern_key)
            if existing is not None:
                return existing
            self = object.__new__(cls)
            self._terms = cleaned
            self._infinite = bool(infinite)
            self._hash = hash(intern_key)
            self._eval_cache = None
            self._key_cache = None
            _INTERN[intern_key] = self
            return self

    def __reduce__(self):
        # Route unpickling through the interning constructor so a grade
        # loaded from the on-disk analysis cache is the canonical instance
        # (and never mutates an interned singleton through slot state).
        return (_restore_grade, (self._infinite, tuple(self._terms.items())))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: Union[int, float, Fraction]) -> "Grade":
        frac = Fraction(value)
        if frac < 0:
            raise GradeError(f"grades are non-negative, got {frac}")
        return Grade({(): frac})

    @staticmethod
    def symbol(name: str, coefficient: Union[int, float, Fraction] = 1) -> "Grade":
        return Grade({(name,): Fraction(coefficient)})

    @staticmethod
    def infinite() -> "Grade":
        return Grade(infinite=True)

    # -- predicates --------------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self._infinite

    @property
    def is_finite(self) -> bool:
        return not self._infinite

    @property
    def is_zero(self) -> bool:
        return not self._infinite and not self._terms

    @property
    def is_constant(self) -> bool:
        """True when the grade mentions no symbols (including 0 and ∞)."""
        if self._infinite:
            return True
        return all(mono == () for mono in self._terms)

    def symbols(self) -> Tuple[str, ...]:
        names = set()
        for mono in self._terms:
            names.update(mono)
        return tuple(sorted(names))

    def terms(self) -> Dict[Monomial, Fraction]:
        """A copy of the monomial -> coefficient map."""
        return dict(self._terms)

    def coefficient(self, *symbols: str) -> Fraction:
        """Coefficient of the monomial formed by ``symbols`` (constant if empty)."""
        return self._terms.get(tuple(sorted(symbols)), Fraction(0))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, registry: SymbolRegistry | None = None) -> Fraction:
        """Exact rational value of the grade.

        Raises :class:`GradeError` when the grade is infinite or mentions an
        unregistered symbol.
        """
        if self._infinite:
            raise GradeError("cannot evaluate an infinite grade to a rational")
        registry = registry or DEFAULT_REGISTRY
        # Comparisons evaluate both sides, so this is the hottest call in
        # inference; a one-entry cache (keyed by registry identity and its
        # mutation counter) makes repeated evaluation O(1).
        cached = self._eval_cache
        if (
            cached is not None
            and cached[0] is registry
            and cached[1] == registry.version
        ):
            return cached[2]
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for name in mono:
                value *= registry.value_of(name)
            total += value
        object.__setattr__(self, "_eval_cache", (registry, registry.version, total))
        return total

    def to_float(self, registry: SymbolRegistry | None = None) -> float:
        if self._infinite:
            return float("inf")
        return float(self.evaluate(registry))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: GradeLike) -> "Grade":
        other = as_grade(other)
        if self._infinite or other._infinite:
            return INFINITY
        if not self._terms:
            return other
        if not other._terms:
            return self
        return _memoized_add(self, other)

    __radd__ = __add__

    def __mul__(self, other: GradeLike) -> "Grade":
        other = as_grade(other)
        # 0 * ∞ = ∞ * 0 = 0 per Definition 4.2.
        if self.is_zero or other.is_zero:
            return ZERO
        if self._infinite or other._infinite:
            return INFINITY
        return _memoized_mul(self, other)

    __rmul__ = __mul__

    # -- ordering ----------------------------------------------------------

    def _cmp_key(self, registry: SymbolRegistry | None = None) -> Tuple[int, Fraction]:
        if self._infinite:
            return _INFINITE_CMP_KEY
        registry = registry or DEFAULT_REGISTRY
        # Every grade comparison builds this tuple, making it as hot as
        # ``evaluate``; cache the finished key on the interned instance,
        # guarded by registry identity + mutation counter like _eval_cache.
        cached = self._key_cache
        if (
            cached is not None
            and cached[0] is registry
            and cached[1] == registry.version
        ):
            return cached[2]
        key = (0, self.evaluate(registry))
        object.__setattr__(self, "_key_cache", (registry, registry.version, key))
        return key

    def __le__(self, other: GradeLike) -> bool:
        return self._cmp_key() <= as_grade(other)._cmp_key()

    def __lt__(self, other: GradeLike) -> bool:
        return self._cmp_key() < as_grade(other)._cmp_key()

    def __ge__(self, other: GradeLike) -> bool:
        return as_grade(other) <= self

    def __gt__(self, other: GradeLike) -> bool:
        return as_grade(other) < self

    def __eq__(self, other: object) -> bool:
        # Structural equality of the symbolic polynomials.  Interning makes
        # this a pointer comparison for grade operands; use <=/>= for the
        # numeric (evaluated) order, and ``numerically_equal`` for numeric
        # equality.
        if self is other:
            return True
        if isinstance(other, Grade):
            # Distinct interned instances always denote distinct polynomials.
            return False
        if not isinstance(other, (int, float, Fraction, str)):
            return NotImplemented
        return self is as_grade(other)

    def numerically_equal(self, other: GradeLike) -> bool:
        """Equality of the evaluated rational values (``2*eps == 2^-51``)."""
        other = as_grade(other)
        if self._infinite or other._infinite:
            return self._infinite and other._infinite
        return self.evaluate() == other.evaluate()

    def __hash__(self) -> int:
        return self._hash

    def structurally_equal(self, other: GradeLike) -> bool:
        """Equality of the symbolic polynomials (identity, once interned)."""
        return self is as_grade(other)

    # -- lattice helpers ---------------------------------------------------

    def max(self, other: GradeLike) -> "Grade":
        other = as_grade(other)
        return self if other <= self else other

    def min(self, other: GradeLike) -> "Grade":
        other = as_grade(other)
        return other if other <= self else self

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if self._infinite:
            return "inf"
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms, key=lambda m: (len(m), m)):
            coeff = self._terms[mono]
            if mono == ():
                parts.append(exact_str(coeff))
                continue
            symbol_part = "*".join(mono)
            if coeff == 1:
                parts.append(symbol_part)
            else:
                parts.append(f"{exact_str(coeff)}*{symbol_part}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Grade({self})"


# Inference combines the same few grades over and over (per-operation error
# grades, context sums), so both ring operations are LRU-memoized.  Grades
# are immutable and hash/compare structurally, which makes them safe keys;
# the identity/absorbing cases are handled before the memo so the cache only
# holds genuinely combined polynomials.


@lru_cache(maxsize=16384)
def _memoized_add(left: "Grade", right: "Grade") -> "Grade":
    terms = dict(left._terms)
    for mono, coeff in right._terms.items():
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Grade(terms)


@lru_cache(maxsize=16384)
def _memoized_mul(left: "Grade", right: "Grade") -> "Grade":
    terms: Dict[Monomial, Fraction] = {}
    for mono_a, coeff_a in left._terms.items():
        for mono_b, coeff_b in right._terms.items():
            mono = tuple(sorted(mono_a + mono_b))
            terms[mono] = terms.get(mono, Fraction(0)) + coeff_a * coeff_b
    return Grade(terms)


def grade_memo_stats() -> Dict[str, Dict[str, int]]:
    """Sizes/bounds of the module-level grade memos (for ``/stats``).

    Both ring-operation memos are LRU-bounded (``functools.lru_cache``), so
    a long-lived ``repro serve`` process cannot grow them without limit;
    this reports their occupancy so an operator can see churn vs. headroom.
    """
    add_info = _memoized_add.cache_info()
    mul_info = _memoized_mul.cache_info()
    return {
        "intern_table": {"entries": len(_INTERN)},
        "add": {
            "entries": add_info.currsize,
            "capacity": add_info.maxsize,
            "hits": add_info.hits,
            "misses": add_info.misses,
        },
        "mul": {
            "entries": mul_info.currsize,
            "capacity": mul_info.maxsize,
            "hits": mul_info.hits,
            "misses": mul_info.misses,
        },
    }


ZERO = Grade.constant(0)
ONE = Grade.constant(1)
INFINITY = Grade.infinite()
#: The unit roundoff symbol used by the standard instantiation.
EPS = Grade.symbol(EPS_SYMBOL)


def as_grade(value: GradeLike) -> Grade:
    """Coerce numbers, strings and grades into a :class:`Grade`."""
    if isinstance(value, Grade):
        return value
    if isinstance(value, str):
        return parse_grade(value)
    if isinstance(value, float) and value == float("inf"):
        return INFINITY
    return Grade.constant(value)


# ---------------------------------------------------------------------------
# A tiny recursive-descent parser for grade expressions such as
# ``2*eps + 0.5`` or ``3*eps + 4*u'`` (used by the surface-syntax parser for
# ``M[...]`` and ``![...]`` annotations).
# ---------------------------------------------------------------------------


def parse_grade(text: str) -> Grade:
    """Parse a grade expression: sums of products of numbers and symbols."""
    tokens = _tokenize_grade(text)
    parser = _GradeParser(tokens, text)
    grade = parser.parse_sum()
    parser.expect_end()
    return grade


def _tokenize_grade(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+*()":
            tokens.append(("punct", ch))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in "./eE-+"):
                # Allow scientific notation but stop '+'/'-' unless preceded by e/E.
                if text[j] in "+-" and text[j - 1] not in "eE":
                    break
                j += 1
            tokens.append(("number", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("symbol", text[i:j]))
            i = j
            continue
        raise GradeError(f"unexpected character {ch!r} in grade expression {text!r}")
    return tokens


class _GradeParser:
    def __init__(self, tokens: list, source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._pos = 0

    def _peek(self):
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self):
        token = self._peek()
        if token is None:
            raise GradeError(f"unexpected end of grade expression {self._source!r}")
        self._pos += 1
        return token

    def expect_end(self) -> None:
        if self._peek() is not None:
            raise GradeError(f"trailing tokens in grade expression {self._source!r}")

    def parse_sum(self) -> Grade:
        grade = self.parse_product()
        while self._peek() == ("punct", "+"):
            self._next()
            grade = grade + self.parse_product()
        return grade

    def parse_product(self) -> Grade:
        grade = self.parse_atom()
        while self._peek() == ("punct", "*"):
            self._next()
            grade = grade * self.parse_atom()
        return grade

    def parse_atom(self) -> Grade:
        kind, value = self._next()
        if kind == "number":
            try:
                if any(c in value for c in ".eE"):
                    return Grade.constant(Fraction(value))
                return Grade.constant(Fraction(int(value)))
            except (ValueError, ZeroDivisionError) as exc:
                raise GradeError(f"bad numeric literal {value!r}") from exc
        if kind == "symbol":
            if value in ("inf", "infinity", "oo"):
                return INFINITY
            return Grade.symbol(value)
        if (kind, value) == ("punct", "("):
            grade = self.parse_sum()
            closing = self._next()
            if closing != ("punct", ")"):
                raise GradeError(f"expected ')' in grade expression {self._source!r}")
            return grade
        raise GradeError(f"unexpected token {value!r} in grade expression {self._source!r}")
