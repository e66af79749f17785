"""Term syntax for Λnum (Fig. 1 of the paper).

The language is a fine-grained call-by-value λ-calculus: term constructors and
eliminators are restricted to *values*, and all computations are sequenced
explicitly with ``let``.  The surface-syntax parser (``repro.core.parser``)
performs the let-insertion needed to write ordinary nested expressions.

Values::

    v, w ::= x | <> | k ∈ R | ⟨v, w⟩ | (v, w) | inl v | inr v
           | λx.e | [v] | rnd v | ret v | let-bind(rnd v, x. f)

Terms::

    e, f ::= v | v w | π_i v | let (x, y) = v in e
           | case v of (inl x. e | inr x. f)
           | let [x] = v in e | let-bind(v, x. f) | let x = e in f | op(v)

The ``Err`` value belongs to the exceptional extension of Section 7.1 and is
only produced by the floating-point semantics.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple, Union

from ..floats.exactmath import exact_str
from .grades import Grade, GradeLike, as_grade
from .types import Type, UNIT

__all__ = [
    "Term",
    "Var",
    "UnitVal",
    "Const",
    "WithPair",
    "TensorPair",
    "Inl",
    "Inr",
    "Lambda",
    "Box",
    "Rnd",
    "Ret",
    "Err",
    "App",
    "Proj",
    "LetTensor",
    "Case",
    "LetBox",
    "LetBind",
    "Let",
    "Op",
    "is_value",
    "free_variables",
    "substitute",
    "fresh_name",
    "term_size",
    "tree_size",
    "dag_size",
    "term_free_variables",
    "FREE_VARIABLE_CAP",
    "count_rounds",
    "pretty",
    "true_value",
    "false_value",
    "const",
    "intern_term",
    "is_interned",
    "term_fingerprint",
    "ast_memo_stats",
]

NumberLike = Union[int, float, Fraction, str]


class Term:
    """Base class of every Λnum term node.

    Nodes compare by identity.  :func:`intern_term` hash-conses a term into
    a canonical representative carrying a process-unique ``_intern_id``, so
    structurally identical (sub)terms become pointer-identical and derived
    data (such as :func:`term_fingerprint`) can be memoized by identity.
    """

    __slots__ = ("_intern_id", "__weakref__")

    def children(self) -> Tuple["Term", ...]:
        return ()

    def __repr__(self) -> str:
        return pretty(self)

    def __getstate__(self):
        # Interning state is process-local: a pickled term must not carry an
        # ``_intern_id`` into another process where it would collide with an
        # unrelated node's id.  Re-intern after unpickling if needed.
        state = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot in ("_intern_id", "__weakref__"):
                    continue
                state[slot] = getattr(self, slot)
        return (None, state)

    def __setstate__(self, state):
        if isinstance(state, tuple):
            state = state[1] or {}
        for slot, value in state.items():
            setattr(self, slot, value)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class UnitVal(Term):
    __slots__ = ()


class Const(Term):
    """A numeric constant ``k ∈ R``, stored as an exact :class:`Fraction`."""

    __slots__ = ("value",)

    def __init__(self, value: NumberLike) -> None:
        self.value = Fraction(value)


class WithPair(Term):
    """The Cartesian pair ``⟨v, w⟩`` of the with-product ``×`` (max metric)."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)


class TensorPair(Term):
    """The monoidal pair ``(v, w)`` of the tensor product ``⊗`` (sum metric)."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Term, ...]:
        return (self.left, self.right)


class Inl(Term):
    __slots__ = ("value", "other_type")

    def __init__(self, value: Term, other_type: Type = UNIT) -> None:
        self.value = value
        #: Type of the *right* branch, needed to give ``inl v`` a sum type
        #: during inference.  Defaults to ``unit`` (the boolean encoding).
        self.other_type = other_type

    def children(self) -> Tuple[Term, ...]:
        return (self.value,)


class Inr(Term):
    __slots__ = ("value", "other_type")

    def __init__(self, value: Term, other_type: Type = UNIT) -> None:
        self.value = value
        #: Type of the *left* branch.
        self.other_type = other_type

    def children(self) -> Tuple[Term, ...]:
        return (self.value,)


class Lambda(Term):
    """``λ(x : σ). e`` — the annotation is required by the inference algorithm."""

    __slots__ = ("parameter", "parameter_type", "body")

    def __init__(self, parameter: str, parameter_type: Type, body: Term) -> None:
        self.parameter = parameter
        self.parameter_type = parameter_type
        self.body = body

    def children(self) -> Tuple[Term, ...]:
        return (self.body,)


class Box(Term):
    """``[v]{s}`` — introduces the metric-scaled type ``!_s σ``."""

    __slots__ = ("value", "scale")

    def __init__(self, value: Term, scale: GradeLike = 1) -> None:
        self.value = value
        self.scale: Grade = as_grade(scale)

    def children(self) -> Tuple[Term, ...]:
        return (self.value,)


class Rnd(Term):
    """``rnd v`` — the effectful rounding of a numeric value."""

    __slots__ = ("value",)

    def __init__(self, value: Term) -> None:
        self.value = value

    def children(self) -> Tuple[Term, ...]:
        return (self.value,)


class Ret(Term):
    """``ret v`` — lifts a pure value into the monad with zero error."""

    __slots__ = ("value",)

    def __init__(self, value: Term) -> None:
        self.value = value

    def children(self) -> Tuple[Term, ...]:
        return (self.value,)


class Err(Term):
    """The exceptional value of the Section 7.1 extension (FP semantics only)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Computations
# ---------------------------------------------------------------------------


class App(Term):
    __slots__ = ("function", "argument")

    def __init__(self, function: Term, argument: Term) -> None:
        self.function = function
        self.argument = argument

    def children(self) -> Tuple[Term, ...]:
        return (self.function, self.argument)


class Proj(Term):
    """``π_i v`` for the with-product; ``index`` is 1 or 2."""

    __slots__ = ("index", "value")

    def __init__(self, index: int, value: Term) -> None:
        if index not in (1, 2):
            raise ValueError("projection index must be 1 or 2")
        self.index = index
        self.value = value

    def children(self) -> Tuple[Term, ...]:
        return (self.value,)


class LetTensor(Term):
    """``let (x, y) = v in e``."""

    __slots__ = ("left_var", "right_var", "value", "body")

    def __init__(self, left_var: str, right_var: str, value: Term, body: Term) -> None:
        self.left_var = left_var
        self.right_var = right_var
        self.value = value
        self.body = body

    def children(self) -> Tuple[Term, ...]:
        return (self.value, self.body)


class Case(Term):
    """``case v of (inl x. e | inr y. f)``."""

    __slots__ = ("scrutinee", "left_var", "left_body", "right_var", "right_body")

    def __init__(
        self,
        scrutinee: Term,
        left_var: str,
        left_body: Term,
        right_var: str,
        right_body: Term,
    ) -> None:
        self.scrutinee = scrutinee
        self.left_var = left_var
        self.left_body = left_body
        self.right_var = right_var
        self.right_body = right_body

    def children(self) -> Tuple[Term, ...]:
        return (self.scrutinee, self.left_body, self.right_body)


class LetBox(Term):
    """``let [x] = v in e``."""

    __slots__ = ("variable", "value", "body")

    def __init__(self, variable: str, value: Term, body: Term) -> None:
        self.variable = variable
        self.value = value
        self.body = body

    def children(self) -> Tuple[Term, ...]:
        return (self.value, self.body)


class LetBind(Term):
    """``let-bind(v, x. f)`` — sequencing of monadic computations."""

    __slots__ = ("variable", "value", "body")

    def __init__(self, variable: str, value: Term, body: Term) -> None:
        self.variable = variable
        self.value = value
        self.body = body

    def children(self) -> Tuple[Term, ...]:
        return (self.value, self.body)


class Let(Term):
    """``let x = e in f`` — sequencing of ordinary computations."""

    __slots__ = ("variable", "bound", "body")

    def __init__(self, variable: str, bound: Term, body: Term) -> None:
        self.variable = variable
        self.bound = bound
        self.body = body

    def children(self) -> Tuple[Term, ...]:
        return (self.bound, self.body)


class Op(Term):
    """``op(v)`` — application of a primitive operation from the signature Σ."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Term) -> None:
        self.name = name
        self.value = value

    def children(self) -> Tuple[Term, ...]:
        return (self.value,)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def const(value: NumberLike) -> Const:
    """Convenience constructor for numeric constants."""
    return Const(value)


def true_value() -> Inl:
    """The boolean ``true`` encoded as ``inl <> : unit + unit``."""
    return Inl(UnitVal(), UNIT)


def false_value() -> Inr:
    """The boolean ``false`` encoded as ``inr <> : unit + unit``."""
    return Inr(UnitVal(), UNIT)


def is_value(term: Term) -> bool:
    """Is ``term`` a syntactic value according to Fig. 1?"""
    if isinstance(term, (Var, UnitVal, Const, Lambda, Err)):
        return True
    if isinstance(term, (WithPair, TensorPair)):
        return is_value(term.left) and is_value(term.right)
    if isinstance(term, (Inl, Inr, Box, Rnd, Ret)):
        return is_value(term.value)
    if isinstance(term, LetBind):
        # let-bind(rnd v, x. f) is a value (Fig. 1).
        return isinstance(term.value, Rnd) and is_value(term.value.value)
    return False


def free_variables(term: Term) -> Set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, (UnitVal, Const, Err)):
        return set()
    if isinstance(term, (WithPair, TensorPair)):
        return free_variables(term.left) | free_variables(term.right)
    if isinstance(term, (Inl, Inr, Box, Rnd, Ret)):
        return free_variables(term.value)
    if isinstance(term, Lambda):
        return free_variables(term.body) - {term.parameter}
    if isinstance(term, App):
        return free_variables(term.function) | free_variables(term.argument)
    if isinstance(term, Proj):
        return free_variables(term.value)
    if isinstance(term, LetTensor):
        return free_variables(term.value) | (
            free_variables(term.body) - {term.left_var, term.right_var}
        )
    if isinstance(term, Case):
        return (
            free_variables(term.scrutinee)
            | (free_variables(term.left_body) - {term.left_var})
            | (free_variables(term.right_body) - {term.right_var})
        )
    if isinstance(term, (LetBox, LetBind)):
        return free_variables(term.value) | (free_variables(term.body) - {term.variable})
    if isinstance(term, Let):
        return free_variables(term.bound) | (free_variables(term.body) - {term.variable})
    if isinstance(term, Op):
        return free_variables(term.value)
    raise TypeError(f"unknown term node {type(term).__name__}")


_FRESH_COUNTER = itertools.count()


def fresh_name(hint: str = "x", avoid: Optional[Set[str]] = None) -> str:
    """A variable name not occurring in ``avoid``."""
    avoid = avoid or set()
    base = hint.rstrip("0123456789") or "x"
    while True:
        candidate = f"{base}%{next(_FRESH_COUNTER)}"
        if candidate not in avoid:
            return candidate


def substitute(term: Term, mapping: Dict[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution of terms for variables."""
    if not mapping:
        return term
    return _subst(term, dict(mapping))


def _subst(term: Term, mapping: Dict[str, Term]) -> Term:
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, (UnitVal, Const, Err)):
        return term
    if isinstance(term, WithPair):
        return WithPair(_subst(term.left, mapping), _subst(term.right, mapping))
    if isinstance(term, TensorPair):
        return TensorPair(_subst(term.left, mapping), _subst(term.right, mapping))
    if isinstance(term, Inl):
        return Inl(_subst(term.value, mapping), term.other_type)
    if isinstance(term, Inr):
        return Inr(_subst(term.value, mapping), term.other_type)
    if isinstance(term, Box):
        return Box(_subst(term.value, mapping), term.scale)
    if isinstance(term, Rnd):
        return Rnd(_subst(term.value, mapping))
    if isinstance(term, Ret):
        return Ret(_subst(term.value, mapping))
    if isinstance(term, Lambda):
        binder, body, mapping2 = _freshen_binder(term.parameter, term.body, mapping)
        return Lambda(binder, term.parameter_type, _subst(body, mapping2))
    if isinstance(term, App):
        return App(_subst(term.function, mapping), _subst(term.argument, mapping))
    if isinstance(term, Proj):
        return Proj(term.index, _subst(term.value, mapping))
    if isinstance(term, LetTensor):
        value = _subst(term.value, mapping)
        left, body, mapping2 = _freshen_binder(term.left_var, term.body, mapping)
        right, body, mapping2 = _freshen_binder(term.right_var, body, mapping2)
        return LetTensor(left, right, value, _subst(body, mapping2))
    if isinstance(term, Case):
        scrutinee = _subst(term.scrutinee, mapping)
        lvar, lbody, lmap = _freshen_binder(term.left_var, term.left_body, mapping)
        rvar, rbody, rmap = _freshen_binder(term.right_var, term.right_body, mapping)
        return Case(scrutinee, lvar, _subst(lbody, lmap), rvar, _subst(rbody, rmap))
    if isinstance(term, LetBox):
        value = _subst(term.value, mapping)
        var, body, mapping2 = _freshen_binder(term.variable, term.body, mapping)
        return LetBox(var, value, _subst(body, mapping2))
    if isinstance(term, LetBind):
        value = _subst(term.value, mapping)
        var, body, mapping2 = _freshen_binder(term.variable, term.body, mapping)
        return LetBind(var, value, _subst(body, mapping2))
    if isinstance(term, Let):
        bound = _subst(term.bound, mapping)
        var, body, mapping2 = _freshen_binder(term.variable, term.body, mapping)
        return Let(var, bound, _subst(body, mapping2))
    if isinstance(term, Op):
        return Op(term.name, _subst(term.value, mapping))
    raise TypeError(f"unknown term node {type(term).__name__}")


def _freshen_binder(binder: str, body: Term, mapping: Dict[str, Term]):
    """Drop the binder from the substitution; rename it if capture threatens."""
    mapping = {name: value for name, value in mapping.items() if name != binder}
    if not mapping:
        return binder, body, mapping
    captured = set()
    for value in mapping.values():
        captured |= free_variables(value)
    if binder in captured:
        new_name = fresh_name(binder, captured | free_variables(body) | set(mapping))
        body = _subst(body, {binder: Var(new_name)})
        return new_name, body, mapping
    return binder, body, mapping


def term_size(term: Term) -> int:
    """Number of AST nodes (used for scaling experiments)."""
    return sum(1 for _ in iter_nodes(term))


def iter_nodes(term: Term) -> Iterator[Term]:
    """Depth-first iterator over every node of the term."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

#: Structural key -> canonical node.  Weak values: a canonical node stays
#: alive exactly as long as something (an interned parent, a benchmark, a
#: cache entry) still references it, so the table never pins dead programs.
_INTERN_TABLE: "weakref.WeakValueDictionary[tuple, Term]" = weakref.WeakValueDictionary()

#: Process-unique ids for canonical nodes; ids are never reused, which makes
#: them safe memo keys even after a node is garbage collected.
_INTERN_IDS = itertools.count(1)

#: Serializes the per-node check-then-insert in :func:`intern_term` so that
#: threads never mint two canonical representatives for one structure.
_INTERN_LOCK = threading.Lock()


def is_interned(term: Term) -> bool:
    """Is ``term`` a canonical (hash-consed) representative?"""
    return getattr(term, "_intern_id", None) is not None


def intern_term(term: Term) -> Term:
    """Return the canonical hash-consed representative of ``term``.

    The walk is iterative (safe for million-node benchmark programs) and
    bottom-up: every child is replaced by its canonical representative, the
    node's structural key — class, scalar fields, child intern ids — is
    looked up in the global table, and an equivalent existing node is reused
    when present.  Afterwards structural equality of interned terms is
    pointer comparison, shared subtrees (the repeated inner products of the
    MatrixMultiply benchmarks, say) are stored once, and identity-keyed
    memos such as :func:`term_fingerprint` hit without re-walking the term.
    """
    if getattr(term, "_intern_id", None) is not None:
        return term
    canonical_of: Dict[int, Term] = {}
    stack = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        node_ref = id(node)
        if node_ref in canonical_of:
            continue
        if getattr(node, "_intern_id", None) is not None:
            canonical_of[node_ref] = node
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.children():
                stack.append((child, False))
            continue
        cls = type(node)
        key = [cls]
        values = []
        changed = False
        for slot in cls.__slots__:
            original = getattr(node, slot)
            if isinstance(original, Term):
                value = canonical_of[id(original)]
                key.append(value._intern_id)
                changed = changed or value is not original
            else:
                value = original
                key.append(value)
            values.append(value)
        key = tuple(key)
        # Atomic check-then-insert per node: concurrent interning threads
        # (the service event loop fingerprinting a request while a worker
        # unpickles a report) must agree on one canonical representative,
        # or identity-based structural equality silently breaks.
        with _INTERN_LOCK:
            existing = _INTERN_TABLE.get(key)
            if existing is not None:
                canonical_of[node_ref] = existing
                continue
            if changed:
                canonical = cls.__new__(cls)
                for slot, value in zip(cls.__slots__, values):
                    setattr(canonical, slot, value)
            else:
                canonical = node
            canonical._intern_id = next(_INTERN_IDS)
            _INTERN_TABLE[key] = canonical
        canonical_of[node_ref] = canonical
    return canonical_of[id(term)]


class _BoundedMemo:
    """A bounded, lock-guarded LRU with hit/miss/eviction counters.

    The shared memo primitive of the kernel: the intern-id memos below use
    it directly, and the judgement memo of :mod:`repro.core.inference`
    builds on it.  The bound matters to long-lived ``repro serve``
    processes: without it every distinct subterm ever analysed would pin an
    entry forever.  The lock keeps the OrderedDict bookkeeping (and the
    counters) consistent when service threads — the asyncio loop, executor
    workers — share one memo.

    For the intern-id memos, keys are process-unique and never reused, so
    an entry can never be served for the wrong term — it only goes stale
    (and unreachable) when the term dies.
    """

    __slots__ = ("capacity", "_entries", "_lock", "hits", "misses", "puts", "evictions")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    def get(self, key, default=None):
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self.puts += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
            }


#: intern id -> fingerprint.  Only top-level analysed terms are
#: fingerprinted, so the bound is generous.
_FINGERPRINT_MEMO = _BoundedMemo(65_536)

#: intern id -> frozenset of free variables, or None when the set exceeds
#: :data:`FREE_VARIABLE_CAP` (see :func:`term_free_variables`).
_FREE_VARS_MEMO = _BoundedMemo(262_144)

#: intern id -> tree node count (counting shared subterms once per
#: occurrence) / distinct interned node count.
_TREE_SIZE_MEMO = _BoundedMemo(262_144)
_DAG_SIZE_MEMO = _BoundedMemo(262_144)

#: Free-variable sets larger than this are not tracked per subterm: the
#: judgement memo in :mod:`repro.core.inference` keys on the skeleton slice
#: over a subterm's free variables, and building that slice for a node with
#: hundreds of free variables (the accumulated spine of a wide let-chain)
#: would make every visit linear in the context width — exactly the
#: quadratic blow-up the bottom-up algorithm avoids.  The cap makes the
#: per-node cost O(cap); nodes over the cap simply opt out of memoization.
FREE_VARIABLE_CAP = 24


def term_fingerprint(term: Term) -> str:
    """SHA-256 digest of the term's full structure.

    Preorder traversal plus per-node arity and scalar labels (names,
    constants, grades, type annotations) uniquely determines the tree, so
    two terms share a fingerprint iff they are structurally identical.  The
    digest depends only on the structure — never on process-local state such
    as intern ids — so it is stable across processes and usable as an
    on-disk cache key.  For interned terms the digest is memoized by intern
    id, which turns the repeated cache-key computations of the batch engine
    into dictionary lookups.  Iterative, so it is safe for the benchmark
    terms with hundreds of thousands of nodes.
    """
    import hashlib

    intern_id = getattr(term, "_intern_id", None)
    if intern_id is not None:
        cached = _FINGERPRINT_MEMO.get(intern_id)
        if cached is not None:
            return cached
    digest = hashlib.sha256()
    update = digest.update
    for node in iter_nodes(term):
        update(type(node).__name__.encode("utf-8"))
        update(b"#%d" % len(node.children()))
        for slot in type(node).__slots__:
            value = getattr(node, slot)
            if not isinstance(value, Term):
                update(b"|")
                update(str(value).encode("utf-8"))
        update(b";")
    result = digest.hexdigest()
    if intern_id is not None:
        _FINGERPRINT_MEMO.put(intern_id, result)
    return result


# ---------------------------------------------------------------------------
# DAG-aware derived data (free variables, tree vs. DAG size)
#
# All three walks below visit each *distinct* node once: an explicit stack
# drives a post-order DFS with a visited set, and interned nodes memoize
# their value globally by intern id, so repeated queries over hash-consed
# terms are dictionary probes.  Terms are acyclic, which is what makes the
# single visited set sound: a child encountered in the visited set while
# expanding a parent is always already *finished* (a still-in-flight child
# would make the parent its own descendant, i.e. a cycle).
# ---------------------------------------------------------------------------

_EMPTY_FV: FrozenSet[str] = frozenset()
_FV_MISS = object()


def _combine_free_variables(node: Term, child_sets, cap: int):
    """Free variables of ``node`` given its children's sets (None = over cap)."""
    cls = type(node)
    if cls is Var:
        return frozenset((node.name,))
    if not child_sets:
        return _EMPTY_FV
    if None in child_sets:
        # Over-cap children are absorbing: a binder *could* shrink the set
        # back under the cap, but tracking that would need the full set.
        return None
    if cls is Lambda:
        result = child_sets[0] - {node.parameter}
    elif cls is LetTensor:
        value, body = child_sets
        result = value | (body - {node.left_var, node.right_var})
    elif cls is Case:
        scrutinee, left_body, right_body = child_sets
        result = (
            scrutinee
            | (left_body - {node.left_var})
            | (right_body - {node.right_var})
        )
    elif cls in (LetBox, LetBind):
        value, body = child_sets
        result = value | (body - {node.variable})
    elif cls is Let:
        bound, body = child_sets
        result = bound | (body - {node.variable})
    else:
        result = child_sets[0]
        for child_set in child_sets[1:]:
            result = result | child_set
    if len(result) > cap:
        return None
    return result


def term_free_variables(term: Term, cap: Optional[int] = None) -> Optional[FrozenSet[str]]:
    """The term's free variables as a frozenset, or ``None`` when over ``cap``.

    The judgement memo of :mod:`repro.core.inference` keys each subterm by
    the skeleton slice over its free variables, so this is called per node
    visited; the cap (default :data:`FREE_VARIABLE_CAP`) keeps the per-node
    cost constant, and interned nodes memoize their set globally so each
    distinct subterm computes it once per process.
    """
    if cap is None:
        cap = FREE_VARIABLE_CAP
    use_memo = cap == FREE_VARIABLE_CAP
    local: Dict[int, Optional[FrozenSet[str]]] = {}
    visited: Set[int] = set()
    stack = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        ref = id(node)
        if expanded:
            value = _combine_free_variables(
                node, [local[id(child)] for child in node.children()], cap
            )
            local[ref] = value
            if use_memo:
                intern_id = getattr(node, "_intern_id", None)
                if intern_id is not None:
                    _FREE_VARS_MEMO.put(intern_id, value)
            continue
        if ref in visited:
            continue
        if use_memo:
            intern_id = getattr(node, "_intern_id", None)
            if intern_id is not None:
                cached = _FREE_VARS_MEMO.get(intern_id, _FV_MISS)
                if cached is not _FV_MISS:
                    local[ref] = cached
                    visited.add(ref)
                    continue
        visited.add(ref)
        stack.append((node, True))
        for child in node.children():
            stack.append((child, False))
    return local[id(term)]


def tree_size(term: Term) -> int:
    """Node count with shared subterms counted once per *occurrence*.

    Same value as :func:`term_size`, but computed as a DAG recurrence
    (``1 + Σ tree_size(child)``) memoized by intern id, so a term with
    heavy sharing costs its *distinct* node count rather than its tree
    node count — and repeated queries are a single dictionary probe.
    """
    local: Dict[int, int] = {}
    visited: Set[int] = set()
    stack = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        ref = id(node)
        if expanded:
            size = 1 + sum(local[id(child)] for child in node.children())
            local[ref] = size
            intern_id = getattr(node, "_intern_id", None)
            if intern_id is not None:
                _TREE_SIZE_MEMO.put(intern_id, size)
            continue
        if ref in visited:
            continue
        intern_id = getattr(node, "_intern_id", None)
        if intern_id is not None:
            cached = _TREE_SIZE_MEMO.get(intern_id)
            if cached is not None:
                local[ref] = cached
                visited.add(ref)
                continue
        visited.add(ref)
        stack.append((node, True))
        for child in node.children():
            stack.append((child, False))
    return local[id(term)]


def dag_size(term: Term) -> int:
    """Number of *distinct* nodes (shared subterms counted once).

    For an interned term this is the number of judgements DAG-memoized
    inference actually computes; ``tree_size(term) / dag_size(term)`` is
    the sharing factor.  The count is memoized by the root's intern id
    (it is not compositional over children, so only the root memoizes).
    """
    root_id = getattr(term, "_intern_id", None)
    if root_id is not None:
        cached = _DAG_SIZE_MEMO.get(root_id)
        if cached is not None:
            return cached
    visited: Set[int] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        ref = id(node)
        if ref in visited:
            continue
        visited.add(ref)
        stack.extend(node.children())
    count = len(visited)
    if root_id is not None:
        _DAG_SIZE_MEMO.put(root_id, count)
    return count


def ast_memo_stats() -> Dict[str, Dict[str, int]]:
    """Sizes and caps of the module-level memo tables (for ``/stats``)."""
    return {
        "intern_table": {"entries": len(_INTERN_TABLE)},
        "fingerprints": _FINGERPRINT_MEMO.stats(),
        "free_variables": _FREE_VARS_MEMO.stats(),
        "tree_sizes": _TREE_SIZE_MEMO.stats(),
        "dag_sizes": _DAG_SIZE_MEMO.stats(),
    }


def count_rounds(term: Term) -> int:
    """Number of ``rnd`` operations in the term (the paper's "Ops" proxy)."""
    return sum(1 for node in iter_nodes(term) if isinstance(node, Rnd))


def count_operations(term: Term) -> int:
    """Number of primitive-operation applications ``op(v)`` in the term."""
    return sum(1 for node in iter_nodes(term) if isinstance(node, Op))


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------


def pretty(term: Term) -> str:
    """Render a term in a compact, paper-like concrete syntax."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, UnitVal):
        return "<>"
    if isinstance(term, Const):
        return exact_str(term.value)
    if isinstance(term, Err):
        return "err"
    if isinstance(term, WithPair):
        return f"(|{pretty(term.left)}, {pretty(term.right)}|)"
    if isinstance(term, TensorPair):
        return f"({pretty(term.left)}, {pretty(term.right)})"
    if isinstance(term, Inl):
        return f"inl {pretty(term.value)}"
    if isinstance(term, Inr):
        return f"inr {pretty(term.value)}"
    if isinstance(term, Lambda):
        return f"\\({term.parameter}: {term.parameter_type}). {pretty(term.body)}"
    if isinstance(term, Box):
        return f"[{pretty(term.value)}]{{{term.scale}}}"
    if isinstance(term, Rnd):
        return f"rnd {pretty(term.value)}"
    if isinstance(term, Ret):
        return f"ret {pretty(term.value)}"
    if isinstance(term, App):
        return f"({pretty(term.function)} {pretty(term.argument)})"
    if isinstance(term, Proj):
        return f"pi{term.index} {pretty(term.value)}"
    if isinstance(term, LetTensor):
        return (
            f"let ({term.left_var}, {term.right_var}) = {pretty(term.value)} in "
            f"{pretty(term.body)}"
        )
    if isinstance(term, Case):
        return (
            f"case {pretty(term.scrutinee)} of "
            f"(inl {term.left_var}. {pretty(term.left_body)} | "
            f"inr {term.right_var}. {pretty(term.right_body)})"
        )
    if isinstance(term, LetBox):
        return f"let [{term.variable}] = {pretty(term.value)} in {pretty(term.body)}"
    if isinstance(term, LetBind):
        return f"let-bind({pretty(term.value)}, {term.variable}. {pretty(term.body)})"
    if isinstance(term, Let):
        return f"let {term.variable} = {pretty(term.bound)} in {pretty(term.body)}"
    if isinstance(term, Op):
        return f"{term.name}({pretty(term.value)})"
    raise TypeError(f"unknown term node {type(term).__name__}")
