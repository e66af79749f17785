"""Differential property suite: inference under every memoization mode.

Judgement memoization must never change an answer.  This suite drives
:func:`repro.core.inference.infer` over randomized terms — binder-heavy
chains, case-heavy ladders, boxed scales, shared-DAG programs, the
benchmark families — three ways: with the memo off (``memo=False``), with
a per-call memo (``memo=True``) and with one :class:`JudgementMemo` shared
across every call of the run (as ``repro serve`` and incremental
reanalysis use it).  All three must give the identical judgement (same
interned grade instances, same context entries, same type) or the
identical failure (same error class, same message).  Where the seed
recursive engine of :mod:`repro.perf.reference` accepts the term, its
context and type must match too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ast as A
from repro.core import types as T
from repro.core.errors import LnumError
from repro.core.grades import EPS, INFINITY, ONE, ZERO
from repro.core.inference import InferenceConfig, JudgementMemo, infer
from repro.perf.reference import reference_infer

from test_grades_properties import finite_grades

NUM = T.NUM


# ---------------------------------------------------------------------------
# The differential oracle
# ---------------------------------------------------------------------------

#: Carries judgements across every term of the run, like the service's memo.
_SHARED_MEMO = JudgementMemo(1 << 16)


def _run(term, skeleton, config, memo):
    try:
        return ("ok", infer(term, skeleton, config, memo=memo))
    except LnumError as error:
        return ("error", (type(error), str(error)))


def _reference(term, skeleton, config):
    try:
        return ("ok", reference_infer(term, skeleton, config))
    except LnumError:
        return ("error", None)


def assert_memo_modes_agree(term, skeleton=None, config=None):
    """Every memo mode gives the identical judgement or the identical error."""
    skeleton = skeleton or {}
    fresh = _run(term, skeleton, config, False)
    # Memo keys are intern ids, so the memoized runs see the interned term.
    interned = A.intern_term(term)
    for memo in (True, _SHARED_MEMO):
        other = _run(interned, skeleton, config, memo)
        assert fresh[0] == other[0], (fresh, other)
        if fresh[0] == "error":
            assert fresh[1] == other[1]
            continue
        left, right = fresh[1], other[1]
        assert left.type == right.type
        assert left.context == right.context
        entries_left = list(left.context._entries())
        entries_right = list(right.context._entries())
        assert len(entries_left) == len(entries_right)
        for (nl, tl, sl), (nr, tr, sr) in zip(entries_left, entries_right):
            assert nl == nr
            assert tl == tr
            # Grades are interned: equality must be object identity.
            assert sl is sr
    reference = _reference(term, skeleton, config)
    if fresh[0] == "ok" and reference[0] == "ok":
        reference_context, reference_type = reference[1]
        assert fresh[1].type == reference_type
        assert fresh[1].context.as_dict() == reference_context.as_dict()
    return fresh[1] if fresh[0] == "ok" else None


# ---------------------------------------------------------------------------
# Term strategies
# ---------------------------------------------------------------------------

_FREE_VARS = tuple(f"x{i}" for i in range(4))
_SKELETON = {name: NUM for name in _FREE_VARS}


def _leaf(draw):
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return A.Const(draw(st.sampled_from((0.5, 1.0, 2.0))))
    return A.Var(draw(st.sampled_from(_FREE_VARS)))


@st.composite
def num_terms(draw, depth=0):
    """Terms of (mostly) type Num; occasional ill-typed shapes are fine —
    the oracle checks error agreement too."""
    if depth >= 3 or draw(st.booleans()):
        return _leaf(draw)
    op = draw(st.sampled_from(("add", "mul", "div")))
    left = draw(num_terms(depth + 1))
    right = draw(num_terms(depth + 1))
    pair = A.WithPair(left, right) if op == "add" else A.TensorPair(left, right)
    return A.Op(op, pair)


@st.composite
def binder_chains(draw):
    """Binder-heavy: serial let / let-bind chains over rounded operations."""
    steps = draw(st.integers(1, 8))
    body = A.Rnd(draw(num_terms()))
    for index in range(steps):
        value = A.Rnd(draw(num_terms()))
        accumulator = A.Op(
            "add", A.WithPair(A.Var(f"s{index}"), draw(num_terms()))
        )
        step = A.LetBind(f"s{index}", body, A.Rnd(accumulator))
        body = A.Let(f"t{index}", draw(num_terms()), step) if draw(st.booleans()) else step
        if draw(st.booleans()):
            body = A.LetBind(f"s{index}", value, body)
    return body


@st.composite
def case_ladders(draw):
    """Case-heavy: nested sums with Ret branches and shared scrutinees."""
    rungs = draw(st.integers(1, 5))
    term = A.Ret(draw(num_terms()))
    for index in range(rungs):
        injected = draw(num_terms())
        scrutinee = (
            A.Inl(injected, NUM) if draw(st.booleans()) else A.Inr(injected, NUM)
        )
        left = A.Ret(A.Var(f"c{index}"))
        term = A.Case(scrutinee, f"c{index}", left, f"d{index}", term)
    return term


@st.composite
def boxed_terms(draw):
    """Box/let-box round trips with randomized (finite) scales."""
    scale = draw(finite_grades())
    inner = draw(num_terms())
    boxed = A.Box(inner, scale)
    if draw(st.booleans()):
        return boxed
    use = A.Op("add", A.WithPair(A.Var("b"), draw(num_terms())))
    return A.LetBox("b", boxed, use)


@st.composite
def mixed_terms(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(binder_chains())
    if kind == 1:
        return draw(case_ladders())
    if kind == 2:
        return draw(boxed_terms())
    if kind == 3:
        parameter_type = draw(st.sampled_from((NUM, T.UNIT)))
        body = draw(num_terms())
        lam = A.Lambda("p", parameter_type, body)
        if draw(st.booleans()):
            return lam
        return A.App(lam, draw(num_terms()))
    left = draw(num_terms())
    right = draw(num_terms())
    value = A.TensorPair(left, right)
    return A.LetTensor("l", "r", value, A.Op("mul", A.TensorPair(A.Var("l"), A.Var("r"))))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


class TestDifferentialProperties:
    @given(term=num_terms())
    @settings(max_examples=120, deadline=None)
    def test_numeric_terms(self, term):
        assert_memo_modes_agree(term, _SKELETON)

    @given(term=binder_chains())
    @settings(max_examples=80, deadline=None)
    def test_binder_heavy_chains(self, term):
        assert_memo_modes_agree(term, _SKELETON)

    @given(term=case_ladders())
    @settings(max_examples=80, deadline=None)
    def test_case_heavy_ladders(self, term):
        assert_memo_modes_agree(term, _SKELETON)

    @given(term=mixed_terms())
    @settings(max_examples=120, deadline=None)
    def test_mixed_terms(self, term):
        assert_memo_modes_agree(term, _SKELETON)

    @given(term=mixed_terms(), rnd=finite_grades(), guard=finite_grades())
    @settings(max_examples=60, deadline=None)
    def test_mixed_terms_under_custom_config(self, term, rnd, guard):
        config = InferenceConfig(rnd_grade=rnd, case_guard_sensitivity=guard)
        assert_memo_modes_agree(term, _SKELETON, config)


class TestSharedDagTerms:
    def test_shared_subterm_judgements_match(self):
        base = A.Op("add", A.WithPair(A.Var("x0"), A.Var("x1")))
        shared = base
        for _ in range(6):
            shared = A.Op("mul", A.TensorPair(shared, shared))
        term = A.intern_term(A.Rnd(shared))
        assert A.dag_size(term) < A.tree_size(term)
        assert_memo_modes_agree(term, _SKELETON)

    def test_benchmark_families_match(self):
        from repro.perf.families import FAMILIES

        for family in FAMILIES.values():
            term, skeleton, _tree, _dag = family.instantiate(24)
            assert_memo_modes_agree(term, skeleton)

    def test_benchsuite_builders_match(self):
        from repro.benchsuite import large

        term, skeleton = large.conditional_ladder_term(40)
        assert_memo_modes_agree(A.intern_term(term), skeleton)
        term, skeleton = large.dag_fanout_term(12, block_operations=16)
        assert_memo_modes_agree(A.intern_term(term), skeleton)
        term, skeleton = large.dag_cascade_term(6, block_operations=8)
        assert_memo_modes_agree(A.intern_term(term), skeleton)
        term, skeleton = large.balanced_rnd_tree_term(64)
        assert_memo_modes_agree(A.intern_term(term), skeleton)


class TestErrorAgreement:
    CASES = [
        ("unbound", A.Var("nowhere"), {}),
        ("rnd_non_num", A.Rnd(A.UnitVal()), {}),
        ("app_non_function", A.App(A.Const(1.0), A.Const(2.0)), {}),
        ("proj_non_with", A.Proj(1, A.Const(1.0)), {}),
        ("case_non_sum", A.Case(A.Const(1.0), "l", A.Ret(A.Var("l")), "r", A.Ret(A.Var("r"))), {}),
        ("letbox_non_bang", A.LetBox("v", A.Const(1.0), A.Var("v")), {}),
        ("letbind_non_monadic", A.LetBind("v", A.Const(1.0), A.Ret(A.Var("v"))), {}),
        (
            "lambda_too_sensitive",
            A.Lambda("p", NUM, A.Op("mul", A.TensorPair(A.Var("p"), A.Var("p")))),
            {},
        ),
        (
            "boxed_at_zero",
            A.LetBox("v", A.Box(A.Var("x0"), ZERO), A.Var("v")),
            _SKELETON,
        ),
        (
            "symbolic_box_scale",
            A.LetBox(
                "v",
                A.Box(A.Var("x0"), EPS),
                A.Op("mul", A.TensorPair(A.Var("v"), A.Var("v"))),
            ),
            _SKELETON,
        ),
        (
            "context_type_clash",
            A.Op(
                "mul",
                A.TensorPair(
                    A.Var("x0"),
                    A.Let("x0", A.UnitVal(), A.App(A.Lambda("u", T.UNIT, A.Var("x0")), A.Var("x0"))),
                ),
            ),
            _SKELETON,
        ),
    ]

    @pytest.mark.parametrize("name,term,skeleton", CASES, ids=[c[0] for c in CASES])
    def test_same_error_class_and_message(self, name, term, skeleton):
        assert_memo_modes_agree(term, skeleton)


class TestEdgeScales:
    def test_infinite_grades(self):
        term = A.LetBox(
            "v",
            A.Box(A.Var("x0"), INFINITY),
            A.Op("mul", A.TensorPair(A.Var("v"), A.Var("v"))),
        )
        assert_memo_modes_agree(term, _SKELETON)

    def test_zero_and_one_scales_roundtrip(self):
        for scale in (ZERO, ONE, EPS):
            term = A.Box(A.Var("x0"), scale)
            assert_memo_modes_agree(term, _SKELETON)
