"""High-level rounding-error analysis API.

This is the user-facing entry point of the reproduction: it bundles parsing,
sensitivity inference and the RP → relative-error conversion into a single
call, mirroring how the paper's prototype type-checker is used in the
evaluation (Section 6).

Typical use::

    from repro.analysis import analyze_source

    report = analyze_source('''
        function hypot (x: ![2]num) (y: ![2]num) : M[5/2*eps]num {
          let [x1] = x; let [y1] = y;
          a = mulfp (x1, x1);  ...
        }
    ''')
    report.error_grade          # Grade("5/2*eps")
    report.relative_error_bound # Fraction upper bound on the relative error

``check_error_soundness`` additionally runs the ideal and floating-point
semantics on concrete inputs and verifies Corollary 4.20 with exact rational
enclosures of the RP distance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import ast as A
from ..core import types as T
from ..core.environment import Context
from ..core.errors import TypeInferenceError
from ..core.grades import Grade
from ..core.inference import InferenceConfig, InferenceResult, infer
from ..core.parser import Definition, Program, parse_program
from ..core.semantics.evaluator import (
    build_environment,
    fp_config,
    ideal_config,
    run_monadic,
)
from ..core.signature import IDEAL_SQRT_RP_SLACK
from ..core.subtyping import is_subtype
from ..floats.exactmath import rp_distance_enclosure
from ..floats.rounding import RoundingMode
from .bounds import relative_error_from_rp

__all__ = [
    "ErrorAnalysis",
    "SoundnessReport",
    "analyze_term",
    "analyze_definition",
    "analyze_source",
    "analyze_program",
    "check_error_soundness",
]


@dataclass(frozen=True)
class ErrorAnalysis:
    """Result of analysing a single Λnum term or function."""

    name: str
    result_type: T.Type
    context: Context
    error_grade: Optional[Grade]
    rp_bound: Optional[Fraction]
    relative_error_bound: Optional[Fraction]
    operations: int
    inference_seconds: float
    annotation: Optional[T.Type] = None
    annotation_satisfied: Optional[bool] = None

    def sensitivity_of(self, name: str) -> Grade:
        return self.context.sensitivity_of(name)

    def summary(self) -> str:
        lines = [f"{self.name}: {self.result_type}"]
        if self.error_grade is not None:
            lines.append(f"  RP error grade : {self.error_grade}")
            lines.append(f"  RP bound       : {float(self.rp_bound):.3e}")
            lines.append(f"  relative error : {float(self.relative_error_bound):.3e}")
        if self.annotation is not None:
            status = "ok" if self.annotation_satisfied else "NOT SATISFIED"
            lines.append(f"  annotation     : {self.annotation} [{status}]")
        lines.append(f"  operations     : {self.operations}")
        lines.append(f"  inference time : {self.inference_seconds * 1e3:.3f} ms")
        return "\n".join(lines)


@dataclass(frozen=True)
class SoundnessReport:
    """Outcome of an empirical check of Corollary 4.20 on concrete inputs."""

    ideal_value: Fraction
    fp_value: Fraction
    rp_lower: Fraction
    rp_upper: Fraction
    bound: Fraction
    slack: Fraction
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


def _final_monadic_grade(tau: T.Type) -> Optional[Grade]:
    """The error grade of the (possibly curried-function) result type."""
    while isinstance(tau, T.Arrow):
        tau = tau.result
    if isinstance(tau, T.Monadic):
        return tau.grade
    return None


def _result_type_after_arrows(tau: T.Type) -> T.Type:
    while isinstance(tau, T.Arrow):
        tau = tau.result
    return tau


def analyze_term(
    term: A.Term,
    skeleton: Mapping[str, T.Type] | None = None,
    config: InferenceConfig | None = None,
    name: str = "<term>",
    annotation: Optional[T.Type] = None,
    memo=None,
    instrumentation=None,
) -> ErrorAnalysis:
    """Infer the type of a term and derive its error bounds.

    ``memo`` (a :class:`~repro.core.inference.JudgementMemo`) carries
    subterm judgements across calls; the term is hash-consed first so its
    subterms have the stable identities the memo keys on.  Reports are
    identical with and without a memo — only the work changes.
    ``instrumentation`` (a :class:`repro.obs.instrument.Instrumentation`)
    accumulates the engine's ``interpret`` time and judgement-memo hit
    counts.
    """
    start = time.perf_counter()
    if memo is not None and memo is not False:
        term = A.intern_term(term)
    result: InferenceResult = infer(
        term, skeleton, config, memo=memo, instrumentation=instrumentation,
    )
    elapsed = time.perf_counter() - start
    grade = _final_monadic_grade(result.type)
    rp_bound = None
    rel_bound = None
    if grade is not None and grade.is_finite:
        rp_bound = grade.evaluate()
        rel_bound = relative_error_from_rp(grade)
    annotation_ok = None
    if annotation is not None:
        annotation_ok = is_subtype(_result_type_after_arrows(result.type), annotation) or is_subtype(
            result.type, annotation
        )
    return ErrorAnalysis(
        name=name,
        result_type=result.type,
        context=result.context,
        error_grade=grade,
        rp_bound=rp_bound,
        relative_error_bound=rel_bound,
        operations=A.count_operations(term),
        inference_seconds=elapsed,
        annotation=annotation,
        annotation_satisfied=annotation_ok,
    )


def analyze_definition(
    program: Program,
    definition: Definition,
    config: InferenceConfig | None = None,
    memo=None,
    instrumentation=None,
) -> ErrorAnalysis:
    """Analyse one ``function`` definition of a parsed program."""
    term = program.term_for(definition.name)
    return analyze_term(
        term,
        skeleton={},
        config=config,
        name=definition.name,
        annotation=definition.return_annotation,
        memo=memo,
        instrumentation=instrumentation,
    )


def analyze_program(
    program: Program,
    config: InferenceConfig | None = None,
    memo=None,
    instrumentation=None,
) -> List[ErrorAnalysis]:
    """Analyse every definition of a program, in order."""
    return [
        analyze_definition(
            program, definition, config, memo=memo,
            instrumentation=instrumentation,
        )
        for definition in program.definitions
    ]


def analyze_source(
    source: str,
    function: Optional[str] = None,
    config: InferenceConfig | None = None,
) -> ErrorAnalysis:
    """Parse a surface program and analyse one function (the last by default)."""
    program = parse_program(source)
    if not program.definitions and program.main is not None:
        return analyze_term(program.main, {}, config, name="<main>")
    definition = program.definition(function) if function else program.definitions[-1]
    return analyze_definition(program, definition, config)


# ---------------------------------------------------------------------------
# Empirical soundness checking (Corollary 4.20)
# ---------------------------------------------------------------------------


def check_error_soundness(
    term: A.Term,
    skeleton: Mapping[str, T.Type],
    inputs: Mapping[str, object],
    config: InferenceConfig | None = None,
    precision: int = 53,
    rounding: RoundingMode = RoundingMode.TOWARD_POSITIVE,
    extra_slack: Fraction = Fraction(0),
) -> SoundnessReport:
    """Run both semantics on ``inputs`` and verify the inferred RP bound.

    The ideal semantics computes ``sqrt`` to a large working precision rather
    than exactly; the corresponding slack (a few units in 2^-297 per ``sqrt``)
    is added to the bound so the check remains rigorous.
    """
    analysis = analyze_term(term, skeleton, config)
    if analysis.error_grade is None or analysis.error_grade.is_infinite:
        raise TypeInferenceError("the term does not have a finite monadic error bound")
    bound = analysis.error_grade.evaluate()

    environment = build_environment(inputs, dict(skeleton))
    ideal_value = run_monadic(term, environment, ideal_config())
    fp_value = run_monadic(term, environment, fp_config(precision, rounding))

    sqrt_count = sum(
        1 for node in A.iter_nodes(term) if isinstance(node, A.Op) and node.name == "sqrt"
    )
    slack = IDEAL_SQRT_RP_SLACK * (2 * sqrt_count + 2) + extra_slack

    rp_low, rp_high = rp_distance_enclosure(ideal_value, fp_value)
    holds = rp_high <= bound + slack
    return SoundnessReport(
        ideal_value=ideal_value,
        fp_value=fp_value,
        rp_lower=rp_low,
        rp_upper=rp_high,
        bound=bound,
        slack=slack,
        holds=holds,
    )
