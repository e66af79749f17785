"""Recursive-descent parser for the Λnum surface syntax.

The surface syntax is the implementation syntax used in Sections 5 and 6 of
the paper (Figs. 7–9)::

    function MA (x: num) (y: num) (z: num) : M[2*eps]num {
      s = mulfp (x, y);      # plain let:      s = v; e       ==  let s = v in e
      let a = s;             # monadic bind:   let a = s; e   ==  let-bind(s, a. e)
      addfp (|a, z|)         # with-pair argument
    }

Additional forms: ``let [x1] = x;`` eliminates a ``!``-typed value,
``rnd e`` / ``ret e`` build monadic values, ``(e1, e2)`` is a tensor pair,
``(|e1, e2|)`` a with-pair, ``if c then e1 else e2`` a case on booleans, and
curried application ``f a b`` is supported.  Type annotations use
``M[grade]``, ``![grade]``, ``(σ, τ)`` for ``⊗``, ``<σ, τ>`` for ``×``,
``σ -o τ`` for the linear arrow and ``σ + τ`` for sums.

The parser produces *core* terms directly (Fig. 1): nested computations are
named with fresh ``let`` bindings (ANF / let-insertion), and primitive
operations whose argument type is a ``!``-type (such as ``sqrt``) receive the
required box automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import ast as A
from .. import types as T
from ..errors import ParseError
from ..grades import Grade, GradeError, parse_grade
from ..signature import Signature, standard_signature
from .lexer import Token, tokenize

__all__ = ["Definition", "Program", "parse_program", "parse_term", "parse_type"]


@dataclass
class Definition:
    """A top-level ``function`` definition."""

    name: str
    parameters: List[Tuple[str, T.Type]]
    return_annotation: Optional[T.Type]
    body: A.Term
    term: A.Term  # the curried lambda term

    @property
    def arity(self) -> int:
        return len(self.parameters)

    def parameter_skeleton(self) -> Dict[str, T.Type]:
        return {name: tau for name, tau in self.parameters}


@dataclass
class Program:
    """A parsed surface program: an ordered list of definitions plus a main term."""

    definitions: List[Definition] = field(default_factory=list)
    main: Optional[A.Term] = None
    signature: Signature = field(default_factory=standard_signature)

    def definition(self, name: str) -> Definition:
        for definition in self.definitions:
            if definition.name == name:
                return definition
        raise KeyError(f"no definition named {name!r}")

    def names(self) -> List[str]:
        return [definition.name for definition in self.definitions]

    def term_for(self, name: str) -> A.Term:
        """The closed term for ``name``: its lambda wrapped in lets for earlier defs."""
        target = self.definition(name)
        target_index = self.definitions.index(target)
        term: A.Term = target.term
        for definition in reversed(self.definitions[:target_index]):
            if definition.name in A.free_variables(term):
                term = A.Let(definition.name, definition.term, term)
        return term

    def main_term(self) -> A.Term:
        """The program's main term with all definitions in scope."""
        if self.main is not None:
            term = self.main
            earlier = self.definitions
        else:
            if not self.definitions:
                raise ParseError("empty program")
            term = self.definitions[-1].term
            earlier = self.definitions[:-1]
        for definition in reversed(earlier):
            if definition.name in A.free_variables(term):
                term = A.Let(definition.name, definition.term, term)
        return term


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_program(source: str, signature: Signature | None = None) -> Program:
    """Parse a full surface program (functions plus optional final expression)."""
    parser = _Parser(tokenize(source), signature or standard_signature())
    return parser.parse_program()


def parse_term(source: str, signature: Signature | None = None) -> A.Term:
    """Parse a single block (statements + final expression) into a core term."""
    parser = _Parser(tokenize(source), signature or standard_signature())
    term = parser.parse_block(stop_at_eof=True)
    parser.expect_eof()
    return term


def parse_type(source: str) -> T.Type:
    """Parse a type annotation."""
    parser = _Parser(tokenize(source), standard_signature())
    tau = parser.parse_type()
    parser.expect_eof()
    return tau


class _Parser:
    def __init__(self, tokens: Sequence[Token], signature: Signature) -> None:
        self._tokens = list(tokens)
        self._pos = 0
        self._signature = signature
        self._fresh_counter = 0

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self._peek()
        return ParseError(message, token.line, token.column)

    def _parse_grade(self, text: str, token: Token) -> Grade:
        """Parse a grade annotation; a malformed one is located at ``token``."""
        try:
            return parse_grade(text)
        except GradeError as error:
            raise self._error(f"invalid grade annotation: {error}", token) from None

    def _expect_punct(self, text: str) -> Token:
        token = self._advance()
        if not token.is_punct(text):
            raise self._error(f"expected {text!r}, found {token.text!r}", token)
        return token

    def _expect_keyword(self, text: str) -> Token:
        token = self._advance()
        if not token.is_keyword(text):
            raise self._error(f"expected keyword {text!r}, found {token.text!r}", token)
        return token

    def _expect_ident(self) -> Token:
        token = self._advance()
        if token.kind != "ident":
            raise self._error(f"expected an identifier, found {token.text!r}", token)
        return token

    def expect_eof(self) -> None:
        token = self._peek()
        if token.kind != "eof":
            raise self._error(f"unexpected trailing input {token.text!r}", token)

    def _fresh(self, hint: str = "t") -> str:
        self._fresh_counter += 1
        return f"_{hint}{self._fresh_counter}"

    # -- program -------------------------------------------------------------

    def parse_program(self) -> Program:
        program = Program(signature=self._signature)
        while self._peek().is_keyword("function"):
            program.definitions.append(self._parse_function())
        if self._peek().kind != "eof":
            program.main = self.parse_block(stop_at_eof=True)
        self.expect_eof()
        return program

    def _parse_function(self) -> Definition:
        self._expect_keyword("function")
        name = self._expect_ident().text
        parameters: List[Tuple[str, T.Type]] = []
        while self._peek().is_punct("("):
            # A parameter looks like (ident : type); distinguish from the body
            # by the ':' after the identifier.
            if self._peek(1).kind in ("ident", "keyword") and self._peek(2).is_punct(":"):
                self._expect_punct("(")
                param_name = self._advance().text
                self._expect_punct(":")
                param_type = self.parse_type()
                self._expect_punct(")")
                parameters.append((param_name, param_type))
            else:
                break
        annotation = None
        if self._peek().is_punct(":"):
            self._advance()
            annotation = self.parse_type()
        self._expect_punct("{")
        body = self.parse_block(stop_at_eof=False)
        self._expect_punct("}")
        term: A.Term = body
        for param_name, param_type in reversed(parameters):
            term = A.Lambda(param_name, param_type, term)
        return Definition(name, parameters, annotation, body, term)

    # -- blocks ---------------------------------------------------------------

    def parse_block(self, stop_at_eof: bool) -> A.Term:
        """Parse statements followed by a final expression."""
        statements: List[Tuple[str, object, A.Term, List[Tuple[str, A.Term]]]] = []
        while True:
            token = self._peek()
            if token.is_keyword("let"):
                statements.append(self._parse_let_statement())
                continue
            if token.kind == "ident" and self._peek(1).is_punct("=") and not self._peek(2).is_punct("="):
                name = self._advance().text
                self._expect_punct("=")
                bindings: List[Tuple[str, A.Term]] = []
                value = self._parse_expression(bindings)
                self._expect_punct(";")
                statements.append(("let", name, value, bindings))
                continue
            break
        final_bindings: List[Tuple[str, A.Term]] = []
        final_term = self._parse_expression(final_bindings)
        result = self._wrap_bindings(final_bindings, final_term)
        for kind, name, value, bindings in reversed(statements):
            if kind == "let":
                result = A.Let(str(name), value, result)
            elif kind == "letbind":
                value_term = self._ensure_value(value, bindings)
                result = A.LetBind(str(name), value_term, result)
            elif kind == "letbox":
                value_term = self._ensure_value(value, bindings)
                result = A.LetBox(str(name), value_term, result)
            else:  # pragma: no cover - defensive
                raise self._error(f"unknown statement kind {kind}")
            result = self._wrap_bindings(bindings, result)
        return result

    def _parse_let_statement(self):
        self._expect_keyword("let")
        bindings: List[Tuple[str, A.Term]] = []
        if self._peek().is_punct("["):
            self._advance()
            name = self._expect_ident().text
            self._expect_punct("]")
            self._expect_punct("=")
            value = self._parse_expression(bindings)
            self._expect_punct(";")
            return ("letbox", name, value, bindings)
        name = self._expect_ident().text
        self._expect_punct("=")
        value = self._parse_expression(bindings)
        self._expect_punct(";")
        return ("letbind", name, value, bindings)

    # -- expressions -----------------------------------------------------------

    def _wrap_bindings(self, bindings: List[Tuple[str, A.Term]], body: A.Term) -> A.Term:
        for name, bound in reversed(bindings):
            body = A.Let(name, bound, body)
        return body

    def _ensure_value(self, term: A.Term, bindings: List[Tuple[str, A.Term]]) -> A.Term:
        if A.is_value(term):
            return term
        name = self._fresh()
        bindings.append((name, term))
        return A.Var(name)

    def _parse_expression(self, bindings: List[Tuple[str, A.Term]]) -> A.Term:
        token = self._peek()
        if token.is_keyword("if"):
            return self._parse_if(bindings)
        if token.is_keyword("case"):
            return self._parse_case(bindings)
        return self._parse_application(bindings)

    def _parse_if(self, bindings: List[Tuple[str, A.Term]]) -> A.Term:
        self._expect_keyword("if")
        condition = self._parse_expression(bindings)
        condition_value = self._ensure_value(condition, bindings)
        self._expect_keyword("then")
        then_bindings: List[Tuple[str, A.Term]] = []
        then_body = self._parse_expression(then_bindings)
        then_term = self._wrap_bindings(then_bindings, then_body)
        self._expect_keyword("else")
        else_bindings: List[Tuple[str, A.Term]] = []
        else_body = self._parse_expression(else_bindings)
        else_term = self._wrap_bindings(else_bindings, else_body)
        return A.Case(
            condition_value,
            self._fresh("tt"),
            then_term,
            self._fresh("ff"),
            else_term,
        )

    def _parse_case(self, bindings: List[Tuple[str, A.Term]]) -> A.Term:
        self._expect_keyword("case")
        scrutinee = self._ensure_value(self._parse_expression(bindings), bindings)
        self._expect_keyword("of")
        self._expect_keyword("inl")
        left_var = self._expect_ident().text
        self._expect_punct("=>")
        left_bindings: List[Tuple[str, A.Term]] = []
        left_term = self._wrap_bindings(left_bindings, self._parse_expression(left_bindings))
        self._expect_punct("|")
        self._expect_keyword("inr")
        right_var = self._expect_ident().text
        self._expect_punct("=>")
        right_bindings: List[Tuple[str, A.Term]] = []
        right_term = self._wrap_bindings(right_bindings, self._parse_expression(right_bindings))
        return A.Case(scrutinee, left_var, left_term, right_var, right_term)

    def _parse_application(self, bindings: List[Tuple[str, A.Term]]) -> A.Term:
        token = self._peek()
        # Primitive monadic/graded constructors.
        if token.is_keyword("rnd"):
            self._advance()
            argument = self._ensure_value(self._parse_atom(bindings), bindings)
            return A.Rnd(argument)
        if token.is_keyword("ret"):
            self._advance()
            argument = self._ensure_value(self._parse_atom(bindings), bindings)
            return A.Ret(argument)
        if token.is_keyword("inl"):
            self._advance()
            argument = self._ensure_value(self._parse_atom(bindings), bindings)
            return A.Inl(argument)
        if token.is_keyword("inr"):
            self._advance()
            argument = self._ensure_value(self._parse_atom(bindings), bindings)
            return A.Inr(argument)

        # Primitive-operation application: op(atom) with automatic boxing.
        if token.kind == "ident" and token.text in self._signature and self._starts_atom(self._peek(1)):
            op_name = self._advance().text
            operation = self._signature.lookup(op_name)
            argument = self._ensure_value(self._parse_atom(bindings), bindings)
            if isinstance(operation.input_type, T.Bang):
                argument = A.Box(argument, operation.input_type.sensitivity)
            return A.Op(op_name, argument)

        # Ordinary (possibly curried) application.
        head = self._parse_atom(bindings)
        while self._starts_atom(self._peek()):
            function_value = self._ensure_value(head, bindings)
            argument = self._ensure_value(self._parse_atom(bindings), bindings)
            head = A.App(function_value, argument)
        return head

    def _starts_atom(self, token: Token) -> bool:
        if token.kind in ("number", "ident"):
            return True
        if token.kind == "keyword" and token.text in ("true", "false", "err"):
            return True
        if token.kind == "punct" and token.text in ("(", "(|", "[", "<>"):
            return True
        return False

    def _parse_atom(self, bindings: List[Tuple[str, A.Term]]) -> A.Term:
        token = self._advance()
        if token.kind == "number":
            return A.Const(token.text)
        if token.kind == "ident":
            return A.Var(token.text)
        if token.is_keyword("true"):
            return A.true_value()
        if token.is_keyword("false"):
            return A.false_value()
        if token.is_keyword("err"):
            return A.Err()
        if token.is_punct("<>"):
            return A.UnitVal()
        if token.is_punct("(|"):
            left = self._ensure_value(self._parse_expression(bindings), bindings)
            self._expect_punct(",")
            right = self._ensure_value(self._parse_expression(bindings), bindings)
            self._expect_punct("|)")
            return A.WithPair(left, right)
        if token.is_punct("("):
            first = self._parse_expression(bindings)
            if self._peek().is_punct(","):
                self._advance()
                left = self._ensure_value(first, bindings)
                right = self._ensure_value(self._parse_expression(bindings), bindings)
                self._expect_punct(")")
                return A.TensorPair(left, right)
            self._expect_punct(")")
            return first
        if token.is_punct("["):
            # Box literal: [e]{grade}  (grade defaults to 1).
            inner = self._ensure_value(self._parse_expression(bindings), bindings)
            self._expect_punct("]")
            scale, scale_token = "1", token
            if self._peek().is_punct("{"):
                scale_token = self._advance()
                scale = self._collect_until("}")
            return A.Box(inner, self._parse_grade(scale, scale_token))
        raise self._error(f"unexpected token {token.text!r} in expression", token)

    def _collect_until(self, closing: str) -> str:
        parts: List[str] = []
        depth = 0
        while True:
            token = self._advance()
            if token.kind == "eof":
                raise self._error(f"missing closing {closing!r}")
            if token.is_punct(closing) and depth == 0:
                return " ".join(parts)
            if token.is_punct("[") or token.is_punct("{") or token.is_punct("("):
                depth += 1
            if token.is_punct("]") or token.is_punct("}") or token.is_punct(")"):
                depth -= 1
            parts.append(token.text)

    # -- types ------------------------------------------------------------------

    def parse_type(self) -> T.Type:
        return self._parse_arrow_type()

    def _parse_arrow_type(self) -> T.Type:
        left = self._parse_sum_type()
        if self._peek().is_punct("-o"):
            self._advance()
            right = self._parse_arrow_type()
            return T.Arrow(left, right)
        return left

    def _parse_sum_type(self) -> T.Type:
        left = self._parse_atomic_type()
        while self._peek().is_punct("+"):
            self._advance()
            right = self._parse_atomic_type()
            left = T.SumType(left, right)
        return left

    def _parse_atomic_type(self) -> T.Type:
        token = self._advance()
        if token.is_keyword("num"):
            return T.NUM
        if token.is_keyword("unit"):
            return T.UNIT
        if token.is_keyword("bool"):
            return T.bool_type()
        if token.kind == "ident" and token.text == "M" and self._peek().is_punct("["):
            self._advance()
            grade_text = self._collect_until("]")
            inner = self._parse_atomic_type()
            return T.Monadic(self._parse_grade(grade_text, token), inner)
        if token.is_punct("!") and self._peek().is_punct("["):
            self._advance()
            grade_text = self._collect_until("]")
            inner = self._parse_atomic_type()
            return T.Bang(self._parse_grade(grade_text, token), inner)
        if token.is_punct("("):
            first = self.parse_type()
            if self._peek().is_punct(","):
                self._advance()
                second = self.parse_type()
                self._expect_punct(")")
                return T.TensorProduct(first, second)
            self._expect_punct(")")
            return first
        if token.is_punct("<"):
            first = self.parse_type()
            self._expect_punct(",")
            second = self.parse_type()
            self._expect_punct(">")
            return T.WithProduct(first, second)
        raise self._error(f"unexpected token {token.text!r} in type", token)
