"""Seeded input generators and the known-answer table.

Every workload has one generator taking the seed as its only argument.  A
generator returns :class:`Program` records: the source text the program
under test receives, how to run it, and the known answer its output is
checked against.  The same seed always gives byte-identical sources.

Pools (why each was chosen):

* ``examples`` - the four shipped ``examples/programs`` files, the ones a
  new user runs first; their expected grades are in the file headers.
* ``paper`` - the worked examples of Sections 2 and 5 as surface programs,
  checked against the types the paper prints.
* ``table3``/``table4``/``table5`` - the paper's evaluation rows, emitted as
  FPCore (``if`` for the Table 5 conditionals), or as surface source where
  a row exists only as source (``Horner2_with_error``).  Known answer: the
  paper's Lambda-num bound to its three significant digits.
* ``generated`` - serial sums, dot products and non-FMA Horner schemes in
  both syntaxes, graded in size from about 10^2 to about 4*10^3 operations;
  their grades have closed forms, so every size has a known answer.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Where this reproduction's bound differs from the paper's printed digits.
#: Horner75: 75*eps = 1.6653e-14 rounds to 1.67e-14 (the paper truncates).
#: HammarlingDistance: the reconstruction rounds once fewer (4*eps).
KNOWN_DEVIATIONS: Dict[str, float] = {
    "Horner75": 1.67e-14,
    "HammarlingDistance": 8.88e-16,
}

#: Expected grade of the last function of each shipped example file.
EXAMPLE_GRADES: Dict[str, Tuple[str, str]] = {
    "fma.lnum": ("FMA", "eps"),
    "horner2.lnum": ("Horner2", "2*eps"),
    "hypot.fpcore": ("hypot", "5/2*eps"),
    "pythagorean_sum.lnum": ("PythagoreanSum", "4*eps"),
}

#: Operation-count classes of the generated programs, smallest first.
SIZE_CLASSES: Tuple[int, ...] = (100, 250, 500, 1000, 2000, 4000)
FAMILIES: Tuple[str, ...] = ("sum", "dot", "horner")
SYNTAXES: Tuple[str, ...] = ("lnum", "fpcore")


@dataclass(frozen=True)
class Program:
    """One input file and the answer its analysis must produce.

    ``kind`` is ``lnum`` or ``fpcore``.  ``answer`` is one of
    ``("relative", x)`` - the printed relative-error bound, to 3
    significant digits; ``("grade", "k*eps")`` - the printed grade; or
    ``("type", t)`` - the printed type, parentheses ignored.  ``function``
    names the reported function the answer is about.
    """

    name: str
    pool: str
    kind: str
    source: str
    function: str
    answer: Tuple[str, object]
    #: ``--seed`` for validate and tune: drawn per operation, so that the
    #: sampling cost of one seed does not shift a whole run.
    sample_seed: int = 0

    @property
    def filename(self) -> str:
        return f"{self.name}.{self.kind}"


def _benchsuite():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.benchsuite import fpbench, large, paper_examples, conditionals

    return fpbench, large, paper_examples, conditionals


# -- emitters ------------------------------------------------------------------


def fpcore_of(expression, name: str, ranges: Dict[str, Tuple[Fraction, Fraction]]) -> str:
    """Render a benchsuite expression as an FPCore benchmark."""
    from repro.frontend import expr as E

    binary = {E.Add: "+", E.Sub: "-", E.Mul: "*", E.Div: "/"}

    def render(node) -> str:
        # Iterative post-order walk: SerialSum1024 nests 1023 deep.
        out: Dict[int, str] = {}
        stack = [(node, False)]
        while stack:
            current, ready = stack.pop()
            if isinstance(current, E.Var):
                out[id(current)] = current.name
                continue
            if isinstance(current, E.Const):
                out[id(current)] = str(current.value)
                continue
            if isinstance(current, E.Cond):
                children = [current.guard.left, current.guard.right,
                            current.then_branch, current.else_branch]
            elif isinstance(current, E.Sqrt):
                children = [current.operand]
            elif isinstance(current, E.Fma):
                children = [current.a, current.b, current.c]
            else:
                children = [current.left, current.right]
            if not ready:
                stack.append((current, True))
                stack.extend((child, False) for child in children)
                continue
            parts = [out[id(child)] for child in children]
            if isinstance(current, E.Cond):
                guard = f"({current.guard.op} {parts[0]} {parts[1]})"
                out[id(current)] = f"(if {guard} {parts[2]} {parts[3]})"
            elif isinstance(current, E.Sqrt):
                out[id(current)] = f"(sqrt {parts[0]})"
            elif isinstance(current, E.Fma):
                out[id(current)] = f"(fma {' '.join(parts)})"
            else:
                out[id(current)] = f"({binary[type(current)]} {parts[0]} {parts[1]})"
        return out[id(node)]

    arguments = list(E.free_variables(expression))
    return _fpcore_text(name, arguments, ranges, render(expression))


def _fpcore_text(name: str, arguments: List[str],
                 ranges: Dict[str, Tuple[Fraction, Fraction]], body: str) -> str:
    clauses = []
    for argument in arguments:
        if argument in ranges:
            low, high = ranges[argument]
            clauses.append(f"(<= {low} {argument}) (<= {argument} {high})")
    pre = f"\n  :pre (and {' '.join(clauses)})" if clauses else ""
    return f"(FPCore ({' '.join(arguments)})\n  :name \"{name}\"{pre}\n  {body})\n"


def generated_program(family: str, syntax: str, size: int, tag: str) -> Program:
    """A serial sum, dot product or non-FMA Horner scheme with ``size`` terms.

    Closed-form grades, one ``eps`` per rounding: an n-term serial sum is
    (n-1)*eps, an n-term dot product (2n-1)*eps and a degree-d Horner
    scheme without FMA 2d*eps.  ``tag`` makes the variable names, and so
    every cache key, unique to this program.
    """
    v = f"{tag}_"
    if family == "sum":
        rounds = size - 1
        arguments = [f"{v}x{i}" for i in range(size)]
        body = "(+ " * (size - 1) + arguments[0] + "".join(
            f" {a})" for a in arguments[1:])
        lines = []
        accumulator = arguments[0]
        for i in range(1, size):
            lines.append(f"  s{i} = add (|{accumulator}, {arguments[i]}|);")
            lines.append(f"  let r{i} = rnd s{i};")
            accumulator = f"r{i}"
        params = [f"({a}: num)" for a in arguments]
    elif family == "dot":
        rounds = 2 * size - 1
        left = [f"{v}a{i}" for i in range(size)]
        right = [f"{v}b{i}" for i in range(size)]
        arguments = [name for pair in zip(left, right) for name in pair]
        products = [f"(* {a} {b})" for a, b in zip(left, right)]
        body = "(+ " * (size - 1) + products[0] + "".join(
            f" {p})" for p in products[1:])
        lines = [f"  p0 = mul ({left[0]}, {right[0]});", "  let r0 = rnd p0;"]
        for i in range(1, size):
            lines += [f"  p{i} = mul ({left[i]}, {right[i]});",
                      f"  let q{i} = rnd p{i};",
                      f"  s{i} = add (|r{i - 1}, q{i}|);",
                      f"  let r{i} = rnd s{i};"]
        accumulator = f"r{size - 1}"
        params = [f"({a}: num)" for a in arguments]
    elif family == "horner":
        rounds = 2 * size
        coefficients = [f"{v}a{i}" for i in range(size + 1)]
        point = f"{v}x"
        arguments = coefficients + [point]
        body = coefficients[size]
        for i in range(size - 1, -1, -1):
            body = f"(+ (* {body} {point}) {coefficients[i]})"
        lines = [f"  let [xv] = {point};"]
        accumulator = coefficients[size]
        for step, i in enumerate(range(size - 1, -1, -1), start=1):
            lines += [f"  p{step} = mul ({accumulator}, xv);",
                      f"  let q{step} = rnd p{step};",
                      f"  s{step} = add (|q{step}, {coefficients[i]}|);",
                      f"  let r{step} = rnd s{step};"]
            accumulator = f"r{step}"
        params = [f"({a}: num)" for a in coefficients] + [f"({point}: ![{size}]num)"]
    else:
        raise ValueError(f"unknown family {family!r}")
    name = f"{family}{size}_{tag}"
    grade = "eps" if rounds == 1 else f"{rounds}*eps"
    if syntax == "fpcore":
        ranges = {a: (Fraction(1, 10), Fraction(1000)) for a in arguments}
        source = _fpcore_text(name, arguments, ranges, body)
    else:
        # The final bind returns the last rounded value.
        lines.append(f"  ret {accumulator}")
        source = (f"function {name} {' '.join(params)} {{\n"
                  + "\n".join(lines) + "\n}\n")
    return Program(name, "generated", syntax, source, name, ("grade", grade))


# -- pools -----------------------------------------------------------------------


def _table_programs(table: str) -> List[Program]:
    fpbench, large, _, conditionals = _benchsuite()
    rows = {
        "table3": fpbench.table3_benchmarks,
        "table4": large.table4_benchmarks,
        "table5": conditionals.table5_benchmarks,
    }[table]()
    programs = []
    for row in rows:
        expected = KNOWN_DEVIATIONS.get(row.name, row.paper_bounds["lnum"])
        answer = ("relative", expected)
        if row.name == "Horner2_with_error":
            programs.append(Program(row.name, table, "lnum", fpbench.HORNER2_WITH_ERROR_SOURCE,
                                    row.name, answer))
        else:
            source = fpcore_of(row.expression, row.name, row.input_ranges)
            programs.append(Program(row.name, table, "fpcore", source, row.name, answer))
    return programs


def _example_programs() -> List[Program]:
    directory = os.path.join(ROOT, "examples", "programs")
    programs = []
    for filename, (function, grade) in sorted(EXAMPLE_GRADES.items()):
        with open(os.path.join(directory, filename), encoding="utf-8") as handle:
            source = handle.read()
        stem, kind = filename.rsplit(".", 1)
        programs.append(Program(stem, "examples", kind, source, function, ("grade", grade)))
    return programs


def _paper_programs() -> List[Program]:
    _, _, paper_examples, _ = _benchsuite()
    return [
        Program(f"paper_{name}", "paper", "lnum", example.source, example.function,
                ("type", example.expected_type))
        for name, example in sorted(paper_examples.PAPER_EXAMPLES.items())
    ]


def corpus(pools: Tuple[str, ...]) -> List[Program]:
    """The named paper-corpus pools, in a fixed order."""
    builders = {
        "examples": _example_programs,
        "paper": _paper_programs,
        "table3": lambda: _table_programs("table3"),
        "table4": lambda: _table_programs("table4"),
        "table5": lambda: _table_programs("table5"),
    }
    programs: List[Program] = []
    for pool in pools:
        programs.extend(builders[pool]())
    return programs


def _named(programs: List[Program], names: Tuple[str, ...]) -> List[Program]:
    chosen = [p for p in programs if p.name in names]
    missing = set(names) - {p.name for p in chosen}
    if missing:
        raise KeyError(f"no corpus program named {sorted(missing)}")
    return chosen


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijkmnpqrstuvwxyz") for _ in range(2)) + str(
        rng.randrange(10 ** 4))


def _jitter(rng: random.Random, size: int) -> int:
    return max(2, round(size * rng.uniform(0.99, 1.01)))


def _terms_for(family: str, operations: int) -> int:
    return {"sum": operations + 1, "dot": (operations + 1) // 2, "horner": operations // 2}[family]


# -- per-workload generators ------------------------------------------------------
#
# A workload's operations come in rounds.  Every round holds the same number
# of programs from each cost stratum, and a run measures whole rounds, so
# the mix of cheap and expensive operations is the same in every run; the
# seed draws which programs fill each stratum (cycling through a seeded
# permutation, so every program is reached), their order, the generated
# sizes within a class and the names.

CHECK_POOLS = ("examples", "paper", "table3", "table4", "table5")

#: Per-round strata of the validate pool (Table 3, Table 5, the examples,
#: Horner20 and MatrixMultiply16), split by cold ``repro validate`` time at
#: default flags: Horner20 takes 3-4 s, the medium ones 0.5-1.5 s.  Two
#: rounds run every medium and light program exactly twice, so a run's mix
#: does not depend on the seed.
VALIDATE_STRATA: Tuple[Tuple[Tuple[str, ...], int], ...] = (
    (("Horner20",), 1),
    (("pythagorean_sum", "Horner10", "PythagoreanSum", "sqrt_add", "i4",
      "HammarlingDistance", "squareRoot3", "MatrixMultiply16", "squareRoot3Invalid",
      "hypot.fpcore"), 5),
    (("fma", "horner2", "hypot", "x_by_xy", "one_by_sqrtxx", "test02_sum8", "nonlin1",
      "test05_nonlin1", "verhulst", "predatorPrey", "test06_sums4_sum1",
      "test06_sums4_sum2", "Horner2", "Horner2_with_error", "Horner5"), 15),
)

#: Per-round strata of the tune pool, by cold ``repro tune`` time: the
#: medium ones take 1-2.2 s, the light ones 0.3-0.7 s; two rounds run each
#: exactly twice.  Subjects taking 3.5 s or more (examples/pythagorean_sum,
#: Horner10, PythagoreanSum, HammarlingDistance; Horner20 takes 46 s) are
#: left out: one of them is a fifth or more of a run, which leaves too few
#: operations for a tail.
TUNE_STRATA: Tuple[Tuple[Tuple[str, ...], int], ...] = (
    (("hypot.fpcore", "sqrt_add", "i4", "squareRoot3", "squareRoot3Invalid", "Horner5"), 3),
    (("fma", "horner2", "hypot", "x_by_xy", "one_by_sqrtxx", "test02_sum8", "nonlin1",
      "test05_nonlin1", "verhulst", "predatorPrey", "test06_sums4_sum1",
      "test06_sums4_sum2", "Horner2", "Horner2_with_error"), 14),
)

ROUNDS = 24


def _key(program: Program) -> str:
    # The examples' hypot.fpcore and Table 3's hypot share a name.
    return program.filename if program.pool == "examples" and program.name == "hypot" \
        else program.name


def _stratified(seed: int, strata, pool: List[Program]) -> List[List[Program]]:
    by_key = {_key(p): p for p in pool}
    rng = random.Random(seed)
    cursors = []
    for names, per_round in strata:
        programs = [by_key[name] for name in names]
        cursors.append((programs, per_round, []))
    rounds = []
    for _ in range(ROUNDS):
        picks: List[Program] = []
        for programs, per_round, queue in cursors:
            for _ in range(per_round):
                if not queue:
                    queue.extend(rng.sample(programs, len(programs)))
                picks.append(replace(queue.pop(), sample_seed=rng.randrange(2 ** 31)))
        rng.shuffle(picks)
        rounds.append(picks)
    return rounds


#: Corpus programs well above start-up cost; every check round runs both.
CHECK_LARGE_CORPUS = ("SerialSum1024", "Poly50")
#: Start-up-bound corpus programs per check round: 20 of the round's 30
#: operations, so the median falls well inside the start-up-bound group
#: (with the generated programs of 500 ops or fewer, which cost about as
#: much as a corpus program).
CHECK_CORPUS_PER_ROUND = 20
#: Size classes a check round runs a second time, in the other syntax.
#: With them a run of two rounds has 14 operations of 1,000 ops or more
#: (0.5-3 s each against 0.25-0.35 s of start-up), so the eleventh-largest
#: operation, the tail, falls among the parser- and frontend-bound ones.
CHECK_REPEATED_CLASSES = (1000, 2000)


def check_inputs(seed: int) -> List[List[Program]]:
    """Rounds of ``check``/``fpcore`` operations.

    A round is ``CHECK_CORPUS_PER_ROUND`` corpus programs (start-up bound;
    they set the median), the two large Table 4 rows, and eight generated
    programs: one per size class and ``CHECK_REPEATED_CLASSES`` once more
    (the large ones are parser, frontend and inference bound; they set the
    tail).  The family and syntax of each generated program are fixed per
    round position, so every run has the same mix; the seed draws the
    corpus programs, the exact sizes (within 1% of the class) and the names.
    """
    rng = random.Random(seed)
    pool = [p for p in corpus(CHECK_POOLS) if p.name not in CHECK_LARGE_CORPUS]
    large = _named(corpus(("table4",)), CHECK_LARGE_CORPUS)
    queue: List[Program] = []
    rounds = []
    for index in range(ROUNDS):
        picks = list(large)
        for _ in range(CHECK_CORPUS_PER_ROUND):
            if not queue:
                queue.extend(rng.sample(pool, len(pool)))
            picks.append(queue.pop())
        for klass, operations in enumerate(SIZE_CLASSES + CHECK_REPEATED_CLASSES):
            family = FAMILIES[(index + klass) % len(FAMILIES)]
            syntax = SYNTAXES[(index + klass) % len(SYNTAXES)]
            terms = _terms_for(family, _jitter(rng, operations))
            picks.append(generated_program(family, syntax, terms, _tag(rng)))
        rng.shuffle(picks)
        rounds.append(picks)
    return rounds


def validate_inputs(seed: int) -> List[List[Program]]:
    """Rounds of ``validate`` operations (see ``VALIDATE_STRATA``)."""
    pool = corpus(("examples", "table3", "table5")) + _named(corpus(("table4",)),
                                                              ("MatrixMultiply16",))
    return _stratified(seed, VALIDATE_STRATA, pool)


def tune_inputs(seed: int) -> List[List[Program]]:
    """Rounds of ``tune`` operations (see ``TUNE_STRATA``)."""
    return _stratified(seed, TUNE_STRATA, corpus(("examples", "table3", "table5")))


@dataclass(frozen=True)
class ServeInputs:
    hot: List[Program]
    stream: List[Tuple[bool, Program]]  # (is_repeat, program)


#: Share of repeats in the serve stream.  Below one half, so the median
#: request is reliably a miss: hits answered while a miss holds the
#: interpreter lock spread up to the misses' fastest latencies, and a median
#: in that overlap flips between the two modes from run to run.
SERVE_HOT_SHARE = 0.4
#: Operation counts of the small first-seen programs, drawn uniformly.  A
#: miss costs about 0.4 ms per operation at default flags on a 2-core
#: machine (measured on a fresh server: 48 ops 18-24 ms, 100 ops 36-46 ms,
#: 250 ops 83-108 ms, 500 ops 187-211 ms median, in the two syntaxes), so
#: the median small miss, about 45 ops, takes about 20 ms.
SERVE_MISS_OPERATIONS = (20, 70)
#: One request in ``SERVE_LARGE_EVERY`` is a first-seen program from these
#: check size classes, alternating, so that the miss tail holds parser,
#: frontend and inference work: a 30 s run sends 25 of each.  The largest
#: latencies of a run are still requests held up by the server's full
#: (generation 2) garbage collections, which grow with the cached entries.
SERVE_LARGE_CLASSES = (250, 500)
SERVE_LARGE_EVERY = 30


def serve_inputs(seed: int, requests: int = 1000) -> ServeInputs:
    """The hot set and the closed-loop request stream of ``serve``.

    The hot set is the check corpus without the Table 4 rows, far under
    the 1,024-entry hot-report LRU.  The stream holds a fixed number of
    repeats (``SERVE_HOT_SHARE``), large first-seen programs
    (``SERVE_LARGE_EVERY``) and small ones, in a seeded order.  A repeat is
    a seeded draw from the hot set; a first-seen request is a generated
    program with a unique tag, in either syntax.
    """
    rng = random.Random(seed)
    hot = [p for p in corpus(CHECK_POOLS) if p.pool != "table4"]
    large = requests // SERVE_LARGE_EVERY
    repeats = round(requests * SERVE_HOT_SHARE)
    kinds = ["large"] * large + ["hot"] * repeats + ["small"] * (requests - large - repeats)
    rng.shuffle(kinds)
    stream: List[Tuple[bool, Program]] = []
    drawn_large = 0
    for index, kind in enumerate(kinds):
        if kind == "hot":
            stream.append((True, rng.choice(hot)))
            continue
        if kind == "large":
            klass = SERVE_LARGE_CLASSES[drawn_large % len(SERVE_LARGE_CLASSES)]
            operations = _jitter(rng, klass)
            drawn_large += 1
        else:
            operations = rng.randint(*SERVE_MISS_OPERATIONS)
        family = FAMILIES[index % len(FAMILIES)]
        program = generated_program(family, rng.choice(SYNTAXES),
                                    max(_terms_for(family, operations), 2),
                                    f"{_tag(rng)}r{index}")
        stream.append((False, program))
    return ServeInputs(hot, stream)


GENERATORS = {
    "check": check_inputs,
    "validate": validate_inputs,
    "tune": tune_inputs,
    "serve": serve_inputs,
}

