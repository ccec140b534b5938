"""Equations with variables, satisfaction by assignment enumeration, and
theory (variety presentation) membership.

Variables are ordinary arity-0 symbols appended to the base signature, so
both sides of an equation are plain terms over the extended signature;
`Equation` is the one check of that split.  Assignments enumerate in
mixed-radix lexicographic order with the leftmost variable most
significant, which makes the reported counterexample the least one.  The
sides written one after the other form an Ok(2) oplist, and one pass
yields both values.  The scalar loop runs per assignment, variable i
having the one-entry table (value,), over a whole space of at most 64
assignments and over the head of a larger one: the least power c^w of the
carrier size c with (c - 1) * c^w >= 64, which is 64 for c = 2 or 4, 81
for 3, 25 for 5 and 49 for 7.  Then each band [size^k, size^(k+1)), and
past 10^4 each aligned block of at most max(10^4, size), is one `fold` of
each side in the power of the algebra over its assignments, whose
elements are columns; a violation at assignment i costs O(size * i)
evaluations.  A theory builds one extended signature per distinct
variable list, which its equations with that list share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Sequence

from .algebras import (
    FiniteAlgebra,
    _check_elements,
    _evaluate_ops,
    _power_within,
)
from .errors import (
    BudgetExceededError,
    CarrierMismatchError,
    FormatError,
    SignatureError,
    SignatureMismatchError,
    _shown,
)
from .signature import OpSymbol, Signature
from .syntax import parse_term
from .terms import Term, fold, format_term

# Default cap on carrier_size ** context_size per satisfaction check.
DEFAULT_BUDGET = 10 ** 7

# A column pass of any length costs several scalar ones, so a space of at most
# _SCALAR_HEAD assignments and the head of a larger one stay scalar; no column
# block is longer than _BLOCK_CAP, which bounds the memory a scan holds.
_SCALAR_HEAD = 64
_BLOCK_CAP = 10 ** 4


@dataclass(frozen=True)
class Equation:
    """Two terms over a signature extended with `context_size` variables."""

    context_size: int
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.lhs.signature != self.rhs.signature:
            raise SignatureMismatchError("equation sides are over different signatures")
        extended = self.lhs.signature
        n = self.context_size
        if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= len(extended):
            raise SignatureMismatchError(
                f"context size {_shown(n)} does not fit the signature"
            )
        for _, arity in extended.entries()[len(extended) - n:]:
            if arity != 0:
                raise SignatureMismatchError("variable symbols must have arity 0")

    @property
    def base_size(self) -> int:
        return len(self.lhs.signature) - self.context_size

    def variable_symbols(self) -> tuple[OpSymbol, ...]:
        return self.lhs.signature.symbols[self.base_size:]


@dataclass(frozen=True)
class Theory:
    """A named sequence of labelled equations presenting a variety."""

    name: str
    equations: tuple[tuple[str, Equation], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.equations]
        if len(labels) != len(set(labels)):
            raise FormatError(f"duplicate equation labels in theory {_shown(self.name)}")

    def to_json(self) -> dict:
        rows = []
        for label, eq in self.equations:
            rows.append(
                {
                    "label": label,
                    "vars": [sym.name for sym in eq.variable_symbols()],
                    "lhs": format_term(eq.lhs),
                    "rhs": format_term(eq.rhs),
                }
            )
        return {"name": self.name, "equations": rows}

    @classmethod
    def from_json(cls, signature: Signature, data) -> "Theory":
        if not isinstance(data, dict) or set(data) != {"name", "equations"}:
            raise FormatError('theory file must be {"name": ..., "equations": [...]}')
        name = data["name"]
        rows = data["equations"]
        if not isinstance(name, str) or not isinstance(rows, list):
            raise FormatError("theory name must be a string and equations a list")
        equations = []
        seen = {}  # one extended signature per distinct variable list
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or set(row) != {"label", "vars", "lhs", "rhs"}:
                raise FormatError(
                    f'equation {i} must be {{"label", "vars", "lhs", "rhs"}}'
                )
            if not isinstance(row["vars"], list) or not all(
                isinstance(v, str) for v in row["vars"]
            ):
                raise FormatError(f'equation {i}: "vars" must be a list of names')
            if not all(isinstance(row[key], str) for key in ("label", "lhs", "rhs")):
                raise FormatError(f'equation {i}: "label", "lhs" and "rhs" must be strings')
            eq = _parse_with(signature, tuple(row["vars"]), row["lhs"], row["rhs"], seen)
            equations.append((row["label"], eq))
        return cls(name, tuple(equations))


def parse_equation(
    signature: Signature, var_names: Sequence[str], lhs: str, rhs: str
) -> Equation:
    """Parse both sides over the signature extended with one arity-0
    symbol per variable, named as given; var_names order fixes the
    variable indices.  Equations that differ only in their variable names
    are therefore different values."""
    return _parse_with(signature, tuple(var_names), lhs, rhs, {})


def _parse_with(base: Signature, names: tuple, lhs: str, rhs: str, seen: dict) -> Equation:
    # seen maps each variable list already extended in this load to its signature
    if names not in seen:
        for v in names:  # Signature would call a clash with the base a repeat
            if v in base._by_name:
                raise FormatError(f"variable name {_shown(v)} collides with a symbol name")
        try:
            seen[names] = Signature(base.entries() + tuple((v, 0) for v in names))
        except SignatureError as exc:
            raise FormatError(str(exc)) from None
    extended = seen[names]
    return Equation(len(names), parse_term(extended, lhs), parse_term(extended, rhs))


def _check_base(algebra: FiniteAlgebra, equation: Equation) -> None:
    # the one check Equation cannot make: its base is the algebra's signature
    extended = equation.lhs.signature.entries()
    if algebra.signature.entries() != extended[: equation.base_size]:
        raise SignatureMismatchError(
            "algebra signature is not the base of the term's signature"
        )


def evaluate_with(
    algebra: FiniteAlgebra,
    context_size: int,
    term: Term,
    assignment: Sequence[int],
) -> int:
    """Evaluate a term over the extended signature: base symbols use the
    algebra's tables, variable i takes assignment[i].  Runs the same loop
    as `FiniteAlgebra.evaluate`, on the tables extended by (assignment[i],)
    for each variable."""
    _check_base(algebra, Equation(context_size, term, term))
    assignment = tuple(assignment)
    if len(assignment) != context_size:
        raise CarrierMismatchError(
            f"assignment must have {context_size} values, got {len(assignment)}"
        )
    _check_elements(assignment, algebra.carrier_size, "assignment value")
    tables = algebra.tables + tuple((value,) for value in assignment)
    return _evaluate_ops(term.signature._arities, tables, algebra.carrier_size, term.ops)[0]


def find_violation(
    algebra: FiniteAlgebra, equation: Equation, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...] | None:
    """Lexicographically least assignment on which the sides differ, or
    None when the algebra satisfies the equation."""
    _check_base(algebra, equation)
    n = equation.context_size
    size = algebra.carrier_size
    total = _power_within(size, n, budget)
    if total is None:
        raise BudgetExceededError(
            f"{_shown(size)}^{n} assignments exceed budget {_shown(budget)}"
        )
    arities = equation.lhs.signature._arities
    tables = algebra.tables
    both = equation.lhs.ops + equation.rhs.ops  # status Ok(2)
    # each assignment as the variables' one-entry tables, in the same order
    singletons = tuple((value,) for value in range(size))
    assignments = itertools.product(singletons, repeat=n)
    head = total
    if total > _SCALAR_HEAD:
        # the least power of size whose next band holds _SCALAR_HEAD
        head = 1
        while (size - 1) * head < _SCALAR_HEAD:
            head *= size
        assignments = itertools.islice(assignments, head)
    for extra in assignments:
        rhs, lhs = _evaluate_ops(arities, tables + extra, size, both)
        if lhs != rhs:
            return tuple(value for (value,) in extra)
    if head < total:
        return _scan_columns(tables, size, n, equation, head, total)
    return None


def _scan_columns(tables, size, n, equation, start, total):
    # the assignments from `start`, a power of size, on: bands while one fits
    # _BLOCK_CAP, then aligned blocks of the largest power of size within it;
    # each block is one fold of each side in the power of the algebra over its
    # assignments.  A carrier past the cap takes blocks of its size, not of one
    cap = max(_BLOCK_CAP, size)
    base = len(tables)
    rows = {}  # binary tables as lists of rows, built on first use

    def operation(symbol, args):
        # the operation of the power algebra: each value is a column
        op = symbol.index
        if not args:
            return columns[op - base] if op >= base else [tables[op][0]] * length
        table = tables[op]
        if len(args) == 1:
            return list(map(table.__getitem__, args[0]))
        if len(args) == 2:
            if op not in rows:
                rows[op] = [table[i:i + size] for i in range(0, size * size, size)]
            x, y = args
            return list(map(getitem, map(rows[op].__getitem__, x), y))
        index = args[0]
        for column in args[1:]:
            index = [i * size + v for i, v in zip(index, column)]
        return list(map(table.__getitem__, index))

    aligned = 1
    while aligned * size <= cap:
        aligned *= size
    while start < total:
        # `count` runs of `step` assignments; start is a multiple of step
        step, count = (start, size - 1) if (size - 1) * start <= cap else (aligned, 1)
        length = step * count
        columns = []
        for i in range(n):
            place = size ** (n - 1 - i)
            digit = start // place % size
            if place > step:  # fixed over the block
                columns.append([digit] * length)
                continue
            runs = range(digit, digit + count if place == step else size)
            column = list(itertools.chain.from_iterable([v] * place for v in runs))
            columns.append(column * (length // len(column)))
        lhs = fold(operation, equation.lhs)
        rhs = fold(operation, equation.rhs)
        if lhs != rhs:
            at = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            return tuple(column[at] for column in columns)
        start += length
    return None


def satisfies(
    algebra: FiniteAlgebra, equation: Equation, *, budget: int = DEFAULT_BUDGET
) -> bool:
    return find_violation(algebra, equation, budget=budget) is None


@dataclass(frozen=True)
class ModelFailure:
    """First equation (in theory order) an algebra breaks, with the least
    violating assignment."""

    label: str
    assignment: tuple[int, ...]


def check_model(
    algebra: FiniteAlgebra, theory: Theory, *, budget: int = DEFAULT_BUDGET
) -> ModelFailure | None:
    for label, equation in theory.equations:
        violation = find_violation(algebra, equation, budget=budget)
        if violation is not None:
            return ModelFailure(label, violation)
    return None


def is_model(
    algebra: FiniteAlgebra, theory: Theory, *, budget: int = DEFAULT_BUDGET
) -> bool:
    return check_model(algebra, theory, budget=budget) is None
