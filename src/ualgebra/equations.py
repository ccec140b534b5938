"""Equations with variables, satisfaction by assignment enumeration, and
theory (variety presentation) membership.

Variables are ordinary arity-0 symbols appended to the base signature, so
both sides of an equation are plain terms over the extended signature;
`Equation` is the one check of that split.  Assignments enumerate in
mixed-radix lexicographic order with the leftmost variable most significant,
which makes the reported counterexample the least one.  A space of at most 64
assignments runs the scalar loop over the sides as one Ok(2) oplist, variable
i being the one-entry table (value,).  A larger space is scanned from
assignment 0 in blocks [0, c), [c, c^2), ... up to the largest power of the
carrier size c within 10^4, then in aligned blocks of that power (past 10^4
elements, blocks of at most 10^4).  Both sides compile to one plan of steps
over slots in the power of the algebra, a repeated subterm in one slot.
Digits fixed over every block are ints and the others columns, so a step is a
lookup, a unary polynomial (one column through one table) or a step on
several columns, as the plan decides.  Columns are bytes when the algebra
keeps its tables as bytes (at most 256 elements, see `algebras`), else lists.
A unary polynomial is a bounded slice of its table, on bytes one translate.
With b = (c - 1).bit_length(), a step on several columns of a symbol of arity
a with a * b <= 8 (binary up to 16 elements, ternary up to 4) translates their
b-bit lanes packed into one int; any other reads its table once per entry.
Aligned blocks share their columns, and their fixed digits advance like an
odometer, so a step re-runs only if it reads a digit from the first one that
changed on; a kept column keeps its packed int.  A theory builds one
extended signature per variable list.

Each scan's work that does not depend on the assignments is done once and
kept by its owner.  The equation keeps its plan, made by its first column
scan and made again when the carrier size, the algebra's bytes or a bound
that shapes it (`_BYTE_BITS`, `_BLOCK_CAP`) differs from the last one's.  A
bytes scan keeps in the algebra what it reads of the tables alone: each
unary polynomial and lanes table, and each variable column of a block
length with its packed int.  So repeated checks of one theory pay for the
blocks alone; list columns, those of carriers past 256, are built per call,
and nothing kept depends on a verdict.
"""

from __future__ import annotations

import itertools
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
    _Record,
    _shown,
)
from .signature import OpSymbol, Signature
from .syntax import parse_term
from .terms import Term, format_term

# Default cap on carrier_size ** context_size per satisfaction check.
DEFAULT_BUDGET = 10 ** 7

# A column pass of any length costs several scalar ones, so a space of at most
# _SCALAR_SPACE assignments stays scalar; no column block is longer than
# _BLOCK_CAP, which bounds the memory a scan holds.
_SCALAR_SPACE = 64
_BLOCK_CAP = 10 ** 4
# The bits of a byte: a step on several bytes columns packs their lanes when
# the arguments of its symbol fit into one
_BYTE_BITS = 8


class Equation(_Record):
    """Two terms over a signature extended with `context_size` variables."""

    # _plan: the compiled column scan, set by its first scan (see _scan_columns)
    __slots__ = ("context_size", "lhs", "rhs", "_plan")

    def __init__(self, context_size: int, lhs: Term, rhs: Term):
        extended = lhs.signature
        if rhs.signature is not extended and rhs.signature != extended:
            raise SignatureMismatchError("equation sides are over different signatures")
        n = context_size
        if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= len(extended):
            raise SignatureMismatchError(
                f"context size {_shown(n)} does not fit the signature"
            )
        if any(extended._arities[len(extended) - n:]):
            raise SignatureMismatchError("variable symbols must have arity 0")
        object.__setattr__(self, "context_size", context_size)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def base_size(self) -> int:
        return len(self.lhs.signature) - self.context_size

    def variable_symbols(self) -> tuple[OpSymbol, ...]:
        return self.lhs.signature.symbols[self.base_size:]


class Theory(_Record):
    """A named sequence of labelled equations presenting a variety."""

    __slots__ = ("name", "equations")

    def __init__(self, name: str, equations: tuple[tuple[str, Equation], ...]):
        # a tuple, so a generator is not used up by the label check and a
        # list does not leave the theory unhashable
        equations = tuple(equations)
        labels = [label for label, _ in equations]
        if len(labels) != len(set(labels)):
            raise FormatError(f"duplicate equation labels in theory {_shown(name)}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "equations", equations)

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
        return cls(name, equations)


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
    extended = equation.lhs.signature._entries
    if algebra.signature._entries != extended[: equation.base_size]:
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
    if total > _SCALAR_SPACE:
        return _scan_columns(algebra, equation, total)
    arities = equation.lhs.signature._arities
    both = equation.lhs.ops + equation.rhs.ops  # status Ok(2)
    tables = algebra.tables
    # each assignment as the variables' one-entry tables, in the same order;
    # a ground equation has the one assignment () and needs none
    singletons = tuple(zip(range(size))) if n else ()
    for extra in itertools.product(singletons, repeat=n):
        rhs, lhs = _evaluate_ops(arities, tables + extra, size, both)
        if lhs != rhs:
            return next(zip(*extra), ())
    return None


def _compile(equation, size, on_bytes):
    # the plan of a column scan over `size` elements, led by its key (what
    # it depends on besides the equation): the blocks and the steps
    n, base = equation.context_size, equation.base_size
    arities = equation.lhs.signature._arities
    both = equation.lhs.ops + equation.rhs.ops
    bits = (size - 1).bit_length()
    places = [size ** (n - 1 - i) for i in range(n)]
    aligned = 1
    while aligned * size <= _BLOCK_CAP:
        aligned *= size
    span = aligned if aligned >= size else _BLOCK_CAP  # past the cap, aligned is 1
    # the steps (slot, symbol, int arguments, column arguments, lanes), each
    # argument as (slot, weight in the table read); variable i is slot i, an
    # int for i < fixed.  reads[slot]: bit 0, bit i + 1 if it reads var i
    fixed = sum(place >= span for place in places)
    reads = [2 << i for i in range(n)]
    program, slots, stack, lanes_of = [], {}, [], set()
    for op in reversed(both):
        if op >= base:
            stack.append(op - base)
            continue
        key = (op, *stack[len(stack) - arities[op]:])  # the arguments, last first
        del stack[len(stack) - len(key) + 1:]
        if key not in slots:
            slots[key] = len(reads)
            # several columns of a symbol whose arguments fit in a byte at
            # b bits each are packed as lanes, read in its packed table
            cycling = sum(reads[arg] >> fixed + 1 > 0 for arg in key[1:])
            lanes = on_bytes and cycling > 1 and bits * arities[op] <= _BYTE_BITS
            radix = 1 << bits if lanes else size
            weight, ints, columns, read = 1, [], [], 1
            for arg in key[1:]:
                (columns if reads[arg] >> fixed + 1 else ints).append((arg, weight))
                weight, read = weight * radix, read | reads[arg]
            lanes_of.update([arg for arg, _ in columns] if lanes else ())
            program.append((len(reads), op, ints, columns, lanes))
            reads.append(read)
        stack.append(slots[key])
    rhs, lhs = stack
    # plans: the steps to re-run by the first fixed digit that changed,
    # filled in as scans need them
    return ((size, _BYTE_BITS, _BLOCK_CAP, on_bytes), places, aligned, span, fixed,
            program, reads, lanes_of, lhs, rhs, {})


def _packed_table(table, arity, size, offset):
    # a symbol's values by its arguments' digits packed in b-bit lanes, from key `offset` on
    bits = (size - 1).bit_length()
    keys = [0]  # the packed keys of all arguments but the last, in order
    for _ in range(arity - 1):
        keys = [key << bits | v for key in keys for v in range(size)]
    translation = bytearray(256)
    for i, key in enumerate(keys):
        translation[key << bits:(key << bits) + size] = table[i * size:i * size + size]
    return bytes(translation[offset:]).ljust(256)


def _scan_columns(algebra, equation, total):
    size, n = algebra.carrier_size, equation.context_size
    tables = algebra._byte_tables
    on_bytes = tables is not None
    plan = getattr(equation, "_plan", None)
    if plan is None or plan[0] != (size, _BYTE_BITS, _BLOCK_CAP, on_bytes):
        plan = _compile(equation, size, on_bytes)
        object.__setattr__(equation, "_plan", plan)
    _, places, aligned, span, fixed, program, reads, lanes_of, lhs, rhs, plans = plan
    if on_bytes:
        # kept by the algebra for every bytes scan: the unary polynomials
        # and lanes tables, and the variables' columns with their lanes
        if algebra._scans is None:
            object.__setattr__(algebra, "_scans", ({}, {}))
        (partials, cycles), unit = algebra._scans, bytes
    else:  # past the byte carrier: lists, built per call
        tables, unit, partials, cycles = algebra.tables, list, {}, {}
    values, lanes = [None] * len(reads), [None] * len(reads)
    start = length = 0
    while start < total:
        # `count` runs of `step` assignments; start is a multiple of step.
        # A step runs if it reads a digit from `changed` on (-1: new columns)
        step = min(start, aligned) or 1
        count = min(size - start // step % size, span // step)
        new = step * count != aligned or length != aligned
        length = step * count
        digits = [start // place % size for place in places[:fixed]]
        changed = -1 if new else next((i for i in range(fixed) if digits[i] != values[i]), fixed)
        values[:fixed] = digits
        if changed not in plans:
            rerun = (1 << fixed + 1) - (1 << changed + 1)
            plans[changed] = [entry for entry in program if reads[entry[0]] & rerun]
        for i in range(fixed, n) if new else ():
            place = places[i]
            digit = start // place % size
            # a place below the length divides start, so these three
            # decide the column
            key = place, digit, length
            got = cycles.get(key)
            if got is None:
                if place >= length:  # fixed over this block alone
                    column = unit((digit,)) * length
                else:  # runs of `place` equal digits, repeated
                    runs = range(digit, digit + count if place == step else size)
                    parts = (unit((v,)) * place for v in runs)
                    column = b"".join(parts) if on_bytes else list(itertools.chain.from_iterable(parts))
                    column = column * (length // len(column))
                got = column, on_bytes and int.from_bytes(column, "little")
                if on_bytes:  # a list column lives as long as its call
                    cycles[key] = got
            values[i], lanes[i] = got
        for slot, op, ints, columns, packed in plans[changed]:
            offset = 0
            for arg, weight in ints:
                offset += values[arg] * weight
            if not columns:
                values[slot] = tables[op][offset]
                continue
            if packed:  # one column of packed lanes, through a lanes table
                column = 0
                for arg, weight in columns:  # a product with 1 would copy
                    column |= lanes[arg] * weight if weight > 1 else lanes[arg]
                column = column.to_bytes(length, "little")
                table = partials.get((op, offset))  # keyed apart from a polynomial
                if table is None:
                    arity = len(ints) + len(columns)
                    table = partials[op, offset] = _packed_table(tables[op], arity, size, offset)
            elif len(columns) > 1:  # an index per entry, summed column by column
                table, column = tables[op], itertools.repeat(offset, length)
                for arg, weight in columns:
                    column = [i + weight * v for i, v in zip(column, values[arg])]
            else:  # a unary polynomial of the algebra
                (arg, stride), = columns
                column = values[arg]
                table = partials.get((op, offset, stride))
                if table is None:  # bounded: a byte table may run past 256
                    table = tables[op][offset:offset + stride * size:stride]
                    table = partials[op, offset, stride] = table.ljust(256) if on_bytes else table
            values[slot] = column = (
                column.translate(table) if type(column) is bytes else unit(map(table.__getitem__, column))
            )
            if slot in lanes_of:
                lanes[slot] = int.from_bytes(column, "little")
        at = _differ_at(length, values[lhs], values[rhs])
        if at is not None:
            return tuple((start + at) // place % size for place in places)
        start += length
    return None


def _differ_at(length, lhs, rhs):
    # the first index where a block's sides differ, or None (an int: `length` copies)
    if lhs != rhs:
        lhs, rhs = ([v] * length if type(v) is int else v for v in (lhs, rhs))
        return next((i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y), None)
    return None


def satisfies(
    algebra: FiniteAlgebra, equation: Equation, *, budget: int = DEFAULT_BUDGET
) -> bool:
    return find_violation(algebra, equation, budget=budget) is None


class ModelFailure(_Record):
    """First equation (in theory order) an algebra breaks, with the least
    violating assignment."""

    __slots__ = ("label", "assignment")

    def __init__(self, label: str, assignment: tuple[int, ...]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "assignment", assignment)


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
