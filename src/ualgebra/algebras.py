"""Finite algebras: dense carriers, flat operation tables, evaluation.

The carrier is {0..size-1}.  The table for a symbol of arity a lists the
outputs for all a-tuples of arguments in lexicographic order, i.e. a flat
row-major array with the leftmost argument most significant.

Evaluation is one right-to-left pass with straight-line branches for
arities 0, 1 and 2.  Run over an oplist with status Ok(k), it leaves the
values of the k terms on its stack, rightmost term first; a term gives one
value, and an equation's two sides written one after the other give both
in one pass.  It knows nothing of variables: to evaluate under an
assignment, `equations` extends the algebra to the variables, which are
arity-0 symbols, by one-entry tables holding their values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ArityMismatchError,
    CarrierMismatchError,
    FormatError,
    SignatureMismatchError,
    _capped,
    _listed,
    _shown,
)
from .signature import OpSymbol, Signature
from .terms import Term


class FiniteAlgebra:
    """A finite carrier with one total operation table per symbol."""

    __slots__ = ("signature", "carrier_size", "tables")

    def __init__(self, signature: Signature, carrier_size: int, tables):
        if type(carrier_size) is bool or not (
            isinstance(carrier_size, int) and carrier_size >= 1
        ):
            raise CarrierMismatchError(
                f"carrier must have at least one element, got {_shown(carrier_size)}"
            )
        tables = tuple(tuple(table) for table in tables)
        if len(tables) != len(signature):
            raise CarrierMismatchError(
                f"expected {len(signature)} tables, got {len(tables)}"
            )
        for sym in signature.symbols:
            table = tables[sym.index]
            name = _capped(sym.name)
            want = _power_within(carrier_size, sym.arity, len(table))
            if want != len(table):
                if want is None:
                    want = f"{_shown(carrier_size)}^{_shown(sym.arity)}"
                raise CarrierMismatchError(
                    f"table for {name} must have {want} entries, got {len(table)}"
                )
            _check_elements(table, carrier_size, f"table for {name} has entry")
        self.signature = signature
        self.carrier_size = carrier_size
        self.tables = tables

    def apply(self, symbol, args: Sequence[int]) -> int:
        """Apply one operation table to a tuple of carrier elements."""
        if isinstance(symbol, OpSymbol):
            if symbol.signature != self.signature:
                raise SignatureMismatchError("symbol is over a different signature")
            sym = symbol
        else:
            sym = self.signature.symbol(symbol)
        if len(args) != sym.arity:
            raise ArityMismatchError(sym.name, sym.arity, len(args))
        size = self.carrier_size
        _check_elements(args, size, "argument")
        index = 0
        for x in args:
            index = index * size + x
        return self.tables[sym.index][index]

    def evaluate(self, term: Term) -> int:
        """The unique homomorphic extension of the tables, applied to a
        term.  Single right-to-left pass; safe for million-node terms.
        The one loop that `evaluate_with` also runs."""
        if term.signature != self.signature:
            raise SignatureMismatchError("term is over a different signature")
        return _evaluate_ops(
            self.signature._arities, self.tables, self.carrier_size, term.ops
        )[0]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.signature == other.signature
            and self.carrier_size == other.carrier_size
            and self.tables == other.tables
        )

    def __hash__(self):
        return hash((self.signature, self.carrier_size, self.tables))

    def __repr__(self):
        return f"FiniteAlgebra(carrier={self.carrier_size}, over {self.signature!r})"

    def to_json(self) -> dict:
        return {
            "carrier": self.carrier_size,
            "tables": {
                sym.name: list(self.tables[sym.index])
                for sym in self.signature.symbols
            },
        }

    @classmethod
    def from_json(cls, signature: Signature, data) -> "FiniteAlgebra":
        if not isinstance(data, dict) or set(data) != {"carrier", "tables"}:
            raise FormatError('algebra file must be {"carrier": ..., "tables": ...}')
        carrier = data["carrier"]
        tables = data["tables"]
        if not isinstance(tables, dict):
            raise FormatError('"tables" must map symbol names to arrays')
        names = signature._by_name.keys()
        missing = names - tables.keys()
        extra = tables.keys() - names
        if missing:
            raise FormatError(f"missing table(s) for: {_listed(missing)}")
        if extra:
            raise FormatError(f"table(s) for unknown symbol(s): {_listed(extra)}")
        ordered = []
        for sym in signature.symbols:
            table = tables[sym.name]
            if not isinstance(table, list):
                raise FormatError(
                    f"table for {_capped(sym.name)} must be an array of integers"
                )
            ordered.append(table)
        try:
            return cls(signature, carrier, ordered)
        except CarrierMismatchError as exc:
            raise FormatError(str(exc)) from None


def _power_within(base, exp, cap):
    # base ** exp (base >= 1) when it is at most cap, else None; never builds
    # a number much past cap, which a huge carrier and arity from a file
    # would make slow to compute and impossible to print
    result = 1
    for _ in range(exp):
        result *= base
        if result > cap:
            break
    return result if result <= cap else None


def _check_elements(values, size, what, where="the carrier"):
    # one call per sequence: every value must be an int (never a bool)
    # in range(size); the message names the first one that is not
    for value in values:
        if type(value) is bool or not (isinstance(value, int) and 0 <= value < size):
            raise CarrierMismatchError(f"{what} {_shown(value)} outside {where}")


def _evaluate_ops(arities, tables, size, ops):
    # the one evaluation loop, over checked inputs: one table per symbol,
    # indexed row-major; the top of the stack is the leftmost argument.
    # For ops with status Ok(k) the final stack holds the k terms' values,
    # rightmost term first
    stack = []
    push = stack.append
    pop = stack.pop
    for op in reversed(ops):
        a = arities[op]
        if a == 0:
            push(tables[op][0])
        elif a == 1:
            stack[-1] = tables[op][stack[-1]]
        elif a == 2:
            x = pop()
            stack[-1] = tables[op][x * size + stack[-1]]
        else:
            index = 0
            for _ in range(a):
                index = index * size + pop()
            push(tables[op][index])
    return stack


@dataclass(frozen=True)
class HomViolation:
    """A witness that a carrier map is not a homomorphism: mapping the
    source result (`lhs`) differs from the target operation applied to
    the mapped arguments (`rhs`)."""

    symbol: OpSymbol
    args: tuple[int, ...]
    lhs: int
    rhs: int


def check_homomorphism(
    source: FiniteAlgebra, target: FiniteAlgebra, mapping: Sequence[int]
) -> HomViolation | None:
    """First (symbol index, then argument tuple, lexicographic) violation
    of the homomorphism condition, or None if the map commutes with every
    operation."""
    if source.signature != target.signature:
        raise SignatureMismatchError("algebras are over different signatures")
    mapping = tuple(mapping)
    if len(mapping) != source.carrier_size:
        raise CarrierMismatchError(
            f"mapping must cover {_shown(source.carrier_size)} elements, got {len(mapping)}"
        )
    _check_elements(
        mapping, target.carrier_size, "mapping value", "the target carrier"
    )
    s_size = source.carrier_size
    t_size = target.carrier_size
    for sym in source.signature.symbols:
        t_table = target.tables[sym.index]
        # the source table is row-major, so it lists its entries in the
        # order that product yields the argument tuples
        tuples = itertools.product(range(s_size), repeat=sym.arity)
        for args, value in zip(tuples, source.tables[sym.index]):
            t_index = 0
            for x in args:
                t_index = t_index * t_size + mapping[x]
            lhs = mapping[value]
            rhs = t_table[t_index]
            if lhs != rhs:
                return HomViolation(sym, args, lhs, rhs)
    return None


def is_homomorphism(
    source: FiniteAlgebra, target: FiniteAlgebra, mapping: Sequence[int]
) -> bool:
    return check_homomorphism(source, target, mapping) is None
