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

`check_homomorphism` scans a table in argument order.  An algebra of at
most 256 elements also keeps its tables as `bytes`, and when both carriers
fit and the source has at least `_ROW_MIN` elements, the scan goes one row
at a time: a row fixes every argument but the last, and both sides of the
condition are computed for the whole row by `bytes.translate`, one C loop,
and compared as bytes.  Below the gate the tuple loop stays, because each
call then pays a fixed cost for the translate tables that short rows
cannot win back.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import (
    ArityMismatchError,
    CarrierMismatchError,
    FormatError,
    SignatureMismatchError,
    _capped,
    _listed,
    _Record,
    _shown,
)
from .signature import OpSymbol, Signature
from .terms import Term


# a carrier of at most this many elements keeps a copy of its tables as
# bytes, one element per byte
_BYTE_CARRIER = 256
# the least source carrier that check_homomorphism scans by rows.  Measured
# on Z_n -> Z_n/2 ring quotients (Python 3.11, 2 shared vCPUs, best of 3
# runs; rows against the tuple loop): a full scan runs 2.2-2.7x faster at
# n = 8, 3.4-3.7x at 12, 3.9-4.9x at 16 and 11-12x at 32; a violation at the
# end of the first row 0.96-0.99x at 8, 0.98-1.04x at 12 and 1.09-1.12x at
# 16; a violation at the first tuple costs 1.1-1.7 us more at every n, for
# the translate tables.  16 is past the crossover and keeps the maps of a
# search over all carrier maps (up to 8 elements) on the tuple loop
_ROW_MIN = 16


class FiniteAlgebra:
    """A finite carrier with one total operation table per symbol."""

    __slots__ = ("signature", "carrier_size", "tables", "_byte_tables")

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
        # the same tables as bytes, read only by `check_homomorphism`'s row
        # path; a subscript of `tables` stays the faster one to evaluate with
        self._byte_tables = (
            tuple(map(bytes, tables)) if carrier_size <= _BYTE_CARRIER else None
        )

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


class HomViolation(_Record):
    """A witness that a carrier map is not a homomorphism: mapping the
    source result (`lhs`) differs from the target operation applied to
    the mapped arguments (`rhs`)."""

    __slots__ = ("symbol", "args", "lhs", "rhs")

    def __init__(self, symbol: OpSymbol, args: tuple[int, ...], lhs: int, rhs: int):
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


def check_homomorphism(
    source: FiniteAlgebra, target: FiniteAlgebra, mapping: Sequence[int]
) -> HomViolation | None:
    """First (symbol index, then argument tuple, lexicographic) violation
    of the homomorphism condition, or None if the map commutes with every
    operation.

    When the source has at least `_ROW_MIN` elements and both carriers at
    most 256, a symbol of arity a >= 1 is checked a row at a time: for each
    prefix of a - 1 arguments, the source row mapped through `mapping` is
    compared, as bytes, with the target row of the mapped prefix read at
    the mapped last arguments.  The first differing entry of the first
    differing row is the same least violation that the tuple loop finds.
    Smaller sources and larger carriers take the tuple loop, which is
    cheaper to start (see `_ROW_MIN`)."""
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
    if (
        s_size >= _ROW_MIN
        and source._byte_tables is not None
        and target._byte_tables is not None
    ):
        return _first_violation_by_rows(source, target, mapping)
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


def _first_violation_by_rows(source, target, mapping):
    # the row scan of check_homomorphism.  `image` sends a source element
    # to its image; a target row padded by `pad` sends a target element to
    # the row's entry there, so translating `mapped` through it reads the
    # row at the images of the whole source carrier
    s_size = source.carrier_size
    t_size = target.carrier_size
    mapped = bytes(mapping)
    image = mapped.ljust(256, b"\0")
    pad = bytes(256 - t_size)
    for sym in source.signature.symbols:
        s_bytes = source._byte_tables[sym.index]
        t_bytes = target._byte_tables[sym.index]
        if not sym.arity:
            lhs = mapping[s_bytes[0]]
            if lhs != t_bytes[0]:
                return HomViolation(sym, (), lhs, t_bytes[0])
            continue
        start = 0
        for prefix in itertools.product(range(s_size), repeat=sym.arity - 1):
            k = 0
            for x in prefix:
                k = k * t_size + mapping[x]
            k *= t_size  # the target row of the mapped prefix
            lhs = s_bytes[start : start + s_size].translate(image)
            rhs = mapped.translate(t_bytes[k : k + t_size] + pad)
            if lhs != rhs:
                j = 0
                while lhs[j] == rhs[j]:
                    j += 1
                return HomViolation(sym, prefix + (j,), lhs[j], rhs[j])
            start += s_size
    return None


def is_homomorphism(
    source: FiniteAlgebra, target: FiniteAlgebra, mapping: Sequence[int]
) -> bool:
    return check_homomorphism(source, target, mapping) is None
