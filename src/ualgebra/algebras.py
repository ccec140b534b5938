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

`check_homomorphism` scans each table once, one row at a time: a row fixes
every argument but the last, its target row at the mapped prefix is found
once, and it is compared entry by entry up to its first difference.  An
algebra of at most 256 elements also keeps its tables as `bytes`; when both
carriers fit and the source has at least `_ROW_MIN` elements, a group of
rows (every argument but the last two fixed) is first compared whole: its
entries mapped by one `bytes.translate`, against the target rows at the
images of its second-last argument, each pulled back by one translate and
joined once per mapped prefix; before that join the group's first row
alone is compared, so a difference there joins nothing.  Only a group that
differs is read entry by entry.  The gate exists because each call pays a
fixed cost for the translate tables that short rows cannot win back.
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
# the least source carrier whose groups of rows check_homomorphism compares
# as bytes.  Measured on Z_n -> Z_n/2 ring quotients (Python 3.11, 2 shared
# vCPUs, best of 5, three rounds), as the speed of the group compare over
# the entry compare: a full scan 1.5-3.0x at n = 8, 4.6-4.8x at 12, 5.1-6.6x
# at 16 (54-95 against 358-487 us) and 12.5-15x at 32; a violation at the
# first tuple of the binary m 0.50-0.73x at 8, 0.49-0.62x at 12, 0.35-0.47x
# at 16 and 0.41-0.44x at 32; one at the end of m's first row 0.32-0.50x,
# 0.51-0.80x, 0.32-0.49x and 0.47-0.81x (7-8 against 15-24 us at 16).  So
# full scans gain from 8 up and early exits lose a few us at every size;
# 16 keeps the maps of a search over all carrier maps (up to 8 elements),
# most of which exit early, on the entry compare
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
        # the same tables as bytes, read only by `check_homomorphism`'s bytes
        # compare; a subscript of `tables` stays the faster one to evaluate with
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

    A row (every argument but the last fixed) is compared entry by entry
    up to its first difference.  From `_ROW_MIN` source elements, with
    both carriers at most 256, a group of rows (every argument but the
    last two fixed) is first compared whole as bytes, and only a group
    that differs is read row by row (see the module docstring)."""
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
    s_tables = source.tables
    t_tables = target.tables
    by_bytes = (
        s_size >= _ROW_MIN
        and source._byte_tables is not None
        and target._byte_tables is not None
    )
    if by_bytes:
        # `image` sends a source element to its image; a target row padded
        # by `pad` sends a target element to the row's entry there, so
        # translating `mapped` through it reads the row at the images of
        # the whole source carrier
        s_tables = source._byte_tables
        t_tables = target._byte_tables
        mapped = bytes(mapping)
        image = mapped.ljust(256, b"\0")
        pad = bytes(256 - t_size)
    for sym in source.signature.symbols:
        s_table = s_tables[sym.index]
        t_table = t_tables[sym.index]
        if not sym.arity:
            lhs = mapping[s_table[0]]
            if lhs != t_table[0]:
                return HomViolation(sym, (), lhs, t_table[0])
            continue
        # the rows read entry by entry: below the gate all of them, each
        # with `free` arguments before the last
        prefix, k, start, free = (), 0, 0, sym.arity - 1
        if by_bytes:
            # a group fixes all but the last two arguments; the target's
            # block at its mapped prefix k, pulled back, is joined once per k
            free = min(free, 1)
            group = s_size ** (free + 1)
            seconds = mapping if free else (0,)  # a unary table is one row
            joined = {}
            for prefix in itertools.product(range(s_size), repeat=sym.arity - 1 - free):
                k = 0
                for x in prefix:
                    k = k * t_size + mapping[x]
                rhs = joined.get(k)
                if rhs is None:
                    rows = {}
                    for j in set(seconds):
                        at = (k * t_size + j) * t_size
                        rows[j] = mapped.translate(t_table[at : at + t_size] + pad)
                    # a first row that differs goes to the entry loop unjoined
                    if s_table[start : start + s_size].translate(image) != rows[seconds[0]]:
                        break
                    rhs = joined[k] = b"".join(map(rows.__getitem__, seconds))
                if s_table[start : start + group].translate(image) != rhs:
                    break
                start += group
            else:
                continue
        # read up to the first difference; a bytes subscript is an int
        for tail in itertools.product(range(s_size), repeat=free):
            row = k
            for x in tail:
                row = row * t_size + mapping[x]
            row *= t_size  # the target row of the mapped prefix
            for j in range(s_size):
                lhs = mapping[s_table[start + j]]
                rhs = t_table[row + mapping[j]]
                if lhs != rhs:
                    return HomViolation(sym, prefix + tail + (j,), lhs, rhs)
            start += s_size
    return None


def is_homomorphism(
    source: FiniteAlgebra, target: FiniteAlgebra, mapping: Sequence[int]
) -> bool:
    return check_homomorphism(source, target, mapping) is None
