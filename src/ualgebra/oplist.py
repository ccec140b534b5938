"""The flat term encoding: symbol sequences and the counting stack machine.

An oplist is a sequence of symbol indices read as prefix notation.  Its
status is computed by a single right-to-left pass: a symbol of arity a
consumes a completed subterms and yields one, so a counter suffices in
place of a materialized stack.  `Ok(k)` means the list encodes exactly k
complete terms; a term proper is an oplist with status `Ok(1)`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import InvalidSymbolError, StatusMismatchError, UnknownSymbolError, _shown
from .signature import Signature

UNDERFLOW = "underflow"


@dataclass(frozen=True)
class Ok:
    """The list builds exactly `terms` complete terms."""

    terms: int


@dataclass(frozen=True)
class Error:
    """The machine underflowed.  `position` is the 0-based index, counted
    left to right, of the symbol whose arguments were missing; everything
    to its right processed fine."""

    kind: str
    position: int


Status = Union[Ok, Error]


def check_indices(signature: Signature, ops) -> tuple[int, ...]:
    """Return ops as a tuple after verifying every index is a symbol of
    the signature."""
    ops = ops if isinstance(ops, tuple) else tuple(ops)
    if ops:
        n = len(signature)
        # min/max run at C speed; locate the offender only on failure
        try:
            fine = 0 <= min(ops) and max(ops) < n
        except TypeError:
            fine = False
        if not fine:
            for i, op in enumerate(ops):
                if not isinstance(op, int) or not 0 <= op < n:
                    raise InvalidSymbolError(
                        f"symbol index {_shown(op)} out of range at position {i}"
                    )
    return ops


def status_of(signature: Signature, ops: Sequence[int]) -> Status:
    """Run the counting machine over ops.

    The scan goes right to left (prefix notation): at a symbol of arity a
    the counter must already hold at least a completed terms; they are
    replaced by one.  At an underflow the symbols not yet scanned are
    those left of it, so their count is its position.
    """
    ops = check_indices(signature, ops)
    arities = signature._arities
    k = 0
    scan = reversed(ops)
    for op in scan:
        a = arities[op]
        if k < a:
            return Error(UNDERFLOW, operator.length_hint(scan))
        k += 1 - a
    return Ok(k)


def is_term(signature: Signature, ops: Sequence[int]) -> bool:
    """True iff ops encodes exactly one complete term."""
    return status_of(signature, ops) == Ok(1)


def split_terms(signature: Signature, ops: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """Cut an oplist with status Ok(n) into its n complete terms.

    Each piece is the unique prefix of the remaining suffix that forms a
    term: scanning left to right, a term ends exactly where the count of
    still-needed arguments first reaches zero.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise StatusMismatchError(f"not a term count: {_shown(n)}")
    ops = tuple(ops)
    status = status_of(signature, ops)
    if status != Ok(n):
        raise StatusMismatchError(f"expected status Ok({_shown(n)}), got {status}")
    return _split_valid(signature, ops, n)


def _split_valid(signature: Signature, ops: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    # the left-to-right cut of split_terms; caller guarantees status Ok(n),
    # so the last piece is whatever the first n - 1 leave and is not scanned
    if not n:
        return []
    arities = signature._arities
    parts = []
    i = 0
    for _ in range(n - 1):
        start = i
        need = 1
        while need:
            need += arities[ops[i]] - 1
            i += 1
        parts.append(ops[start:i])
    parts.append(ops[i:])
    return parts


def parse_oplist(signature: Signature, text: str) -> tuple[int, ...]:
    """Read the textual oplist form: whitespace-separated display names.
    An unknown name's position is its word index, found only on failure."""
    words = text.split()
    try:
        return tuple(map(signature._by_name.__getitem__, words))
    except KeyError as exc:
        word = exc.args[0]
        raise UnknownSymbolError(word, words.index(word)) from None


def format_oplist(signature: Signature, ops: Sequence[int]) -> str:
    ops = check_indices(signature, ops)
    return " ".join(signature.symbols[op].name for op in ops)
