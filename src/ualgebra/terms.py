"""Validated terms, O(n) building, destructuring, and the fold.

Every operation here is a single pass over the flat oplist with an
explicit stack, so arbitrarily deep terms never grow the call stack.
The passes branch on arity, with straight-line code for the small
arities that make up most nodes.

The printer keeps a stack of owed separators: an application of arity a
pushes `)` under a - 1 `,`, and each finished subterm pops up to and
including the next `,`.  A subterm that empties the stack is a root, so
the same pass counts roots and doubles as the one-term check: by the
prefix-code property, an oplist is exactly one term iff it ends with one
root and nothing owed (`_printed`).
"""

from __future__ import annotations

import gc
import itertools
from typing import Callable, Sequence

from .errors import (
    ArityMismatchError,
    InvalidTermError,
    LimitExceededError,
    SignatureMismatchError,
    _shown,
)
from .oplist import Ok, _split_valid, status_of
from .signature import OpSymbol, Signature

# step(symbol, child_results) -> result, total on the signature
FoldStep = Callable[[OpSymbol, list], object]

# Default cap on enumerate_terms lengths.
ENUM_LIMIT = 12


class Term:
    """An oplist whose machine status is exactly one complete term.

    The constructor validates; code that can guarantee validity (building
    from existing terms, parsing) goes through `_wrap` and never rescans.
    The fields are read-only by contract but not guarded as a record's are:
    setting them through `object.__setattr__` made `enumerate_terms`, which
    builds one term per step, 1.2-1.7x slower.
    """

    __slots__ = ("signature", "ops")

    def __init__(self, signature: Signature, ops: Sequence[int]):
        ops = tuple(ops)
        status = status_of(signature, ops)
        if status != Ok(1):
            raise InvalidTermError(f"not a term: status {status}")
        self.signature = signature
        self.ops = ops

    @classmethod
    def _wrap(cls, signature: Signature, ops: tuple[int, ...]) -> "Term":
        # caller guarantees ops is a valid single term over signature
        t = object.__new__(cls)
        t.signature = signature
        t.ops = ops
        return t

    def __len__(self) -> int:
        return len(self.ops)

    def __eq__(self, other):
        return (
            isinstance(other, Term)
            and self.ops == other.ops
            and self.signature == other.signature
        )

    def __hash__(self):
        return hash((self.signature, self.ops))

    def __str__(self):
        return format_term(self)

    def __repr__(self):
        if len(self.ops) > 32:
            return f"Term(<{len(self.ops)} symbols>)"
        return f"Term({format_term(self)!r})"


def build_term(symbol: OpSymbol, children: Sequence[Term]) -> Term:
    """Prefix-concatenate: the symbol followed by its children's oplists.

    Validity follows from the composition of the children's statuses, so
    nothing is rescanned.
    """
    signature = symbol.signature
    arity = symbol.arity
    if len(children) != arity:
        raise ArityMismatchError(symbol.name, arity, len(children))
    for child in children:
        if child.signature != signature:
            raise SignatureMismatchError(
                f"child {_shown(child)} is over a different signature"
            )
    ops = (symbol.index,) + tuple(itertools.chain.from_iterable(c.ops for c in children))
    return Term._wrap(signature, ops)


def destructure(term: Term) -> tuple[OpSymbol, list[Term]]:
    """Inverse of build_term: head symbol plus the child terms in order."""
    signature = term.signature
    head = term.ops[0]
    arity = signature._arities[head]
    parts = _split_valid(signature, term.ops[1:], arity)
    return signature.symbols[head], [Term._wrap(signature, p) for p in parts]


def fold(step: FoldStep, term: Term):
    """Structural recursion as one right-to-left pass with a result stack.

    `step(symbol, results)` receives the children's results left to right
    and must be total on the signature.  The returned value satisfies
    fold(step, build_term(nm, v)) == step(nm, [fold(step, c) for c in v]).
    """
    signature = term.signature
    arities = signature._arities
    symbols = signature.symbols
    stack = []
    push = stack.append
    for op in reversed(term.ops):
        a = arities[op]
        if a == 1:
            stack[-1] = step(symbols[op], [stack[-1]])
        elif a:
            # the top of the stack is the leftmost child
            args = stack[:-a - 1:-1]
            del stack[-a:]
            push(step(symbols[op], args))
        else:
            push(step(symbols[op], []))
    return stack[0]


def depth(term: Term) -> int:
    """Height of the term tree: 1 + max over children (0 for constants).

    Same machine as fold with the depth step, specialized so that
    million-node chains stay well under a second.
    """
    arities = term.signature._arities
    stack = []
    push = stack.append
    pop = stack.pop
    for op in reversed(term.ops):
        a = arities[op]
        if a == 0:
            push(1)
        elif a == 1:
            stack[-1] += 1
        elif a == 2:
            v = pop()
            w = stack[-1]
            stack[-1] = (v if v > w else w) + 1
        else:
            v = max(stack[-a:]) + 1
            del stack[-a:]
            push(v)
    return stack[0]


def enumerate_terms(
    signature: Signature, max_len: int, *, limit: int = ENUM_LIMIT
) -> list[Term]:
    """All terms with oplist length <= max_len, shortest first and
    lexicographic (by symbol index) within one length.

    Runs the counting machine's recurrence one length at a time: a symbol
    of arity a in front of an oplist of status Ok(k + a - 1) gives status
    Ok(k), so the oplists of length m + 1 and status Ok(k) come from
    those of length m alone, and the terms of each length are its Ok(1)
    lists.  Taking symbols in index order keeps every list lexicographic.
    The filter over all |signature|^n lists lives in the test suite as
    the correctness oracle.

    The cyclic garbage collector is paused while the lists are built, and
    its prior state is restored on every exit.  The result holds no cycle
    (a Term holds its signature and a tuple of ints), so the collections
    its allocations would trigger, the older ones rescanning every Term
    built so far, have nothing to free.  A later young-generation pass
    still examines the new objects once.
    """
    for what, count in (("max_len", max_len), ("limit", limit)):
        if isinstance(count, bool) or not isinstance(count, int):
            raise LimitExceededError(f"{what} must be an integer, got {_shown(count)}")
    if max_len < 0:
        raise LimitExceededError(f"max_len must not be negative, got {_shown(max_len)}")
    if max_len > limit:
        raise LimitExceededError(
            f"max_len {_shown(max_len)} exceeds enumeration limit {_shown(limit)}"
        )
    symbols = tuple(enumerate(signature._arities))
    # a symbol of arity a lowers the count by a - 1, so with A the largest
    # arity an Ok(k) suffix of length m can still become a term within
    # max_len only if k - 1 <= (max_len - m) * (A - 1)
    drop = max(max(signature._arities, default=0) - 1, 0)
    forests = {0: [()]}  # status count -> oplists of the current length
    found = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for m in range(1, max_len + 1):
            forests = {
                k: [(s,) + rest for s, a in symbols for rest in forests.get(k + a - 1, ())]
                for k in range(1, min(m, 1 + (max_len - m) * drop) + 1)
            }
            found.extend(Term._wrap(signature, ops) for ops in forests[1])
    finally:
        if was_enabled:
            gc.enable()
    return found


def format_term(term: Term) -> str:
    """Functional notation with the minimal form: no parentheses on
    constants."""
    return _printed(term.signature, term.ops)


def _printed(signature: Signature, ops: Sequence[int]) -> str | None:
    # the printed form of ops when it is exactly one term, else None;
    # ops must hold valid indices (see the module docstring)
    heads, owed = _print_tables(signature)
    arities = signature._arities
    out = []
    emit = out.append
    stack = []  # separators owed, the next one on top
    push = stack.extend
    pop = stack.pop
    roots = 0
    for op in ops:
        emit(heads[op])
        seps = owed[op]
        if seps is None:
            while stack:
                sep = pop()
                emit(sep)
                if sep == ",":
                    break
            else:
                roots += 1
        elif seps:
            push(seps)
        else:
            # first use of this symbol.  Built only now, since an arity can
            # be far larger than any term; a term holding the symbol has
            # more than `arity` nodes, so the tuple never outgrows the input
            arity = arities[op]
            if arity >= len(ops):
                return None
            owed[op] = seps = (")",) + (",",) * (arity - 1)
            push(seps)
    if roots != 1 or stack:
        return None
    return "".join(out)


def _print_tables(signature: Signature) -> tuple[tuple[str, ...], list]:
    # built once per signature: each symbol's head, "name(" or "name", and
    # its owed separators, None for a constant and () until first printed
    tables = signature._printer
    if tables is None:
        heads = tuple(
            name + "(" if arity else name for name, arity in signature.entries()
        )
        owed = [() if arity else None for arity in signature._arities]
        tables = (heads, owed)
        object.__setattr__(signature, "_printer", tables)
    return tables
