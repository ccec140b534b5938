"""Independent reference implementations used to cross-check the kernel.

Everything here is deliberately naive: a recursive-descent reader of the
flat encoding, tree-recursive folds and evaluation over the trees it
produces, a materialized-stack rerun of the machine, brute-force
enumeration / factorization / satisfaction, the tables of an algebra
carried along a permutation of its carrier, and the character-by-character
term reader that `ualgebra.syntax.parse_term` replaced.  Only ever run on
small inputs.
"""

import itertools

from ualgebra.errors import (
    ArityMismatchError,
    InvalidSymbolError,
    TermSyntaxError,
    UnknownSymbolError,
)
from ualgebra.oplist import UNDERFLOW, Error, Ok
from ualgebra.signature import Signature
from ualgebra.terms import Term


def read_one(signature, ops, start):
    """Recursive-descent read of one prefix-notation term from ops[start:].

    Returns (tree, next_index) with tree = (symbol_index, children_tuple),
    or None if no complete term starts there.
    """
    if start >= len(ops):
        return None
    op = ops[start]
    children = []
    i = start + 1
    for _ in range(signature.arity(op)):
        parsed = read_one(signature, ops, i)
        if parsed is None:
            return None
        child, i = parsed
        children.append(child)
    return (op, tuple(children)), i


def term_count(signature, ops):
    """How many complete terms ops encodes, or None when it is no valid
    sequence of terms."""
    i = 0
    count = 0
    while i < len(ops):
        parsed = read_one(signature, ops, i)
        if parsed is None:
            return None
        _, i = parsed
        count += 1
    return count


def oracle_is_term(signature, ops):
    return term_count(signature, ops) == 1


def status_by_stack(signature, ops):
    """The machine rerun with a materialized stack of trees instead of a
    counter; same Status values, found independently."""
    stack = []
    for i in range(len(ops) - 1, -1, -1):
        arity = signature.arity(ops[i])
        if len(stack) < arity:
            return Error(UNDERFLOW, i)
        children = tuple(stack.pop() for _ in range(arity))
        stack.append((ops[i], children))
    return Ok(len(stack))


def tree_of(signature, ops):
    parsed = read_one(signature, ops, 0)
    assert parsed is not None and parsed[1] == len(ops)
    return parsed[0]


def tree_fold(signature, step, tree):
    op, children = tree
    return step(
        signature.symbols[op], [tree_fold(signature, step, c) for c in children]
    )


def tree_depth(signature, tree):
    op, children = tree
    return 1 + max((tree_depth(signature, c) for c in children), default=0)


def tree_eval(algebra, tree):
    op, children = tree
    values = [tree_eval(algebra, c) for c in children]
    return algebra.apply(algebra.signature.symbols[op], values)


def tree_eval_with(algebra, base, tree, assignment):
    """Recursive evaluation over the algebra's signature extended with
    variables: symbol base + i is variable i and takes assignment[i]."""
    op, children = tree
    if op >= base:
        return assignment[op - base]
    values = [tree_eval_with(algebra, base, c, assignment) for c in children]
    return algebra.apply(algebra.signature.symbols[op], values)


def least_violation(algebra, equation):
    """The least of all assignments on which the two sides, read as trees,
    evaluate differently; None when the algebra satisfies the equation."""
    base = len(algebra.signature)
    extended = equation.lhs.signature
    lhs = tree_of(extended, equation.lhs.ops)
    rhs = tree_of(extended, equation.rhs.ops)
    assignments = itertools.product(
        range(algebra.carrier_size), repeat=equation.context_size
    )
    violations = [
        asg
        for asg in assignments
        if tree_eval_with(algebra, base, lhs, asg)
        != tree_eval_with(algebra, base, rhs, asg)
    ]
    return min(violations, default=None)


def least_hom_violation(source, target, mapping):
    """(symbol, args, lhs, rhs) of the least tuple, by symbol index and
    then lexicographically, at which mapping fails to commute with an
    operation; None for a homomorphism.  A plain scan of every argument
    tuple that reads the tables directly and calls nothing in `algebras`."""
    s_size, t_size = source.carrier_size, target.carrier_size
    for sym in source.signature.symbols:
        for row, args in enumerate(itertools.product(range(s_size), repeat=sym.arity)):
            t_index = 0
            for i, x in enumerate(args):
                t_index += mapping[x] * t_size ** (sym.arity - 1 - i)
            lhs = mapping[source.tables[sym.index][row]]
            rhs = target.tables[sym.index][t_index]
            if lhs != rhs:
                return sym, args, lhs, rhs
    return None


def transported_tables(algebra, s):
    """The tables of sA, the algebra carried along the carrier permutation
    s (a list, x to s[x]): (sA).f(s x1, ..., s xa) = s(A.f(x1, ..., xa)).
    Reads the tables directly and calls nothing in `algebras`."""
    size = algebra.carrier_size
    inverse = [0] * size
    for x, y in enumerate(s):
        inverse[y] = x
    tables = []
    for sym, table in zip(algebra.signature.symbols, algebra.tables):
        moved = []
        for args in itertools.product(range(size), repeat=sym.arity):
            index = 0
            for y in args:
                index = index * size + inverse[y]
            moved.append(s[table[index]])
        tables.append(moved)
    return tables


def all_oplists(signature, max_len):
    """Every index sequence of length <= max_len, shortest first."""
    n = len(signature)
    for length in range(max_len + 1):
        for ops in _sequences(n, length):
            yield ops


def _sequences(n, length):
    if length == 0:
        yield ()
        return
    for rest in _sequences(n, length - 1):
        for op in range(n):
            yield rest + (op,)


def enumerate_by_filter(signature, max_len):
    """Brute-force enumeration: filter every oplist through the oracle
    validity check, in length-then-lexicographic order."""
    found = []
    for length in range(1, max_len + 1):
        batch = [
            ops
            for ops in sorted(_sequences(len(signature), length))
            if oracle_is_term(signature, ops)
        ]
        found.extend(batch)
    return found


def brute_force_splits(signature, ops, n):
    """All ways to cut ops into n contiguous pieces that are each a term."""
    results = []

    def go(start, pieces):
        if len(pieces) == n:
            if start == len(ops):
                results.append(list(pieces))
            return
        for end in range(start + 1, len(ops) + 1):
            if oracle_is_term(signature, ops[start:end]):
                go(end, pieces + [ops[start:end]])

    go(0, [])
    return results


# ------------------------------------------------ reference term reader

_NAME, _LPAREN, _RPAREN, _COMMA, _END = range(5)
_DELIMS = {"(": _LPAREN, ")": _RPAREN, ",": _COMMA}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DELIMS:
            tokens.append((_DELIMS[ch], ch, i))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _DELIMS:
            j += 1
        tokens.append((_NAME, text[i:j], i))
        i = j
    tokens.append((_END, "", n))
    return tokens


def reference_parse_term(signature: Signature, text: str) -> Term:
    """Parse functional notation into a Term over the signature, reading
    the text one character at a time into (kind, text, offset) tokens: the
    reference for `parse_term`'s results, messages and positions.
    The parse is iterative, so input depth is unbounded.
    """
    tokens = _tokenize(text)
    pos = 0
    ops: list[int] = []
    # open applications: [name, expected arity, children seen, name offset]
    frames: list[list] = []

    while True:
        kind, value, at = tokens[pos]
        if kind != _NAME:
            raise TermSyntaxError("expected a symbol name", at)
        try:
            sym = signature.symbol(value)
        except InvalidSymbolError:
            raise UnknownSymbolError(value, at) from None
        ops.append(sym.index)
        arity = sym.arity
        pos += 1
        if tokens[pos][0] == _LPAREN:
            pos += 1
            if tokens[pos][0] == _RPAREN:
                pos += 1
                if arity != 0:
                    raise ArityMismatchError(value, arity, 0, position=at)
            else:
                frames.append([value, arity, 0, at])
                continue
        elif arity != 0:
            raise ArityMismatchError(value, arity, 0, position=at)

        # a complete subterm just ended: attach it and close finished frames
        while True:
            if not frames:
                kind, _, at = tokens[pos]
                if kind != _END:
                    raise TermSyntaxError("unexpected trailing input", at)
                return Term._wrap(signature, tuple(ops))
            frames[-1][2] += 1
            kind, _, at = tokens[pos]
            if kind == _COMMA:
                pos += 1
                break
            if kind == _RPAREN:
                pos += 1
                name, expected, got, name_at = frames.pop()
                if got != expected:
                    raise ArityMismatchError(name, expected, got, position=name_at)
                continue
            raise TermSyntaxError("expected ',' or ')'", at)
