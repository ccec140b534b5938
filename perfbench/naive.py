"""Naive references for the search workload, independent of ualgebra.

Terms are oplists (tuples of symbol indices in prefix order), algebras
are (carrier size, tables) as written to the fixture files.  Everything
recurses over term trees and enumerates tuples directly, so it is only
run on tiny inputs and outside the timed regions.
"""

from __future__ import annotations

import itertools


def eval_at(ops, pos, arities, size, tables, base, assignment):
    """Value of the subterm starting at ops[pos] and the index after it.
    Symbols at or above `base` are variables."""
    op = ops[pos]
    if op >= base:
        return assignment[op - base], pos + 1
    pos += 1
    index = 0
    for _ in range(arities[op]):
        value, pos = eval_at(ops, pos, arities, size, tables, base, assignment)
        index = index * size + value
    return tables[op][index], pos


def least_violation(arities, size, tables, n_vars, lhs, rhs):
    """Lexicographically least assignment on which lhs and rhs differ."""
    base = len(arities)
    for assignment in itertools.product(range(size), repeat=n_vars):
        left, _ = eval_at(lhs, 0, arities, size, tables, base, assignment)
        right, _ = eval_at(rhs, 0, arities, size, tables, base, assignment)
        if left != right:
            return assignment
    return None


def is_homomorphism(arities, source, target, mapping):
    (s_size, s_tables), (t_size, t_tables) = source, target
    for op, arity in enumerate(arities):
        for args in itertools.product(range(s_size), repeat=arity):
            s_index = t_index = 0
            for x in args:
                s_index = s_index * s_size + x
                t_index = t_index * t_size + mapping[x]
            if mapping[s_tables[op][s_index]] != t_tables[op][t_index]:
                return False
    return True


def is_term(ops, arities):
    """Recursive-descent read: ops is exactly one complete term."""
    def read(pos):
        if pos >= len(ops):
            return None
        pos += 1
        for _ in range(arities[ops[pos - 1]]):
            pos = read(pos)
            if pos is None:
                return None
        return pos

    return read(0) == len(ops)


def term_counts(arities, max_len):
    """Number of terms of each length 1..max_len, by counting the ways to
    split the remaining length among a symbol's arguments."""
    counts = [0] * (max_len + 1)

    def ways(total, parts):
        # sequences of `parts` terms with lengths summing to total
        if parts == 0:
            return 1 if total == 0 else 0
        return sum(counts[k] * ways(total - k, parts - 1) for k in range(1, total + 1))

    for length in range(1, max_len + 1):
        counts[length] = sum(ways(length - 1, a) for a in arities)
    return counts[1:]
