"""The per-node kernels (machine, printer, depth, fold, evaluation, split)
against the naive oracles on random signatures and algebras, and their
stack safety on 10^5-node terms.

The corpus signatures have no arity-4 symbol, and `TERN_MOD3` is
symmetric in its first and third arguments, so an argument-order slip in
an arity-specialised branch could pass the corpus tests; here every
arity from 0 to 4 occurs with random tables.
"""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ualgebra.algebras import FiniteAlgebra, _evaluate_ops
from ualgebra.equations import evaluate_with
from ualgebra.oplist import Ok, status_of
from ualgebra.signature import Signature
from ualgebra.syntax import parse_term
from ualgebra.terms import Term, _printed, depth, destructure, fold, format_term

import oracles
from test_terms import terms


def tree_step(symbol, results):
    # rebuilds the oracle's tree, so the fold's argument order shows
    return (symbol.index, tuple(results))


def signature_of(arities):
    return Signature([(f"o{i}", a) for i, a in enumerate(arities)])


@settings(max_examples=300, deadline=None)
@given(
    arities=st.lists(st.integers(0, 4), max_size=4),
    n_vars=st.integers(0, 2),
    size=st.integers(1, 3),
    data=st.data(),
)
def test_kernels_agree_with_tree_oracles(arities, n_vars, size, data):
    sig = signature_of(arities)
    extended = sig.extend_with_variables(n_vars)
    assume(0 in arities or n_vars)  # some term exists
    tables = [
        data.draw(st.lists(st.integers(0, size - 1), min_size=size ** a, max_size=size ** a))
        for a in arities
    ]
    algebra = FiniteAlgebra(sig, size, tables)
    term = data.draw(terms(extended, max_leaves=12))
    tree = oracles.tree_of(extended, term.ops)

    assert fold(tree_step, term) == tree
    assert depth(term) == oracles.tree_depth(extended, tree)
    assignment = tuple(data.draw(st.lists(
        st.integers(0, size - 1), min_size=n_vars, max_size=n_vars
    )))
    assert evaluate_with(algebra, n_vars, term, assignment) == oracles.tree_eval_with(
        algebra, len(sig), tree, assignment
    )
    if not n_vars:
        assert algebra.evaluate(term) == oracles.tree_eval(algebra, tree)
    # an Ok(2) oplist leaves both terms' values, rightmost term first
    second = data.draw(terms(extended, max_leaves=12))
    extended_tables = algebra.tables + tuple((value,) for value in assignment)
    both = term.ops + second.ops
    assert _evaluate_ops(extended._arities, extended_tables, size, both) == [
        oracles.tree_eval_with(
            algebra, len(sig), oracles.tree_of(extended, second.ops), assignment
        ),
        oracles.tree_eval_with(algebra, len(sig), tree, assignment),
    ]

    printed = format_term(term)
    assert parse_term(extended, printed) == term
    assert oracles.reference_parse_term(extended, printed) == term
    assert "()" not in printed


@settings(max_examples=60, deadline=None)
@given(arities=st.lists(st.integers(0, 4), max_size=4))
def test_printer_is_the_one_term_check(arities):
    sig = signature_of(arities)
    for ops in oracles.all_oplists(sig, 5):
        assert (_printed(sig, ops) is None) == (status_of(sig, ops) != Ok(1)), ops


# ------------------------------------------------ stack safety at 10^5 nodes

SIG = Signature([("z", 0), ("s", 1), ("f", 2), ("c", 0)])
Z, S, F, C = range(4)
ALG = FiniteAlgebra(
    SIG, 3, [[1], [2, 0, 1], [(2 * x + y) % 3 for x in range(3) for y in range(3)], [2]]
)
N = 100_000
K = N // 2  # comb: f^K c^(K+1), the left comb f(f(...f(c,c)...,c),c)

CHAIN = (S,) * (N - 1) + (Z,)
COMB = (F,) * K + (C,) * (K + 1)
SHAPES = {
    # shape: (ops, printed form, the same term written loosely, depth,
    # the head's children)
    "chain": (
        CHAIN,
        "s(" * (N - 1) + "z" + ")" * (N - 1),
        "s ( " * (N - 1) + "z()" + " )" * (N - 1),
        N,
        [CHAIN[1:]],
    ),
    "comb": (
        COMB,
        "f(" * K + "c" + ",c)" * K,
        "f ( " * K + "c()" + " , c ( ) )" * K,
        K + 1,
        [COMB[1:-1], (C,)],
    ),
}


def apply_step(symbol, results):
    return ALG.apply(symbol, results)


@pytest.fixture
def low_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_kernels_are_stack_safe(shape, low_recursion_limit):
    ops, printed, loose, height, parts = SHAPES[shape]
    assert status_of(SIG, ops) == Ok(1)
    assert status_of(SIG, ops[:-1]) == oracles.status_by_stack(SIG, ops[:-1])
    term = Term(SIG, ops)
    assert depth(term) == height
    assert fold(lambda symbol, results: 1 + sum(results), term) == len(ops)
    assert ALG.evaluate(term) == fold(apply_step, term)
    assert format_term(term) == printed
    assert parse_term(SIG, printed) == term
    assert parse_term(SIG, loose) == term
    head, children = destructure(term)
    assert head.index == ops[0]
    assert [child.ops for child in children] == parts
