import gc
import os
import subprocess
import sys
import timeit
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ualgebra.errors import (
    ArityMismatchError,
    InvalidTermError,
    LimitExceededError,
    SignatureError,
    SignatureMismatchError,
    StatusMismatchError,
)
from ualgebra.oplist import split_terms
from ualgebra.signature import Signature
from ualgebra.terms import (
    Term,
    build_term,
    depth,
    destructure,
    enumerate_terms,
    fold,
    format_term,
)

import oracles
import smoke
from corpus import BIN, CORPUS, NAT, TERN

try:
    import resource
except ImportError:  # not on every platform
    resource = None

Z, S = 0, 1


def count_step(symbol, results):
    return 1 + sum(results)


def depth_step(symbol, results):
    return 1 + max(results, default=0)


def terms(signature, max_leaves=10):
    constants = [s for s in signature.symbols if s.arity == 0]
    others = [s for s in signature.symbols if s.arity > 0]
    base = st.sampled_from(constants).map(lambda s: build_term(s, []))
    if not others:
        return base

    def grow(children):
        return st.sampled_from(others).flatmap(
            lambda sym: st.lists(
                children, min_size=sym.arity, max_size=sym.arity
            ).map(lambda kids: build_term(sym, kids))
        )

    return st.recursive(base, grow, max_leaves=max_leaves)


# ------------------------------------------------------------ construction

def test_constructor_validates():
    assert Term(NAT, (S, Z)).ops == (S, Z)
    with pytest.raises(InvalidTermError):
        Term(NAT, (Z, Z))
    with pytest.raises(InvalidTermError):
        Term(NAT, (S,))
    with pytest.raises(InvalidTermError):
        Term(NAT, ())


def test_build_constant():
    assert build_term(NAT.symbol("z"), []).ops == (Z,)


def test_build_numeral_four():
    three = Term(NAT, (S, S, S, Z))
    four = build_term(NAT.symbol("s"), [three])
    assert four.ops == (S, S, S, S, Z)


def test_build_prefix_concatenation():
    a, b = Term(BIN, (1,)), Term(BIN, (2,))
    assert build_term(BIN.symbol("f"), [a, b]).ops == (0, 1, 2)


def test_build_arity_mismatch():
    with pytest.raises(ArityMismatchError) as info:
        build_term(NAT.symbol("s"), [])
    assert info.value.expected == 1 and info.value.given == 0


def test_build_rejects_foreign_children():
    with pytest.raises(SignatureMismatchError):
        build_term(NAT.symbol("s"), [Term(BIN, (1,))])


def test_build_cost_does_not_grow_with_the_signature():
    # a signature equals itself without comparing its entries, so the
    # per-child signature check costs the same over 2 or 2^16 symbols
    def best_time(signature):
        s = signature.symbol("s")
        z = Term(signature, (signature.symbol("z").index,))
        return min(timeit.repeat(lambda: build_term(s, [z]), number=100, repeat=5))

    wide = Signature(NAT.entries() + tuple((f"c{i}", 0) for i in range(2 ** 16 - 2)))
    assert best_time(wide) < 10 * best_time(NAT)


def test_term_equality_and_hash():
    assert Term(NAT, (S, Z)) == Term(NAT, [S, Z])
    assert Term(NAT, (S, Z)) != Term(NAT, (Z,))
    assert len({Term(NAT, (S, Z)), Term(NAT, (S, Z))}) == 1


# ------------------------------------------------------------ destructure

def test_destructure_constant():
    sym, children = destructure(Term(NAT, (Z,)))
    assert sym == NAT.symbol("z") and children == []


def test_destructure_nested():
    sym, children = destructure(Term(NAT, (S, S, Z)))
    assert sym == NAT.symbol("s")
    assert children == [Term(NAT, (S, Z))]


def test_destructure_binary():
    sym, children = destructure(Term(BIN, (0, 1, 2)))
    assert sym == BIN.symbol("f")
    assert [c.ops for c in children] == [(1,), (2,)]


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
def test_round_trip_exhaustive(sig):
    for t in enumerate_terms(sig, 8):
        sym, children = destructure(t)
        assert build_term(sym, children) == t
    # and the other direction on a couple of hand-built cases
    sym = sig.symbols[0]
    kids = enumerate_terms(sig, 3)[: sym.arity]
    if len(kids) == sym.arity:
        assert destructure(build_term(sym, kids)) == (sym, kids)


# ------------------------------------------------------------ fold / depth

def test_fold_counts_single_node():
    assert fold(count_step, Term(NAT, (Z,))) == 1


def test_fold_counts_binary():
    assert fold(count_step, Term(BIN, (0, 1, 2))) == 3


def test_depth_of_numeral_four():
    assert depth(Term(NAT, (S, S, S, S, Z))) == 5


def test_depth_constant():
    assert depth(Term(NAT, (Z,))) == 1


def test_depth_binary():
    assert depth(Term(BIN, (0, 1, 2))) == 2


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
def test_fold_agrees_with_tree_oracle(sig):
    for t in enumerate_terms(sig, 8):
        tree = oracles.tree_of(sig, t.ops)
        assert fold(count_step, t) == oracles.tree_fold(sig, count_step, tree)
        assert fold(count_step, t) == len(t.ops)
        assert depth(t) == oracles.tree_depth(sig, tree)
        assert depth(t) == fold(depth_step, t)


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fold_step_law(sig, data):
    """fold(step, build(nm, v)) == step(nm, [fold(step, c) for c in v])."""
    symbol = data.draw(st.sampled_from(sig.symbols))
    children = data.draw(
        st.lists(terms(sig), min_size=symbol.arity, max_size=symbol.arity)
    )
    built = build_term(symbol, children)
    for step in (count_step, depth_step):
        assert fold(step, built) == step(symbol, [fold(step, c) for c in children])


def test_depth_of_million_node_chain():
    t = Term(NAT, (S,) * 10 ** 6 + (Z,))
    assert depth(t) == 1_000_001


def test_generic_fold_is_stack_safe():
    t = Term(NAT, (S,) * 10 ** 6 + (Z,))
    assert fold(count_step, t) == 1_000_001


# ------------------------------------------------------------ enumeration

def test_enumerate_nat_up_to_three():
    assert [t.ops for t in enumerate_terms(NAT, 3)] == [(Z,), (S, Z), (S, S, Z)]


def test_enumerate_empty_signature():
    from ualgebra.signature import Signature

    assert enumerate_terms(Signature([]), 5) == []


def test_enumerate_two_constants():
    from ualgebra.signature import Signature

    sig = Signature([("a", 0), ("b", 0)])
    assert [t.ops for t in enumerate_terms(sig, 1)] == [(0,), (1,)]


def test_enumerate_zero_length():
    assert enumerate_terms(NAT, 0) == []


def test_enumerate_rejects_negative_length():
    with pytest.raises(LimitExceededError, match="negative"):
        enumerate_terms(NAT, -3)


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
def test_enumerate_agrees_with_filter_oracle(sig):
    got = [t.ops for t in enumerate_terms(sig, 7)]
    assert got == oracles.enumerate_by_filter(sig, 7)
    assert len(got) == len(set(got))


@settings(max_examples=150, deadline=None)
@given(arities=st.lists(st.integers(0, 4), max_size=4), max_len=st.integers(0, 6))
@example(arities=[1, 1], max_len=6)  # unary only: no terms at all
@example(arities=[2, 1, 4], max_len=6)  # no constants
@example(arities=[0, 0, 0], max_len=6)  # constants only
@example(arities=[0, 4], max_len=6)  # one wide symbol: the bound prunes most
@example(arities=[3, 0, 1, 2], max_len=6)  # arities out of order
def test_enumerate_agrees_with_filter_oracle_on_random_signatures(arities, max_len):
    sig = Signature([(f"o{i}", a) for i, a in enumerate(arities)])
    got = [t.ops for t in enumerate_terms(sig, max_len)]
    assert got == oracles.enumerate_by_filter(sig, max_len)


HUGE = 10 ** 5000
HUGE_BITS = f"integer of {HUGE.bit_length()} bits"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: enumerate_terms(NAT, HUGE),
            LimitExceededError,
            f"max_len an {HUGE_BITS} exceeds enumeration limit 12",
        ),
        (
            lambda: enumerate_terms(NAT, -HUGE),
            LimitExceededError,
            f"max_len must not be negative, got a negative {HUGE_BITS}",
        ),
        (
            lambda: enumerate_terms(NAT, 5, limit=-HUGE),
            LimitExceededError,
            f"max_len 5 exceeds enumeration limit a negative {HUGE_BITS}",
        ),
        (
            lambda: enumerate_terms(NAT, 2.5),
            LimitExceededError,
            "max_len must be an integer, got 2.5",
        ),
        (
            lambda: enumerate_terms(NAT, "3"),
            LimitExceededError,
            "max_len must be an integer, got '3'",
        ),
        (
            lambda: enumerate_terms(NAT, True),
            LimitExceededError,
            "max_len must be an integer, got True",
        ),
        (
            lambda: enumerate_terms(NAT, 3, limit="12"),
            LimitExceededError,
            "limit must be an integer, got '12'",
        ),
        (
            lambda: NAT.extend_with_variables(-HUGE),
            SignatureError,
            f"negative variable count: a negative {HUGE_BITS}",
        ),
        (lambda: NAT.extend_with_variables(1.5), SignatureError, "not a variable count: 1.5"),
        (lambda: NAT.extend_with_variables(True), SignatureError, "not a variable count: True"),
        (
            lambda: split_terms(NAT, (Z,), HUGE),
            StatusMismatchError,
            f"expected status Ok(an {HUGE_BITS}), got Ok(terms=1)",
        ),
        (lambda: split_terms(NAT, (Z,), "1"), StatusMismatchError, "not a term count: '1'"),
        (lambda: split_terms(NAT, (Z,), True), StatusMismatchError, "not a term count: True"),
    ],
    ids=[
        "enumerate-huge",
        "enumerate-huge-negative",
        "enumerate-huge-negative-limit",
        "enumerate-float",
        "enumerate-str",
        "enumerate-bool",
        "enumerate-str-limit",
        "extend-huge-negative",
        "extend-float",
        "extend-bool",
        "split-huge",
        "split-str",
        "split-bool",
    ],
)
def test_bad_count_is_rejected_by_the_error_of_its_call(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_enumerate_order_is_length_then_lex():
    listed = [t.ops for t in enumerate_terms(BIN, 5)]
    assert listed == sorted(listed, key=lambda ops: (len(ops), ops))


def test_nat_has_one_term_per_length():
    by_len = {}
    for t in enumerate_terms(NAT, 12):
        by_len.setdefault(len(t.ops), []).append(t)
    assert set(by_len) == set(range(1, 13))
    assert all(len(ts) == 1 for ts in by_len.values())


def test_enumerate_limit():
    with pytest.raises(LimitExceededError):
        enumerate_terms(NAT, 13)
    assert len(enumerate_terms(NAT, 13, limit=13)) == 13


# m/2 i/1 e/0 and three constants: 18 336 terms of length <= 8
GROUP_ABC = Signature(
    [("m", 2), ("i", 1), ("e", 0), ("a", 0), ("b", 0), ("c", 0)]
)


def test_enumerate_runs_no_collection():
    # the list it builds holds no cycle, so no collection has work to do
    assert gc.isenabled()
    starts = []

    def seen(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(seen)
    try:
        found = enumerate_terms(GROUP_ABC, 8)
    finally:
        gc.callbacks.remove(seen)
    assert len(found) == 18336
    assert starts == []
    assert gc.isenabled()


def test_enumerate_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        assert len(enumerate_terms(GROUP_ABC, 5)) == 308
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_enumerate_enables_the_collector_again_when_it_raises(monkeypatch):
    # enumeration makes each length's terms with one call of the bulk maker
    wrap_all = Term._wrap_all
    calls = []

    def failing(signature, oplists):
        calls.append(oplists)
        if len(calls) == 5:
            raise MemoryError
        return wrap_all(signature, oplists)

    monkeypatch.setattr(Term, "_wrap_all", failing)
    with pytest.raises(MemoryError):
        enumerate_terms(GROUP_ABC, 8)
    assert len(calls) == 5
    assert gc.isenabled()


# 1.4 million terms of length at most 11 do not fit in 150 MB
OUT_OF_MEMORY = """
import gc
from ualgebra.signature import Signature
from ualgebra.terms import enumerate_terms

try:
    enumerate_terms(Signature([("m", 2), ("i", 1), ("e", 0), ("a", 0), ("b", 0), ("c", 0)]), 11)
except MemoryError:
    print("MemoryError", gc.isenabled())
"""


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_enumerate_enables_the_collector_again_when_memory_runs_out():
    # a real MemoryError, raised wherever the allocation fails; the cap is
    # set on the child alone
    cap = 150 * 2 ** 20

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        preexec_fn=capped,
        timeout=smoke.TIMEOUT,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"MemoryError True\n", b"")


def test_enumerate_and_destructure_validate_nothing(monkeypatch):
    # their oplists are valid by construction, so neither the constructor
    # nor the machine runs; what they make is still a Term like any other
    def refused(*args):
        raise AssertionError("validated again")

    with monkeypatch.context() as patched:
        patched.setattr(Term, "__init__", refused)
        patched.setattr("ualgebra.terms.status_of", refused)
        found = enumerate_terms(GROUP_ABC, 6)
        children = [c for t in found for c in destructure(t)[1]]
    assert (len(found), len(children)) == (1112, 1908)
    for t in found + children:
        assert type(t) is Term and t.signature is GROUP_ABC and type(t.ops) is tuple
        twin = Term(GROUP_ABC, t.ops)
        assert t == twin and hash(t) == hash(twin)


# ------------------------------------------------------------ printing

def test_format_term_minimal_form():
    assert format_term(Term(NAT, (S, S, Z))) == "s(s(z))"
    assert format_term(Term(NAT, (Z,))) == "z"
    assert format_term(Term(BIN, (0, 0, 1, 2, 1))) == "f(f(a,b),a)"
    assert format_term(Term(TERN, (0, 2, 1, 2, 2))) == "g(a,s(a),a)"


def test_repr_is_safe_for_huge_terms():
    t = Term(NAT, (S,) * 100 + (Z,))
    assert repr(t) == "Term(<101 symbols>)"
