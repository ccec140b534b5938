import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra.algebras import FiniteAlgebra, check_homomorphism, is_homomorphism
from ualgebra.errors import CarrierMismatchError, FormatError, SignatureMismatchError
from ualgebra.signature import Signature
from ualgebra.terms import Term, build_term, destructure, enumerate_terms, fold

import oracles
from corpus import (
    BIN,
    BIN_MOD3,
    CORPUS,
    N2,
    N4,
    N8,
    NAT,
    TERN_MOD3,
    algebra_for,
    small_algebras,
)

Z, S = 0, 1

XOR_SIG = Signature([("xor", 2), ("a", 0), ("b", 0)])
XOR_ALG = FiniteAlgebra(XOR_SIG, 2, [[0, 1, 1, 0], [1], [1]])


# ------------------------------------------------------------ construction

def test_table_shape_validation():
    with pytest.raises(CarrierMismatchError, match="carrier"):
        FiniteAlgebra(NAT, 0, [[0], [0]])
    with pytest.raises(CarrierMismatchError, match="expected 2 tables"):
        FiniteAlgebra(NAT, 2, [[0]])
    with pytest.raises(CarrierMismatchError, match="must have 2 entries"):
        FiniteAlgebra(NAT, 2, [[0], [1, 0, 1]])
    with pytest.raises(CarrierMismatchError, match="outside the carrier"):
        FiniteAlgebra(NAT, 2, [[0], [1, 2]])


def test_carrier_size_rejects_bool():
    with pytest.raises(CarrierMismatchError, match="carrier"):
        FiniteAlgebra(NAT, True, [[0], [0]])


def test_table_entries_reject_bool():
    # equal to the 0/1 tables, but to_json would write false/true
    with pytest.raises(CarrierMismatchError, match="outside the carrier"):
        FiniteAlgebra(NAT, 2, [[False], [True, False]])


def test_apply_uses_leftmost_most_significant_order():
    proj = FiniteAlgebra(Signature([("proj", 2)]), 2, [[0, 0, 1, 1]])
    sym = proj.signature.symbol("proj")
    assert proj.apply(sym, (1, 0)) == 1
    assert proj.apply(sym, (0, 1)) == 0
    assert XOR_ALG.apply("xor", (0, 1)) == 1


def test_apply_validates_arguments():
    with pytest.raises(CarrierMismatchError):
        N4.apply("s", (4,))
    for bad in (True, 1.0, "1", -1):
        with pytest.raises(CarrierMismatchError, match="argument .* outside the carrier"):
            N4.apply("s", (bad,))
    from ualgebra.errors import ArityMismatchError

    with pytest.raises(ArityMismatchError):
        N4.apply("s", (0, 1))
    # a symbol of another signature, even one whose index N4 has
    for symbol, args in ((BIN.symbol("a"), ()), (BIN.symbol("f"), (0, 1))):
        with pytest.raises(SignatureMismatchError, match="symbol is over a different signature"):
            N4.apply(symbol, args)
    assert N4.apply(Signature([("z", 0), ("s", 1)]).symbol("s"), (3,)) == 0


# ------------------------------------------------------------ evaluation

def test_eval_numeral_four_in_n4():
    # 0 -> 1 -> 2 -> 3 -> 0
    assert N4.evaluate(Term(NAT, (S, S, S, S, Z))) == 0


def test_eval_constant():
    assert N4.evaluate(Term(NAT, (Z,))) == 0


def test_eval_xor_of_two_true_constants():
    t = Term(XOR_SIG, (0, 1, 2))  # xor(a, b) with a = b = 1
    assert XOR_ALG.evaluate(t) == 0


def test_eval_rejects_foreign_terms():
    with pytest.raises(SignatureMismatchError):
        N4.evaluate(Term(BIN, (1,)))


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
def test_eval_is_homomorphic(sig):
    algebra = algebra_for(sig)
    pool = enumerate_terms(sig, 6)
    for t in pool:
        sym, children = destructure(t)
        assert algebra.evaluate(t) == algebra.apply(
            sym, [algebra.evaluate(c) for c in children]
        )


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
def test_eval_agrees_with_tree_oracle(sig):
    algebra = algebra_for(sig)
    for t in enumerate_terms(sig, 8):
        assert algebra.evaluate(t) == oracles.tree_eval(
            algebra, oracles.tree_of(sig, t.ops)
        )


def test_eval_equals_fold_with_table_step():
    step = lambda sym, results: N4.apply(sym, results)
    for t in enumerate_terms(NAT, 8):
        assert N4.evaluate(t) == fold(step, t)


def test_eval_spot_value_in_bin_mod3():
    # f(a, b) = (2*1 + 2) mod 3
    assert BIN_MOD3.evaluate(Term(BIN, (0, 1, 2))) == 1


def test_eval_million_node_chain():
    assert N4.evaluate(Term(NAT, (S,) * 10 ** 6 + (Z,))) == 0


# ------------------------------------------------------------ homomorphisms

def test_identity_is_homomorphism():
    assert is_homomorphism(N4, N4, [0, 1, 2, 3])


def test_mod2_projection_is_homomorphism():
    assert check_homomorphism(N4, N2, [0, 1, 0, 1]) is None


def test_constant_map_counterexample():
    violation = check_homomorphism(N4, N2, [0, 0, 0, 0])
    assert violation is not None
    assert violation.symbol == NAT.symbol("s")
    assert violation.args == (0,)
    assert (violation.lhs, violation.rhs) == (0, 1)


def test_counterexample_is_first_in_symbol_then_lex_order():
    # [0,1,2,2] commutes with s at 0 and 1 but not at 2: f(s(2))=2, s(f(2))=3
    violation = check_homomorphism(N4, N4, [0, 1, 2, 2])
    assert violation is not None
    assert violation.symbol == NAT.symbol("s")
    assert violation.args == (2,)
    assert (violation.lhs, violation.rhs) == (2, 3)


def test_composition_of_homomorphisms():
    f = [0, 1, 2, 3, 0, 1, 2, 3]  # N8 -> N4, x mod 4
    g = [0, 1, 0, 1]  # N4 -> N2, x mod 2
    assert is_homomorphism(N8, N4, f)
    assert is_homomorphism(N4, N2, g)
    composed = [g[f[x]] for x in range(8)]
    assert is_homomorphism(N8, N2, composed)


@settings(max_examples=200, deadline=None)
@given(
    f=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    g=st.lists(st.integers(0, 1), min_size=4, max_size=4),
)
def test_composition_property(f, g):
    if is_homomorphism(N8, N4, f) and is_homomorphism(N4, N2, g):
        assert is_homomorphism(N8, N2, [g[f[x]] for x in range(8)])


def test_mapping_validation():
    with pytest.raises(CarrierMismatchError):
        check_homomorphism(N4, N2, [0, 1, 0])
    with pytest.raises(CarrierMismatchError):
        check_homomorphism(N4, N2, [0, 1, 0, 2])
    with pytest.raises(SignatureMismatchError):
        check_homomorphism(N4, BIN_MOD3, [0, 0, 0, 0])


def test_mapping_rejects_bool():
    with pytest.raises(CarrierMismatchError, match="mapping value"):
        check_homomorphism(N4, N2, [False, True, False, True])


# ------------------------------------------------------------ JSON form

def test_json_round_trip():
    data = N4.to_json()
    assert data == {"carrier": 4, "tables": {"z": [0], "s": [1, 2, 3, 0]}}
    assert FiniteAlgebra.from_json(NAT, data) == N4


@settings(max_examples=50, deadline=None)
@given(algebra=small_algebras())
def test_json_text_round_trip(algebra):
    """Every algebra the constructor accepts comes back equal from its
    JSON text."""
    data = json.loads(json.dumps(algebra.to_json()))
    assert FiniteAlgebra.from_json(algebra.signature, data) == algebra


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"carrier": 4},
        {"carrier": 0, "tables": {"z": [0], "s": [0]}},
        {"carrier": 2, "tables": {"z": [0]}},
        {"carrier": 2, "tables": {"z": [0], "s": [1, 0], "q": [0]}},
        {"carrier": 2, "tables": {"z": [0], "s": [1, 0, 1]}},
        {"carrier": 2, "tables": {"z": [0], "s": [1, "0"]}},
        {"carrier": 2, "tables": {"z": [0], "s": [1, 0.0]}},
        {"carrier": 2, "tables": {"z": [0], "s": [1, True]}},
        {"carrier": 2, "tables": {"z": [0], "s": "10"}},
        {"carrier": 2, "tables": {"z": [2], "s": [1, 0]}},
    ],
)
def test_from_json_rejects_malformed(data):
    with pytest.raises(FormatError):
        FiniteAlgebra.from_json(NAT, data)


def test_from_json_rejects_tables_given_as_a_list():
    with pytest.raises(FormatError) as info:
        FiniteAlgebra.from_json(NAT, {"carrier": 2, "tables": []})
    assert str(info.value) == '"tables" must map symbol names to arrays'


@pytest.mark.parametrize(
    "carrier, message",
    [
        (0, "carrier must have at least one element, got 0"),
        (True, "carrier must have at least one element, got True"),
    ],
    ids=["zero", "bool"],
)
def test_from_json_carrier_is_checked_by_the_constructor(carrier, message):
    data = {"carrier": carrier, "tables": {"z": [0], "s": [0]}}
    with pytest.raises(FormatError) as info:
        FiniteAlgebra.from_json(NAT, data)
    assert str(info.value) == message
