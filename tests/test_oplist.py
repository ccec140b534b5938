from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra.errors import InvalidSymbolError, StatusMismatchError, UnknownSymbolError
from ualgebra.oplist import (
    Error,
    Ok,
    format_oplist,
    is_term,
    parse_oplist,
    split_terms,
    status_of,
)
from ualgebra.terms import Term

import oracles
from corpus import BIN, CORPUS, NAT, TERN

Z, S = 0, 1
F, A, B = 0, 1, 2


def oplists(signature, max_len=12):
    if len(signature) == 0:
        return st.just(())
    return st.lists(
        st.integers(0, len(signature) - 1), max_size=max_len
    ).map(tuple)


def some_term(signature):
    """Random valid term over the signature (constants exist in the corpus)."""
    constants = [s.index for s in signature.symbols if s.arity == 0]
    others = [s for s in signature.symbols if s.arity > 0]
    base = st.sampled_from(constants).map(lambda i: (i,))
    if not others:
        return base

    def grow(children):
        return st.sampled_from(others).flatmap(
            lambda sym: st.tuples(*[children] * sym.arity).map(
                lambda kids: (sym.index,) + tuple(op for kid in kids for op in kid)
            )
        )

    return st.recursive(base, grow, max_leaves=12)


# ---------------------------------------------------------------- examples

def test_numeral_four_is_one_term():
    assert status_of(NAT, (S, S, S, S, Z)) == Ok(1)
    assert is_term(NAT, (S, S, S, S, Z))


def test_empty_list_builds_zero_terms():
    for sig in CORPUS:
        assert status_of(sig, ()) == Ok(0)
    assert not is_term(NAT, ())


def test_underflow_position():
    # hand trace: z at position 0 is fine, s at position 1 has no argument
    assert status_of(NAT, (Z, S)) == Error("underflow", 1)


def test_two_constants():
    assert status_of(NAT, (Z, Z)) == Ok(2)
    assert not is_term(NAT, (Z, Z))


def test_invalid_indices_rejected():
    with pytest.raises(InvalidSymbolError):
        status_of(NAT, (0, 7))
    with pytest.raises(InvalidSymbolError):
        status_of(NAT, (-1,))
    with pytest.raises(InvalidSymbolError):
        status_of(NAT, (0, "s"))
    # in range, but not ints: no bare TypeError from the table lookups
    with pytest.raises(InvalidSymbolError):
        status_of(NAT, (Fraction(1), 0))
    with pytest.raises(InvalidSymbolError):
        Term(NAT, (1.0, 0))
    with pytest.raises(InvalidSymbolError):
        format_oplist(NAT, [1.0, 0])
    with pytest.raises(InvalidSymbolError):
        split_terms(NAT, [0.0], 1)


def test_split_two_constants():
    assert split_terms(NAT, (Z, Z), 2) == [(Z,), (Z,)]


def test_split_nested_then_constant():
    assert split_terms(NAT, (S, Z, Z), 2) == [(S, Z), (Z,)]


def test_split_whole_numeral_four():
    four = (S, S, S, S, Z)
    assert split_terms(NAT, four, 1) == [four]


def test_split_wrong_count():
    with pytest.raises(StatusMismatchError):
        split_terms(NAT, (Z, Z), 1)
    with pytest.raises(StatusMismatchError):
        split_terms(NAT, (Z, S), 1)


# ---------------------------------------------------------------- properties

@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_composition_of_ok_statuses(sig, data):
    left = data.draw(oplists(sig))
    right = data.draw(oplists(sig))
    sl, sr = status_of(sig, left), status_of(sig, right)
    joined = status_of(sig, left + right)
    if isinstance(sl, Ok) and isinstance(sr, Ok):
        assert joined == Ok(sl.terms + sr.terms)
    # the machine reads right to left, so an error on the right absorbs
    if isinstance(sr, Error):
        assert joined == Error(sr.kind, sr.position + len(left))


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_error_position_stability(sig, data):
    ops = data.draw(oplists(sig))
    status = status_of(sig, ops)
    if isinstance(status, Error):
        i = status.position
        # everything to the right of the failure processed fine ...
        suffix = status_of(sig, ops[i + 1:])
        assert isinstance(suffix, Ok)
        # ... but left too few completed terms for the symbol at i
        assert suffix.terms < sig.arity(ops[i])


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_split_concat_round_trip(sig, data):
    pieces = data.draw(st.lists(some_term(sig), max_size=5))
    ops = tuple(op for piece in pieces for op in piece)
    assert status_of(sig, ops) == Ok(len(pieces))
    parts = split_terms(sig, ops, len(pieces))
    assert tuple(op for part in parts for op in part) == ops
    assert all(is_term(sig, part) for part in parts)


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
def test_factorization_is_unique(sig):
    # every way of cutting into term pieces agrees with split_terms
    for ops in oracles.all_oplists(sig, 7):
        status = status_of(sig, ops)
        if isinstance(status, Ok) and status.terms > 0:
            found = oracles.brute_force_splits(sig, ops, status.terms)
            assert found == [split_terms(sig, ops, status.terms)]


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
def test_machine_agrees_with_oracles_exhaustively(sig):
    for ops in oracles.all_oplists(sig, 6):
        status = status_of(sig, ops)
        assert status == oracles.status_by_stack(sig, ops)
        count = oracles.term_count(sig, ops)
        if isinstance(status, Ok):
            assert count == status.terms
        else:
            assert count is None


# ---------------------------------------------------------------- text form

def test_parse_oplist():
    assert parse_oplist(NAT, "s s s s z") == (S, S, S, S, Z)
    assert parse_oplist(NAT, "") == ()
    assert parse_oplist(BIN, " f  a\tb ") == (F, A, B)


def test_parse_oplist_unknown_name():
    with pytest.raises(UnknownSymbolError) as info:
        parse_oplist(NAT, "s q z")
    assert info.value.name == "q"
    assert info.value.position == 1


@pytest.mark.parametrize(
    "text,position", [("s q z q", 1), ("z\ts  s\nw q w", 3)]
)
def test_parse_oplist_position_of_repeated_unknown_name(text, position):
    with pytest.raises(UnknownSymbolError) as info:
        parse_oplist(NAT, text)
    assert info.value.position == position
    assert info.value.name == text.split()[position]


def test_format_oplist_round_trip():
    text = "s s s s z"
    assert format_oplist(NAT, parse_oplist(NAT, text)) == text
