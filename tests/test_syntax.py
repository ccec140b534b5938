import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra.errors import ArityMismatchError, TermSyntaxError, UnknownSymbolError
from ualgebra.signature import Signature
from ualgebra.syntax import format_term, parse_term
from ualgebra.terms import Term

from corpus import BIN, CORPUS, NAT, TERN
from oracles import reference_parse_term
from test_terms import terms

Z, S = 0, 1


def test_parse_numeral_four():
    assert parse_term(NAT, "s(s(s(s(z))))").ops == (S, S, S, S, Z)


def test_parse_constant_with_and_without_parens():
    assert parse_term(NAT, "z").ops == (Z,)
    assert parse_term(NAT, "z()").ops == (Z,)


def test_parse_tolerates_whitespace():
    assert parse_term(BIN, " f ( a , b ) ").ops == (0, 1, 2)
    assert parse_term(NAT, "\ts(\n z )").ops == (S, Z)


def test_parse_ternary():
    assert parse_term(TERN, "g(a,s(a),a)").ops == (0, 2, 1, 2, 2)


def test_unknown_symbol_position():
    with pytest.raises(UnknownSymbolError) as info:
        parse_term(NAT, "s(q)")
    assert info.value.name == "q"
    assert info.value.position == 2


def test_arity_mismatch_too_many():
    with pytest.raises(ArityMismatchError) as info:
        parse_term(NAT, "s(z,z)")
    assert (info.value.name, info.value.expected, info.value.given) == ("s", 1, 2)


def test_arity_mismatch_too_few():
    with pytest.raises(ArityMismatchError) as info:
        parse_term(BIN, "f(a)")
    assert (info.value.expected, info.value.given) == (2, 1)


def test_arity_mismatch_bare_application():
    with pytest.raises(ArityMismatchError) as info:
        parse_term(NAT, "s")
    assert (info.value.expected, info.value.given) == (1, 0)
    with pytest.raises(ArityMismatchError):
        parse_term(NAT, "s()")


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("   ", 3),
        ("s(z", 3),
        ("s(z))", 4),
        ("(z)", 0),
        ("s(,z)", 2),
        ("f(a,)", 4),
        ("z z", 2),
        ("s(z)z", 4),
    ],
)
def test_syntax_error_positions(text, position):
    sig = BIN if text.startswith("f") else NAT
    with pytest.raises(TermSyntaxError) as info:
        parse_term(sig, text)
    assert info.value.position == position


def test_parser_is_iterative_on_deep_input():
    text = "s(" * 50_000 + "z" + ")" * 50_000
    assert len(parse_term(NAT, text).ops) == 50_001


@pytest.mark.parametrize("sig", CORPUS, ids=["nat", "bin", "tern"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_print_parse_round_trip(sig, data):
    t = data.draw(terms(sig))
    printed = format_term(t)
    assert parse_term(sig, printed) == t
    # printing normalizes: a second pass is a fixed point
    assert format_term(parse_term(sig, printed)) == printed


def test_parse_normalizes_redundant_parens_and_spaces():
    messy = " f( a() , f(b,a) ) "
    clean = format_term(parse_term(BIN, messy))
    assert clean == "f(a,f(b,a))"
    assert format_term(parse_term(BIN, clean)) == clean


def test_aliases_resolve_before_signature_names():
    ext = NAT.extend_with_variables(1)
    var = ext.symbols[2]
    t = parse_term(ext, "s(v)", aliases={"v": var})
    assert t.ops == (S, 2)


# ------------------------------------------------ differential: reference reader

# symbols named like delimiters must still read as delimiters
DELIM_NAMED = Signature([("(", 0), (",", 2), ("f", 2), ("a", 0)])
# a name with a space in it can never be one token
SPACED = Signature([("a b", 0), ("a", 0), ("g", 1)])
READER_SIGS = CORPUS + [DELIM_NAMED, SPACED]


def _outcome(parse, signature, text, aliases):
    try:
        return "ok", parse(signature, text, aliases=aliases).ops
    except (TermSyntaxError, ArityMismatchError) as exc:
        return type(exc), str(exc), exc.position


@pytest.mark.parametrize("with_alias", [False, True], ids=["plain", "alias"])
@pytest.mark.parametrize(
    "sig", READER_SIGS, ids=["nat", "bin", "tern", "delim-named", "spaced"]
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_agrees_with_reference_reader(sig, with_alias, data):
    aliases = None
    if with_alias:
        sig = sig.extend_with_variables(1)
        var = sig.symbols[-1]
        # one fresh alias and one that shadows the first symbol's name
        aliases = {"v": var, sig.symbols[0].name: var}
    names = [sym.name for sym in sig.symbols] + ["v", "q"]
    pieces = st.sampled_from(
        names + ["(", ")", ",", "()", " ", "\t", "\n", "\u00a0"]
    )
    if data.draw(st.booleans()):
        text = "".join(data.draw(st.lists(pieces, max_size=24)))
    else:
        # a printed term with one span replaced: mostly deep, nearly valid
        printed = format_term(data.draw(terms(sig)))
        i = data.draw(st.integers(0, len(printed)))
        j = data.draw(st.integers(i, len(printed)))
        text = printed[:i] + data.draw(pieces) + printed[j:]
    assert _outcome(parse_term, sig, text, aliases) == _outcome(
        reference_parse_term, sig, text, aliases
    )
