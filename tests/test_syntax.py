import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualgebra.equations import parse_equation
from ualgebra.errors import (
    ArityMismatchError,
    FormatError,
    TermSyntaxError,
    UnknownSymbolError,
)
from ualgebra.signature import Signature
from ualgebra import syntax
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


def test_equation_variables_are_named_symbols():
    eq = parse_equation(NAT, ["v"], "s(v)", "v")
    assert eq.lhs.ops == (S, 2)
    assert eq.lhs.signature.entries()[2] == ("v", 0)
    # a variable may not shadow a symbol of the signature
    with pytest.raises(FormatError, match="collides"):
        parse_equation(NAT, ["z"], "s(z)", "z")


# ------------------------------------------------ differential: reference reader

# symbols named like delimiters must still read as delimiters
DELIM_NAMED = Signature([("(", 0), (",", 2), ("f", 2), ("a", 0)])
# a name with a space in it can never be one token
SPACED = Signature([("a b", 0), ("a", 0), ("g", 1)])
READER_SIGS = CORPUS + [DELIM_NAMED, SPACED]
WHITESPACE = ["", " ", "\t", "\n", "\u00a0"]


def _outcome(parse, signature, text):
    try:
        return "ok", parse(signature, text).ops
    except (TermSyntaxError, ArityMismatchError) as exc:
        return type(exc), str(exc), exc.position


def _loosely_printed(data, term):
    """The printed form of term with whitespace drawn between its tokens
    and `()` drawn after its constants: text the reader accepts."""
    names = [sym.name for sym in term.signature.symbols]
    arities = [sym.arity for sym in term.signature.symbols]
    gap = lambda: data.draw(st.sampled_from(WHITESPACE))
    out = [gap()]
    open_counts = []  # remaining children per open application
    for op in term.ops:
        out.append(names[op])
        if arities[op]:
            out += [gap(), "(", gap()]
            open_counts.append(arities[op])
            continue
        if data.draw(st.booleans()):
            out += [gap(), "(", gap(), ")"]
        while open_counts:
            open_counts[-1] -= 1
            out.append(gap())
            if open_counts[-1]:
                out += [",", gap()]
                break
            out.append(")")
            open_counts.pop()
    out.append(gap())
    return "".join(out)


# "alias": the signature extended with named variables the way
# parse_equation extends it, one of them named like the first symbol's
# name run together with the other
@pytest.mark.parametrize("with_alias", [False, True], ids=["plain", "alias"])
@pytest.mark.parametrize(
    "sig", READER_SIGS, ids=["nat", "bin", "tern", "delim-named", "spaced"]
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parser_agrees_with_reference_reader(sig, with_alias, data):
    if with_alias:
        merged = sig.symbols[0].name + "v"
        sig = Signature(sig.entries() + (("v", 0), (merged, 0)))
    names = [sym.name for sym in sig.symbols] + ["v", "q"]
    pieces = st.sampled_from(names + ["(", ")", ",", "()"] + WHITESPACE[1:])
    kind = data.draw(st.sampled_from(["pieces", "span", "loose"]))
    if kind == "pieces":
        text = "".join(data.draw(st.lists(pieces, max_size=24)))
    elif kind == "span":
        # a printed term with one span replaced: mostly deep, nearly valid
        printed = format_term(data.draw(terms(sig)))
        i = data.draw(st.integers(0, len(printed)))
        j = data.draw(st.integers(i, len(printed)))
        text = printed[:i] + data.draw(pieces) + printed[j:]
    else:
        text = _loosely_printed(data, data.draw(terms(sig)))
    assert _outcome(parse_term, sig, text) == _outcome(reference_parse_term, sig, text)


# a name as the token reader reads one
NAME = re.compile(r"[^\s(),]+")
# characters that are whitespace to one Unicode table and not to another:
# the separators \x1c-\x1f, NEL, no-break space and the ideographic space
ODD_SPACES = ["\x1c", "\x1f", "\x85", "\u00a0", "\u3000"]


def test_regex_and_str_split_agree_on_whitespace_at_every_code_point():
    # the names-only read splits on str.split's whitespace, the token
    # reader on regex \s: the two must be the one set of characters
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    split_off = set(every) - set("".join(every.split()))
    assert split_off == set(re.findall(r"\s", every))
    assert set(ODD_SPACES) <= split_off


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(
        st.one_of(st.sampled_from(["(", ")", ",", "a", "b", " ", "\t", "\n"] + ODD_SPACES),
                  st.characters())
    )
)
def test_names_are_the_token_readers_names(text):
    assert text.translate(syntax._SPACED).split() == NAME.findall(text)


# texts that the reader rejects although their names, or their text with
# whitespace removed, look like a printed term
EDGE = Signature(
    [("z", 0), ("s", 1), ("f", 2), ("a", 0), ("b", 0), ("ab", 0), ("g", 1)]
)


@pytest.mark.parametrize(
    "text", ["s()(z)", "f(a,", "f(a,b)s(", "g(a b)", "f(a b)", "a b", "s(z) ()"]
)
def test_printed_lookalikes_take_the_reader_path(text):
    outcome = _outcome(parse_term, EDGE, text)
    assert outcome[0] != "ok"
    assert outcome == _outcome(reference_parse_term, EDGE, text)


@pytest.mark.parametrize("shape", ["chain", "comb"])
def test_printed_text_parses_without_a_token_list(shape):
    # 10^5 nodes over one-letter names; the token reader's list and frames
    # take 34-51 bytes per character here, the names-only read about 12
    n = 100_000
    if shape == "chain":
        ops = (1,) * (n - 1) + (0,)
    else:
        ops = (2,) * (n // 2) + (3,) * (n // 2 + 1)
    sig = Signature([("z", 0), ("s", 1), ("f", 2), ("c", 0)])
    text = format_term(Term(sig, ops))
    tracemalloc.start()
    try:
        term = parse_term(sig, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert term.ops == ops
    assert peak <= 20 * len(text)


def test_parse_and_format_cost_does_not_grow_with_the_signature():
    # parsing and printing over a signature that is already in use must
    # not redo work that grows with it: the print tables are built once
    # per signature.  Theory loading gains from this, because its equations
    # with one variable list share one extended signature
    sig = Signature([("a", 0)] + [(f"g{i}", i % 3) for i in range(1, 2 ** 16)])
    parse_term(sig, "a")  # builds the signature's print tables
    tracemalloc.start()
    try:
        term = parse_term(sig, "a")
        text = format_term(term)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert term.ops == (0,) and text == "a"
    assert peak < 4096
