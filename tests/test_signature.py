import copy
import pickle

import pytest

from ualgebra.algebras import FiniteAlgebra, check_homomorphism
from ualgebra.equations import Equation, Theory, evaluate_with, parse_equation
from ualgebra.errors import (
    ArityMismatchError,
    CarrierMismatchError,
    FormatError,
    InvalidSymbolError,
    SignatureError,
    SignatureMismatchError,
    UnknownSymbolError,
)
from ualgebra.oplist import check_indices, format_oplist, parse_oplist, status_of
from ualgebra.signature import Signature
from ualgebra.syntax import parse_term
from ualgebra.terms import Term, build_term, format_term

from corpus import N2, NAT


def test_nat_signature_arities():
    assert NAT.arity(0) == 0  # zero symbol
    assert NAT.arity(1) == 1  # successor symbol
    assert NAT.symbol("z").index == 0
    assert NAT.symbol("s").arity == 1


def test_construction_stores_entries_in_order():
    sig = Signature([("f", 2), ("a", 0), ("b", 0)])
    assert [sym.name for sym in sig.symbols] == ["f", "a", "b"]
    assert [sym.arity for sym in sig.symbols] == [2, 0, 0]
    for i, (_, arity) in enumerate(sig.entries()):
        assert sig.arity(i) == arity


def test_empty_signature():
    sig = Signature([])
    assert len(sig) == 0
    with pytest.raises(InvalidSymbolError):
        sig.arity(0)


def test_single_binary_symbol():
    sig = Signature([("f", 2)])
    assert sig.arity(sig.symbol("f")) == 2


def test_duplicate_name_rejected():
    with pytest.raises(SignatureError, match="duplicate.*'z'"):
        Signature([("z", 0), ("z", 1)])


def test_empty_name_rejected():
    with pytest.raises(SignatureError, match="empty"):
        Signature([("", 0)])


def test_non_string_name_rejected_as_such():
    with pytest.raises(SignatureError, match="index 1 is not a string: int"):
        Signature([("z", 0), (5, 0)])


def test_negative_arity_rejected():
    with pytest.raises(SignatureError):
        Signature([("f", -1)])


def test_arity_too_long_to_print_is_rejected_as_such():
    # repr refuses ints past 4300 digits; the message must not call it
    with pytest.raises(SignatureError, match="bad arity for 'f'"):
        Signature([("f", -10 ** 5000)])


HUGE = 10 ** 5000
NAT_X = NAT.extend_with_variables(1)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: FiniteAlgebra(NAT, -HUGE, [[0], [0]]), CarrierMismatchError),
        (lambda: FiniteAlgebra(NAT, 2, [[-HUGE], [1, 0]]), CarrierMismatchError),
        (lambda: N2.apply("s", [-HUGE]), CarrierMismatchError),
        (lambda: evaluate_with(N2, 1, Term(NAT_X, (2,)), [-HUGE]), CarrierMismatchError),
        (lambda: check_homomorphism(N2, N2, [0, -HUGE]), CarrierMismatchError),
        (lambda: check_indices(NAT, (HUGE,)), InvalidSymbolError),
        (lambda: Term(NAT, (HUGE,)), InvalidSymbolError),
        (lambda: status_of(NAT, (HUGE,)), InvalidSymbolError),
        (lambda: format_oplist(NAT, (HUGE,)), InvalidSymbolError),
        (
            lambda: Equation(HUGE, Term(NAT_X, (2,)), Term(NAT_X, (2,))),
            SignatureMismatchError,
        ),
        (
            lambda: Signature.from_json({"symbols": [{"name": "f", "arity": HUGE}]}),
            FormatError,
        ),
        (lambda: NAT.arity(HUGE), InvalidSymbolError),
        (lambda: NAT.symbol(-HUGE), InvalidSymbolError),
    ],
    ids=[
        "carrier",
        "table-entry",
        "apply",
        "evaluate_with",
        "hom-mapping",
        "check_indices",
        "Term",
        "status_of",
        "format_oplist",
        "Equation",
        "signature-from_json",
        "arity",
        "symbol",
    ],
)
def test_value_too_long_to_print_is_named_by_its_size(call, error):
    # every message that shows a value goes through errors._shown
    with pytest.raises(error) as info:
        call()
    assert f"integer of {HUGE.bit_length()} bits" in str(info.value)


LONG = "7" * 10 ** 6
SHOWN = "'" + "7" * 59 + "... (1000002 characters)"


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: Signature.from_json({"symbols": [{"name": "f", "arity": LONG}]}),
            f"bad arity for 'f': {SHOWN}",
        ),
        (
            lambda: FiniteAlgebra.from_json(NAT, {"carrier": LONG, "tables": {"z": [0], "s": [0]}}),
            f"carrier must have at least one element, got {SHOWN}",
        ),
    ],
    ids=["signature-from_json", "algebra-from_json"],
)
def test_long_value_is_shown_as_a_prefix_and_its_length(call, message):
    with pytest.raises(FormatError) as info:
        call()
    assert str(info.value) == message


LONG_SYMBOL = "OpSymbol('" + "7" * 50 + "... (1000021 characters)"
X_IS_X = Equation(1, Term(NAT_X, (2,)), Term(NAT_X, (2,)))
# an unquoted name: its first 60 characters and its length
UNQUOTED = "7" * 60 + "... (1000000 characters)"
LONG_UNARY = Signature([(LONG, 1)])
LONG_CONSTANT = Term(Signature([(LONG, 0)]), (0,))
WIDE = Signature([("z", 0), ("s", 1)] + [(f"c{i}", 0) for i in range(2 ** 16 - 2)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: Signature([(LONG, 0), (LONG, 0)]),
            SignatureError,
            f"duplicate symbol name: {SHOWN}",
        ),
        (
            lambda: Signature.from_json({"symbols": [{"name": LONG, "arity": -1}]}),
            FormatError,
            f"bad arity for {SHOWN}: -1",
        ),
        (lambda: parse_term(NAT, LONG), UnknownSymbolError, f"unknown symbol {SHOWN} (at position 0)"),
        (
            lambda: parse_oplist(NAT, "z " + LONG),
            UnknownSymbolError,
            f"unknown symbol {SHOWN} (at position 1)",
        ),
        (lambda: NAT.symbol(LONG), InvalidSymbolError, f"no symbol named {SHOWN}"),
        (lambda: NAT.arity(LONG), InvalidSymbolError, f"not a symbol index: {SHOWN}"),
        (
            lambda: NAT.arity(Signature([(LONG, 0)]).symbols[0]),
            InvalidSymbolError,
            f"{LONG_SYMBOL} belongs to a different signature",
        ),
        (
            lambda: parse_equation(Signature([(LONG, 0)]), [LONG], LONG, LONG),
            FormatError,
            f"variable name {SHOWN} collides with a symbol name",
        ),
        (
            lambda: Theory(LONG, (("e", X_IS_X), ("e", X_IS_X))),
            FormatError,
            f"duplicate equation labels in theory {SHOWN}",
        ),
        (
            lambda: build_term(NAT.symbol("s"), [LONG_CONSTANT]),
            SignatureMismatchError,
            "child Term('" + "7" * 54 + "... (1000008 characters) is over a different signature",
        ),
        (
            lambda: FiniteAlgebra(LONG_UNARY, 1, [[0]]).apply(0, []),
            ArityMismatchError,
            f"{UNQUOTED} expects 1 argument(s), got 0",
        ),
        (
            lambda: FiniteAlgebra(LONG_UNARY, 2, [[0]]),
            CarrierMismatchError,
            f"table for {UNQUOTED} must have 2^1 entries, got 1",
        ),
        (
            lambda: FiniteAlgebra(LONG_UNARY, 1, [[5]]),
            CarrierMismatchError,
            f"table for {UNQUOTED} has entry 5 outside the carrier",
        ),
        (
            lambda: FiniteAlgebra.from_json(LONG_UNARY, {"carrier": 1, "tables": {LONG: 0}}),
            FormatError,
            f"table for {UNQUOTED} must be an array of integers",
        ),
        (
            lambda: FiniteAlgebra.from_json(WIDE, {"carrier": 1, "tables": {}}),
            FormatError,
            "missing table(s) for: c0, c1, c10, c100, c1000 and 65531 more",
        ),
        (
            lambda: FiniteAlgebra.from_json(
                NAT, {"carrier": 1, "tables": {name: [0] for name in WIDE._by_name}}
            ),
            FormatError,
            "table(s) for unknown symbol(s): c0, c1, c10, c100, c1000 and 65529 more",
        ),
        (
            lambda: FiniteAlgebra.from_json(
                NAT, {"carrier": 1, "tables": {"z": [0], "s": [0], LONG: [0]}}
            ),
            FormatError,
            f"table(s) for unknown symbol(s): {UNQUOTED}",
        ),
    ],
    ids=[
        "duplicate-name",
        "signature-from_json",
        "parse_term",
        "parse_oplist",
        "symbol",
        "arity",
        "foreign-symbol",
        "variable-collision",
        "duplicate-label",
        "build_term-child",
        "apply-arity",
        "table-size",
        "table-entry",
        "from_json-table",
        "from_json-missing",
        "from_json-unknown",
        "from_json-unknown-long",
    ],
)
def test_long_name_is_shown_as_a_prefix_and_its_length(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_extension_keeps_the_base_entries():
    base = Signature([("f", 2)] + [(f"g{i}", i % 3) for i in range(1, 2 ** 14)])
    extended = Signature(base.entries() + (("x", 0),))
    assert all(
        mine is theirs for mine, theirs in zip(extended.entries(), base.entries())
    )
    assert extended.entries()[: len(base)] == base.entries()


@pytest.mark.parametrize(
    "entries, error, message",
    [
        ([("a", 0, 1)], ValueError, "too many values to unpack (expected 2)"),
        ([5], TypeError, "cannot unpack non-iterable int object"),
        ([("", 0), ("a",)], ValueError, "not enough values to unpack (expected 2, got 1)"),
        (["ab"], SignatureError, "bad arity for 'a': 'b'"),
    ],
    ids=["triple", "int", "unpacked-first", "string"],
)
def test_malformed_entries_raise_as_before(entries, error, message):
    with pytest.raises(error) as info:
        Signature(entries)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "tables, message",
    [
        ({}, "missing table(s) for: s, z"),
        ({"z": [0], "s": [0], "t": [0], "a": [0]}, "table(s) for unknown symbol(s): a, t"),
    ],
    ids=["missing", "unknown"],
)
def test_short_table_name_lists_read_in_full(tables, message):
    with pytest.raises(FormatError) as info:
        FiniteAlgebra.from_json(NAT, {"carrier": 1, "tables": tables})
    assert str(info.value) == message


def test_arity_out_of_range():
    with pytest.raises(InvalidSymbolError):
        NAT.arity(2)
    with pytest.raises(InvalidSymbolError):
        NAT.arity(-1)
    with pytest.raises(InvalidSymbolError):
        NAT.symbol("nope")


@pytest.mark.parametrize("ref", ["s", True])
def test_arity_rejects_a_non_index(ref):
    with pytest.raises(InvalidSymbolError) as info:
        NAT.arity(ref)
    assert str(info.value) == f"not a symbol index: {ref!r}"


def test_foreign_symbol_rejected():
    other = Signature([("z", 0), ("s", 1)])
    with pytest.raises(InvalidSymbolError):
        NAT.arity(other.symbol("s"))


def test_symbol_returns_its_own_symbol():
    assert NAT.symbol(NAT.symbols[1]) is NAT.symbols[1]


def test_symbol_rejects_a_foreign_symbol():
    other = Signature([("z", 0), ("s", 1)])
    with pytest.raises(InvalidSymbolError) as info:
        NAT.symbol(other.symbols[1])
    assert str(info.value) == "OpSymbol('s', arity=1) belongs to a different signature"


def test_structural_equality_of_signatures():
    assert NAT == Signature([("z", 0), ("s", 1)])
    assert NAT != Signature([("z", 0), ("s", 2)])
    assert NAT != Signature([("s", 1), ("z", 0)])
    assert hash(NAT) == hash(Signature([("z", 0), ("s", 1)]))


def test_symbol_equality_is_identity_scoped():
    clone = Signature([("z", 0), ("s", 1)])
    assert NAT.symbol("s") == NAT.symbol(1)
    assert NAT.symbol("s") != clone.symbol("s")
    assert NAT.symbol("s") != NAT.symbol("z")
    assert len({NAT.symbol("s"), NAT.symbol(1)}) == 1


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda sig: pickle.loads(pickle.dumps(sig))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copy_owns_its_symbols(clone):
    sig = Signature([("f", 2), ("a", 0)])
    copied = clone(sig)
    assert copied == sig and hash(copied) == hash(sig)
    for i, sym in enumerate(copied.symbols):
        assert sym.signature is copied
        assert copied.arity(sym) == sig.arity(i)
        assert copied.symbol(sym) is sym
        assert copied.symbol(sym.name) is sym
        assert sym != sig.symbols[i]


def test_slots_refuse_assignment_and_deletion():
    # a slot set anew would leave the others stale: after _entries = (("g",
    # 1),) the signature equalled Signature([("g", 1)]) but hashed apart
    # from it, and arity(1) still answered from the old arities
    s = Signature([("f", 2), ("c", 0)])
    for name in Signature.__slots__:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(s, name, getattr(s, name))
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(s, name)
    with pytest.raises(AttributeError, match="cannot assign"):
        s._entries = (("g", 1),)
    assert s != Signature([("g", 1)])
    assert s == Signature([("f", 2), ("c", 0)]) and hash(s) == hash(Signature(s.entries()))
    assert (s.arity(0), s.arity(1)) == (2, 0)
    # the print tables are still built on first use
    assert format_term(parse_term(s, "f(c,c)")) == "f(c,c)"


def test_extend_with_variables():
    ext = NAT.extend_with_variables(2)
    assert ext.entries() == (("z", 0), ("s", 1), ("x0", 0), ("x1", 0))
    # original indices and arities preserved
    for i in range(len(NAT)):
        assert ext.arity(i) == NAT.arity(i)
        assert ext.symbols[i].name == NAT.symbols[i].name


def test_extend_zero_is_identity():
    assert NAT.extend_with_variables(0) is NAT
    assert NAT.extend_with_variables(0) == NAT


def test_extend_empty_signature():
    ext = Signature([]).extend_with_variables(1)
    assert ext.entries() == (("x0", 0),)


def test_extend_rejects_a_negative_count():
    with pytest.raises(SignatureError) as info:
        NAT.extend_with_variables(-1)
    assert str(info.value) == "negative variable count: -1"


def test_extend_renames_on_collision():
    sig = Signature([("x0", 3)])
    ext = sig.extend_with_variables(1)
    assert ext.entries() == (("x0", 3), ("x0_1", 0))


def test_json_round_trip():
    data = NAT.to_json()
    assert data == {"symbols": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}]}
    assert Signature.from_json(data) == NAT


def test_from_json_limits():
    data = {"symbols": [{"name": "big", "arity": 100}]}
    assert Signature.from_json(data, limit=100).arity(0) == 100
    with pytest.raises(FormatError, match="exceeds limit"):
        Signature.from_json(data, limit=99)
    many = {"symbols": [{"name": f"c{i}", "arity": 0} for i in range(5)]}
    with pytest.raises(FormatError, match="symbol count"):
        Signature.from_json(many, limit=4)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {},
        {"symbols": {}},
        {"symbols": [{"name": "z"}]},
        {"symbols": [{"name": "z", "arity": "0"}]},
        {"symbols": [{"name": "z", "arity": -1}]},
        {"symbols": [{"name": "z", "arity": 0}], "extra": 1},
    ],
)
def test_from_json_rejects_malformed(data):
    with pytest.raises(FormatError):
        Signature.from_json(data)


@pytest.mark.parametrize(
    "arity, message",
    [
        ("0", "bad arity for 'z': '0'"),
        (-1, "bad arity for 'z': -1"),
        (True, "bad arity for 'z': True"),
    ],
    ids=["str", "negative", "bool"],
)
def test_from_json_arity_is_checked_by_the_constructor(arity, message):
    with pytest.raises(FormatError) as info:
        Signature.from_json({"symbols": [{"name": "z", "arity": arity}]})
    assert str(info.value) == message
