import copy
import enum
import itertools
import json
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ualgebra.algebras import (
    _BYTE_CARRIER,
    _ROW_MIN,
    FiniteAlgebra,
    check_homomorphism,
    is_homomorphism,
)
from ualgebra.equations import evaluate_with, find_violation, parse_equation
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


class Bit(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


def test_carrier_elements_are_ints_but_never_bools():
    """The one element check of tables, mappings, `apply` arguments and
    `evaluate_with` assignments takes an int subclass such as an IntEnum
    member, in range, as the int it equals, and refuses a bool in each
    place with the same message, as it does an IntEnum member out of
    range."""
    x = parse_equation(NAT, ["x"], "x", "x").lhs

    def uses(zero, one):
        algebra = FiniteAlgebra(NAT, 2, [[zero], [one, zero]])
        return (
            algebra.tables,
            check_homomorphism(N4, N2, [zero, one, zero, one]),
            N4.apply("s", (one,)),
            evaluate_with(N4, 1, x, (one,)),
        )

    assert uses(Bit.ZERO, Bit.ONE) == uses(0, 1) == (((0,), (1, 0)), None, 2, 1)
    for bad in (True, False, Bit.TWO):
        shown = repr(bad)
        with pytest.raises(CarrierMismatchError) as table:
            FiniteAlgebra(NAT, 2, [[0], [1, bad]])
        with pytest.raises(CarrierMismatchError) as mapping:
            check_homomorphism(N4, N2, [0, 1, 0, bad])
        with pytest.raises(CarrierMismatchError) as argument:
            N2.apply("s", (bad,))
        with pytest.raises(CarrierMismatchError) as assignment:
            evaluate_with(N2, 1, x, (bad,))
        assert [str(e.value) for e in (table, mapping, argument, assignment)] == [
            f"table for s has entry {shown} outside the carrier",
            f"mapping value {shown} outside the target carrier",
            f"argument {shown} outside the carrier",
            f"assignment value {shown} outside the carrier",
        ]


# ------------------------------------------------------------ row scan
# check_homomorphism scans every table by rows, entry by entry, when the
# source has fewer than _ROW_MIN elements or a carrier more than 256;
# otherwise it compares a group of rows (every argument but the last two
# fixed) as bytes, and reads rows entry by entry only to locate a
# difference.  These cases sit on both sides of each bound and of each group
# and are checked against oracles.least_hom_violation

# every arity 0-3; constants and ternary between the others, so a planted
# violation can sit behind a full scan of an earlier symbol
MIXED = Signature([("b", 2), ("c", 0), ("t", 3), ("u", 1)])
# at most binary, for carriers of 256 and more
NARROW = Signature([("b", 2), ("c", 0), ("u", 1)])

# both sides of the gate: rows compared entry by entry below _ROW_MIN and
# as bytes from it, with every arity where the tables stay small
GATE_SHAPES = [
    (MIXED, _ROW_MIN - 1, 2),
    (MIXED, _ROW_MIN, 2),
    (NARROW, _ROW_MIN - 1, 256),
    (NARROW, _ROW_MIN, 256),
    (NARROW, _ROW_MIN, 257),
]
# both sides of the byte bound, source and target
BYTE_SHAPES = [
    (NARROW, 256, 2),
    (NARROW, 256, 256),
    (NARROW, 256, 257),
    (NARROW, 257, 2),
]


def hom_case(rng, sig, s_size, t_size):
    """Two random algebras over sig and a homomorphism between them: a
    surjection, with each source entry a preimage of the target's entry,
    when the source is at least as large; otherwise an injection, with the
    target's entries at mapped tuples set from the source."""

    def row_major(mapping, args):
        index = 0
        for x in args:
            index = index * t_size + mapping[x]
        return index

    shapes = [(sym, list(itertools.product(range(s_size), repeat=sym.arity)))
              for sym in sig.symbols]
    target = [rng.choices(range(t_size), k=t_size ** sym.arity) for sym in sig.symbols]
    if s_size >= t_size:
        mapping = list(range(t_size)) + [rng.randrange(t_size) for _ in range(s_size - t_size)]
        rng.shuffle(mapping)
        preimages = [[] for _ in range(t_size)]
        for x, y in enumerate(mapping):
            preimages[y].append(x)
        source = [[rng.choice(preimages[target[sym.index][row_major(mapping, args)]])
                   for args in tuples] for sym, tuples in shapes]
    else:
        mapping = rng.sample(range(t_size), s_size)
        source = [rng.choices(range(s_size), k=len(tuples)) for _, tuples in shapes]
        for sym, tuples in shapes:
            for args, value in zip(tuples, source[sym.index]):
                target[sym.index][row_major(mapping, args)] = mapping[value]
    return source, target, mapping


def position(choice, count):
    return {"first": 0, "last": count - 1}.get(choice, choice) % count


PLANT = st.tuples(
    st.sampled_from("bctu"),
    st.one_of(st.sampled_from(["first", "last"]), st.integers(0, 2 ** 16)),
    st.one_of(st.sampled_from(["first", "last"]), st.integers(0, 2 ** 16)),
)


# planted violations, each reported by one example: the constant, the
# first and the last entry of the first and of the last row, and a ternary
# row; a second plant sits behind the first
PLANTED = [
    [],
    [("c", "first", "first")],
    [("b", "first", "first")],
    [("b", "first", "last")],
    [("b", "last", "first")],
    [("b", "last", "last"), ("u", "first", "last")],
    [("t", "last", "last"), ("u", "first", "first")],
]


def with_planted_examples(test):
    for seed, plants in enumerate(PLANTED):
        test = example(seed=seed, plants=plants)(test)
    return test


@pytest.mark.parametrize(
    "sig, s_size, t_size", GATE_SHAPES, ids=[f"{s}to{t}" for _, s, t in GATE_SHAPES]
)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), plants=st.lists(PLANT, max_size=2))
@with_planted_examples
def test_row_path_around_the_gate(sig, s_size, t_size, seed, plants):
    check_least_violation(sig, s_size, t_size, seed, plants)


@pytest.mark.parametrize(
    "sig, s_size, t_size", BYTE_SHAPES, ids=[f"{s}to{t}" for _, s, t in BYTE_SHAPES]
)
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), plants=st.lists(PLANT, max_size=2))
@with_planted_examples
def test_row_path_around_the_byte_bound(sig, s_size, t_size, seed, plants):
    check_least_violation(sig, s_size, t_size, seed, plants)


@pytest.mark.parametrize("seed", range(3))
def test_every_carrier_map_below_the_gate(seed):
    """Every map from a source of 1-5 elements into a target of 1-3 gives
    the oracle's whole least violation.  Each pair of algebras comes with
    a homomorphism and again with one entry of t or u broken for it, so
    the maps near it break on the later symbols too."""
    rng = random.Random(seed)
    broken_at = set()
    for s_size, t_size in itertools.product(range(1, 6), range(1, 4)):
        source, target, hom = hom_case(rng, MIXED, s_size, t_size)
        sources = [source]
        if len(set(hom)) > 1:  # an entry can be given another image
            sym = MIXED.symbol(rng.choice("tu"))
            broken = [list(table) for table in source]
            i = rng.randrange(len(broken[sym.index]))
            kept = hom[broken[sym.index][i]]
            broken[sym.index][i] = next(x for x in range(s_size) if hom[x] != kept)
            sources.append(broken)
        dst = FiniteAlgebra(MIXED, t_size, target)
        for tables in sources:
            src = FiniteAlgebra(MIXED, s_size, tables)
            for mapping in itertools.product(range(t_size), repeat=s_size):
                got = check_homomorphism(src, dst, mapping)
                want = oracles.least_hom_violation(src, dst, mapping)
                if want is None:
                    assert got is None
                else:
                    assert (got.symbol, got.args, got.lhs, got.rhs) == want
                    broken_at.add(got.symbol.name)
    assert broken_at == {"b", "c", "t", "u"}


# a 4-ary symbol: groups of s^2 entries, one per prefix of two arguments
WIDE = Signature([("b", 2), ("c", 0), ("q", 4), ("u", 1)])


def in_a_repeated_group(name, offset):
    """Plants at row `offset` of the least group past 0 whose mapped prefix
    is group 0's (or an earlier group's, if no other element shares the
    image of 0), so the compare reads the block memoised for that prefix.
    Group g's first row is g * s for a ternary symbol (prefix (g,)) and for
    a 4-ary one (prefix (0, g))."""

    def plants(mapping):
        s = len(mapping)
        g = next((x for x in range(1, s) if mapping[x] == mapping[0]), None)
        if g is None:
            g = next(x for x in range(s) if mapping[x] in mapping[:x])
        return [(name, g * s + offset, "last")]

    return plants


@pytest.mark.parametrize("t_size", [2, 3])
@pytest.mark.parametrize(
    "plants",
    [
        [],
        [("q", "first", "first")],
        # the first entry of the second group: prefix (0, 1), row s
        [("q", _ROW_MIN, "first")],
        [("q", "last", "last"), ("u", "first", "first")],
        in_a_repeated_group("q", 0),
        in_a_repeated_group("q", _ROW_MIN - 1),
    ],
    ids=["hom", "first", "second-group", "last", "repeat-first-row", "repeat-last-row"],
)
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_groups_of_a_4ary_symbol_at_the_gate(t_size, plants, seed):
    check_least_violation(WIDE, _ROW_MIN, t_size, seed, plants)


@pytest.mark.parametrize(
    "plants",
    [
        # the first entry of the second group: prefix (1,), row s
        [("t", _ROW_MIN, "first")],
        in_a_repeated_group("t", 0),
        in_a_repeated_group("t", _ROW_MIN // 2),
    ],
    ids=["second-group", "repeat-first-row", "repeat-mid-row"],
)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_groups_of_a_ternary_symbol_at_the_gate(plants, seed):
    check_least_violation(MIXED, _ROW_MIN, 2, seed, plants)


# a group's first row is compared before the rest of the group is joined:
# plants in the first row of the first group, which the first-row compare
# finds, and in the last row of a group, whose first row agrees
@pytest.mark.parametrize(
    "sig, t_size, plants",
    [
        (NARROW, 256, [("b", 0, _ROW_MIN // 2)]),
        (MIXED, 2, [("b", 0, "last")]),
        (MIXED, 3, [("t", 0, _ROW_MIN // 2)]),
        (WIDE, 2, [("q", 0, "last")]),
        (NARROW, 256, [("b", _ROW_MIN - 1, "first")]),
        (MIXED, 2, [("b", _ROW_MIN - 1, "last")]),
        (MIXED, 3, [("t", _ROW_MIN - 1, "first")]),
        (MIXED, 2, [("t", 2 * _ROW_MIN - 1, "last")]),
        (WIDE, 3, [("q", _ROW_MIN - 1, _ROW_MIN // 2)]),
    ],
    ids=[
        "first-row-b-256", "first-row-b", "first-row-t", "first-row-q",
        "last-row-b-256", "last-row-b", "last-row-t", "last-row-t-group-1", "last-row-q",
    ],
)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_a_group_is_compared_from_its_first_row(sig, t_size, plants, seed):
    check_least_violation(sig, _ROW_MIN, t_size, seed, plants)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), plants=st.lists(PLANT, max_size=2))
@example(seed=0, plants=[])
@example(seed=1, plants=[("b", "last", "last")])
def test_an_injection_reads_the_target_at_its_image_alone(seed, plants):
    """16 -> 256: target rows are pulled back only at the image, so
    changing every target entry off the image changes no verdict."""
    check_least_violation(NARROW, _ROW_MIN, 256, seed, plants, off_image=True)


def check_least_violation(sig, s_size, t_size, seed, plants, off_image=False):
    """The whole HomViolation, not only the verdict, equals the oracle's,
    for a homomorphism and for the same map broken at planted entries
    (`plants` may be a function of the map).  With `off_image`, so does
    the HomViolation against the target changed at every entry outside
    the image."""
    rng = random.Random(seed)
    source, target, mapping = hom_case(rng, sig, s_size, t_size)
    if callable(plants):
        plants = plants(mapping)
    plants = [p for p in plants if p[0] in {sym.name for sym in sig.symbols}]
    unbroken = [tuple(table) for table in source]
    for name, row, col in plants:
        sym = sig.symbol(name)
        table = source[sym.index]
        width = s_size if sym.arity else 1
        i = position(row, len(table) // width) * width + position(col, width)
        # a value whose image differs from that of the homomorphism's
        # entry, so mapping breaks at entry i, also when two plants meet
        kept = mapping[unbroken[sym.index][i]]
        table[i] = next(x for x in rng.sample(range(s_size), s_size) if mapping[x] != kept)
    src = FiniteAlgebra(sig, s_size, source)
    dst = FiniteAlgebra(sig, t_size, target)
    got = check_homomorphism(src, dst, mapping)
    want = oracles.least_hom_violation(src, dst, mapping)
    if want is None:
        assert got is None
        assert not plants
    else:
        assert (got.symbol, got.args, got.lhs, got.rhs) == want
    if off_image:
        image = set(mapping)
        changed = [
            [v if set(args) <= image else (v + 1) % t_size
             for args, v in zip(itertools.product(range(t_size), repeat=sym.arity), table)]
            for sym, table in zip(sig.symbols, target)
        ]
        assert changed != target
        assert check_homomorphism(src, FiniteAlgebra(sig, t_size, changed), mapping) == got


# ------------------------------------------------------------ transport of structure
# sA, an algebra A carried along a carrier permutation s, is isomorphic to A
# by s, whatever the tables: s and its inverse are homomorphisms and s
# commutes with evaluation, with no oracle to consult.  The sizes sit on
# both sides of _ROW_MIN and of the byte bound _BYTE_CARRIER


@pytest.mark.parametrize(
    "size",
    [_ROW_MIN - 1, _ROW_MIN, _ROW_MIN + 1, _BYTE_CARRIER - 1, _BYTE_CARRIER, _BYTE_CARRIER + 1],
)
def test_transport_of_structure_is_an_isomorphism(size):
    rng = random.Random(size)
    sig = MIXED if size <= _ROW_MIN + 1 else NARROW  # no ternary table of 255^3
    tables = [rng.choices(range(size), k=size ** sym.arity) for sym in sig.symbols]
    algebra = FiniteAlgebra(sig, size, tables)
    s = rng.sample(range(size), size)
    inverse = [0] * size
    for x, y in enumerate(s):
        inverse[y] = x
    moved = oracles.transported_tables(algebra, s)
    image = FiniteAlgebra(sig, size, moved)
    assert check_homomorphism(algebra, image, s) is None
    assert check_homomorphism(image, algebra, inverse) is None
    for term in enumerate_terms(sig, 6):
        assert image.evaluate(term) == s[algebra.evaluate(term)]
    # one changed entry of sA, the first or the last of b, or any of t (of
    # the constant c from 255 elements): each map breaks there alone
    b, other = sig.symbol("b"), sig.symbols[-2]
    for sym, index in [(b, 0), (b, size * size - 1), (other, rng.randrange(size ** other.arity))]:
        broken = [list(table) for table in moved]
        broken[sym.index][index] = (moved[sym.index][index] + 1) % size
        broken = FiniteAlgebra(sig, size, broken)
        args = tuple(index // size ** (sym.arity - 1 - i) % size for i in range(sym.arity))
        there = check_homomorphism(algebra, broken, s)
        back = check_homomorphism(broken, algebra, inverse)
        assert (there.symbol, there.args) == (sym, tuple(inverse[y] for y in args))
        assert (back.symbol, back.args) == (sym, args)
        for got, want in [
            (there, oracles.least_hom_violation(algebra, broken, s)),
            (back, oracles.least_hom_violation(broken, algebra, inverse)),
        ]:
            assert (got.symbol, got.args, got.lhs, got.rhs) == want


# ------------------------------------------------------------ representation

def test_tables_from_lists_and_from_tuples_make_one_algebra():
    tables = [[(2 * x + y) % 3 for x in range(3) for y in range(3)], [1], [2]]
    from_lists = FiniteAlgebra(BIN, 3, tables)
    from_tuples = FiniteAlgebra(BIN, 3, tuple(tuple(t) for t in tables))
    assert from_lists == from_tuples == BIN_MOD3
    assert hash(from_lists) == hash(from_tuples) == hash(BIN_MOD3)
    assert repr(from_lists) == repr(from_tuples) == f"FiniteAlgebra(carrier=3, over {BIN!r})"
    assert from_lists.to_json() == from_tuples.to_json()
    assert type(from_lists.tables) is tuple
    assert all(type(t) is tuple for t in from_lists.tables)
    assert {from_lists, from_tuples} == {BIN_MOD3}
    for copied in (pickle.loads(pickle.dumps(from_lists)), copy.copy(from_lists),
                   copy.deepcopy(from_lists)):
        assert copied == from_lists and hash(copied) == hash(from_lists)
        assert copied._byte_tables == from_lists._byte_tables
        assert copied.to_json() == from_lists.to_json()
        assert repr(copied) == repr(from_lists)


def test_an_algebra_after_a_scan_is_like_a_fresh_one():
    # a scan of more than 64 assignments in bytes keeps tables and columns
    # in the algebra, which its equality, hash, repr and JSON do not read;
    # they are empty in a fresh algebra and in every copy, filled after use
    scanned, fresh = (FiniteAlgebra(BIN, 3, BIN_MOD3.tables) for _ in range(2))
    eq = parse_equation(BIN, ["x", "y", "z", "w"], "f(x,f(y,f(z,w)))", "f(w,f(z,f(y,x)))")
    assert scanned._scans == fresh._scans == ({}, {})
    assert find_violation(scanned, eq) == oracles.least_violation(scanned, eq)
    assert all(scanned._scans) and fresh._scans == ({}, {})
    assert scanned == fresh and hash(scanned) == hash(fresh)
    assert repr(scanned) == repr(fresh)
    assert scanned.to_json() == fresh.to_json()
    # copies and pickles leave the caches behind
    assert len(pickle.dumps(scanned)) == len(pickle.dumps(fresh))
    for copied in (pickle.loads(pickle.dumps(scanned)), copy.copy(scanned), copy.deepcopy(scanned)):
        assert copied == fresh and copied._scans == ({}, {})
        assert copied._byte_tables == fresh._byte_tables
        assert find_violation(copied, eq) == find_violation(fresh, eq)


def refuse_every_field_change(algebra, tables):
    # tables: those of another algebra over the same signature and carrier
    changes = {"tables": tables, "carrier_size": algebra.carrier_size + 1, "signature": NAT}
    for field, value in changes.items():
        with pytest.raises(AttributeError):
            setattr(algebra, field, value)
        with pytest.raises(AttributeError):
            delattr(algebra, field)


def test_fields_stay_as_built_after_a_bytes_scan():
    # the scan keeps what it reads of the tables in the algebra; a field
    # changed under it would leave its verdicts stale
    law = parse_equation(BIN, ["x", "y", "z", "w"], "f(x,y)", "f(y,x)")
    z3 = [[(x + y) % 3 for x in range(3) for y in range(3)], [0], [1]]
    left = [[x for x in range(3) for _ in range(3)], [0], [1]]
    scanned = FiniteAlgebra(BIN, 3, z3)
    assert find_violation(scanned, law) is None
    assert all(scanned._scans)
    moved = FiniteAlgebra(BIN, 3, left)
    refuse_every_field_change(scanned, moved.tables)
    assert scanned == FiniteAlgebra(BIN, 3, z3)
    assert find_violation(scanned, law) is None
    assert oracles.least_violation(scanned, law) is None
    assert find_violation(moved, law) == oracles.least_violation(moved, law) == (0, 1, 0, 0)


def test_fields_stay_as_built_after_a_bytes_hom_check():
    # a 16-element source is at _ROW_MIN, so the check compares the
    # tables' bytes copies, which a changed field would leave stale
    sig = Signature([("s", 1), ("z", 0)])
    successor = [[(x + 1) % 16 for x in range(16)], [0]]
    source, target = (FiniteAlgebra(sig, 16, successor) for _ in range(2))
    moved = FiniteAlgebra(sig, 16, [list(range(16)), [0]])
    assert check_homomorphism(source, target, range(16)) is None
    for algebra in (source, target):
        refuse_every_field_change(algebra, moved.tables)
    assert check_homomorphism(source, target, range(16)) is None
    assert oracles.least_hom_violation(source, target, range(16)) is None
    got = check_homomorphism(source, moved, range(16))
    want = oracles.least_hom_violation(source, moved, range(16))
    assert (got.symbol, got.args, got.lhs, got.rhs) == want == (sig.symbols[0], (0,), 1, 0)


@pytest.mark.parametrize("size, byte_tables", [(256, True), (257, False)])
def test_byte_tables_only_up_to_256_elements(size, byte_tables):
    """Above 256 elements there is no byte copy, and the entry compare
    still decides the homomorphism condition."""
    sig = Signature([("s", 1), ("z", 0)])
    alg = FiniteAlgebra(sig, size, [[(x + 1) % size for x in range(size)], [0]])
    assert (alg._byte_tables is not None) is byte_tables
    if byte_tables:
        assert alg._byte_tables == tuple(bytes(t) for t in alg.tables)
    assert check_homomorphism(alg, alg, range(size)) is None
    shifted = [(x + 1) % size for x in range(size)]
    violation = check_homomorphism(alg, alg, shifted)
    assert (violation.symbol.name, violation.args) == ("z", ())
    assert (violation.lhs, violation.rhs) == (1, 0)


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
