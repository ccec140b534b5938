import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ualgebra import algebras, equations
from ualgebra.algebras import FiniteAlgebra
from ualgebra.equations import (
    Equation,
    Theory,
    check_model,
    evaluate_with,
    find_violation,
    is_model,
    parse_equation,
    satisfies,
)
from ualgebra.errors import (
    BudgetExceededError,
    CarrierMismatchError,
    FormatError,
    SignatureMismatchError,
    UAlgebraError,
)
from ualgebra.signature import Signature
from ualgebra.terms import Term, enumerate_terms

import oracles
from corpus import N4, NAT, small_algebras

XOR = Signature([("xor", 2), ("e", 0)])
B2_XOR = FiniteAlgebra(XOR, 2, [[0, 1, 1, 0], [0]])
B2_AND = FiniteAlgebra(XOR, 2, [[0, 0, 0, 1], [0]])

PROJ = Signature([("proj", 2)])
PROJ_ALG = FiniteAlgebra(PROJ, 2, [[0, 0, 1, 1]])

XOR_THEORY = Theory(
    "xor-group",
    (
        ("comm", parse_equation(XOR, ["x", "y"], "xor(x,y)", "xor(y,x)")),
        ("assoc", parse_equation(XOR, ["x", "y", "w"], "xor(xor(x,y),w)", "xor(x,xor(y,w))")),
        ("unit", parse_equation(XOR, ["x"], "xor(x,e)", "x")),
        ("inv", parse_equation(XOR, ["x"], "xor(x,x)", "e")),
    ),
)


# ------------------------------------------------------------ evaluate_with

def test_variable_projection():
    eq = parse_equation(Signature([("c", 0)]), ["x"], "x", "x")
    for c in range(3):
        alg = FiniteAlgebra(Signature([("c", 0)]), 3, [[c]])
        assert evaluate_with(alg, 1, eq.lhs, (c,)) == c


def test_xor_of_two_variables():
    eq = parse_equation(XOR, ["x", "y"], "xor(x,y)", "e")
    assert evaluate_with(B2_XOR, 2, eq.lhs, (1, 1)) == 0
    assert evaluate_with(B2_XOR, 2, eq.lhs, (0, 1)) == 1


def test_successor_of_variable_in_n4():
    eq = parse_equation(NAT, ["x"], "s(x)", "x")
    assert evaluate_with(N4, 1, eq.lhs, (3,)) == 0


def test_assignment_validation():
    eq = parse_equation(NAT, ["x"], "s(x)", "x")
    with pytest.raises(CarrierMismatchError):
        evaluate_with(N4, 1, eq.lhs, ())
    with pytest.raises(CarrierMismatchError):
        evaluate_with(N4, 1, eq.lhs, (4,))


def test_assignment_rejects_bool():
    eq = parse_equation(NAT, ["x"], "s(x)", "x")
    with pytest.raises(CarrierMismatchError):
        evaluate_with(N4, 1, eq.lhs, (True,))


# ------------------------------------------------------------ satisfaction

def test_xor_commutativity_holds():
    eq = parse_equation(XOR, ["x", "y"], "xor(x,y)", "xor(y,x)")
    assert satisfies(B2_XOR, eq)
    assert find_violation(B2_XOR, eq) is None


def test_projection_breaks_commutativity_at_least_assignment():
    eq = parse_equation(PROJ, ["x", "y"], "proj(x,y)", "proj(y,x)")
    assert find_violation(PROJ_ALG, eq) == (0, 1)


def test_syntactically_equal_sides_always_satisfied():
    for algebra in (B2_XOR, B2_AND):
        eq = parse_equation(XOR, ["x", "y"], "xor(x,y)", "xor(x,y)")
        assert satisfies(algebra, eq)


def test_ground_equation_reduces_to_eval():
    holds = parse_equation(XOR, [], "xor(e,e)", "e")
    also_holds = parse_equation(XOR, [], "xor(e,e)", "xor(e,xor(e,e))")
    assert satisfies(B2_XOR, holds)
    assert satisfies(B2_XOR, also_holds)
    odd = parse_equation(NAT, [], "s(z)", "z")
    assert find_violation(N4, odd) == ()
    # exactly one assignment is enumerated: budget 1 suffices
    assert satisfies(N4, parse_equation(NAT, [], "z", "z"), budget=1)


def test_counterexample_minimality_against_full_enumeration():
    eq = parse_equation(NAT, ["x", "y"], "s(x)", "s(y)")
    assert find_violation(N4, eq) == oracles.least_violation(N4, eq) == (0, 1)


@settings(max_examples=100, deadline=None)
@given(table=st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_counterexample_minimality_random_tables(table):
    algebra = FiniteAlgebra(PROJ, 2, [table])
    eq = parse_equation(PROJ, ["x", "y"], "proj(x,y)", "proj(y,x)")
    assert find_violation(algebra, eq) == oracles.least_violation(algebra, eq)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_satisfaction_agrees_with_tree_oracle(data):
    """Random small algebras and random equations with 0-3 variables:
    find_violation and evaluate_with match the recursive tree oracle."""
    algebra = data.draw(small_algebras())
    sig, size = algebra.signature, algebra.carrier_size
    n = data.draw(st.integers(0, 3))
    extended = sig.extend_with_variables(n)
    pool = enumerate_terms(extended, 5)
    eq = Equation(n, data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)))
    assert find_violation(algebra, eq) == oracles.least_violation(algebra, eq)
    assignment = tuple(data.draw(st.integers(0, size - 1)) for _ in range(n))
    for side in (eq.lhs, eq.rhs):
        tree = oracles.tree_of(extended, side.ops)
        assert evaluate_with(algebra, n, side, assignment) == oracles.tree_eval_with(
            algebra, len(sig), tree, assignment
        )


def test_substitution_coherence():
    """Splicing ground terms in for the variables matches evaluating under
    the assignment of their values."""
    grounds = enumerate_terms(NAT, 4)
    eq = parse_equation(NAT, ["x", "y"], "s(s(x))", "s(y)")
    extended = eq.lhs.signature
    base = len(NAT)
    for side in (eq.lhs, eq.rhs):
        for g0 in grounds:
            for g1 in grounds:
                spliced = []
                for op in side.ops:
                    if op == base:
                        spliced.extend(g0.ops)
                    elif op == base + 1:
                        spliced.extend(g1.ops)
                    else:
                        spliced.append(op)
                direct = N4.evaluate(Term(NAT, tuple(spliced)))
                assignment = (N4.evaluate(g0), N4.evaluate(g1))
                assert direct == evaluate_with(N4, 2, side, assignment)


def test_budget_guard():
    eq = parse_equation(PROJ, ["x", "y"], "proj(x,y)", "proj(y,x)")
    with pytest.raises(BudgetExceededError):
        find_violation(PROJ_ALG, eq, budget=3)
    assert find_violation(PROJ_ALG, eq, budget=4) == (0, 1)


# ------------------------------------------------------------ column scan

CAP = 10 ** 4  # the block cap the scan is specified with


def marked(size, n, index):
    """An algebra and an n-variable equation whose only violation is
    assignment number `index` in lexicographic order (None: it holds).
    The sides run every kernel branch: f/n, p/2 (left projection), u/1
    (identity) and z/0."""
    sig = Signature([("f", n), ("p", 2), ("u", 1), ("z", 0)])
    table = [0] * size ** n
    if index is not None:
        table[index] = 1
    tables = [table, [x for x in range(size) for _ in range(size)], list(range(size)), [0]]
    names = [f"x{i}" for i in range(n)]
    eq = parse_equation(sig, names, f"p(f({','.join(names)}),x0)", f"p(u(z),x{n - 1})")
    return FiniteAlgebra(sig, size, tables), eq


def digits(size, n, index):
    return tuple(index // size ** (n - 1 - i) % size for i in range(n))


def bands_end(size):
    # the first assignment past the bands: the least size^k with
    # (size - 1) * size^k > CAP
    power = 1
    while (size - 1) * power <= CAP:
        power *= size
    return power


def cap_step(size):
    # the length of an aligned block: the largest power of size within CAP
    power = 1
    while power * size <= CAP:
        power *= size
    return power


def scan_modes(algebra):
    """The algebra in each scan mode, with the `_BYTE_BITS` to scan it
    under: bytes columns with lanes packed where a symbol's arguments fit
    a byte, bytes columns with none packed, and lists (the same tables,
    built as if past the byte carrier)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebras, "_BYTE_CARRIER", 0)
        lists = FiniteAlgebra(algebra.signature, algebra.carrier_size, algebra.tables)
    assert algebra._byte_tables is not None and lists._byte_tables is None
    bits = equations._BYTE_BITS
    return {"lanes": (algebra, bits), "bytes": (algebra, 0), "lists": (lists, bits)}


# one variable count per carrier, for spaces of 125 to 1024 assignments; at 2
# and 16 elements f/n packs its lanes into a byte, at 3 to 5 it does not
SMALL_SPACES = {2: 8, 3: 6, 4: 5, 5: 4, 16: 2}


def boundary_cases():
    for size, n in SMALL_SPACES.items():
        total = size ** n
        # the edges of the first block [0, size) and of each later one
        spots = {0, 1, size - 1, size, total - 1}
        for j in range(1, n):
            spots |= {size ** j - 1, size ** j}
        for index in sorted(spots):
            yield pytest.param(size, n, index, id=f"c{size}-n{n}-at{index}")
        yield pytest.param(size, n, None, id=f"c{size}-n{n}-holds")


@pytest.mark.parametrize("size, n, index", boundary_cases())
def test_column_scan_finds_the_least_violation_on_block_boundaries(size, n, index):
    algebra, eq = marked(size, n, index)
    want = None if index is None else digits(size, n, index)
    assert oracles.least_violation(algebra, eq) == want
    for mode, (built, byte_bits) in scan_modes(algebra).items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equations, "_BYTE_BITS", byte_bits)
            assert find_violation(built, eq) == want, mode


# variable counts whose spaces reach past the bands into aligned blocks
CAPPED_SPACES = {2: 15, 3: 9, 4: 7, 5: 6}


@pytest.mark.parametrize(
    "size, n, index",
    [
        pytest.param(size, n, bands_end(size) + k * cap_step(size), id=f"c{size}-block{k}")
        for size, n in CAPPED_SPACES.items()
        for k in (0, 1)
    ],
)
def test_column_scan_finds_a_violation_at_an_aligned_block_start(size, n, index):
    assert bands_end(size) % cap_step(size) == 0
    assert index + cap_step(size) <= size ** n
    algebra, eq = marked(size, n, index)
    assert find_violation(algebra, eq) == oracles.least_violation(algebra, eq)
    assert find_violation(algebra, eq) == digits(size, n, index)


@st.composite
def laws(draw):
    # a random small algebra and an equation over it in 0-4 variables
    algebra = draw(small_algebras())
    n = draw(st.integers(0, 4))
    pool = enumerate_terms(algebra.signature.extend_with_variables(n), 5)
    return algebra, Equation(n, draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))


# x and not y: a binary table that is not commutative.  A column pass that
# swapped the two arguments of a binary symbol would check each law's
# mirror, the law with those arguments swapped
DIFF = Signature([("f", 2)])
DIFF_ALG = FiniteAlgebra(DIFF, 2, [[0, 0, 1, 0]])
SEVEN = [f"x{i}" for i in range(7)]


@settings(max_examples=150, deadline=None)
@given(
    law=laws(),
    scalar=st.sampled_from([1, 2, 7, 64]),
    cap=st.sampled_from([1, 2, 7, CAP]),
)
# holds in the projection algebra; its mirror fails at (0, 1), in the first
# column block once the scalar loop takes one assignment at most
@example(law=(PROJ_ALG, parse_equation(PROJ, ["x", "y"], "proj(x,y)", "x")), scalar=1, cap=CAP)
# fails first at (0, 1), in the first column block; its mirror holds
@example(law=(PROJ_ALG, parse_equation(PROJ, ["x", "y"], "proj(x,y)", "y")), scalar=1, cap=CAP)
# fails first at assignment 64, the first of the block [2^6, 2^7); its
# mirror holds there and from there on
@example(law=(DIFF_ALG, parse_equation(DIFF, SEVEN, "f(x0,x1)", "f(x0,x0)")), scalar=64, cap=CAP)
def test_every_scan_schedule_agrees_with_tree_oracle(law, scalar, cap):
    """With small thresholds every schedule shape runs: column blocks from
    a space of two assignments on, aligned blocks as short as the carrier
    and carriers past the cap, over carriers 1-3, arities 0-3 and 0-4
    variables, in each scan mode: bytes with lanes (carriers 1-3 with
    arities up to 3 always pack them), bytes without, and lists.  The
    examples pin the operand order of the column pass."""
    algebra, eq = law
    want = oracles.least_violation(algebra, eq)
    for mode, (built, byte_bits) in scan_modes(algebra).items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equations, "_SCALAR_SPACE", scalar)
            patch.setattr(equations, "_BLOCK_CAP", cap)
            patch.setattr(equations, "_BYTE_BITS", byte_bits)
            got = find_violation(built, eq)
        assert got == want, mode


def compared(monkeypatch):
    """A list that receives, for each block the scan compares, its length
    and its two side values (a side over fixed digits alone is an int)."""
    blocks = []
    differ_at = equations._differ_at

    def spied(length, lhs, rhs):
        blocks.append((length, lhs, rhs))
        return differ_at(length, lhs, rhs)

    monkeypatch.setattr(equations, "_differ_at", spied)
    return blocks


def test_carrier_past_the_cap_is_scanned_in_blocks_within_the_cap(monkeypatch):
    size = CAP + 3
    sig = Signature([("s", 1)])
    algebra = FiniteAlgebra(sig, size, [list(range(size - 1)) + [0]])
    eq = parse_equation(sig, ["x"], "s(x)", "x")
    blocks = compared(monkeypatch)
    assert find_violation(algebra, eq) == oracles.least_violation(algebra, eq) == (size - 1,)
    # blocks of at most the cap, not one of the carrier's length: [CAP, 3],
    # each side a column of the block's length
    assert all(len(lhs) == len(rhs) == length for length, lhs, rhs in blocks)
    assert blocks and max(length for length, _, _ in blocks) <= equations._BLOCK_CAP


@pytest.mark.parametrize(
    "size, n, blocks",
    [
        # [0, c), [c, c^2), ... up to the aligned length, then aligned blocks
        pytest.param(2, 15, [2] + [2 ** k for k in range(1, 13)] + [2 ** 13] * 3, id="c2"),
        pytest.param(3, 9, [3] + [2 * 3 ** k for k in range(1, 8)] + [3 ** 8] * 2, id="c3"),
        pytest.param(5, 6, [5] + [4 * 5 ** k for k in range(1, 5)] + [5 ** 5] * 4, id="c5"),
        # past the cap: at most the cap within one run of the last digit
        pytest.param(CAP + 3, 1, [CAP, 3], id="past-the-cap"),
    ],
)
def test_column_blocks_run_from_assignment_zero(monkeypatch, size, n, blocks):
    sig = Signature([("u", 1)])
    algebra = FiniteAlgebra(sig, size, [list(range(size))])
    last = f"x{n - 1}"  # cycles in every block, so each side is a column
    eq = parse_equation(sig, [f"x{i}" for i in range(n)], f"u({last})", last)
    seen = compared(monkeypatch)
    assert find_violation(algebra, eq) is None
    assert sum(blocks) == size ** n
    assert [length for length, _, _ in seen] == blocks
    assert [len(lhs) for _, lhs, _ in seen] == [len(rhs) for _, _, rhs in seen] == blocks


def test_budget_is_checked_before_any_column_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a column was built")

    monkeypatch.setattr(equations, "_scan_columns", unreachable)
    algebra, eq = marked(2, 8, 200)  # 256 assignments, more than the scalar loop takes
    with pytest.raises(BudgetExceededError):
        find_violation(algebra, eq, budget=255)
    with pytest.raises(AssertionError, match="a column was built"):
        find_violation(algebra, eq, budget=256)


# ------------------------------------------------------------ column representation

def scanned(monkeypatch, algebra, eq):
    """find_violation's result and the types of the side columns its scan
    compared (a side over fixed digits alone is an int, which is no column)."""
    with monkeypatch.context() as patch:
        blocks = compared(patch)
        got = find_violation(algebra, eq)
    kinds = {type(side) for _, *sides in blocks for side in sides if type(side) is not int}
    return got, kinds


def near_miss(arity, size, index, extra=()):
    """An algebra where g is a random f/arity changed at entry `index`
    alone, u is a random unary symbol, and each extra symbol is random."""
    rng = random.Random(size * 10 + arity)
    entries = [("f", arity), ("g", arity), ("u", 1), *extra]
    tables = [[rng.randrange(size) for _ in range(size ** a)] for _, a in entries]
    tables[1] = list(tables[0])
    tables[1][index] = (tables[0][index] + 1) % size
    return FiniteAlgebra(Signature(entries), size, tables)


def lanes_packed(monkeypatch):
    """A list that receives the arity of each lanes table a scan builds."""
    arities = []
    packed_table = equations._packed_table

    def spied(table, arity, size, offset):
        arities.append(arity)
        return packed_table(table, arity, size, offset)

    monkeypatch.setattr(equations, "_packed_table", spied)
    return arities


# (arity, carrier size, variables, entry of f that g changes, column type,
# whether a step on several columns packs their lanes): each packing bound,
# arity * bits <= 8, and the byte carrier, 256 elements, from both sides;
# each space is larger than the scalar loop takes, and the entry is not
# symmetric in its arguments
PACKING = [
    pytest.param(1, 256, 1, 200, bytes, False, id="unary-256"),
    pytest.param(1, 257, 1, 200, list, False, id="unary-257"),
    pytest.param(2, 16, 2, 16 * 11 + 5, bytes, True, id="binary-16"),
    pytest.param(2, 17, 2, 17 * 11 + 5, bytes, False, id="binary-17"),
    pytest.param(2, 255, 2, 255 * 11 + 5, bytes, False, id="binary-255"),
    pytest.param(2, 256, 2, 256 * 11 + 5, bytes, False, id="binary-256"),
    pytest.param(2, 257, 2, 257 * 11 + 5, list, False, id="binary-257"),
    pytest.param(3, 4, 4, 16 * 3 + 4 * 1 + 2, bytes, True, id="ternary-4"),
    pytest.param(3, 5, 4, 25 * 3 + 5 * 1 + 2, bytes, False, id="ternary-5"),
]


@pytest.mark.parametrize("arity, size, n, index, kind, lanes", PACKING)
def test_columns_are_bytes_up_to_each_packing_bound(
    monkeypatch, arity, size, n, index, kind, lanes
):
    algebra = near_miss(arity, size, index)
    names = [f"x{i}" for i in range(n)]
    args = ",".join(names[:arity])
    rest = "".join("," + name for name in names[1:arity])
    laws = [
        # fails exactly on the changed entry
        (f"f({args})", f"g({args})"),
        # the same values, repacked as arguments of f and of u
        (f"f(g({args}){rest})", f"f(f({args}){rest})"),
        (f"u(f({args}))", f"u(g({args}))"),
    ]
    packed = lanes_packed(monkeypatch)
    found = []
    for lhs, rhs in laws:
        eq = parse_equation(algebra.signature, names, lhs, rhs)
        got, kinds = scanned(monkeypatch, algebra, eq)
        assert got == oracles.least_violation(algebra, eq)
        assert kinds == {kind}
        found.append(got)
    assert found[0] == digits(size, arity, index) + (0,) * (n - arity)
    assert set(packed) == ({arity} if lanes else set())


def test_one_symbol_past_its_packing_bound_keeps_the_scan_on_bytes(monkeypatch):
    # at 16 elements (4 bits) f/2 packs into a byte and t/3 does not: the
    # steps of f pack their lanes, and those of t read one entry per index
    algebra = near_miss(2, 16, 16 * 11 + 5, extra=[("t", 3)])
    sig, names = algebra.signature, ["x", "y", "z"]
    fits = parse_equation(sig, names, "f(u(x),f(y,z))", "f(u(x),g(y,z))")
    mixed = parse_equation(sig, names, "t(x,x,f(y,z))", "t(x,x,g(y,z))")
    packed = lanes_packed(monkeypatch)
    got, kinds = scanned(monkeypatch, algebra, fits)
    assert (got, kinds) == (oracles.least_violation(algebra, fits), {bytes})
    got, kinds = scanned(monkeypatch, algebra, mixed)
    assert (got, kinds) == (oracles.least_violation(algebra, mixed), {bytes})
    assert packed and set(packed) == {2}


@pytest.mark.parametrize("size", [16, 17, 255, 256])
def test_a_unary_polynomial_reads_a_bounded_slice_of_its_table(monkeypatch, size):
    # with a cap of the carrier size, x0 is fixed over each block, so
    # f(x0, -) is a unary polynomial at the int offset size * x0; the one
    # violation, in f's last row, has the scan read every offset, where f's
    # table from the first ones on is longer than 256 entries past 16
    index = size * size - 2
    algebra = near_miss(2, size, index)
    eq = parse_equation(algebra.signature, ["x0", "x1"], "f(x0,x1)", "g(x0,x1)")
    want = digits(size, 2, index)
    assert oracles.least_violation(algebra, eq) == want
    monkeypatch.setattr(equations, "_BLOCK_CAP", size)
    for mode, (built, byte_bits) in scan_modes(algebra).items():
        monkeypatch.setattr(equations, "_BYTE_BITS", byte_bits)
        assert find_violation(built, eq) == want, mode


def test_a_large_carrier_is_scanned_in_bounded_memory(tmp_path):
    # a constants-only carrier of 10^6 elements under x = x: its space goes
    # to the column scan whole, so no tuple is built per element (145 MB
    # peak with those), and blocks are at most _BLOCK_CAP, not one of 10^6
    # entries (16 MB; CPython 3.11)
    status, out, peak_kib = sat_of_a_large_carrier(tmp_path, ["x"], "x")
    assert (status, out) == (0, b"model\n")
    assert peak_kib < 40 * 1024


def test_a_ground_equation_builds_no_tuple_per_element(tmp_path):
    # e = e has no variables: its one assignment () is checked by the
    # scalar loop, which builds no singleton per element (99 MB peak with
    # them, over this carrier of 10^6 elements)
    status, out, peak_kib = sat_of_a_large_carrier(tmp_path, [], "e")
    assert (status, out) == (0, b"model\n")
    assert peak_kib < 40 * 1024


def sat_of_a_large_carrier(tmp_path, variables, side):
    """`ua sat` of side = side over a constants-only carrier of 10^6
    elements, in a child process: its exit status, stdout and peak RSS."""
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"symbols": [{"name": "e", "arity": 0}]}), encoding="utf-8")
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"carrier": 10 ** 6, "tables": {"e": [0]}}), encoding="utf-8")
    theory = tmp_path / "theory.json"
    theory.write_text(json.dumps({"name": "t", "equations": [
        {"label": "refl", "vars": variables, "lhs": side, "rhs": side}
    ]}), encoding="utf-8")
    # the child reports its own peak, in KiB on Linux
    code = (
        "import resource, sys\n"
        "from ualgebra.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    # a process's ru_maxrss starts from its parent's peak at exec, so a
    # fresh interpreter, not this one, starts the child that measures
    launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    src = Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", launch, sys.executable, "-c", code,
         "sat", "--sig", str(sig), "--alg", str(alg), "--theory", str(theory)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return proc.returncode, proc.stdout, int(proc.stderr)


# ------------------------------------------------------------ step kinds
# In a column block a digit fixed over the block is an int and a cycling one
# a column, so a step runs on ints alone, on one column (a unary polynomial
# of the algebra) or on several; aligned blocks keep the columns over the
# cycling digits alone.  With a cap of size^2, the aligned blocks over five
# variables fix x0, x1 and x2, and x3 and x4 cycle


def planted(size, a, b):
    """Z_size as m/2 (addition), i/1 (negation) and e/0, with f/2 random,
    g/2 equal to f but at entry (a, b), k/2 zero but 1 at (a, b), p/3 with
    p(x, y, z) = f(x, y + z) and u/1 a random permutation."""
    rng = random.Random(size)
    cells = range(size)
    f = [rng.randrange(size) for _ in range(size * size)]
    g = list(f)
    g[a * size + b] = (f[a * size + b] + 1) % size
    k = [int((x, y) == (a, b)) for x in cells for y in cells]
    p = [f[x * size + (y + z) % size] for x in cells for y in cells for z in cells]
    sig = Signature([
        ("m", 2), ("i", 1), ("e", 0), ("f", 2), ("g", 2), ("k", 2), ("p", 3), ("u", 1),
    ])
    return FiniteAlgebra(sig, size, [
        [(x + y) % size for x in cells for y in cells],
        [-x % size for x in cells],
        [0],
        f,
        g,
        k,
        p,
        rng.sample(cells, size),
    ])


# (lhs, rhs, the least violation for a plant at (a, b), or None: it holds)
STEP_LAWS = [
    pytest.param("m(x0,i(x0))", "e", None, id="fixed-constant"),
    pytest.param("m(x4,i(x4))", "e", None, id="cycling-constant"),
    # a unary polynomial m(x0, -) beside a kept column
    pytest.param("f(m(x0,x3),x4)", "f(m(x3,x0),x4)", None, id="mixed"),
    # an int broadcast beside two kept columns
    pytest.param("p(x0,x3,x4)", "f(x0,m(x4,x3))", None, id="ternary"),
    pytest.param("f(x0,x1)", "g(x0,x1)", lambda a, b: (a, b, 0, 0, 0), id="fixed-fails"),
    pytest.param(
        "m(x1,f(x0,x4))", "m(x1,g(x0,x4))", lambda a, b: (a, 0, 0, 0, b), id="unary-fails"
    ),
    pytest.param(
        "p(x0,x3,x4)", "g(x0,m(x3,x4))", lambda a, b: (a, 0, 0, 0, b), id="ternary-fails"
    ),
    pytest.param(
        "m(m(x2,i(x2)),k(x0,x3))", "e", lambda a, b: (a, 0, 0, b, 0), id="constant-side-fails"
    ),
    pytest.param(
        "m(f(m(x0,x3),x4),k(x0,x4))", "f(m(x3,x0),x4)", lambda a, b: (a, 0, 0, 0, b),
        id="mixed-fails",
    ),
    pytest.param(
        "m(u(m(x3,x4)),f(x0,x4))", "m(u(m(x4,x3)),g(x0,x4))", lambda a, b: (a, 0, 0, 0, b),
        id="kept-fails",
    ),
]


@pytest.mark.parametrize("lhs, rhs, least", STEP_LAWS)
@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize("cap", ["aligned", "one-digit", "past-the-cap"])
def test_each_step_kind_agrees_with_the_oracle_in_late_blocks(lhs, rhs, least, size, cap):
    """Laws whose sides mix subterms over the fixed digits alone, the
    cycling ones alone, both, and constants; those that fail are planted
    in a late block, all but one mid-block.  Each runs in every scan mode
    (p/3 packs no lanes at 5 elements anyway).  A cap of size^2 fixes x0,
    x1 and x2 over each aligned block, one of size fixes x3 too, and one
    of size - 1 puts the carrier past the cap."""
    a, b = size - 1, 1
    algebra = planted(size, a, b)
    eq = parse_equation(algebra.signature, [f"x{i}" for i in range(5)], lhs, rhs)
    want = oracles.least_violation(algebra, eq)
    assert want == (least and least(a, b))
    block = {"aligned": size ** 2, "one-digit": size, "past-the-cap": size - 1}[cap]
    for mode, (built, byte_bits) in scan_modes(algebra).items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equations, "_BLOCK_CAP", block)
            patch.setattr(equations, "_BYTE_BITS", byte_bits)
            got = find_violation(built, eq)
        assert got == want, mode


# The re-run rule: with a cap of the carrier size c, the aligned blocks over
# x0, x1, x2 fix x0 and x1, and each plant puts the least violation in the
# first block after a carry into x0 (block 3c, where x1 wraps to 0) or into
# x1 alone (block 5), on steps that read a slow fixed digit alone, a
# subterm repeated within a side and across the sides, and ground sides
A, B, C = 3, 5, 7
CARRY_LAWS = [
    pytest.param("m(g(x0,x0),x2)", "m(f(x0,x0),x2)", (A, A), (A, 0, 0), id="x0-alone"),
    pytest.param("m(g(x1,x1),x2)", "m(f(x1,x1),x2)", (B, B), (0, B, 0), id="x1-alone"),
    pytest.param(
        "m(m(x2,x2),g(x0,x2))", "m(m(x2,x2),f(x0,x2))", (A, C), (A, 0, C), id="x0-shared"
    ),
    pytest.param(
        "m(m(x2,x2),g(x1,x2))", "m(m(x2,x2),f(x1,x2))", (B, C), (0, B, C), id="x1-shared"
    ),
    pytest.param("k(x0,x1)", "e", (A, 0), (A, 0, 0), id="x0-ground"),
    pytest.param("m(k(x1,x2),m(e,i(e)))", "m(e,e)", (B, C), (0, B, C), id="x1-ground"),
]


@pytest.mark.parametrize("lhs, rhs, plant, least", CARRY_LAWS)
@pytest.mark.parametrize(
    "size, mode, kind",
    [(16, "lanes", bytes), (16, "bytes", bytes), (16, "lists", list), (17, "lanes", bytes),
     (17, "lists", list)],
    # at 17 elements no symbol packs its lanes
    ids=["bytes-16", "unpacked-16", "lists-16", "bytes-17", "lists-17"],
)
def test_a_step_re_runs_in_the_first_block_after_a_carry(
    monkeypatch, lhs, rhs, plant, least, size, mode, kind
):
    algebra, byte_bits = scan_modes(planted(size, *plant))[mode]
    eq = parse_equation(algebra.signature, ["x0", "x1", "x2"], lhs, rhs)
    assert oracles.least_violation(algebra, eq) == least
    monkeypatch.setattr(equations, "_BLOCK_CAP", size)
    monkeypatch.setattr(equations, "_BYTE_BITS", byte_bits)
    got, kinds = scanned(monkeypatch, algebra, eq)
    # k(x0,x1) = e reads no cycling digit, so both its sides are ints
    assert (got, kinds) == (least, {kind} if "x2" in lhs else set())


def test_aligned_blocks_keep_the_columns_over_the_cycling_digits_alone(monkeypatch):
    # a side over x3 and x4 alone is one kept column, the same object in
    # every aligned block; a side that reads a fixed digit as well is built
    # anew exactly when that digit changes (p packs its three arguments, so
    # that no translate hands back its own argument, as an identity map does)
    algebra = planted(3, 2, 1)
    names = [f"x{i}" for i in range(5)]
    monkeypatch.setattr(equations, "_BLOCK_CAP", 9)
    blocks = compared(monkeypatch)
    # aligned block k (1 to 26) starts at 9k: x0 = k // 9, x1 = k // 3 % 3
    # and x2 = k % 3, so x0 changes at k = 9 and 18, x1 at every third k
    # and x2 at every k
    for lhs, rhs, renewed in [
        ("f(x3,x4)", "f(x3,x4)", []),
        ("p(x0,x3,x4)", "f(x0,m(x4,x3))", [9, 18]),
        ("p(x1,x3,x4)", "f(x1,m(x4,x3))", list(range(3, 27, 3))),
        ("p(x2,x3,x4)", "f(x2,m(x4,x3))", list(range(2, 27))),
    ]:
        blocks.clear()
        assert find_violation(algebra, parse_equation(algebra.signature, names, lhs, rhs)) is None
        # two blocks, [0, 3) and [3, 9), then 26 aligned blocks of 9; the
        # spy holds every column, so no id is reused
        assert [length for length, _, _ in blocks] == [3, 6] + [9] * 26
        sides = [id(side) for _, side, _ in blocks[2:]]
        assert [k for k in range(2, 27) if sides[k - 1] != sides[k - 2]] == renewed
        assert len(set(sides)) == len(renewed) + 1


# ------------------------------------------------------------ transport of structure

GRP = Signature([("m", 2), ("i", 1), ("e", 0)])
RING = Signature([("e", 0), ("i", 1), ("m", 2), ("t", 3)])


def cyclic_group(size):
    cells = range(size)
    return FiniteAlgebra(GRP, size, [
        [(x + y) % size for x in cells for y in cells],
        [-x % size for x in cells],
        [0],
    ])


def cyclic_ring(size):
    # m is addition and t(x, y, z) = xy + z
    cells = range(size)
    return FiniteAlgebra(RING, size, [
        [0],
        [-x % size for x in cells],
        [(x + y) % size for x in cells for y in cells],
        [(x * y + z) % size for x in cells for y in cells for z in cells],
    ])


def sums(terms):
    # m(a, m(b, ...)) over the given subterms
    text = terms[-1]
    for term in reversed(terms[:-1]):
        text = f"m({term},{text})"
    return text


def transport_laws(algebra, n):
    """A law that holds and one whose least violation is (1, 0, ..., 0),
    in n variables, both over the whole carrier."""
    names = [f"x{i}" for i in range(n)]
    if algebra.signature == GRP:
        # commutative; and x0 + ... = ... - x0, broken where 2 x0 != 0
        holds = (sums(names), sums(names[:0:-1] + ["i(i(x0))"]))
        fails = (sums(names), sums(names[1:] + ["i(x0)"]))
    else:
        # x0 x1 + ... commutes; and x0 x1 + ... = x0 + ..., broken where x0 x1 != x0
        rest = sums(names[2:])
        holds = (f"t(x0,x1,{rest})", f"t(x1,x0,{sums(names[:1:-1])})")
        fails = (f"t(x0,x1,{rest})", f"m(x0,{rest})")
    return [parse_equation(algebra.signature, names, *law) for law in (holds, fails)]


@pytest.mark.parametrize(
    "algebra, n",
    [
        # 5^8 assignments: aligned blocks past the cap, byte columns
        pytest.param(cyclic_group(5), 8, id="Z5-group-8"),
        # m at its packing bound, from both sides
        pytest.param(cyclic_group(16), 4, id="Z16-group-4"),
        pytest.param(cyclic_group(17), 4, id="Z17-group-4"),
        # t at its packing bound, from both sides
        pytest.param(cyclic_ring(4), 5, id="Z4-ring-5"),
        pytest.param(cyclic_ring(5), 5, id="Z5-ring-5"),
        pytest.param(cyclic_ring(16), 3, id="Z16-ring-3"),
        pytest.param(cyclic_ring(17), 3, id="Z17-ring-3"),
        # the byte carrier, from both sides
        pytest.param(cyclic_group(255), 2, id="Z255-group-2"),
        pytest.param(cyclic_group(256), 2, id="Z256-group-2"),
        pytest.param(cyclic_group(257), 2, id="Z257-group-2"),
    ],
)
@pytest.mark.parametrize("fixed", [False, True], ids=["any", "fixes-0"])
def test_transport_of_structure_moves_each_least_violation(algebra, n, fixed):
    """A and sA, the algebra carried along a carrier permutation s, give
    the same verdict; each violation carried along s (or back) is one in
    the other algebra, and no less than the other's least.  When s fixes
    0, the violation in sA is as deep in the scan as the one in A."""
    size = algebra.carrier_size
    s = random.Random(size * n).sample(range(size), size)
    if fixed:
        s[s.index(0)] = s[0]
        s[0] = 0
    inverse = [s.index(y) for y in range(size)]
    moved = FiniteAlgebra(algebra.signature, size, oracles.transported_tables(algebra, s))
    holds, fails = transport_laws(algebra, n)
    assert find_violation(algebra, holds) is find_violation(moved, holds) is None
    v = find_violation(algebra, fails)
    w = find_violation(moved, fails)
    assert v == (1,) + (0,) * (n - 1)
    there = tuple(s[x] for x in v)
    back = tuple(inverse[y] for y in w)
    for alg, asg in ((moved, there), (algebra, back)):
        assert evaluate_with(alg, n, fails.lhs, asg) != evaluate_with(alg, n, fails.rhs, asg)
    assert v <= back and w <= there
    if fixed:  # x0 = 0 satisfies the law in A, so y0 = s(0) = 0 does in sA
        assert w[0] != 0


# ------------------------------------------------------------ compiled once

def random_group_like(size, seed):
    """A random algebra over GRP, from its seed."""
    rng = random.Random(seed)
    return FiniteAlgebra(GRP, size, [[rng.randrange(size) for _ in range(size ** a)] for a in (2, 1, 0)])


# four-variable laws over GRP, each scanned in columns over 3 to 5 elements:
# one that holds in every cyclic group, one that breaks at (1, 0, 0, 0) in
# Z3 alone, one that breaks at (0, 0, 0, 1) in every group but Z2, and one
# whose sides are one term
CACHED_LAWS = [
    ("m(m(x0,x1),m(x2,x3))", "m(x0,m(x1,m(x2,x3)))"),
    (sums(["x0"] * 5 + ["x3"]), "x3"),
    ("m(x1,m(x2,x3))", "m(x1,m(x2,i(x3)))"),
    ("m(x3,m(x2,i(x0)))", "m(x3,m(x2,i(x0)))"),
]


def agree_in_turn(eq, algebras):
    # the same equation object over each algebra in turn, twice over
    wants = [oracles.least_violation(algebra, eq) for algebra in algebras]
    for _ in range(2):
        assert [find_violation(algebra, eq) for algebra in algebras] == wants


@pytest.mark.parametrize("lhs, rhs", CACHED_LAWS)
def test_one_equation_agrees_with_the_oracle_over_two_carrier_sizes(lhs, rhs):
    eq = parse_equation(GRP, ["x0", "x1", "x2", "x3"], lhs, rhs)
    agree_in_turn(eq, [cyclic_group(3), cyclic_group(5)])


@pytest.mark.parametrize("lhs, rhs", CACHED_LAWS)
def test_one_equation_agrees_with_the_oracle_over_two_algebras_of_one_size(lhs, rhs):
    eq = parse_equation(GRP, ["x0", "x1", "x2", "x3"], lhs, rhs)
    agree_in_turn(eq, [cyclic_group(5), random_group_like(5, 5)])


@pytest.mark.parametrize("lhs, rhs", CACHED_LAWS)
def test_one_equation_follows_the_scan_bounds_as_they_change(lhs, rhs):
    # bytes with lanes and without, lists, and blocks of the cap, of 7 and
    # of 2 (past the cap), each changed alone as well, over the same
    # algebras: a plan made under other bounds would still agree with the
    # oracle, so the columns and blocks are checked against the bounds of
    # each call, and the tables the lanes read are kept apart from those
    # of the steps without them
    eq = parse_equation(GRP, ["x0", "x1", "x2", "x3"], lhs, rhs)
    modes = [scan_modes(cyclic_group(5)), scan_modes(random_group_like(5, 5))]
    wants = [oracles.least_violation(each["lanes"][0], eq) for each in modes]
    for mode, cap in [("lanes", CAP), ("lists", CAP), ("lanes", 7), ("bytes", 7), ("lists", 7),
                      ("bytes", CAP), ("lanes", CAP), ("lanes", 2), ("lanes", CAP)]:
        for each, want in zip(modes, wants):
            algebra, byte_bits = each[mode]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(equations, "_BYTE_BITS", byte_bits)
                patch.setattr(equations, "_BLOCK_CAP", cap)
                blocks = compared(patch)
                assert find_violation(algebra, eq) == want, mode
            # x3 cycles in every block, so each block has a column
            kinds = {type(side) for _, *sides in blocks for side in sides if type(side) is not int}
            assert kinds == {list if mode == "lists" else bytes}
            assert max(length for length, _, _ in blocks) <= cap


def test_what_scans_keep_goes_with_the_algebra():
    # one theory over 200 fresh algebras, each dropped after its check:
    # its equations keep their plans, and what the scans keep of an algebra
    # (tables and columns; a full scan of 5^5 assignments first) goes with
    # it, so memory does not grow with the count of algebras
    names = [f"x{i}" for i in range(5)]
    same = sums(names)
    theory = Theory("t", (
        ("same", parse_equation(GRP, names, same, same)),
        ("assoc", parse_equation(GRP, names[:3], "m(x0,m(x1,x2))", "m(m(x0,x1),x2)")),
    ))

    def traced():
        gc.collect()  # a full collection also empties the free lists
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        check_model(random_group_like(5, 0), theory)
        before = traced()
        kept = random_group_like(5, 0)
        check_model(kept, theory)
        one = traced() - before
        del kept
        for seed in range(1, 201):
            check_model(random_group_like(5, seed), theory)
        grown = traced() - before
    finally:
        tracemalloc.stop()
    # one algebra with what its scans keep is tens of KB
    assert one > 20_000 and grown < one // 8, (one, grown)


# ------------------------------------------------------------ theories

def test_xor_is_a_model():
    assert is_model(B2_XOR, XOR_THEORY)
    assert check_model(B2_XOR, XOR_THEORY) is None


def test_and_fails_inverse_axiom():
    inverse_only = Theory("inverse-only", (("inv", XOR_THEORY.equations[3][1]),))
    failure = check_model(B2_AND, inverse_only)
    assert failure is not None
    assert failure.label == "inv"
    assert failure.assignment == (1,)


def test_first_failing_label_in_sequence_order():
    failure = check_model(B2_AND, XOR_THEORY)
    assert failure is not None
    assert failure.label == "unit"  # comm and assoc hold for AND
    assert failure.assignment == (1,)


def test_empty_theory_is_vacuously_modelled():
    assert is_model(B2_AND, Theory("empty", ()))


def test_model_of_concatenation_is_conjunction():
    good = Theory("good", XOR_THEORY.equations[:2])
    bad = Theory("bad", XOR_THEORY.equations[2:])
    both = Theory("both", XOR_THEORY.equations)
    for algebra in (B2_XOR, B2_AND):
        assert is_model(algebra, both) == (
            is_model(algebra, good) and is_model(algebra, bad)
        )


def test_theory_keeps_its_equations_however_they_are_given():
    """A generator is not used up by the label check, and a list leaves
    the theory hashable: each behaves as the tuple it holds."""
    idem = parse_equation(XOR, ["x"], "xor(x,x)", "x")
    rows = (("comm", XOR_THEORY.equations[0][1]), ("idem", idem))
    from_tuple = Theory("t", rows)
    from_list = Theory("t", list(rows))
    from_generator = Theory("t", (row for row in rows))
    failure = check_model(B2_XOR, from_tuple)
    assert (failure.label, failure.assignment) == ("idem", (1,))
    for theory in (from_list, from_generator):
        assert type(theory.equations) is tuple
        assert theory == from_tuple
        assert hash(theory) == hash(from_tuple)
        assert check_model(B2_XOR, theory) == failure
        assert theory.to_json() == from_tuple.to_json()


def test_duplicate_labels_rejected():
    eq = XOR_THEORY.equations[0][1]
    with pytest.raises(FormatError):
        Theory("dup", (("a", eq), ("a", eq)))


# ------------------------------------------------------------ file format

def test_theory_json_round_trip():
    data = XOR_THEORY.to_json()
    again = Theory.from_json(XOR, data)
    assert again.name == XOR_THEORY.name
    assert [label for label, _ in again.equations] == ["comm", "assoc", "unit", "inv"]
    # variables keep the names the file gave them
    assert data["equations"][0] == {
        "label": "comm", "vars": ["x", "y"], "lhs": "xor(x,y)", "rhs": "xor(y,x)"
    }
    assert again.to_json() == data


def test_parse_equation_variable_rules():
    with pytest.raises(FormatError) as info:
        parse_equation(XOR, ["x", "x"], "x", "x")
    assert str(info.value) == "duplicate symbol name: 'x'"
    with pytest.raises(FormatError, match="collides"):
        parse_equation(XOR, ["e"], "e", "e")


def test_theory_rows_with_one_variable_list_share_one_signature():
    rows = [["x", "y"], ["x"], ["x", "y"], ["y", "x"], ["x"], []]
    data = {
        "name": "t",
        "equations": [
            {"label": f"e{i}", "vars": names, "lhs": "e", "rhs": "e"}
            for i, names in enumerate(rows)
        ],
    }
    theory = Theory.from_json(XOR, data)
    equations = [eq for _, eq in theory.equations]
    for eq in equations:
        assert eq.rhs.signature is eq.lhs.signature
    for i, eq in enumerate(equations):
        for j, other in enumerate(equations):
            shared = eq.lhs.signature is other.lhs.signature
            assert shared == (rows[i] == rows[j]), (rows[i], rows[j])
    assert theory.to_json() == data


def test_theory_memory_does_not_grow_with_the_signature_per_equation():
    # a theory holds one extended signature per variable list, so eight
    # equations with one list retain about what one does, not eight
    # copies of a 2^14-symbol signature
    base = Signature([("f", 2)] + [(f"g{i}", i % 3) for i in range(1, 2 ** 14)])

    def retained(count):
        rows = [
            {"label": f"e{i}", "vars": ["x", "y"], "lhs": "f(x,y)", "rhs": "f(y,x)"}
            for i in range(count)
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            theory = Theory.from_json(base, {"name": "t", "equations": rows})
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(theory.equations) == count
        return size

    one, eight = retained(1), retained(8)
    assert eight < 2 * one, (one, eight)


def test_vars_order_fixes_indices():
    eq = parse_equation(PROJ, ["u", "v"], "proj(u,v)", "proj(v,u)")
    base = len(PROJ)
    assert eq.lhs.ops == (0, base, base + 1)
    assert eq.rhs.ops == (0, base + 1, base)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"name": "t"},
        {"name": "t", "equations": [{"label": "a", "vars": [], "lhs": "e"}]},
        {"name": "t", "equations": [{"label": "a", "vars": "x", "lhs": "e", "rhs": "e"}]},
        {"name": "t", "equations": [{"label": "a", "vars": [], "lhs": "q", "rhs": "e"}]},
    ],
)
def test_theory_from_json_rejects_malformed(data):
    with pytest.raises(UAlgebraError):
        Theory.from_json(XOR, data)


# ------------------------------------------------------------ rejections

XOR_X = XOR.extend_with_variables(1)  # xor/2, e/0, x0/0
X = Term(XOR_X, (2,))


@pytest.mark.parametrize(
    "context_size, lhs, message",
    [
        (0, Term(XOR, (1,)), "equation sides are over different signatures"),
        (-1, X, "context size -1 does not fit the signature"),
        (4, X, "context size 4 does not fit the signature"),
        (3, X, "variable symbols must have arity 0"),
        (1.0, X, "context size 1.0 does not fit the signature"),
        (True, X, "context size True does not fit the signature"),
        ("1", X, "context size '1' does not fit the signature"),
    ],
    ids=[
        "sides", "negative-context", "context-too-large", "variable-arity",
        "float-context", "bool-context", "str-context",
    ],
)
def test_equation_rejects_a_bad_variable_split(context_size, lhs, message):
    with pytest.raises(SignatureMismatchError) as info:
        Equation(context_size, lhs, X)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "context_size, message",
    [
        (-1, "context size -1 does not fit the signature"),
        (4, "context size 4 does not fit the signature"),
        (3, "variable symbols must have arity 0"),
        (True, "context size True does not fit the signature"),
    ],
    ids=["negative-context", "context-too-large", "variable-arity", "bool-context"],
)
def test_evaluate_with_rejects_a_bad_variable_split(context_size, message):
    with pytest.raises(SignatureMismatchError) as info:
        evaluate_with(B2_XOR, context_size, X, [0] * max(context_size, 0))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "check",
    [
        lambda eq: find_violation(N4, eq),
        lambda eq: evaluate_with(N4, 1, eq.lhs, (0,)),
    ],
    ids=["find_violation", "evaluate_with"],
)
def test_algebra_over_another_base_is_rejected(check):
    eq = parse_equation(XOR, ["x"], "xor(x,e)", "x")
    with pytest.raises(SignatureMismatchError) as info:
        check(eq)
    assert str(info.value) == "algebra signature is not the base of the term's signature"


def test_empty_variable_name_is_a_format_error():
    with pytest.raises(FormatError) as info:
        parse_equation(XOR, [""], "e", "e")
    assert str(info.value) == "empty symbol name at index 2"


def test_theory_name_must_be_a_string():
    with pytest.raises(FormatError) as info:
        Theory.from_json(XOR, {"name": 5, "equations": []})
    assert str(info.value) == "theory name must be a string and equations a list"
