import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ualgebra import equations
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


def head_end(size):
    # the scalar head: the least size^w with (size - 1) * size^w >= 64
    power = 1
    while (size - 1) * power < 64:
        power *= size
    return power


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


# one variable count per carrier, for spaces of 125 to 1024 assignments
SMALL_SPACES = {2: 8, 3: 6, 4: 5, 5: 4}


def boundary_cases():
    for size, n in SMALL_SPACES.items():
        total = size ** n
        spots = {total - 1, head_end(size) - 1, head_end(size)}
        for j in range(1, n):
            spots |= {size ** j - 1, size ** j}
        for index in sorted(spots):
            yield pytest.param(size, n, index, id=f"c{size}-n{n}-at{index}")
        yield pytest.param(size, n, None, id=f"c{size}-n{n}-holds")


@pytest.mark.parametrize("size, n, index", boundary_cases())
def test_column_scan_finds_the_least_violation_on_block_boundaries(size, n, index):
    algebra, eq = marked(size, n, index)
    want = None if index is None else digits(size, n, index)
    assert find_violation(algebra, eq) == oracles.least_violation(algebra, eq) == want


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
# mirror, the law with those arguments swapped, from the head on
DIFF = Signature([("f", 2)])
DIFF_ALG = FiniteAlgebra(DIFF, 2, [[0, 0, 1, 0]])
SEVEN = [f"x{i}" for i in range(7)]


@settings(max_examples=150, deadline=None)
@given(
    law=laws(),
    head=st.sampled_from([1, 2, 7, 64]),
    cap=st.sampled_from([1, 2, 7, CAP]),
)
# holds in the projection algebra; its mirror fails at (0, 1), past a head of one
@example(law=(PROJ_ALG, parse_equation(PROJ, ["x", "y"], "proj(x,y)", "x")), head=1, cap=CAP)
# fails first at (0, 1), past a head of one; its mirror holds
@example(law=(PROJ_ALG, parse_equation(PROJ, ["x", "y"], "proj(x,y)", "y")), head=1, cap=CAP)
# fails first at assignment 64, the first past the default head; its mirror
# holds there and from there on
@example(law=(DIFF_ALG, parse_equation(DIFF, SEVEN, "f(x0,x1)", "f(x0,x0)")), head=64, cap=CAP)
def test_every_scan_schedule_agrees_with_tree_oracle(law, head, cap):
    """With small thresholds every schedule shape runs: a head of one
    assignment, bands of one entry, aligned blocks as short as the
    carrier, over carriers 1-3, arities 0-3 and 0-4 variables.  The
    examples pin the operand order of the column pass."""
    algebra, eq = law
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equations, "_SCALAR_HEAD", head)
        patch.setattr(equations, "_BLOCK_CAP", cap)
        got = find_violation(algebra, eq)
    assert got == oracles.least_violation(algebra, eq)


def test_carrier_past_the_cap_is_scanned_in_blocks_of_its_size(monkeypatch):
    size = CAP + 3
    sig = Signature([("s", 1)])
    algebra = FiniteAlgebra(sig, size, [list(range(size - 1)) + [0]])
    eq = parse_equation(sig, ["x"], "s(x)", "x")
    passes = []
    fold = equations.fold

    def counted(step, term):
        column = fold(step, term)
        passes.append(len(column))
        return column

    monkeypatch.setattr(equations, "fold", counted)
    assert find_violation(algebra, eq) == oracles.least_violation(algebra, eq) == (size - 1,)
    assert passes == [size - 1] * 2  # one band after a scalar head of one, once per side


def test_budget_is_checked_before_any_column_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a column was built")

    monkeypatch.setattr(equations, "_scan_columns", unreachable)
    algebra, eq = marked(2, 8, 200)  # 256 assignments, past the scalar head
    with pytest.raises(BudgetExceededError):
        find_violation(algebra, eq, budget=255)
    with pytest.raises(AssertionError, match="a column was built"):
        find_violation(algebra, eq, budget=256)


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
