"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

from ualgebra.algebras import FiniteAlgebra, check_homomorphism
from ualgebra.cli import main
from ualgebra.equations import Theory, check_model, find_violation, parse_equation
from ualgebra.oplist import Ok, is_term, split_terms, status_of
from ualgebra.signature import Signature
from ualgebra.syntax import parse_term
from ualgebra.terms import Term, build_term, depth, destructure, enumerate_terms, fold

import oracles
import smoke
from corpus import CORPUS, N2, N4, NAT, algebra_for


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {label}")
        raise
    print(f"criterion {number}: PASS  {label}")


def count_step(symbol, results):
    return 1 + sum(results)


def depth_step(symbol, results):
    return 1 + max(results, default=0)


def test_criterion_1_canonical_depth_example():
    with criterion(1, "parse s(s(s(s(z)))), validate, depth = 5, < 1 ms"):
        best = min(
            _timed_canonical_example() for _ in range(20)
        )
        assert best < 0.001, f"best run took {best * 1000:.3f} ms"


def _timed_canonical_example():
    start = time.perf_counter()
    term = parse_term(NAT, "s(s(s(s(z))))")
    assert status_of(NAT, term.ops) == Ok(1)
    assert depth(term) == 5
    return time.perf_counter() - start


def test_criterion_2_stack_machine_laws():
    with criterion(2, "machine laws, >= 10^4 randomized cases, < 5 s"):
        rng = random.Random(96321)
        start = time.perf_counter()
        cases = 0
        for sig in CORPUS:
            assert status_of(sig, ()) == Ok(0)  # empty law
            size = len(sig)
            for _ in range(2000):  # composition law on ok statuses
                left = tuple(rng.randrange(size) for _ in range(rng.randrange(17)))
                right = tuple(rng.randrange(size) for _ in range(rng.randrange(17)))
                sl, sr = status_of(sig, left), status_of(sig, right)
                if isinstance(sl, Ok) and isinstance(sr, Ok):
                    assert status_of(sig, left + right) == Ok(sl.terms + sr.terms)
                cases += 1
            for _ in range(1500):  # split/concat round trip
                pieces = [
                    _random_term_ops(sig, rng, 5) for _ in range(rng.randrange(5))
                ]
                ops = tuple(itertools.chain.from_iterable(pieces))
                assert status_of(sig, ops) == Ok(len(pieces))
                parts = split_terms(sig, ops, len(pieces))
                assert tuple(itertools.chain.from_iterable(parts)) == ops
                assert all(is_term(sig, part) for part in parts)
                cases += 1
        elapsed = time.perf_counter() - start
        assert cases >= 10 ** 4, cases
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def _random_term_ops(sig, rng, depth_left):
    constants = [s.index for s in sig.symbols if s.arity == 0]
    if depth_left == 0:
        return (rng.choice(constants),)
    sym = rng.choice(sig.symbols)
    ops = [sym.index]
    for _ in range(sym.arity):
        ops.extend(_random_term_ops(sig, rng, depth_left - 1))
    return tuple(ops)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "exhaustive agreement with naive oracles at length <= 8"):
        for sig in CORPUS:
            for ops in oracles.all_oplists(sig, 8):
                machine = status_of(sig, ops)
                count = oracles.term_count(sig, ops)
                assert is_term(sig, ops) == (count == 1)
                assert machine == oracles.status_by_stack(sig, ops)
                if isinstance(machine, Ok):
                    assert count == machine.terms
                else:
                    assert count is None
            algebra = algebra_for(sig)
            for term in enumerate_terms(sig, 8):
                tree = oracles.tree_of(sig, term.ops)
                assert fold(count_step, term) == oracles.tree_fold(
                    sig, count_step, tree
                )
                assert depth(term) == oracles.tree_depth(sig, tree)
                assert algebra.evaluate(term) == oracles.tree_eval(algebra, tree)


def test_criterion_4_fold_step_law():
    with criterion(4, "fold-step law, exhaustive children from length <= 6"):
        for sig in CORPUS:
            pool = enumerate_terms(sig, 6)
            for symbol in sig.symbols:
                for children in itertools.product(pool, repeat=symbol.arity):
                    built = build_term(symbol, list(children))
                    for step in (count_step, depth_step):
                        assert fold(step, built) == step(
                            symbol, [fold(step, c) for c in children]
                        )


def test_criterion_5_initiality_at_desk_scale():
    with criterion(5, "eval is the unique homomorphic assignment; hom checks"):
        pool = enumerate_terms(NAT, 8)
        for algebra in (N4, N2):
            seen = set()
            forced = {}
            for term in pool:  # shortest first: children already pinned
                symbol, children = destructure(term)
                assert all(c in forced for c in children)
                forced[term] = algebra.apply(
                    symbol, [forced[c] for c in children]
                )
                seen.add(term)
            # the propagated assignment exists, is total, and equals eval
            assert len(forced) == len(pool)
            for term in pool:
                assert forced[term] == algebra.evaluate(term)
            # any other assignment breaks the homomorphism law on the set
            for term in pool:
                symbol, children = destructure(term)
                expected = algebra.apply(symbol, [forced[c] for c in children])
                for other in range(algebra.carrier_size):
                    if other != forced[term]:
                        assert other != expected
        assert check_homomorphism(N4, N2, [0, 1, 0, 1]) is None
        violation = check_homomorphism(N4, N2, [0, 0, 0, 0])
        assert violation is not None
        assert violation.symbol.name == "s" and violation.args == (0,)


def test_criterion_6_stack_safety_and_speed():
    with criterion(6, "10^6-symbol chain: validate + depth + eval < 1 s"):
        ops = (1,) * 10 ** 6 + (0,)
        _timed_chain((1,) * 1000 + (0,))  # warm up
        elapsed, d, value = _timed_chain(ops)
        assert d == 1_000_001
        assert value == 0  # 10^6 mod 4
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def _timed_chain(ops):
    start = time.perf_counter()
    term = Term(NAT, ops)  # validation pass
    d = depth(term)
    value = N4.evaluate(term)
    return time.perf_counter() - start, d, value


def test_criterion_7_equational_layer():
    with criterion(7, "xor models its axioms; projection fails comm at (0,1)"):
        xor_sig = Signature([("xor", 2), ("e", 0)])
        b2 = FiniteAlgebra(xor_sig, 2, [[0, 1, 1, 0], [0]])
        theory = Theory(
            "xor-group",
            (
                ("comm", parse_equation(xor_sig, ["x", "y"], "xor(x,y)", "xor(y,x)")),
                (
                    "assoc",
                    parse_equation(
                        xor_sig,
                        ["x", "y", "w"],
                        "xor(xor(x,y),w)",
                        "xor(x,xor(y,w))",
                    ),
                ),
                ("unit", parse_equation(xor_sig, ["x"], "xor(x,e)", "x")),
                ("inv", parse_equation(xor_sig, ["x"], "xor(x,x)", "e")),
            ),
        )
        for _, equation in theory.equations:
            assert b2.carrier_size ** equation.context_size <= 16
        assert check_model(b2, theory) is None

        proj_sig = Signature([("proj", 2)])
        projection = FiniteAlgebra(proj_sig, 2, [[0, 0, 1, 1]])
        comm = parse_equation(proj_sig, ["x", "y"], "proj(x,y)", "proj(y,x)")
        assert find_violation(projection, comm) == (0, 1)


def test_criterion_8_cli_end_to_end(capsys, monkeypatch):
    with criterion(8, "CLI golden runs, all subcommands, both exit tiers"):
        monkeypatch.chdir(smoke.ROOT)
        for row in smoke.ROWS:
            runs = [(main(list(row["argv"])), *capsys.readouterr()) for _ in range(2)]
            assert runs[0] == runs[1], row["id"]
            problem = smoke.difference(row, *runs[0])
            assert problem is None, problem
