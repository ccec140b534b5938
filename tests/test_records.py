"""The package's seven immutable records: `Ok`, `Error`, `Equation`,
`Theory`, `ModelFailure`, `HomViolation` and `FiniteAlgebra`.  Each
compares by class and fields, hashes alike when equal, refuses assignment
and deletion, shows a `Name(field=value, ...)` repr (an algebra a short
one), matches positionally, and survives `pickle` and `copy.copy`."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import smoke

import ualgebra
from ualgebra.algebras import FiniteAlgebra, HomViolation, check_homomorphism
from ualgebra.equations import Equation, ModelFailure, Theory, find_violation, parse_equation
from ualgebra.errors import FormatError, SignatureMismatchError
from ualgebra.oplist import UNDERFLOW, Error, Ok, status_of
from ualgebra.signature import Signature
from ualgebra.terms import Term

XOR = Signature([("xor", 2), ("e", 0)])
B2_XOR = FiniteAlgebra(XOR, 2, [[0, 1, 1, 0], [0]])


def comm():
    return parse_equation(XOR, ["x", "y"], "xor(x,y)", "xor(y,x)")


def violation():
    return check_homomorphism(B2_XOR, B2_XOR, [1, 1])


# (name, build, fields, repr): build() gives a fresh record equal to the last
RECORDS = [
    ("Ok", lambda: Ok(1), {"terms": 1}, "Ok(terms=1)"),
    (
        "Error",
        lambda: Error(UNDERFLOW, 3),
        {"kind": "underflow", "position": 3},
        "Error(kind='underflow', position=3)",
    ),
    (
        "Equation",
        comm,
        {"context_size": 2, "lhs": comm().lhs, "rhs": comm().rhs},
        "Equation(context_size=2, lhs=Term('xor(x,y)'), rhs=Term('xor(y,x)'))",
    ),
    (
        "Theory",
        lambda: Theory("t", (("comm", comm()),)),
        {"name": "t", "equations": (("comm", comm()),)},
        "Theory(name='t', equations=(('comm', Equation(context_size=2, "
        "lhs=Term('xor(x,y)'), rhs=Term('xor(y,x)'))),))",
    ),
    (
        "ModelFailure",
        lambda: ModelFailure("comm", (0, 1)),
        {"label": "comm", "assignment": (0, 1)},
        "ModelFailure(label='comm', assignment=(0, 1))",
    ),
    (
        "HomViolation",
        violation,
        {"symbol": XOR.symbols[0], "args": (0, 0), "lhs": 1, "rhs": 0},
        "HomViolation(symbol=OpSymbol('xor', arity=2), args=(0, 0), lhs=1, rhs=0)",
    ),
    (
        "FiniteAlgebra",
        lambda: FiniteAlgebra(XOR, 2, [[0, 1, 1, 0], [0]]),
        {"signature": XOR, "carrier_size": 2, "tables": ((0, 1, 1, 0), (0,))},
        "FiniteAlgebra(carrier=2, over Signature([('xor', 2), ('e', 0)]))",
    ),
]
IDS = [name for name, *_ in RECORDS]


@pytest.mark.parametrize("name, build, fields, text", RECORDS, ids=IDS)
def test_equality_hash_and_repr(name, build, fields, text):
    record = build()
    assert record == build()
    assert not record != build()
    assert hash(record) == hash(build())
    assert len({record, build()}) == 1
    assert repr(record) == text
    assert type(record).__name__ == name


@pytest.mark.parametrize("name, build, fields, text", RECORDS, ids=IDS)
def test_keyword_construction_and_match_args(name, build, fields, text):
    record = build()
    assert type(record)(**fields) == record
    assert type(record)(*fields.values()) == record
    assert type(record).__match_args__ == tuple(fields)
    assert tuple(getattr(record, field) for field in fields) == tuple(fields.values())


@pytest.mark.parametrize("name, build, fields, text", RECORDS, ids=IDS)
def test_unequal_to_a_tuple_of_its_fields(name, build, fields, text):
    record = build()
    values = tuple(fields.values())
    assert record != values
    assert values != record
    assert record != list(values)


def test_records_of_two_classes_with_equal_fields_differ():
    assert Error(UNDERFLOW, 3) != ModelFailure(UNDERFLOW, 3)
    assert ModelFailure(UNDERFLOW, 3) != Error(UNDERFLOW, 3)
    assert Ok(1) != Ok(2)
    assert Ok(1) != 1
    assert Error(UNDERFLOW, 3) != Error(UNDERFLOW, 4)


@pytest.mark.parametrize("name, build, fields, text", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(name, build, fields, text):
    record = build()
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name, build, fields, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(name, build, fields, text):
    record = build()
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record)
    assert repr(restored) == text
    if name == "HomViolation":
        # an OpSymbol equals only a symbol of its own signature object,
        # and unpickling makes a new, equal signature
        assert restored.symbol.signature == XOR
        assert (restored.args, restored.lhs, restored.rhs) == ((0, 0), 1, 0)
    else:
        assert restored == record
        assert hash(restored) == hash(record)
    duplicate = copy.copy(record)
    assert type(duplicate) is type(record)
    assert duplicate == record
    assert repr(duplicate) == text


def positional(record):
    match record:
        case Ok(1):
            return "term"
        case Ok(k):
            return f"{k} terms"
        case Error(kind, position):
            return f"{kind} at {position}"
        case Equation(n, lhs, rhs):
            return n, str(lhs), str(rhs)
        case Theory(name, equations):
            return name, len(equations)
        case ModelFailure(label, assignment):
            return label, assignment
        case HomViolation(symbol, (x, y), lhs, rhs):
            return symbol.name, x, y, lhs, rhs
        case FiniteAlgebra(sig, n, tables):
            return len(sig), n, tables
    return None


def test_positional_match():
    assert positional(status_of(XOR, (0, 1, 1))) == "term"
    assert positional(status_of(XOR, (1, 1))) == "2 terms"
    assert positional(status_of(XOR, (0, 1))) == "underflow at 0"
    assert positional(comm()) == (2, "xor(x,y)", "xor(y,x)")
    assert positional(Theory("t", (("comm", comm()),))) == ("t", 1)
    assert positional(ModelFailure("comm", (0, 1))) == ("comm", (0, 1))
    assert positional(violation()) == ("xor", 0, 0, 1, 0)
    assert positional(B2_XOR) == (2, 2, ((0, 1, 1, 0), (0,)))
    assert positional((1,)) is None


def test_constructor_errors_unchanged():
    eq = comm()
    x = Term(eq.lhs.signature, (2,))
    with pytest.raises(SignatureMismatchError) as info:
        Equation(1, x, Term(XOR, (1,)))
    assert str(info.value) == "equation sides are over different signatures"
    with pytest.raises(SignatureMismatchError) as info:
        Equation(True, x, x)
    assert str(info.value) == "context size True does not fit the signature"
    with pytest.raises(SignatureMismatchError) as info:
        Equation(4, x, x)
    assert str(info.value) == "variable symbols must have arity 0"
    with pytest.raises(FormatError) as info:
        Theory("dup", (("a", eq), ("a", eq)))
    assert str(info.value) == "duplicate equation labels in theory 'dup'"
    with pytest.raises(FormatError) as info:
        Theory("t", (("a", eq), ("a", eq), ("b", eq)))
    assert str(info.value) == "duplicate equation labels in theory 't'"


def test_an_equation_after_a_scan_is_like_a_fresh_one():
    # a scan of more than 64 assignments keeps its compiled plan in the
    # equation, in a slot that is no field: empty in a fresh equation and
    # in every copy, filled after use
    names = ["x", "y", "w", "u", "v", "s", "t"]
    law = "xor(x,xor(y,xor(w,xor(u,xor(v,xor(s,t))))))"

    scanned, fresh = (parse_equation(XOR, names, law, law) for _ in range(2))
    assert scanned._plans == fresh._plans == {}
    assert find_violation(B2_XOR, scanned) is None
    assert len(scanned._plans) == 1 and fresh._plans == {}
    assert scanned == fresh and not scanned != fresh
    assert hash(scanned) == hash(fresh) and len({scanned, fresh}) == 1
    assert repr(scanned) == repr(fresh)
    assert type(scanned).__match_args__ == ("context_size", "lhs", "rhs")
    assert positional(scanned) == positional(fresh) == (7, law, law)
    for copied in (pickle.loads(pickle.dumps(scanned)), copy.copy(scanned)):
        assert copied == fresh and hash(copied) == hash(fresh)
        assert repr(copied) == repr(fresh)
        assert copied._plans == {}


def test_no_cache_leaves_its_owner():
    # the signature's printer, the algebra's scans and the equation's plans,
    # each made empty by its constructor and filled by use, stay behind in
    # every copy and pickle, which start empty
    names = ["x", "y", "w", "u", "v", "s", "t"]
    law = "xor(x,xor(y,xor(w,xor(u,xor(v,xor(s,t))))))"
    signature = Signature(XOR.entries())
    algebra = FiniteAlgebra(signature, 2, B2_XOR.tables)
    equation = parse_equation(signature, names, law, law)
    assert signature._printer == [] and equation._plans == {}
    assert algebra._scans == ({}, {})
    assert str(Term(signature, (0, 1, 1))) == "xor(e,e)"
    assert find_violation(algebra, equation) is None
    assert signature._printer and equation._plans
    assert all(algebra._scans)
    for clone in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        assert clone(signature)._printer == []
        assert clone(algebra)._scans == ({}, {})
        assert clone(equation)._plans == {}
        assert clone(algebra) == algebra and clone(equation) == equation


def test_object_setattr_is_called_only_by_constructors():
    # object.__setattr__ gets round a record's refusal of assignment, so it
    # may only build a value in its own __init__ (an alias such as
    # `put = object.__setattr__` there included); a cache is made empty by
    # its owner's constructor and only read and filled elsewhere
    calls, outside = 0, []
    for path in sorted(Path(ualgebra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inits = {id(node) for init in ast.walk(tree)
                 if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                 for node in ast.walk(init)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                calls += 1
                if id(node) not in inits:
                    outside.append(f"{path.name}:{node.lineno}")
    assert calls > 10 and outside == []


def test_object_new_is_called_only_by_the_term_maker():
    # object.__new__ skips Term.__init__ and its check, so one maker,
    # Term._wrap_all, makes every term whose oplist is valid by construction
    places = []
    for path in sorted(Path(ualgebra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        maker = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_wrap_all"
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                places.append((path.name, id(node) in maker))
    assert places == [("terms.py", True)]


# builds one Signature, Term, FiniteAlgebra and Equation; `dump` writes them
# pickled to stdout, `load` reads such a pickle from stdin and prints, for
# each value read, whether it is found in a set of its freshly built twin
CROSS_SEED = """
import pickle, sys
from ualgebra.algebras import FiniteAlgebra
from ualgebra.equations import parse_equation
from ualgebra.signature import Signature
from ualgebra.terms import Term

signature = Signature([("xor", 2), ("e", 0)])
fresh = [
    signature,
    Term(signature, (0, 1, 1)),
    FiniteAlgebra(signature, 2, [[0, 1, 1, 0], [0]]),
    parse_equation(signature, ["x", "y"], "xor(x,y)", "xor(y,x)"),
]
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(fresh))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    print([value == twin and value in {twin} for value, twin in zip(loaded, fresh)])
"""


def test_a_pickle_hashes_alike_under_another_hash_seed():
    # a str hashes differently under each PYTHONHASHSEED, so a hash that
    # a pickle carried from the process that wrote it finds no equal twin
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}

    def child(step, seed, data=b""):
        proc = subprocess.run(
            [sys.executable, "-c", CROSS_SEED, step],
            input=data,
            capture_output=True,
            env={**env, "PYTHONHASHSEED": seed},
            timeout=smoke.TIMEOUT,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        return proc.stdout

    data = child("dump", "1")
    assert child("load", "2", data) == b"[True, True, True, True]\n"
