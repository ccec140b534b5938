"""Hostile input files for `ua`: whatever the files hold, `main` returns
0, 1 or 2 without raising, prints at most one diagnostic line, under 1 KiB,
and no traceback, and returns 1 only from the commands whose answer can be
no (`check`, `hom`, `sat`)."""

import contextlib
import io
import json
import re
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ualgebra.cli import main

ROLES = ("sig", "alg", "alg2", "theory")
NEGATIVE_COMMANDS = {"check", "hom", "sat"}

# consistent well-formed files, one family per signature: an example takes
# one family and replaces up to two of its files with hostile ones
FAMILIES = [
    (
        {"symbols": [{"name": "z", "arity": 0}, {"name": "s", "arity": 1}]},
        [
            {"carrier": 2, "tables": {"z": [0], "s": [1, 0]}},
            {"carrier": 3, "tables": {"z": [0], "s": [1, 2, 0]}},
        ],
        {"name": "t", "equations": [
            {"label": "two", "vars": ["x"], "lhs": "s(s(x))", "rhs": "x"},
        ]},
    ),
    (
        {"symbols": [{"name": "f", "arity": 2}, {"name": "c", "arity": 0}]},
        [
            {"carrier": 2, "tables": {"f": [0, 1, 1, 0], "c": [1]}},
            {"carrier": 2, "tables": {"f": [0, 0, 0, 1], "c": [1]}},
        ],
        {"name": "t", "equations": [
            {"label": "comm", "vars": ["x", "y"], "lhs": "f(x,y)", "rhs": "f(y,x)"},
            {"label": "unit", "vars": ["x"], "lhs": "f(x,c)", "rhs": "x"},
        ]},
    ),
    (
        {"symbols": [{"name": "c", "arity": 0}]},
        [{"carrier": 1, "tables": {"c": [0]}}],
        {"name": "t", "equations": [
            {"label": "one", "vars": ["x", "y"], "lhs": "x", "rhs": "y"},
        ]},
    ),
]
SYMBOL_SETS = [
    tuple(row["name"] for row in signature["symbols"]) for signature, _, _ in FAMILIES
]


def _raw(text):
    # a JSON number that json.dumps cannot write (more than 4300 digits) or
    # that should stay as written: a marked string, unquoted by `_dump`
    return "\0" + text


def _dump(doc):
    return re.sub(r'"\\u0000([^"]*)"', r"\1", json.dumps(doc))


# numbers near the interesting edges: small, around the 65536 arity and
# symbol-count limit, printable but huge, and past the interpreter's
# 4300-digit limit for int()
numbers = st.one_of(
    st.integers(-2, 8),
    st.integers(65530, 65540),
    st.integers(2000, 4300).map(lambda n: _raw("1" + "0" * (n - 1))),
    st.integers(4301, 6000).map(lambda n: _raw("9" * n)),
    st.sampled_from([_raw("1.5"), _raw("1e400"), _raw("NaN"), _raw("-Infinity")]),
)
scalars = st.one_of(
    st.none(), st.booleans(), numbers, st.text(max_size=6), st.floats()
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
names = st.sampled_from(["z", "s", "f", "c", "x", "y", ""]) | st.text(max_size=3)
term_texts = st.sampled_from(
    ["z", "s(z)", "s(x)", "f(c,c)", "f(x,y)", "f(y,x)", "c", "x", "f(", ")", ""]
)


def field(values):
    # a schema field: mostly a well-typed value, sometimes anything at all
    return st.one_of(values, values, values, json_values)


signatures = st.builds(
    lambda rows: {"symbols": rows},
    st.lists(
        st.fixed_dictionaries({"name": field(names), "arity": field(numbers)}),
        max_size=4,
    ),
)
algebras = st.builds(
    lambda carrier, tables: {"carrier": carrier, "tables": tables},
    field(st.integers(1, 3) | numbers),
    st.sampled_from(SYMBOL_SETS).flatmap(
        lambda symbols: st.fixed_dictionaries({
            name: field(st.lists(field(st.integers(0, 2) | numbers), max_size=9))
            for name in symbols
        })
    ),
)
theories = st.builds(
    lambda rows: {"name": "t", "equations": rows},
    st.lists(
        st.fixed_dictionaries({
            "label": field(names),
            "vars": field(st.lists(names, max_size=3)),
            "lhs": field(term_texts),
            "rhs": field(term_texts),
        }),
        max_size=3,
    ),
)
hostile = st.one_of(
    json_values.map(_dump),
    st.integers(1, 100_000).map(lambda d: "[" * d + "]" * d),
    st.integers(1, 100_000).map(lambda d: '{"a":' * d + "0" + "}" * d),
)


good_files = st.sampled_from(FAMILIES).flatmap(
    lambda family: st.fixed_dictionaries({
        "sig": st.just(family[0]),
        "alg": st.sampled_from(family[1]),
        "alg2": st.sampled_from(family[1]),
        "theory": st.just(family[2]),
    })
).map(lambda docs: {role: _dump(doc).encode() for role, doc in docs.items()})
SHAPED = {"sig": signatures, "alg": algebras, "alg2": algebras, "theory": theories}


def bad_file(role):
    # shaped like the role's file with hostile fields, or anything at all
    texts = st.one_of(SHAPED[role].map(_dump), hostile)
    return st.tuples(st.just(role), texts.map(str.encode) | st.binary(max_size=64))


files = st.builds(
    lambda good, bad: {**good, **dict(bad)},
    good_files,
    st.lists(st.sampled_from(ROLES).flatmap(bad_file), max_size=2),
)

commands = st.one_of(
    st.lists(st.sampled_from(["z", "s z", "s s z", "z s", "f c c", "x"]), min_size=1, max_size=3)
    .map(lambda terms: ["check", "--sig", "{sig}", *terms]),
    term_texts.map(lambda t: ["depth", "--sig", "{sig}", t]),
    term_texts.map(lambda t: ["eval", "--sig", "{sig}", "--alg", "{alg}", t]),
    st.sampled_from(["0:0", "0:0,1:1", "0:1,1:0"]).map(
        lambda m: ["hom", "--sig", "{sig}", "--from", "{alg}", "--to", "{alg2}", "--map", m]
    ),
    st.just(["sat", "--sig", "{sig}", "--alg", "{alg}", "--theory", "{theory}", "--budget", "1000"]),
    st.integers(0, 5).map(lambda n: ["enum", "--sig", "{sig}", "--max-len", str(n)]),
)


def run_main(tmp_path, argv, files):
    paths = {}
    for role in ROLES:
        path = tmp_path / f"{role}.json"
        path.write_bytes(files.get(role, b"{}"))
        paths[role] = str(path)
    argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_contract(argv, code, err):
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    assert "Traceback" not in err
    if code == 1:
        assert argv[0] in NEGATIVE_COMMANDS
    if code == 2:
        assert err.startswith("ua: error: ")
        assert len(err.encode()) < 1024


BIG_ARITY_SIG = '{"symbols": [{"name": "z", "arity": ' + "9" * 5000 + "}]}"
BIN_SIG = _dump({"symbols": [{"name": "f", "arity": 2}]})
CONST_SIG = _dump(FAMILIES[2][0])
CARRIER_2500 = "1" + "0" * 2499


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=commands, json_flag=st.booleans(), files=files)
@example(
    argv=["depth", "--sig", "{sig}", "z"],
    json_flag=False,
    files={"sig": BIG_ARITY_SIG.encode()},
)
@example(
    argv=["depth", "--sig", "{sig}", "z"], json_flag=False, files={"sig": b"\xff\xfe"}
)
@example(
    argv=["eval", "--sig", "{sig}", "--alg", "{alg}", "f"],
    json_flag=False,
    files={
        "sig": BIN_SIG.encode(),
        "alg": ('{"carrier": ' + CARRIER_2500 + ', "tables": {"f": [0]}}').encode(),
    },
)
@example(
    argv=["sat", "--sig", "{sig}", "--alg", "{alg}", "--theory", "{theory}"],
    json_flag=False,
    files={
        "sig": CONST_SIG.encode(),
        "alg": ('{"carrier": ' + CARRIER_2500 + ', "tables": {"c": [0]}}').encode(),
        "theory": _dump({"name": "t", "equations": [
            {"label": "l", "vars": ["x", "y"], "lhs": "x", "rhs": "y"},
        ]}).encode(),
    },
)
@example(
    argv=["sat", "--sig", "{sig}", "--alg", "{alg}", "--theory", "{theory}"],
    json_flag=False,
    files={
        "sig": CONST_SIG.encode(),
        "alg": _dump(FAMILIES[2][1][0]).encode(),
        "theory": _dump({"name": "t", "equations": [
            {"label": [1], "vars": [], "lhs": "c", "rhs": 5},
        ]}).encode(),
    },
)
def test_cli_contract_holds_on_hostile_files(tmp_path, argv, json_flag, files):
    if json_flag:
        argv = [argv[0], "--json", *argv[1:]]
    code, err = run_main(tmp_path, argv, files)
    assert_contract(argv, code, err)


def test_huge_table_size_is_refused_at_once(tmp_path):
    # 10^3999 ** 8192 would take minutes to compute and cannot be printed
    files = {
        "sig": json.dumps({"symbols": [{"name": "f", "arity": 8192}]}).encode(),
        "alg": ('{"carrier": 1' + "0" * 3999 + ', "tables": {"f": [0]}}').encode(),
    }
    argv = ["eval", "--sig", "{sig}", "--alg", "{alg}", "f"]
    start = time.perf_counter()
    code, err = run_main(tmp_path, argv, files)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert_contract(argv, code, err)
    # the carrier is too long to show, so it is named by its size
    assert err == "ua: error: table for f must have an integer of 13285 bits^8192 entries, got 1\n"
