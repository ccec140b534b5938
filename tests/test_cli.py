import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smoke
from ualgebra.cli import main

DATA = Path(__file__).parent / "data"

NAT = str(DATA / "nat_sig.json")
N4 = str(DATA / "n4.json")
N2 = str(DATA / "n2.json")
XOR = str(DATA / "xor_sig.json")
B2_XOR = str(DATA / "b2_xor.json")
PROJ = str(DATA / "proj_sig.json")
PROJ_ALG = str(DATA / "proj_alg.json")
PROJ_THEORY = str(DATA / "proj_theory.json")
RING = str(DATA / "ring_sig.json")
Z12_RING = str(DATA / "z12_ring.json")
Z4_RING = str(DATA / "z4_ring.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ hom

def test_hom_long_map_entry_gives_a_short_error_line(capsys):
    code, out, err = run(
        capsys, "hom", "--sig", NAT, "--from", N4, "--to", N2, "--map", "x" * 10 ** 6
    )
    assert (code, out) == (2, "")
    assert err == (
        "ua: error: bad --map entry '" + "x" * 59 + "... (1000002 characters), expected SRC:DST\n"
    )


def test_hom_map_rejects_duplicates_and_junk(capsys):
    for bad in ("0:0,0:1,1:1,2:0", "0:0,1:1,2:0,x:1"):
        code, _, err = run(
            capsys, "hom", "--sig", NAT, "--from", N4, "--to", N2, "--map", bad
        )
        assert code == 2
        assert "--map" in err or "entry" in err


# ------------------------------------------------------------ enum

def test_enum_over_limit(capsys):
    code, _, err = run(capsys, "enum", "--sig", NAT, "--max-len", "13")
    assert code == 2
    assert "limit" in err
    code, out, _ = run(
        capsys, "enum", "--sig", NAT, "--max-len", "13", "--limit", "13"
    )
    assert code == 0
    assert len(out.splitlines()) == 13


# ------------------------------------------------------------ failures

def test_non_string_symbol_name_is_usage_error(capsys, tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text('{"symbols": [{"name": 5, "arity": 0}]}')
    code, out, err = run(capsys, "depth", "--sig", str(sig), "z")
    assert (code, out) == (2, "")
    assert err == "ua: error: symbol name at index 0 is not a string: int\n"


def test_repeated_theory_variable_is_usage_error(capsys, tmp_path):
    theory = tmp_path / "theory.json"
    theory.write_text(json.dumps({"name": "t", "equations": [
        {"label": "comm", "vars": ["x", "x"], "lhs": "xor(x,x)", "rhs": "e"}
    ]}))
    code, out, err = run(
        capsys, "sat", "--sig", XOR, "--alg", B2_XOR, "--theory", str(theory)
    )
    assert (code, out) == (2, "")
    assert err == "ua: error: duplicate symbol name: 'x'\n"


def test_long_value_in_a_file_gives_a_short_error_line(tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"symbols": [{"name": "f", "arity": "7" * 10 ** 6}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "ualgebra", "depth", "--sig", str(sig), "f"],
        capture_output=True,
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"ua: error: bad arity for 'f': '777")
    assert proc.stderr.endswith(b"... (1000002 characters)\n")
    assert proc.stderr.count(b"\n") == 1 and len(proc.stderr) < 300


def test_deeply_nested_json_is_usage_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    proc = subprocess.run(
        [sys.executable, "-m", "ualgebra", "depth", "--sig", str(deep), "z"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("ua: error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_closed_stdout_is_not_an_error(tmp_path):
    # one binary operation and three constants: 34491 terms of length <= 11
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"symbols": [
        {"name": "f", "arity": 2},
        {"name": "a", "arity": 0},
        {"name": "b", "arity": 0},
        {"name": "c", "arity": 0},
    ]}))
    with subprocess.Popen(
        [sys.executable, "-m", "ualgebra", "enum", "--sig", str(sig), "--max-len", "11"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"a\n"
        proc.stdout.close()  # like `| head -1`
        err = proc.stderr.read()
    assert proc.returncode == 0
    assert err == b""


def test_long_argument_gives_a_short_error_line(capsys):
    value = "7" * 10 ** 5 + "x"
    code, out, err = run(capsys, "enum", "--sig", NAT, "--max-len", value)
    message = f"argument --max-len: invalid int value: '{value}'"
    assert (code, out) == (2, "")
    assert err == f"ua enum: error: {message[:200]}... ({len(message)} characters)\n"


def test_help_still_prints_usage(capsys):
    code, out, err = run(capsys, "enum", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: ua enum [-h] --sig FILE")


def test_long_missing_path_gives_a_short_error_line(capsys):
    path = "a" * 10 ** 5
    code, out, err = run(capsys, "depth", "--sig", path, "z")
    assert (code, out) == (2, "")
    assert err == (
        f"ua: error: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: "
        f"'{path[:59]}... (100002 characters)\n"
    )


def test_long_path_to_bad_json_gives_a_short_error_line(capsys, tmp_path):
    # the longest path the system opens is PATH_MAX (4096 on Linux), so
    # nest 200-character directories up to about 4000 characters
    folder = tmp_path
    while len(str(folder)) < 3700:
        folder = folder / ("d" * 200)
    folder.mkdir(parents=True)
    path = str(folder / "bad.json")
    (folder / "bad.json").write_text("not json")
    code, out, err = run(capsys, "depth", "--sig", path, "z")
    assert (code, out) == (2, "")
    assert err == (
        f"ua: error: {path[:60]}... ({len(path)} characters): "
        "Expecting value: line 1 column 1 (char 0)\n"
    )


# ------------------------------------------------------------ real process

def test_output_is_the_same_under_every_hash_seed(tmp_path):
    # PYTHONHASHSEED changes the iteration order of sets and dicts of str,
    # and no report may follow it.  Both algebra files list names taken from
    # set differences: missing and unknown tables, then unknown ones alone
    both = tmp_path / "both.json"
    both.write_text(json.dumps({"carrier": 2, "tables": {"e": [0], "w": [0], "x": [0]}}))
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"carrier": 2, "tables": {
        "e": [0], "i": [0, 1], "m": [0] * 4, "t": [0] * 8, "x": [0], "w": [0],
    }}))
    times3 = ",".join(f"{x}:{3 * x % 4}" for x in range(12))
    commands = [
        ["sat", "--sig", PROJ, "--alg", PROJ_ALG, "--theory", PROJ_THEORY],
        ["hom", "--sig", RING, "--from", Z12_RING, "--to", Z4_RING, "--map", times3],
        ["enum", "--sig", str(DATA / "group_abc_sig.json"), "--max-len", "4", "--json"],
        ["check", "--sig", NAT, "s s z", "z s", "z z"],
        ["eval", "--sig", RING, "--alg", str(both), "e"],
        ["eval", "--sig", RING, "--alg", str(extra), "e"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}

    def outputs(seed):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ualgebra", *argv],
                capture_output=True,
                env={**env, "PYTHONHASHSEED": seed},
            )
            for argv in commands
        ]
        return [(run.returncode, run.stdout, run.stderr) for run in runs]

    first, *rest = [outputs(seed) for seed in ("0", "1", "2718")]
    assert [code for code, _, _ in first] == [1, 1, 0, 1, 2, 2]
    assert first[4][2] == b"ua: error: missing table(s) for: i, m, t\n"
    assert first[5][2] == b"ua: error: table(s) for unknown symbol(s): w, x\n"
    assert rest == [first, first]


def test_package_runs_on_the_standard_library_alone():
    # -S leaves site-packages off sys.path, so any third-party import fails
    src = Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "ualgebra", "depth", "--sig", NAT, "s(z)"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"2\n", b"")


def test_cli_import_leaves_out_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, which cost a cold
    # `ua` process about as much as the package itself
    src = Path(__file__).parent.parent / "src"
    code = "import sys, ualgebra.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")


def test_package_exports_every_public_name():
    import ualgebra

    namespace = {}
    exec("from ualgebra import *", namespace)
    assert set(ualgebra.__all__) <= set(namespace)
    assert set(ualgebra.__all__) <= set(dir(ualgebra))



# ------------------------------------------------------------ goldens

# Every golden with an exact report lives in tests/data/goldens.json, one row
# each; the module collects a row as the test named by its id.

def assert_golden(capsys, monkeypatch, row):
    """The row's exit code and exact output, and byte-identical reruns."""
    monkeypatch.chdir(smoke.ROOT)
    got = [run(capsys, *row["argv"]) for _ in range(2)]
    assert got[0] == got[1], row["id"]
    problem = smoke.difference(row, *got[0])
    assert problem is None, problem


def golden_test(rows):
    # the rows `name[a]`, `name[b]` are the test `name` parametrized as [a], [b]
    if "[" not in rows[0]["id"]:
        (row,) = rows

        def test(capsys, monkeypatch):
            assert_golden(capsys, monkeypatch, row)

        return test

    @pytest.mark.parametrize("row", rows, ids=[row["id"].partition("[")[2][:-1] for row in rows])
    def test(capsys, monkeypatch, row):
        assert_golden(capsys, monkeypatch, row)

    return test


def collect_goldens(namespace):
    groups = {}
    for row in smoke.ROWS:
        groups.setdefault(row["id"].partition("[")[0], []).append(row)
    for name, rows in groups.items():
        assert name not in namespace, f"golden {name} hides a test of that name"
        namespace[name] = golden_test(rows)


collect_goldens(globals())


def test_goldens_cover_every_subcommand_and_exit_tier():
    ids = [row["id"] for row in smoke.ROWS]
    assert len(ids) == len(set(ids))
    for row in smoke.ROWS:
        stderr = row.get("stderr", "")
        for arg in row["argv"]:
            # a missing-file row names a file that must stay missing
            if arg.endswith(".json") and f"No such file or directory: '{arg}'" not in stderr:
                assert arg.startswith("tests/data/") and (smoke.ROOT / arg).is_file(), row["id"]
        if row["code"] == 2:
            assert row["stdout"] == "" and stderr.count("\n") == 1, row["id"]
            assert stderr.endswith("\n"), row["id"]
    tiers = {(row["argv"][0], row["code"]) for row in smoke.ROWS}
    reports = {row["argv"][0] for row in smoke.ROWS if "--json" in row["argv"]}
    for command in ("check", "depth", "eval", "hom", "sat", "enum"):
        assert (command, 0) in tiers and command in reports, command
    for command in ("check", "hom", "sat"):
        assert (command, 1) in tiers, command


def test_smoke_runs_every_golden_in_a_real_process():
    # what CI runs through the installed `ua`, here through `python -m ualgebra`
    src = Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, smoke.__file__, sys.executable, "-m", "ualgebra"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout + proc.stderr
