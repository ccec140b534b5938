import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ualgebra.cli import main

DATA = Path(__file__).parent / "data"

NAT = str(DATA / "nat_sig.json")
N4 = str(DATA / "n4.json")
N2 = str(DATA / "n2.json")
XOR = str(DATA / "xor_sig.json")
B2_XOR = str(DATA / "b2_xor.json")
B2_AND = str(DATA / "b2_and.json")
XOR_THEORY = str(DATA / "xor_theory.json")
PROJ = str(DATA / "proj_sig.json")
PROJ_ALG = str(DATA / "proj_alg.json")
PROJ_THEORY = str(DATA / "proj_theory.json")
# laws of 7 and 8 variables: 2^7 and 2^8 assignments, in column blocks
XOR_WIDE_THEORY = str(DATA / "xor_wide_theory.json")
PROJ_WIDE_THEORY = str(DATA / "proj_wide_theory.json")
# proj(x5,x6) = x6 in 7 variables: 2^7 assignments, failing at assignment 1
PROJ_EARLY_THEORY = str(DATA / "proj_early_theory.json")
# Z16 -> Z4 over m/2 i/1 e/0: a source large enough for the bytes compare
GRP = str(DATA / "grp_sig.json")
Z16 = str(DATA / "z16.json")
Z4 = str(DATA / "z4.json")
MOD4 = ",".join(f"{x}:{x % 4}" for x in range(16))
# laws of 3 and 4 variables over Z16: 16^4 assignments reach aligned column
# blocks, and m's two arguments fill a byte (2 * 4 bits), so columns are bytes
GRP_WIDE_THEORY = str(DATA / "grp_wide_theory.json")
GRP_WIDE_FAIL_THEORY = str(DATA / "grp_wide_fail_theory.json")
# f/2 and g/2 that differ at entry (5, 9) alone, and f(x0,x3) = g(x0,x3) in 4
# variables: the least violation (5,0,0,9) sits mid-block in aligned block 5,
# x0 fixed at 5 over it; on bytes at 16 elements, on lists at 17
FG = str(DATA / "fg_sig.json")
FG16 = str(DATA / "fg16.json")
FG17 = str(DATA / "fg17.json")
FG_LATE_THEORY = str(DATA / "fg_late_theory.json")
# f(x0,x4) = g(x0,x4) over five variables: aligned blocks fix x0 and x1, and
# the least violation (5,0,0,0,9) sits in the first block after x1 carries
# into x0, the slow fixed digit, which alone of the two the sides read
FG_CARRY_THEORY = str(DATA / "fg_carry_theory.json")
# Z12 -> Z4 over e/0 i/1 m/2 t/3, t(x,y,z) = xy + z: a ternary symbol on a
# source below the bytes gate (_ROW_MIN), its rows compared entry by entry
RING = str(DATA / "ring_sig.json")
Z12_RING = str(DATA / "z12_ring.json")
Z4_RING = str(DATA / "z4_ring.json")
# Z16 -> Z4 over the same ring: at the gate, so t is compared a group of rows
# (every argument but the last two fixed) at a time, as bytes
Z16_RING = str(DATA / "z16_ring.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(capsys, argv, code, out):
    """Exact output, stated exit code, and byte-identical reruns."""
    got = [run(capsys, *argv) for _ in range(2)]
    assert got[0] == got[1]
    got_code, got_out, _ = got[0]
    assert got_code == code
    assert got_out == out


# ------------------------------------------------------------ check

def test_check_ok(capsys):
    assert_golden(capsys, ["check", "--sig", NAT, "z"], 0, "ok\n")


def test_check_numeral_four(capsys):
    assert_golden(capsys, ["check", "--sig", NAT, "s s s s z"], 0, "ok\n")


def test_check_mixed_results(capsys):
    assert_golden(
        capsys,
        ["check", "--sig", NAT, "s s z", "z s", "z z"],
        1,
        "ok\nunderflow at position 1\nnot a term: 2 complete terms\n",
    )


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--sig", NAT, "--json", "s z", "z s")
    assert code == 1
    assert json.loads(out) == {
        "command": "check",
        "all_ok": False,
        "results": [
            {
                "input": "s z",
                "ops": [1, 0],
                "is_term": True,
                "status": {"kind": "ok", "terms": 1},
            },
            {
                "input": "z s",
                "ops": [0, 1],
                "is_term": False,
                "status": {"kind": "underflow", "position": 1},
            },
        ],
    }


def test_check_unknown_symbol_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--sig", NAT, "s q z")
    assert code == 2
    assert out == ""
    assert "unknown symbol 'q'" in err


# ------------------------------------------------------------ depth

def test_depth_of_numeral_four(capsys):
    assert_golden(capsys, ["depth", "--sig", NAT, "s(s(s(s(z))))"], 0, "5\n")


def test_depth_json(capsys):
    code, out, _ = run(capsys, "depth", "--sig", NAT, "--json", "s( s( z))")
    assert code == 0
    assert json.loads(out) == {"command": "depth", "term": "s(s(z))", "depth": 3}


def test_depth_parse_error(capsys):
    code, out, err = run(capsys, "depth", "--sig", NAT, "s(z,z)")
    assert code == 2
    assert "expects 1 argument" in err


# ------------------------------------------------------------ eval

def test_eval(capsys):
    assert_golden(
        capsys, ["eval", "--sig", NAT, "--alg", N4, "s(s(s(s(z))))"], 0, "0\n"
    )


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--sig", NAT, "--alg", N4, "--json", "s(z)")
    assert json.loads(out) == {"command": "eval", "term": "s(z)", "value": 1}
    assert code == 0


def test_eval_algebra_over_wrong_signature(capsys):
    code, _, err = run(capsys, "eval", "--sig", XOR, "--alg", N4, "e")
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------ hom

def test_hom_ok(capsys):
    assert_golden(
        capsys,
        ["hom", "--sig", NAT, "--from", N4, "--to", N2, "--map", "0:0,1:1,2:0,3:1"],
        0,
        "ok\n",
    )


def test_hom_counterexample(capsys):
    assert_golden(
        capsys,
        ["hom", "--sig", NAT, "--from", N4, "--to", N2, "--map", "0:0,1:0,2:0,3:0"],
        1,
        "counterexample: s(0): 0 != 1\n",
    )


def test_hom_ok_by_rows(capsys):
    assert_golden(
        capsys, ["hom", "--sig", GRP, "--from", Z16, "--to", Z4, "--map", MOD4], 0, "ok\n"
    )


@pytest.mark.parametrize(
    "changed, out",
    [
        ("0:1", "counterexample: m(0,0): 1 != 2\n"),
        ("15:0", "counterexample: m(1,14): 0 != 3\n"),
    ],
    ids=["first-entry", "second-row"],
)
def test_hom_counterexample_by_rows(capsys, changed, out):
    src = changed.split(":")[0]
    entries = [changed if e.split(":")[0] == src else e for e in MOD4.split(",")]
    argv = ["hom", "--sig", GRP, "--from", Z16, "--to", Z4, "--map", ",".join(entries)]
    assert_golden(capsys, argv, 1, out)


@pytest.mark.parametrize(
    "times, code, out",
    [(1, 0, "ok\n"), (3, 1, "counterexample: t(1,1,0): 3 != 1\n")],
    ids=["x", "3x"],
)
def test_hom_ternary_below_the_gate(capsys, times, code, out):
    mapping = ",".join(f"{x}:{times * x % 4}" for x in range(12))
    argv = ["hom", "--sig", RING, "--from", Z12_RING, "--to", Z4_RING, "--map", mapping]
    assert_golden(capsys, argv, code, out)


@pytest.mark.parametrize(
    "times, code, out",
    [(1, 0, "ok\n"), (3, 1, "counterexample: t(1,1,0): 3 != 1\n")],
    ids=["x", "3x"],
)
def test_hom_ternary_above_the_gate(capsys, times, code, out):
    # 3x mod 4 first breaks t in its second group, prefix (1,)
    mapping = ",".join(f"{x}:{times * x % 4}" for x in range(16))
    argv = ["hom", "--sig", RING, "--from", Z16_RING, "--to", Z4_RING, "--map", mapping]
    assert_golden(capsys, argv, code, out)


def test_hom_json(capsys):
    code, out, _ = run(
        capsys,
        "hom", "--sig", NAT, "--from", N4, "--to", N2,
        "--map", "0:0,1:0,2:0,3:0", "--json",
    )
    assert code == 1
    assert json.loads(out) == {
        "command": "hom",
        "is_homomorphism": False,
        "counterexample": {"symbol": "s", "args": [0], "lhs": 0, "rhs": 1},
    }


def test_hom_bad_map(capsys):
    code, _, err = run(
        capsys, "hom", "--sig", NAT, "--from", N4, "--to", N2, "--map", "0:0,1:1"
    )
    assert code == 2
    assert "--map" in err


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


# ------------------------------------------------------------ sat

def test_sat_model(capsys):
    assert_golden(
        capsys,
        ["sat", "--sig", XOR, "--alg", B2_XOR, "--theory", XOR_THEORY],
        0,
        "model\n",
    )


def test_sat_failure(capsys):
    assert_golden(
        capsys,
        ["sat", "--sig", PROJ, "--alg", PROJ_ALG, "--theory", PROJ_THEORY],
        1,
        "fails comm at (0,1)\n",
    )


def test_sat_and_table_fails_unit_first(capsys):
    assert_golden(
        capsys,
        ["sat", "--sig", XOR, "--alg", B2_AND, "--theory", XOR_THEORY],
        1,
        "fails unit at (1)\n",
    )


def test_sat_model_through_column_blocks(capsys):
    assert_golden(
        capsys,
        ["sat", "--sig", XOR, "--alg", B2_XOR, "--theory", XOR_WIDE_THEORY],
        0,
        "model\n",
    )


def test_sat_failure_on_the_first_column_block(capsys):
    # assignment 1, in the first block [0, 2)
    assert_golden(
        capsys,
        ["sat", "--sig", PROJ, "--alg", PROJ_ALG, "--theory", PROJ_EARLY_THEORY],
        1,
        "fails early at (0,0,0,0,0,0,1)\n",
    )


def test_sat_failure_on_a_later_column_block(capsys):
    # assignment 64 = 2^6, the first of the block [2^6, 2^7)
    assert_golden(
        capsys,
        ["sat", "--sig", PROJ, "--alg", PROJ_ALG, "--theory", PROJ_WIDE_THEORY],
        1,
        "fails comm8 at (0,1,0,0,0,0,0,0)\n",
    )


def test_sat_model_through_byte_columns(capsys):
    assert_golden(
        capsys,
        ["sat", "--sig", GRP, "--alg", Z16, "--theory", GRP_WIDE_THEORY],
        0,
        "model\n",
    )


def test_sat_failure_on_the_first_aligned_block_of_byte_columns(capsys):
    # assignment 4096 = 16^3, the first past the bands
    assert_golden(
        capsys,
        ["sat", "--sig", GRP, "--alg", Z16, "--theory", GRP_WIDE_FAIL_THEORY],
        1,
        "fails turn4 at (1,0,0,0)\n",
    )


@pytest.mark.parametrize("alg", [FG16, FG17], ids=["bytes-16", "lists-17"])
def test_sat_failure_mid_block_in_a_late_aligned_block(capsys, alg):
    assert_golden(
        capsys,
        ["sat", "--sig", FG, "--alg", alg, "--theory", FG_LATE_THEORY],
        1,
        "fails fg at (5,0,0,9)\n",
    )


@pytest.mark.parametrize("alg", [FG16, FG17], ids=["bytes-16", "lists-17"])
def test_sat_failure_right_after_a_carry_of_a_slow_fixed_digit(capsys, alg):
    assert_golden(
        capsys,
        ["sat", "--sig", FG, "--alg", alg, "--theory", FG_CARRY_THEORY],
        1,
        "fails fg at (5,0,0,0,9)\n",
    )


def test_sat_json(capsys):
    code, out, _ = run(
        capsys,
        "sat", "--sig", PROJ, "--alg", PROJ_ALG, "--theory", PROJ_THEORY, "--json",
    )
    assert code == 1
    assert json.loads(out) == {
        "command": "sat",
        "theory": "comm-only",
        "is_model": False,
        "failed_label": "comm",
        "counterexample": [0, 1],
    }


def test_sat_budget_exceeded(capsys):
    code, _, err = run(
        capsys,
        "sat", "--sig", XOR, "--alg", B2_XOR, "--theory", XOR_THEORY, "--budget", "4",
    )
    assert code == 2
    assert "budget" in err


# ------------------------------------------------------------ enum

def test_enum(capsys):
    assert_golden(
        capsys,
        ["enum", "--sig", NAT, "--max-len", "3"],
        0,
        "z\ns(z)\ns(s(z))\n",
    )


def test_enum_json(capsys):
    code, out, _ = run(capsys, "enum", "--sig", NAT, "--max-len", "2", "--json")
    assert json.loads(out) == {
        "command": "enum",
        "max_len": 2,
        "count": 2,
        "terms": [{"text": "z", "ops": [0]}, {"text": "s(z)", "ops": [1, 0]}],
    }
    assert code == 0


def test_enum_over_limit(capsys):
    code, _, err = run(capsys, "enum", "--sig", NAT, "--max-len", "13")
    assert code == 2
    assert "limit" in err
    code, out, _ = run(
        capsys, "enum", "--sig", NAT, "--max-len", "13", "--limit", "13"
    )
    assert code == 0
    assert len(out.splitlines()) == 13


def test_enum_zero_and_negative_length(capsys):
    assert_golden(capsys, ["enum", "--sig", NAT, "--max-len", "0"], 0, "")
    code, out, err = run(capsys, "enum", "--sig", NAT, "--max-len", "-3")
    assert code == 2 and out == ""
    assert err.startswith("ua: error:") and err.count("\n") == 1


# ------------------------------------------------------------ failures

def test_missing_file(capsys):
    code, out, err = run(capsys, "depth", "--sig", str(DATA / "nope.json"), "z")
    assert code == 2 and out == "" and "error" in err


def test_malformed_signature_file(capsys):
    code, _, err = run(capsys, "depth", "--sig", str(DATA / "broken.json"), "z")
    assert code == 2
    assert "arity" in err


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


def test_invalid_json_file(capsys):
    code, _, err = run(capsys, "depth", "--sig", str(DATA / "invalid.json"), "z")
    assert code == 2


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


def test_max_arity_flag_rejects_signature(capsys):
    code, _, err = run(
        capsys, "check", "--sig", XOR, "--max-arity", "1", "xor e e"
    )
    assert code == 2
    assert "exceeds limit" in err


def test_usage_error_without_subcommand(capsys):
    assert run(capsys, "--nope")[0] == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["enum", "--sig", NAT, "--max-len", "2.5"],
            "ua enum: error: argument --max-len: invalid int value: '2.5'\n",
        ),
        (
            ["depth", "z"],
            "ua depth: error: the following arguments are required: --sig\n",
        ),
        (
            ["depth", "--sig", NAT, "--bogus", "z"],
            "ua: error: unrecognized arguments: --bogus\n",
        ),
        (
            ["hom", "--sig", NAT],
            "ua hom: error: the following arguments are required: "
            "--from, --to, --map\n",
        ),
    ],
    ids=["bad-int", "missing-sig", "unknown-option", "missing-options"],
)
def test_argument_error_is_one_line_without_usage(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


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


def test_short_missing_path_reads_as_before(capsys):
    assert run(capsys, "check", "--sig", "/nonexistent", "z") == (
        2,
        "",
        "ua: error: [Errno 2] No such file or directory: '/nonexistent'\n",
    )


# ------------------------------------------------------------ real process

def test_installed_entry_point_matches_in_process():
    argv = ["depth", "--sig", NAT, "s(s(s(s(z))))"]
    runs = [
        subprocess.run(
            [sys.executable, "-m", "ualgebra", *argv], capture_output=True
        )
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout == b"5\n"
    assert runs[0].returncode == 0


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


def test_exit_codes_through_real_process():
    bad = subprocess.run(
        [sys.executable, "-m", "ualgebra", "check", "--sig", NAT, "z s"],
        capture_output=True,
    )
    assert bad.returncode == 1
    assert bad.stdout == b"underflow at position 1\n"
    usage = subprocess.run(
        [sys.executable, "-m", "ualgebra", "check", "--sig", "/nonexistent", "z"],
        capture_output=True,
    )
    assert usage.returncode == 2
    assert usage.stdout == b""
