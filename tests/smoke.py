"""Run every CLI golden of tests/data/goldens.json through a real `ua` process.

The arguments are the command that starts `ua`; each row's argv follows it:

    python tests/smoke.py ua                                # the installed script
    PYTHONPATH=src python tests/smoke.py python -m ualgebra # a checkout

Rows run from the repository root, whose relative paths they name, once
each, and the run stops at the first row whose exit code, stdout or stderr
differs, printing that row's id, argv, and what was expected and got.  Then
one closed pipe: `ua` must exit 0 when its reader stops after one line.
Standard library only; the pytest suites import `ROWS` and `difference`.
"""

import json
import shlex
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = json.loads((ROOT / "tests" / "data" / "goldens.json").read_text(encoding="utf-8"))
TIMEOUT = 60  # seconds per process; each row takes well under one


def difference(row, code, stdout, stderr):
    """None if a run gave the row's exit code, stdout and stderr (default
    empty), else a report of the row and of both outcomes."""
    expected = (row["code"], row["stdout"], row.get("stderr", ""))
    if (code, stdout, stderr) == expected:
        return None
    return (
        f"{row['id']}: ua {shlex.join(row['argv'])}\n"
        f"  expected {expected!r}\n"
        f"  got      {(code, stdout, stderr)!r}"
    )


def closed_pipe(prefix):
    # 357 KiB of terms, past the pipe buffer, read like `| head -n 1`
    row = {
        "id": "closed-pipe",
        "argv": ["enum", "--sig", "tests/data/group_abc_sig.json", "--max-len", "8"],
        "code": 0,
        "stdout": "e\n",
    }
    with subprocess.Popen(
        [*prefix, *row["argv"]], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        timer = threading.Timer(TIMEOUT, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait()
        finally:
            timer.cancel()
    return difference(row, proc.returncode, first.decode(), err.decode())


def main(prefix):
    if not prefix:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for row in ROWS:
        try:
            proc = subprocess.run(
                [*prefix, *row["argv"]], cwd=ROOT, capture_output=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            print(f"{row['id']}: ua {shlex.join(row['argv'])}\n  no exit within {TIMEOUT} s")
            return 1
        problem = difference(row, proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        if problem is not None:
            print(problem)
            return 1
    problem = closed_pipe(prefix)
    if problem is not None:
        print(problem)
        return 1
    print(f"{len(ROWS)} goldens and a closed pipe: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
