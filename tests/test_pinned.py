"""Every pinned command-line case of ``pinned.CASES``, through ``cli.main``
in-process and, when a ``bvode`` script is on PATH, through that script.

The script runs without ``PYTHONPATH``, so it runs the installed package.
"""

import contextlib
import hashlib
import io
import os
import re
import shutil
import subprocess
from pathlib import Path
from typing import NamedTuple

import pytest

from bvode import cli
from pinned import CASES, jump_rows

BVODE = shutil.which("bvode")


class Run(NamedTuple):
    code: int
    out: str
    err: str
    root: Path  # the run's directory: its config and its --out directory "out"


def argv(case, root):
    """The case's argv, with its config written under root and --out root/out."""
    if case.ini is None:
        return list(case.argv)
    (root / "case.ini").write_text(case.ini, encoding="utf-8")
    return [*case.argv, "--config", str(root / "case.ini"), "--out", str(root / "out")]


def run_main(case, root):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv(case, root))
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    return Run(code, out.getvalue(), err.getvalue(), root)


def run_script(case, root):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([BVODE, *argv(case, root)], cwd=root, env=env, capture_output=True,
                          text=True, timeout=60)
    return Run(proc.returncode, proc.stdout, proc.stderr, root)


RUNNERS = {"main": run_main, "bvode": run_script}


def problems(case, run):
    """Each way the run differs from its case; empty when it matches."""
    found = []
    if run.code != case.code:
        found.append(f"exit code {run.code}, want {case.code}")
    first = (run.out if case.code == 0 else run.err).split("\n", 1)[0]
    if case.line is not None and not re.match(case.line, first):
        found.append(f"first line {first!r} does not match {case.line!r}")
    if "Traceback" in run.err:
        found.append("a traceback on stderr")
    if left := sorted(p.name for p in run.root.rglob("*.tmp*")):
        found.append(f"temp files left: {left}")
    out = run.root / "out"
    if case.code != 0 and out.exists():
        found.append("an output directory from a failed run")
    if case.csv is None:
        return found
    if not (out / case.csv).is_file():
        return found + [f"no {case.csv}"]
    data = (out / case.csv).read_bytes()
    lines, sha256 = data.count(b"\n"), hashlib.sha256(data).hexdigest()
    if case.lines is not None and lines != case.lines:
        found.append(f"{case.csv}: {lines} lines, want {case.lines}")
    if case.sha256 is not None and sha256 != case.sha256:
        found.append(f"{case.csv}: sha256 {sha256}, want {case.sha256}")
    if case.check is not None:
        try:
            case.check(data.decode())
        except AssertionError as exc:
            found.append(f"{case.csv}: {exc}")
    return found


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("name", CASES)
def test_case(tmp_path, name, runner):
    if runner == "bvode" and BVODE is None:
        pytest.skip("no bvode script on PATH")
    case = CASES[name]
    assert problems(case, RUNNERS[runner](case, tmp_path)) == []


def test_checker_reports_tampering(tmp_path):
    """A changed exit code, summary or CSV byte is each reported."""
    case = CASES["study"]
    run = run_main(case, tmp_path)
    assert problems(case, run) == []
    assert "exit code 3, want 0" in problems(case, run._replace(code=3))
    summary = run.out.replace("l1=0.000959981", "l1=0.000959982")
    assert [p[:10] for p in problems(case, run._replace(out=summary))] == ["first line"]
    csv = tmp_path / "out" / case.csv
    data = bytearray(csv.read_bytes())
    data[-2] ^= 1  # the last digit of the last value
    csv.write_bytes(data)
    assert [p[:17] for p in problems(case, run)] == ["study.csv: sha256"]


def test_checker_reports_failed_csv_checks(tmp_path):
    """A CSV check's failed assertion is reported with the CSV's name."""
    case = CASES["limit"]
    run = run_main(case, tmp_path)
    assert problems(case, run) == []
    assert problems(case._replace(check=jump_rows(3)), run) == [
        "limit_path.csv: 2 jump rows, want 3"]
