"""The README's examples run as shown and print what they say, and it
documents every [run] key."""

import ast
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from bvode import ConfigError, cli, load_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_quick_start_runs_as_commented():
    """Execute the Python quick start; each bare expression with a quoted
    comment, such as ``...verdict   # 'Flow'``, must evaluate to it."""
    (code,) = blocks("python")
    namespace = {}
    checked = 0
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            line = code.splitlines()[stmt.lineno - 1]
            quoted = re.search(r"#\s*('[^']*')\s*$", line)
            if quoted:
                assert value == ast.literal_eval(quoted.group(1)), source
                checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == 2
    assert namespace["flow"].x[-1] == pytest.approx(math.e, abs=1e-6)
    assert namespace["ito"].x[-1] == 2.0
    rel = np.asarray(namespace["study"].rel_errors)
    assert np.all(np.diff(rel) < 0.0)
    assert rel[-1] < 0.002


def test_shell_examples_parse():
    """Every ``bvode ...`` line of the README parses: no flag the parser lacks."""
    lines = [ln for block in blocks("sh") for ln in block.splitlines()
             if ln.startswith("bvode ")]
    assert {shlex.split(ln)[1] for ln in lines} == set(cli._COMMANDS)
    for line in lines:
        cli._parser().parse_args(shlex.split(line)[1:])


def test_shell_examples_print_their_comments(tmp_path, monkeypatch, capsys):
    """Every ``bvode ...`` line, run through ``cli.main`` on the README's
    config saved as ``single_jump.cfg``, prints the line commented below it."""
    (ini,) = blocks("ini")
    (tmp_path / "single_jump.cfg").write_text(ini, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    checked = 0
    for block in blocks("sh"):
        lines = block.splitlines()
        for line, comment in zip(lines, lines[1:]):
            if not line.startswith("bvode "):
                continue
            assert cli.main(shlex.split(line)[1:]) == 0, line
            summary, path = capsys.readouterr().out.strip().rsplit(" -> ", 1)
            want_summary, want_path = comment.removeprefix("# ").rsplit(" -> ", 1)
            assert (summary, os.path.normpath(path)) == (want_summary, want_path), line
            checked += 1
    assert checked == len(cli._COMMANDS)


def test_every_run_key_documented(tmp_path):
    cfg = tmp_path / "probe.ini"
    cfg.write_text("[run]\nno_such_key = 1\n")
    with pytest.raises(ConfigError, match="unknown key") as err:
        load_config(str(cfg))
    keys = ast.literal_eval(str(err.value).split("this section reads ", 1)[1])
    assert "x0" in keys and "jump_eps" in keys
    missing = [key for key in keys if f"`{key}`" not in README]
    assert not missing
