"""INI config parsing and the command line entry points."""

import contextlib
import hashlib
import importlib
import io
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pinned import CASES
from bvode import BVFunction, ConfigError, GridPath, cli, load_config, mollify, scheme
from bvode.cli import main

ROOT = Path(__file__).resolve().parent.parent

FULL = """
[driver]
breakpoints = 0, 0.5, 1
coefficients = 0, 2; 1, 0, -4
jumps = 0.25:1.5, 0.75:-0.5

[field]
name = tanh
amp = 1.2
slope = 0.9
offset = 0.3

[mollifier]
profile = triangular
alpha = 2
meshes = 16, 32, 64

[sigma]
intervals = 0.2:0.5

[run]
x0 = 0.4
n = 32
n_offsets = 4
deltas = 0.25, 0.75
u_probes = 0, 0.5, 1
sample_times = 0.1, 0.9
mu = sigma
"""


def write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


class TestLoadConfig:
    def test_full_roundtrip(self, tmp_path):
        cfg = load_config(write(tmp_path, FULL))
        assert cfg.driver.domain == (0.0, 1.0)
        assert cfg.driver.jump_at(0.25) == 1.5
        assert cfg.field.name.startswith("tanh")
        assert cfg.profile.name == "triangular"
        assert cfg.schedule.meshes == (16, 32, 64)
        assert cfg.schedule.h(16) == pytest.approx(16.0 ** -2)
        assert cfg.sigma.intervals == ((0.2, 0.5),)
        assert cfg.mu.atoms == ((0.2, 0.3),)
        assert cfg.x0 == 0.4
        assert cfg.n == 32
        assert cfg.n_offsets == 4
        assert cfg.deltas == (0.25, 0.75)
        assert cfg.u_probes == (0.0, 0.5, 1.0)
        assert cfg.sample_times == (0.1, 0.9)

    def test_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[run]\n"))
        assert cfg.x0 == 1.0
        assert cfg.n_offsets == 16
        assert cfg.driver is None
        assert cfg.mu is None
        assert cfg.u_probes == mollify.DEFAULT_U_PROBES
        assert cfg.out_dir == "."

    def test_mu_variants(self, tmp_path):
        cfg = load_config(write(tmp_path, "[run]\nmu = dirac:0.25\n"))
        assert cfg.mu.atoms == ((0.25, 1.0),)
        cfg = load_config(write(tmp_path, "[run]\nmu = lebesgue\n"))
        assert cfg.mu.segments == ((0.0, 1.0),)

    def test_inline_comments_stripped(self, tmp_path):
        cfg = load_config(write(tmp_path, "[run]\nx0 = 2.5  # start here\n"))
        assert cfg.x0 == 2.5

    @pytest.mark.parametrize("text,needle", [
        ("[weird]\nx = 1\n[run]\n", "[weird].*"),
        ("[driver]\ncoefficients = 1\n[run]\n", "[driver].breakpoints"),
        ("[driver]\nbreakpoints = 0, 1\ncoefficients = 1, 2, 3, 4, 5\n",
         "[driver].coefficients"),
        ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0\njumps = 0.5:bad\n",
         "[driver].jumps"),
        ("[driver]\nbreakpoints = 1, 0\ncoefficients = 0\n",
         "[driver].breakpoints: breakpoints must be strictly increasing"),
        ("[driver]\nbreakpoints = 0, 0.5, 1\ncoefficients = 0, 2; 5\n",
         "[driver].coefficients: continuous part breaks"),
        ("[driver]\nbreakpoints = 0, 1, 2\ncoefficients = 0, 1; 5\n",
         "[driver].coefficients: continuous part breaks at t=1.0: 1.0 vs 5.0"),
        ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0\njumps = 0:1\n",
         "[driver].jumps: jump epoch 0.0 outside"),
        ("[field]\nname = cubic\n[run]\n", "[field].name"),
        ("[mollifier]\nprofile = gaussian\n[run]\n", "[mollifier].profile"),
        ("[mollifier]\nprofile = uniform\nalpha = 1\ntable = 8:0.1\n",
         "[mollifier].table"),
        ("[mollifier]\nprofile = uniform\nmeshes = 8, x\nalpha = 1\n",
         "[mollifier].meshes"),
        ("[mollifier]\nprofile = uniform\nmeshes = 0, 16, 32\nalpha = 1\n",
         "[mollifier].meshes: meshes must be strictly increasing positive integers"),
        ("[mollifier]\nprofile = uniform\nmeshes = 32, 16\ntable = 16:0.1, 32:0.05\n",
         "[mollifier].meshes: meshes must be strictly increasing positive integers"),
        ("[mollifier]\nprofile = uniform\nmeshes = 16, 32, 64\ntable = 8:0.1, 128:0.01\n",
         "[mollifier].table: give either meshes or table, not both"),
        ("[mollifier]\nprofile = uniform\ntable = 16.5:0.01, 32:0.001, 64:0.0001\n",
         "[mollifier].table: non-integer mesh 16.5"),
        ("[mollifier]\nprofile = uniform\ntable = inf:0.01\n",
         "[mollifier].table: non-integer mesh inf"),
        ("[mollifier]\nprofile = uniform\ntable = 16:0.1, 16:0.05, 32:0.01, 64:0.001\n",
         "[mollifier].table: repeated mesh 16"),
        ("[mollifier]\nprofile = uniform\nalpha = 2\nc = -1\n",
         "[mollifier].c: power rule needs alpha > 0 and coef > 0"),
        ("[mollifier]\nprofile = uniform\nalpha = -2\nc = -1\n",
         "[mollifier].alpha: power rule needs alpha > 0 and coef > 0"),
        ("[field]\nname = ramp\nwidth = 0\n", "[field].width: ramp width must be positive"),
        ("[sigma]\nintervals = 0.1:0.6, 0.4:0.8\n[run]\n", "[sigma].intervals"),
        ("[run]\ndeltas = 0.5, 1.5\n", "[run].deltas"),
        ("[run]\nu_probes = 0, 1.5\n", "[run].u_probes"),
        ("[run]\ndeltas =\n", "[run].deltas: needs at least one entry"),
        ("[run]\nu_probes =\n", "[run].u_probes: needs at least one entry"),
        ("[run]\njump_q =\n", "[run].jump_q: needs at least one entry"),
        ("[run]\njump_eps =\n", "[run].jump_eps: needs at least one entry"),
        ("[run]\njump_t =\n", "[run].jump_t: needs at least one entry"),
        ("[run]\njump_q = -0.5\n", "[run].jump_q: q -0.5 outside [0, 1]"),
        ("[run]\njump_q = 0.5, 1.5\n", "[run].jump_q: q 1.5 outside [0, 1]"),
        ("[run]\njump_eps = 0\n", "[run].jump_eps"),
        ("[run]\njump_t = -0.1\n", "[run].jump_t"),
        ("[run]\nn_offsets = 0\n", "[run].n_offsets"),
        ("[run]\nn = 0\n", "[run].n: must be a positive integer"),
        ("[run]\nconv_points = 0\n", "[run].conv_points"),
        ("[run]\nstep_cap = 0\n", "[run].step_cap: unknown key"),
        ("[run]\nstep_cap = -5\n", "[run].step_cap: unknown key"),
        ("[run]\nv_max = -1\n", "[run].v_max"),
        ("[run]\nmollify_f = maybe\n", "[run].mollify_f"),
        ("[run]\nmu = cauchy\n", "[run].mu"),
        ("[run]\nmu = sigma\n", "[run].mu"),
        ("[run]\nx0 = abc\n", "[run].x0"),
        ("[run]\nn = 1" + "0" * 400 + "\n",
         "[run].n: integer of 401 characters is too large for a float"),
        ("[run]\nn_offsets = 1" + "0" * 400 + "\n", "[run].n_offsets: integer of 401"),
        ("[mollifier]\nprofile = uniform\nalpha = 2\nmeshes = 16, 1" + "0" * 400 + "\n",
         "[mollifier].meshes: integer of 401 characters is too large for a float"),
    ])
    def test_errors_name_their_key(self, tmp_path, text, needle):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert needle in str(err.value)

    @pytest.mark.parametrize("lines,message", [
        ("alpha = 2\nc = abc", "[mollifier].c: expected a number, got 'abc'"),
        ("alpha = 2\nc = inf", "[mollifier].c: expected a finite number, got 'inf'"),
        ("alpha = 2\nc = 1e-400", "[mollifier].c: power rule needs alpha > 0 and coef > 0"),
        ("alpha = 400", "[mollifier].alpha: step rule returned 0.0 at n=16"),
        ("alpha = 400\nc = 2", "[mollifier].alpha: step rule returned 0.0 at n=16"),
        ("alpha = 2\nc = 1e-320", "[mollifier].c: step rule returned 0.0 at n=64"),
    ])
    def test_power_rule_errors_name_one_key(self, tmp_path, lines, message):
        """A power rule's error names alpha when its steps fail at c = 1, else c,
        and a malformed c is named once."""
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, f"[mollifier]\nprofile = uniform\n{lines}\n"))
        assert str(err.value) == message

    def test_documented_configs_load(self, tmp_path, monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        cfg = load_config(write(tmp_path, readme.split("```ini\n")[1].split("```")[0]))
        assert cfg.sigma is not None
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        configs = workloads.scheme_inputs(0)["configs"] | workloads.diag_inputs(0)["configs"]
        for label, text in configs.items():
            load_config(write(tmp_path, text, f"{label}.ini"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.ini"))

    def test_malformed_file(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            load_config(write(tmp_path, "x0 = 1\n"))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestCli:
    def test_solve_scheme_writes_grid(self, tmp_path, capsys):
        cfg = write(tmp_path, FULL)
        out = tmp_path / "res"
        assert main(["solve-scheme", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "grid_path.csv")
        assert header == ["offset_index", "tau", "k", "t", "x"]
        assert len({r[0] for r in rows}) == 4
        assert float(rows[0][4]) == 0.4
        assert "solve-scheme:" in capsys.readouterr().out

    def test_solve_limit_writes_path(self, tmp_path, capsys):
        cfg = write(tmp_path, FULL)
        out = tmp_path / "res"
        assert main(["solve-limit", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "limit_path.csv")
        assert header == ["t", "x_left", "x", "is_jump"]
        flags = {r[3] for r in rows}
        assert flags == {"0", "1"}
        ts = [float(r[0]) for r in rows]
        assert 0.1 in ts and 0.9 in ts    # sample_times joined the grid

    def test_sigma_table_shape(self, tmp_path):
        cfg = write(tmp_path, FULL)
        out = tmp_path / "res"
        assert main(["sigma", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "sigma_probes.csv")
        assert header == ["delta", "u", "n", "value"]
        assert len(rows) == 2 * 3 * 3     # deltas x probes x meshes

    def test_classify_prints_verdict(self, tmp_path, capsys):
        cfg = write(tmp_path, """
            [mollifier]
            profile = uniform
            alpha = 2
            meshes = 256, 512, 1024, 2048
            [run]
            deltas = 0.25, 0.75
            u_probes = 0, 0.5, 1
            """)
        out = tmp_path / "res"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "classify: Flow" in text
        _, rows = read_csv(out / "classify_evidence.csv")
        assert len(rows) == 2 * 3 * 4

    def test_study_threads_reproducible(self, tmp_path):
        cfg = write(tmp_path, FULL)
        out = tmp_path / "res"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "study.csv")
        assert header == ["n", "h_n", "metric", "value"]
        assert len(rows) == 6

    def test_jumpmap_oracle_errors_small(self, tmp_path):
        cfg = write(tmp_path, FULL + "jump_q = 0.1, 0.7\njump_eps = 0.3\n"
                                     "jump_t = 0.5, 0.9, 1\n")
        out = tmp_path / "res"
        assert main(["jumpmap", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "jumpmap.csv")
        assert header == ["q", "eps", "t", "phi", "oracle", "abs_err"]
        assert len(rows) == 6
        assert max(float(r[5]) for r in rows) < 1e-6

    def test_jumpmap_all_skipped_writes_header(self, tmp_path, capsys):
        # q = 0.3 sits inside the staircase interval (0.2, 0.5), where the
        # explicit formula does not hold for t > q
        cfg = write(tmp_path, FULL + "jump_q = 0.3\njump_eps = 0.3\njump_t = 0.6, 0.9\n")
        out = tmp_path / "res"
        assert main(["jumpmap", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "jumpmap.csv").read_bytes() == b"q,eps,t,phi,oracle,abs_err\n"
        assert capsys.readouterr().out.startswith(
            "jumpmap: 0 evaluations (2 skipped at staircase-interior q), max |err|=0 -> ")

    def test_jumpmap_seed_reproducible(self, tmp_path):
        cfg = write(tmp_path, FULL)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["jumpmap", "--config", cfg, "--out", str(out),
                         "--seed", "7"]) == 0
        assert (out1 / "jumpmap.csv").read_bytes() == (out2 / "jumpmap.csv").read_bytes()
        out3 = tmp_path / "r3"
        assert main(["jumpmap", "--config", cfg, "--out", str(out3),
                     "--seed", "8"]) == 0
        assert (out1 / "jumpmap.csv").read_bytes() != (out3 / "jumpmap.csv").read_bytes()

    def test_missing_requirement_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "[run]\nx0 = 1\n")
        assert main(["classify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error: [mollifier].profile" in err

    @pytest.mark.parametrize("section,key,text", [
        ("driver", "jump", "[driver]\nbreakpoints = 0, 1\ncoefficients = 0\njump = 0.5:1\n"),
        ("field", "slop", "[field]\nname = tanh\nslop = 2\n"),
        ("field", "value", "[field]\nname = linear\nvalue = 2\n"),
        ("mollifier", "mesh", "[mollifier]\nprofile = uniform\nalpha = 2\nmesh = 8, 16\n"),
        ("sigma", "interval", "[sigma]\nintervals = 0.2:0.5\ninterval = 0.1:0.2\n"),
        ("run", "n_offset", "[run]\nn_offset = 64\n"),
        ("run", "zeta", "[run]\nzeta = 0.5\n"),
        ("field", "lipschitz", "[field]\nname = sin\nlipschitz = 10.0\n"),
        ("field", "growth", "[field]\nname = sin\ngrowth = 3.0\n"),
        # removed: the step cap is STEP_CAP, and the rule has 16 points per panel
        ("run", "step_cap", "[run]\nstep_cap = 1000\n"),
        ("run", "conv_points", "[run]\nconv_points = 4\n"),
    ])
    def test_unread_key_exits_one(self, tmp_path, capsys, section, key, text):
        assert main(["classify", "--config", write(tmp_path, text)]) == 1
        assert f"config error: [{section}].{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("jump_eps = -0.1", "[run].jump_eps: eps -0.1 must be positive"),
        ("jump_q = 0.1\njump_eps = 0.3\njump_t = 2, 0.5", "[run].jump_t: t 2.0 outside [0, 1]"),
        ("jump_q = -0.5\njump_eps = 0.3\njump_t = 0.5, 0.9", "[run].jump_q: q -0.5 outside [0, 1]"),
        # an empty list would evaluate nothing and report a maximum over no errors
        ("jump_q =", "[run].jump_q: needs at least one entry"),
        ("jump_eps =", "[run].jump_eps: needs at least one entry"),
        ("jump_q = 0.1\njump_eps = 0.3\njump_t =", "[run].jump_t: needs at least one entry"),
    ])
    def test_jumpmap_range_errors_exit_one(self, tmp_path, capsys, line, message):
        cfg = write(tmp_path, FULL + line + "\n")
        assert main(["jumpmap", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_study_needs_three_meshes(self, tmp_path, capsys):
        cfg = write(tmp_path, FULL.replace("meshes = 16, 32, 64", "meshes = 16, 32"))
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
        assert "config error: [mollifier].meshes: this subcommand needs at least three" in (
            capsys.readouterr().err)
        assert not (tmp_path / "res").exists()

    JUMP = "[driver]\nbreakpoints = 0, 1\ncoefficients = 0, 1\njumps = 0.5:1\n[field]\nname = tanh\n"
    # float spacing 1.9e-6 at the driver's start
    FAR = ("[driver]\nbreakpoints = 10000000000, 10000000001\ncoefficients = 0, 1\n"
           "[field]\nname = tanh\n[mollifier]\nprofile = uniform\nalpha = 2\n"
           "meshes = 16, 1024, 8192\n[run]\nn = 4096\n")
    POWER = "[mollifier]\nprofile = uniform\nalpha = 2\n"

    @pytest.mark.parametrize("command,text,code,prefix", [
        ("solve-scheme", JUMP + POWER + "[run]\nn = 1" + "0" * 200 + "\n", 1,
         "config error: [run].n: step rule returned 0.0"),
        ("solve-scheme", FAR, 1, "config error: [run].n: step h=5.960464477539063e-08 at "
         "n=4096 is below the float spacing at the driver's start 10000000000.0"),
        ("study", FAR, 1, "config error: [mollifier].meshes: step h=9.5367431640625e-07 at n=1024"),
        ("study", "[driver]\nbreakpoints = 1, 2\ncoefficients = 0, 1\njumps = 1.5:1\n"
         "[field]\nname = tanh\n[mollifier]\nprofile = uniform\n"
         "table = 64:1e-20, 128:1e-21, 256:1e-22\n[run]\nmu = lebesgue\n", 1,
         "config error: [mollifier].table: step h=1e-20 at n=64 is below the float spacing"),
        ("study", JUMP + "[mollifier]\nprofile = uniform\ntable = 64:0.01, 128:0.001\n"
         "[run]\nmu = lebesgue\n", 1,
         "config error: [mollifier].table: this subcommand needs at least three meshes"),
        ("study", JUMP + "[mollifier]\nprofile = uniform\nmeshes = 16, 32, 64\n"
         "table = 8:0.1, 128:0.01, 4096:0.001\n[run]\nmu = lebesgue\n", 1,
         "config error: [mollifier].table: give either meshes or table, not both\n"),
        ("solve-limit", JUMP + "[run]\nmu = lebesgue\nsample_times = 0.3, 2.0\n", 1,
         "config error: [run].sample_times: time 2.0 outside [0.0, 1.0]"),
        ("solve-scheme", JUMP + POWER + "[run]\nn = 8\nmollify_f = true\nconv_points = 30000\n",
         1, "config error: [run].conv_points: unknown key"),
        ("solve-limit", "[driver]\nbreakpoints = -1e308, 1e308\ncoefficients = 2\njumps = 1:1\n"
         "[field]\nname = linear\n", 1, "config error: [driver].breakpoints: breakpoints -1e+308 "
         "to 1e+308 span a width too large for a float"),
    ], ids=["underflowing-step", "step-below-spacing", "study-mesh-below-spacing",
            "study-table-step-below-spacing", "study-table-of-two-meshes", "study-meshes-and-table",
            "sample-time-outside", "huge-conv-points", "overflowing-width"])
    def test_refused_inputs_name_their_cause(self, tmp_path, capsys, command, text, code, prefix):
        """A step the lattice cannot take, a sample time outside the domain,
        the removed rule size and a driver whose width overflows end in a
        config error naming the cause, with no traceback and no CSV."""
        assert main([command, "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "res")]) == code
        assert capsys.readouterr().err.startswith(prefix)
        assert not (tmp_path / "res").exists()

    def test_mollified_window_exits_two(self, tmp_path, capsys, monkeypatch):
        # 8 offsets of a 16-node window: 2048 points per step, past a cap of 2047
        monkeypatch.setattr(scheme, "STEP_CAP", 2047)
        cfg = write(tmp_path, self.JUMP + "[mollifier]\nprofile = uniform\nalpha = 1\n"
                    "[run]\nn = 8\nn_offsets = 8\nmollify_f = true\n")
        assert main(["solve-scheme", "--config", cfg, "--out", str(tmp_path / "res")]) == 2
        assert capsys.readouterr().err.startswith(
            "step limit: mollified window needs 2048 points, cap is 2047")

    def test_bad_config_file_exits_one(self, tmp_path, capsys):
        assert main(["study", "--config", str(tmp_path / "missing.ini")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_step_cap_exits_two(self, tmp_path, capsys, monkeypatch):
        # h = 1e-4 / 16^2: each offset needs 2.56e6 steps, past a cap of 1000
        monkeypatch.setattr(scheme, "STEP_CAP", 1000)
        cfg = write(tmp_path, """
            [driver]
            breakpoints = 0, 1
            coefficients = 0, 1
            [field]
            name = linear
            [mollifier]
            profile = uniform
            alpha = 2
            c = 1e-4
            meshes = 16, 32, 64
            [run]
            n = 16
            """)
        assert main(["solve-scheme", "--config", cfg,
                     "--out", str(tmp_path / "res")]) == 2
        assert capsys.readouterr().err.startswith("step limit: run needs 2.56e+06 steps, cap is 1000")

    def test_variation_grid_cap_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path, """
            [driver]
            breakpoints = 0, 1
            coefficients = 0, 1
            [field]
            name = linear
            [run]
            v_max = 1e-13
            """)
        assert main(["solve-limit", "--config", cfg,
                     "--out", str(tmp_path / "res")]) == 2
        assert "step limit: variation grid needs" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("argv", [["classify", "--seed", "1"],
                                      ["jumpmap", "--threads", "2"],
                                      ["study", "--threads", "2"]])
    def test_flag_of_another_subcommand_is_usage_error(self, tmp_path, capsys, argv):
        cfg = write(tmp_path, FULL)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg, "--out", str(tmp_path / "res")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_subnormal_step_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path, """
            [driver]
            breakpoints = 0, 1
            coefficients = 0, 1
            [field]
            name = linear
            [mollifier]
            profile = uniform
            table = 16:1e-320
            [run]
            n = 16
            """)
        assert main(["solve-scheme", "--config", cfg,
                     "--out", str(tmp_path / "res")]) == 2
        assert "step limit" in capsys.readouterr().err

    @pytest.mark.parametrize("section,line", [
        ("run", "x0 = nan"),
        ("run", "x0 = inf"),
        ("field", "amp = nan"),
        ("driver", "jumps = 0.25:nan"),
        ("driver", "jumps = 0.25:inf"),
        ("driver", "coefficients = 0, 2; 1, nan, -4"),
        ("driver", "breakpoints = 0, 0.5, inf"),
        ("run", "sample_times = 0.1, nan"),
        ("run", "u_probes = 0, nan, 1"),
    ])
    def test_non_finite_input_exits_one(self, tmp_path, capsys, section, line):
        key, cur, lines = line.split(" = ")[0], None, []
        for ln in FULL.splitlines():
            cur = ln.strip("[]") if ln.startswith("[") else cur
            lines.append(line if cur == section and ln.startswith(key + " =") else ln)
        text = "\n".join(lines)
        assert line in text.split("\n")
        assert main(["solve-scheme", "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "res")]) == 1
        assert f"config error: [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_non_finite_state_exits_three(self, tmp_path, capsys):
        # x_{k+1} = x_k (1 + 1000 dL_k) with dL_k ~ 20/256 overflows within 256 steps
        cfg = write(tmp_path, """
            [driver]
            breakpoints = 0, 1
            coefficients = 0, 20
            [field]
            name = affine
            offset = 0
            slope = 1000
            [mollifier]
            profile = uniform
            alpha = 2
            [run]
            x0 = 1
            n = 16
            n_offsets = 4
            """)
        out = tmp_path / "res"
        assert main(["solve-scheme", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite state: offset 0, step " in err and ", t=" in err
        assert not out.exists()

    def test_non_finite_limit_exits_three(self, tmp_path, capsys):
        # dx = 1000 x dL with L = 20 t: each Heun step multiplies x by about 160,
        # so the path overflows long before t = 1
        cfg = write(tmp_path, """
            [driver]
            breakpoints = 0, 1
            coefficients = 0, 20
            [field]
            name = affine
            offset = 0
            slope = 1000
            [run]
            x0 = 1
            """)
        out = tmp_path / "res"
        assert main(["solve-limit", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("non-finite state: t=")
        t = float(err.split("t=")[1])
        assert 0.0 < t < 1.0
        assert not out.exists()

    def test_non_finite_jump_flow_exits_three(self, tmp_path, capsys):
        # L is flat but jumps by 1 at t = 0.5; across it the Lebesgue flow of
        # z(x) = 1000 x takes x = 1 to e^1000, past the largest float
        cfg = write(tmp_path, """
            [driver]
            breakpoints = 0, 1
            coefficients = 0, 0
            jumps = 0.5:1
            [field]
            name = affine
            offset = 0
            slope = 1000
            [run]
            x0 = 1
            mu = lebesgue
            """)
        out = tmp_path / "res"
        assert main(["solve-limit", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("non-finite state: t=0.5")
        assert not out.exists()

    def test_non_finite_study_exits_three(self, tmp_path, capsys):
        # the scheme overflows on every mesh of this schedule (see
        # test_non_finite_state_exits_three), so every L1 error is non-finite
        cfg = write(tmp_path, """
            [driver]
            breakpoints = 0, 1
            coefficients = 0, 20
            [field]
            name = affine
            offset = 0
            slope = 1000
            [mollifier]
            profile = uniform
            alpha = 2
            meshes = 8, 16, 32
            [run]
            x0 = 1
            n_offsets = 4
            """)
        out = tmp_path / "res"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "non-finite l1: mesh n=8\n"
        assert not out.exists()

    def test_no_temp_files_left(self, tmp_path):
        cfg = write(tmp_path, FULL)
        out = tmp_path / "res"
        assert main(["solve-limit", "--config", cfg, "--out", str(out)]) == 0
        assert not [p for p in out.iterdir() if ".tmp" in p.name]

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
    def test_unwritable_out_exits_one(self, tmp_path, capsys, sub):
        """An --out that names a file (or a path below one) is an output error, not a traceback."""
        cfg = write(tmp_path, FULL)
        blocker = tmp_path / "taken"
        blocker.write_text("kept")
        out = blocker / sub if sub else blocker
        assert main(["solve-limit", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"output error: {out}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert blocker.read_text() == "kept"

    def test_out_dir_from_config(self, tmp_path):
        target = tmp_path / "from_cfg"
        cfg = write(tmp_path, FULL + f"out = {target}\n")
        assert main(["solve-limit", "--config", cfg]) == 0
        assert (target / "limit_path.csv").exists()

    def test_closed_stdout_is_an_output_error(self, tmp_path):
        """A stdout pipe whose reader has gone before the summary line: exit 1
        with one output-error line and no traceback, and the CSV of the pinned
        sigma case, written in full.  The child waits for its stdin to close,
        which the test does only after closing the read end of stdout."""
        case = CASES["sigma"]
        cfg = write(tmp_path, case.ini)
        code = ("import sys\nsys.stdin.read()\nfrom bvode.cli import main\n"
                f"sys.exit(main(['sigma', '--config', {cfg!r}, '--out', {str(tmp_path / 'piped')!r}]))\n")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        proc.stdin.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == "output error: <stdout>: Broken pipe\n"
        piped = (tmp_path / "piped" / case.csv).read_bytes()
        assert hashlib.sha256(piped).hexdigest() == case.sha256


class TestCsvWriter:
    """The block writer is byte-identical to the value-by-value oracle."""

    @staticmethod
    def both(tmp_path, header, rows, table):
        """The table written by the block writer and its rows by the oracle writer."""
        new = cli._write_csv(str(tmp_path / "new"), "t.csv", header, table)
        old = oracle._write_csv(str(tmp_path / "old"), "t.csv", header, rows)
        return Path(new).read_bytes(), Path(old).read_bytes()

    @staticmethod
    def plain(rows):
        """A table of one group without prefix: the columns of the rows."""
        return [((), [np.asarray(c) for c in zip(*rows)])]

    @pytest.mark.parametrize("block", [None, 4], ids=["default", "small-blocks"])
    def test_grid_path(self, tmp_path, monkeypatch, block):
        if block:
            monkeypatch.setattr(cli, "CSV_BLOCK", block)
        values = np.array([[-0.0, 0.1, 1e-310, -1e300, 2.5, 2.5],
                           [0.0, -1.0 / 3.0, np.nan, np.inf, 7.0, 1e22]])
        gp = GridPath(offsets=np.array([0.0, 0.0125]), values=values,
                      lengths=np.array([5, 6]), n=8, h=0.025, profile_name="uniform",
                      domain=(0.0, 0.1))
        header = ("offset_index", "tau", "k", "t", "x")
        new, old = self.both(tmp_path, header, oracle.grid_rows(gp), cli._grid_table(gp))
        assert new == old
        assert b"\n0,0,0,0,-0\n" in new

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_grid_path_property(self, data):
        """Random fans (J = 1..6 offsets whose lengths differ by one, special
        floats among states, offsets and step) and block sizes 1..9: the
        grid-path groups and a plain table of the oracle's rows both write
        the oracle's bytes."""
        J = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, 12))
        lengths = m + np.array(data.draw(st.lists(st.integers(0, 1), min_size=J, max_size=J)))
        special = st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e22, -1e22, np.nan, np.inf, -np.inf])
        value = st.floats(allow_nan=True, allow_infinity=True) | special
        values = np.array(data.draw(st.lists(value, min_size=J * (m + 1), max_size=J * (m + 1))))
        offsets = np.array(data.draw(st.lists(st.floats(-1e3, 1e3) | special,
                                              min_size=J, max_size=J)))
        h = data.draw(st.floats(5e-324, 1e3) | st.sampled_from([1e22, 0.1]))
        gp = GridPath(offsets=offsets, values=values.reshape(J, m + 1), lengths=lengths, n=8,
                      h=h, profile_name="uniform", domain=(0.0, 1.0))
        header = ("offset_index", "tau", "k", "t", "x")
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CSV_BLOCK", data.draw(st.integers(1, 9)))
            old = Path(oracle._write_csv(d, "old.csv", header, oracle.grid_rows(gp))).read_bytes()
            new = Path(cli._write_csv(d, "new.csv", header, cli._grid_table(gp))).read_bytes()
            rows = cli._write_csv(d, "rows.csv", header, self.plain(list(oracle.grid_rows(gp))))
            assert new == old
            assert Path(rows).read_bytes() == old
            self.assert_clean(d, ["old.csv", "new.csv", "rows.csv"])
        assert new.count(b"\n") == 1 + int(lengths.sum())

    def test_mixed_scalar_types(self, tmp_path, monkeypatch):
        """Every column type, in one block and through the encoder (blocks of
        4 rows)."""
        rows = [(bool(i % 2), np.bool_(i % 3 == 0), np.int64(-i), i * 10 ** 15,
                 np.float64(i) / 7.0, -0.0 if i % 2 else 1e-300, f"gap@{i / 8:g}")
                for i in range(40)]
        for block in (cli.CSV_BLOCK, 4):
            monkeypatch.setattr(cli, "CSV_BLOCK", block)
            new, old = self.both(tmp_path / f"all-{block}", tuple("abcdefg"), rows,
                                 self.plain(rows))
            assert new == old

    def test_empty_table(self, tmp_path):
        new, old = self.both(tmp_path, ("a", "b"), (), [((), [np.empty(0), np.empty(0)])])
        assert new == old == b"a,b\n"

    @staticmethod
    def assert_clean(directory, names=("t.csv",)):
        """No child process is left to reap, and the directory holds the named files alone."""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(p.name for p in Path(directory).iterdir()) == sorted(names)

    @staticmethod
    def big_table(rows, layout):
        """Header, groups and oracle rows of a table of the given row count: one
        group (k, t, x), or groups with prefix (j, tau) of 0 to 4,999 rows (k, x).
        The states include signed zeros, subnormals, huge values, NaN and infinities."""
        rng = np.random.default_rng(rows)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
        x[::97], x[1::89], x[2::101], x[3::103] = -0.0, np.nan, np.inf, -np.inf
        k = np.arange(rows)
        if layout == "one-group":
            t = x * -1e-3
            return (("k", "t", "x"), [((), (k, t, x))],
                    list(zip(k.tolist(), t.tolist(), x.tolist())))
        groups, start = [], 0
        while start < rows:
            m = min(int(rng.integers(0, 5000)), rows - start)
            tau = float(rng.uniform(-1.0, 1.0))
            groups.append(((len(groups), tau), (k[:m], x[start:start + m])))
            start += m
        return (("j", "tau", "k", "x"), groups,
                [(j, tau, kk, xx) for (j, tau), (ks, xs) in groups
                 for kk, xx in zip(ks.tolist(), xs.tolist())])

    @pytest.mark.parametrize("layout", ["one-group", "many-groups"])
    @pytest.mark.parametrize("excess", [-1, 0, 1, 2 * cli.CSV_BLOCK + 1],
                             ids=["block-1", "block", "block+1", "3block+1"])
    def test_encoder_boundary_in_one_process(self, tmp_path, monkeypatch, layout, excess):
        """Around one block of rows and past three, the writer writes the
        oracle's bytes: with ``%`` up to one block, with the encoder past it,
        in this process alone.  No temp file is left."""
        rows = cli.CSV_BLOCK + excess
        header, table, oracle_rows = self.big_table(rows, layout)
        old = Path(oracle._write_csv(str(tmp_path / "old"), "t.csv", header, oracle_rows))
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
        block_text, blocks = cli._block_text, []

        def counted(pieces):
            blocks.append(sum(len(columns[0]) for _, columns in pieces))
            return block_text(pieces)

        monkeypatch.setattr(cli, "_block_text", counted)
        new = cli._write_csv(str(tmp_path / "new"), "t.csv", header, table)
        assert Path(new).read_bytes() == old.read_bytes()
        self.assert_clean(tmp_path / "new")
        assert blocks == ([] if rows <= cli.CSV_BLOCK else
                          [min(cli.CSV_BLOCK, rows - s) for s in range(0, rows, cli.CSV_BLOCK)])
        assert old.read_bytes().count(b"\n") == 1 + rows

    @pytest.mark.parametrize("fails", ["serial", "encoder", "interrupted"])
    def test_failed_write_keeps_target(self, tmp_path, monkeypatch, fails):
        """A write that raises after its first block, with ``%`` or inside the
        encoder (also an interrupt), removes its temp file, starts no process
        and keeps the bytes of the CSV already at the target."""
        monkeypatch.setattr(cli, "CSV_BLOCK", 4)
        target = tmp_path / "t.csv"
        target.write_bytes(b"kept\n")
        blocks, float_text = cli._blocks, cli._float_text
        calls = []

        def failing(prefix, columns):
            it = blocks(prefix, columns)
            yield next(it)
            raise RuntimeError("write failed")

        def failing_encoder(v):
            calls.append(v.size)
            if len(calls) > 1:  # the second block's floats
                raise KeyboardInterrupt if fails == "interrupted" else RuntimeError("encoder failed")
            return float_text(v)

        monkeypatch.setattr(cli, "_blocks", failing)
        monkeypatch.setitem(cli._TEXT, "%.17g", failing_encoder)
        rows = 3 if fails == "serial" else 30
        table = [((), (np.arange(rows), np.linspace(0.0, 1.0, rows)))]
        with pytest.raises(KeyboardInterrupt if fails == "interrupted" else RuntimeError):
            cli._write_csv(str(tmp_path), "t.csv", ("k", "x"), table)
        assert target.read_bytes() == b"kept\n"
        assert calls == ([] if fails == "serial" else [4, 4])
        self.assert_clean(tmp_path)

    # per command: the cli name whose result the oracle lays out, and that layout
    ORACLE_ROWS = {
        "solve-scheme": ("solve_grid", oracle.grid_rows),
        "solve-limit": ("solve_limit", oracle.limit_path_rows),
        "study": ("convergence_study", oracle.study_rows),
        "sigma": ("sigma_delta_limit", oracle.probe_rows),
        "classify": ("classify_regime", lambda report: oracle.probe_rows(report.probe)),
    }

    @pytest.mark.parametrize("command,csv", [
        ("solve-scheme", "grid_path.csv"),
        ("solve-limit", "limit_path.csv"),
        ("study", "study.csv"),
        ("jumpmap", "jumpmap.csv"),
        ("sigma", "sigma_probes.csv"),
        ("classify", "classify_evidence.csv"),
        ("jumpmap-empty", "jumpmap.csv"),
    ])
    def test_commands(self, tmp_path, monkeypatch, command, csv):
        """Each command's CSV equals the oracle writer's on the old row layout
        of the same results, and so does its table through the encoder, in
        blocks of 4 rows, and through ``%``.  jumpmap-empty is jumpmap with
        every q skipped: a header alone."""
        text = FULL
        if command == "jumpmap-empty":  # q = 0.3 is inside the staircase interval (0.2, 0.5)
            command, text = "jumpmap", FULL + "jump_q = 0.3\njump_eps = 0.3\njump_t = 0.6, 0.9\n"
        cfg = write(tmp_path, text)
        results, tables = [], []
        if command != "jumpmap":
            name, layout = self.ORACLE_ROWS[command]
            compute = getattr(cli, name)

            def keep(*args, **kwargs):
                results.append(compute(*args, **kwargs))
                return results[-1]

            monkeypatch.setattr(cli, name, keep)
        write_csv = cli._write_csv

        def keep_table(out_dir, filename, header, groups):
            tables.append(list(groups))
            return write_csv(out_dir, filename, header, tables[-1])

        monkeypatch.setattr(cli, "_write_csv", keep_table)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "new")]) == 0
        rows = (oracle.jumpmap_rows(load_config(cfg), seed=0) if command == "jumpmap"
                else layout(results[-1]))
        new = (tmp_path / "new" / csv).read_bytes()
        header = new.decode().split("\n", 1)[0].split(",")
        old = Path(oracle._write_csv(str(tmp_path / "old"), csv, header, rows)).read_bytes()
        assert new == old
        assert new.count(b"\n") > 2 if text == FULL else new == b"q,eps,t,phi,oracle,abs_err\n"
        monkeypatch.setattr(cli, "CSV_BLOCK", 4)
        body = old.split(b"\n", 1)[1]
        assert b"".join(map(bytes, cli._encode(tables[0]))) == body
        assert b"".join(cli._format(tables[0])) == body


def texts(text):
    """The strings of an encoder's rows, their NUL padding dropped."""
    return [bytes(row[row != 0]).decode() for row in text]


class TestEncoder:
    """Each column encoder writes the text of ``'%.17g'``, ``'%d'`` or ``'%s'``,
    value for value."""

    @staticmethod
    def assert_floats(values):
        v = np.asarray(values, dtype=np.float64)
        assert texts(cli._float_text(v)) == ["%.17g" % x for x in v.tolist()]

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_float_bit_patterns(self, bits):
        """Any 64 bits: signed zeros, subnormals, infinities and NaNs among them."""
        self.assert_floats(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_float_specials(self):
        """Around each power of ten 1e-5 .. 1e17, where the exponent estimate
        and the digit count turn, both signs; and the bounds of the fast path."""
        p = np.array([float(f"1e{j}") for j in range(-5, 18)])
        v = np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)])
        self.assert_floats(np.concatenate([v, -v, [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                                   np.nan, -np.nan, np.inf, -np.inf,
                                                   9.999999999999998e15, 1e16 - 2.0]]))

    @given(f=st.integers(2, 25), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_float_ties(self, f, data):
        """Exact ties at the 17th digit, rounded half to even: an odd m below
        2**53 over 2**f is m 5**f / 10**f, 18 significant digits ending in 5
        when m 5**f has 18 digits; and 1 + 2**-17 = 1.00000762939453125."""
        lo, hi = -(-10 ** 17 // 5 ** f), min(10 ** 18 // 5 ** f, 2 ** 53)
        v = (data.draw(st.integers(lo // 2, (hi - 2) // 2)) * 2 + 1) / 2 ** f
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
        self.assert_floats([v, -v, 1 + 2 ** -17, -(1 + 2 ** -17)])

    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(0, 10 ** 9),
                    min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_ints(self, ks):
        """int64 over its range, 0 .. 10**9 (a step index reaches 10**8) and
        negatives; unsigned, narrow and bool columns too."""
        for k in (np.array(ks, dtype=np.int64), np.abs(np.array(ks, dtype=np.int64) // 2)
                  .astype(np.uint64) + np.uint64(2 ** 63), np.array(ks).astype(np.int16),
                  np.array(ks) % 2 == 1):
            assert texts(cli._int_text(k)) == ["%d" % i for i in k.tolist()]

    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\x00")),
                    min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_strings(self, strings):
        """Strings (no NUL), from a str array and from an object array."""
        for s in (np.array(strings, dtype=object), np.array(strings, dtype=str)):
            assert texts(cli._str_text(s)) == ["%s" % x for x in strings]


class TestProbeCsv:
    """sigma and classify CSVs are byte-identical with the per-probe oracle patched in."""

    @pytest.mark.parametrize("mollifier", [
        "profile = uniform\nalpha = 2",
        "profile = triangular\nalpha = 1",
        "profile = bump\nalpha = 0.5",
        None,
    ], ids=["uniform-2", "triangular-1", "bump-0.5", "full"])
    @pytest.mark.parametrize("command,csv", [
        ("sigma", "sigma_probes.csv"),
        ("classify", "classify_evidence.csv"),
    ])
    def test_matches_oracle(self, tmp_path, monkeypatch, capsys, mollifier, command, csv):
        text = FULL if mollifier is None else f"[mollifier]\n{mollifier}\n"
        cfg = write(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "new")]) == 0
        monkeypatch.setattr(mollify, "sigma_delta_limit", oracle.sigma_delta_limit)
        monkeypatch.setattr(cli, "sigma_delta_limit", oracle.sigma_delta_limit)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "old")]) == 0
        new = (tmp_path / "new" / csv).read_bytes()
        assert new == (tmp_path / "old" / csv).read_bytes()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].replace("/new/", "/old/") == lines[1]


# log-uniform magnitudes in [1e-3, 1e3], either sign
PARAM = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-3.0, 3.0),
                  st.sampled_from([-1.0, 1.0]))
FIELD_KEYS = {"constant": ("value",), "affine": ("offset", "slope"), "linear": (),
              "ramp": ("threshold", "width", "height"),
              "sin": ("amp", "freq_x", "freq_t", "phase", "offset"),
              "tanh": ("amp", "slope", "offset")}
CSV_OF = {"solve-scheme": "grid_path.csv", "solve-limit": "limit_path.csv",
          "study": "study.csv", "sigma": "sigma_probes.csv",
          "classify": "classify_evidence.csv", "jumpmap": "jumpmap.csv"}
SCHEME_COMMANDS = ("solve-scheme", "solve-limit", "study")


@st.composite
def random_configs(draw):
    """A config of random driver (1-3 cubic segments, 0-2 jumps), field,
    schedule and run knobs; the test bounds the work by lowering STEP_CAP."""
    widths = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
    breaks = np.concatenate(([0.0], np.cumsum(widths)))
    rows, start = [], draw(PARAM)
    for w in np.diff(breaks):
        row = [start] + [draw(PARAM | st.just(0.0)) for _ in range(3)]
        rows.append(row)
        start = float(((row[3] * w + row[2]) * w + row[1]) * w + row[0])
    b = float(breaks[-1])
    jumps = draw(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True), PARAM),
                          max_size=2))
    kind = draw(st.sampled_from(sorted(FIELD_KEYS)))
    meshes = sorted(draw(st.sets(st.sampled_from([4, 8, 16, 32, 64]), min_size=1,
                                 max_size=4)))
    v_c = BVFunction(breaks, rows).total_variation()
    run = {"x0": draw(PARAM | st.just(0.0)), "n": draw(st.integers(1, 64)),
           "n_offsets": draw(st.integers(1, 8)),
           "mu": draw(st.sampled_from(["lebesgue", "dirac", "dirac:0.5", "sigma"])),
           "mollify_f": draw(st.booleans())}
    if v_c > 0.0:
        run["v_max"] = v_c * 10.0 ** draw(st.floats(-4.0, 0.0))
    sections = {
        "driver": {"breakpoints": ", ".join(map(repr, breaks.tolist())),
                   "coefficients": "; ".join(", ".join(map(repr, r)) for r in rows)},
        "field": {"name": kind, **{k: repr(draw(PARAM)) for k in FIELD_KEYS[kind]}},
        "mollifier": {"profile": draw(st.sampled_from(["uniform", "triangular", "bump"])),
                      "alpha": repr(draw(st.floats(0.5, 3.0))),
                      "meshes": ", ".join(map(str, meshes))},
        "sigma": {"intervals": "0.2:0.5"},
        "run": {k: v if isinstance(v, str) else repr(v) for k, v in run.items()},
    }
    if jumps:
        sections["driver"]["jumps"] = ", ".join(f"{u * b!r}:{s!r}" for u, s in jumps)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                   for name, items in sections.items())


@st.composite
def probe_configs(draw):
    """A subcommand (sigma, classify or jumpmap) and a config of random
    profile, schedule, probe grids, staircase intervals and jump-map lists;
    at most one of the lists the subcommand reads has an entry out of range."""
    command = draw(st.sampled_from(["sigma", "classify", "jumpmap"]))
    lists = (["intervals", "jump_q", "jump_eps", "jump_t"] if command == "jumpmap"
             else ["deltas", "u_probes"])
    bad = draw(st.sampled_from([None] + lists))

    def entries(key, inside, outside, max_size=3):
        vals = draw(st.lists(inside, min_size=1, max_size=max_size))
        if key == bad:
            vals.insert(draw(st.integers(0, len(vals))), draw(st.sampled_from(outside)))
        return ", ".join(map(repr, vals))

    unit = st.floats(0.0, 1.0)
    meshes = sorted(draw(st.sets(st.sampled_from([4, 8, 16, 32, 64, 128]), min_size=1,
                                 max_size=4)))
    run = {"x0": repr(draw(PARAM | st.just(0.0))),
           "deltas": entries("deltas", st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                             [0.0, 1.0, -1e-9, 1.0 + 1e-9]),
           "u_probes": entries("u_probes", unit, [-1e-9, 1.0 + 1e-9], max_size=5)}
    for key, inside, outside in (("jump_q", unit, [-0.1, 1.1]),
                                 ("jump_eps", st.floats(0.01, 1.0), [0.0, -0.1]),
                                 ("jump_t", unit, [-1e-9, 1.0 + 1e-9, 2.0])):
        if key == bad or draw(st.booleans()):
            run[key] = entries(key, inside, outside)
    cuts = sorted(draw(st.lists(unit, max_size=6, unique=True)))
    intervals = list(zip(cuts[::2], cuts[1::2]))
    if bad == "intervals":  # one interval reversed or past [0, 1]
        a, b = intervals[0] if intervals else (0.2, 0.5)
        intervals.insert(0, draw(st.sampled_from([(b, a), (-0.1, b), (a, 1.1)])))
    sections = {
        "mollifier": {"profile": draw(st.sampled_from(["uniform", "triangular", "bump"])),
                      "alpha": repr(draw(st.floats(0.5, 3.0))),
                      "meshes": ", ".join(map(str, meshes))},
        "sigma": {"intervals": ", ".join(f"{a!r}:{b!r}" for a, b in intervals)},
        "run": run,
    }
    return command, "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                            for name, items in sections.items())


class TestCliProperty:
    """Random configs end in an exit code, never a traceback, and a CSV is
    written, finite, exactly when the code is 0.  Every key they set is read."""

    @staticmethod
    def run(text, command):
        """Exit code and CSV (header, rows) of one run; the CSV is None unless the code is 0."""
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "exp.ini", Path(tmp) / "res"
            cfg.write_text(text)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([command, "--config", str(cfg), "--out", str(out)])
            assert "unknown key" not in err.getvalue()
            assert code in (0, 1, 2, 3)
            csv = out / CSV_OF[command]
            assert csv.exists() == (code == 0)
            if code != 0:
                return code, None
            header, rows = read_csv(csv)
            for row in rows:
                assert all(math.isfinite(float(v))
                           for name, v in zip(header, row) if name != "metric")
            return code, (header, rows)

    @given(text=random_configs(), command=st.sampled_from(SCHEME_COMMANDS))
    @settings(max_examples=50, deadline=None)
    def test_exit_code_and_finite_csv(self, text, command):
        # each fan of at most 4000 steps, and each mollified step's window of at most 4000 points
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheme, "STEP_CAP", 4000)
            code, table = self.run(text, command)
        if code == 0:
            assert table[1]

    @given(run=probe_configs())
    @settings(max_examples=50, deadline=None)
    def test_probe_commands(self, run):
        command, text = run
        code, table = self.run(text, command)
        if code == 0 and command != "jumpmap":
            header, rows = table
            assert rows
            assert all(0.0 <= float(row[header.index("value")]) <= 1.0 for row in rows)
