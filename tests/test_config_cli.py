"""INI config parsing and the command line entry points."""

import importlib
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracle
from bvode import ConfigError, GridPath, cli, load_config, mollify, scheme
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
        assert cfg.mu_name == "sigma"

    def test_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[run]\n"))
        assert cfg.x0 == 1.0
        assert cfg.n_offsets == 16
        assert cfg.driver is None
        assert cfg.mu is None
        assert cfg.u_probes == mollify.DEFAULT_U_PROBES
        assert cfg.out_dir == "."

    def test_field_constant_overrides(self, tmp_path):
        cfg = load_config(write(tmp_path, """
            [field]
            name = sin
            amp = 2.0
            freq_x = 3.0
            lipschitz = 10.0
            [run]
            """))
        assert cfg.field.lipschitz_const == 10.0
        assert cfg.field.growth_const == 2.0

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
        ("[field]\nname = cubic\n[run]\n", "[field].name"),
        ("[mollifier]\nprofile = gaussian\n[run]\n", "[mollifier].profile"),
        ("[mollifier]\nprofile = uniform\nalpha = 1\ntable = 8:0.1\n",
         "[mollifier].table"),
        ("[mollifier]\nprofile = uniform\nmeshes = 8, x\nalpha = 1\n",
         "[mollifier].meshes"),
        ("[sigma]\nintervals = 0.1:0.6, 0.4:0.8\n[run]\n", "[sigma].intervals"),
        ("[run]\ndeltas = 0.5, 1.5\n", "[run].deltas"),
        ("[run]\nn_offsets = 0\n", "[run].n_offsets"),
        ("[run]\nv_max = -1\n", "[run].v_max"),
        ("[run]\nmollify_f = maybe\n", "[run].mollify_f"),
        ("[run]\nmu = cauchy\n", "[run].mu"),
        ("[run]\nmu = sigma\n", "[run].mu"),
        ("[run]\nx0 = abc\n", "[run].x0"),
    ])
    def test_errors_name_their_key(self, tmp_path, text, needle):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert needle in str(err.value)

    def test_documented_configs_load(self, tmp_path, monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        cfg = load_config(write(tmp_path, readme.split("```ini\n")[1].split("```")[0]))
        assert cfg.zeta == 0.5 and cfg.sigma is not None
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
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["study", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["study", "--config", cfg, "--out", str(out2),
                     "--threads", "4"]) == 0
        assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
        header, rows = read_csv(out1 / "study.csv")
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
    ])
    def test_unread_key_exits_one(self, tmp_path, capsys, section, key, text):
        assert main(["classify", "--config", write(tmp_path, text)]) == 1
        assert f"config error: [{section}].{key}: unknown key" in capsys.readouterr().err

    def test_bad_config_file_exits_one(self, tmp_path, capsys):
        assert main(["study", "--config", str(tmp_path / "missing.ini")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_step_cap_exits_two(self, tmp_path, capsys):
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
            step_cap = 1000
            """)
        assert main(["solve-scheme", "--config", cfg,
                     "--out", str(tmp_path / "res")]) == 2
        assert "step limit" in capsys.readouterr().err

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
                                      ["jumpmap", "--threads", "2"]])
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

    def test_out_dir_from_config(self, tmp_path):
        target = tmp_path / "from_cfg"
        cfg = write(tmp_path, FULL + f"out = {target}\n")
        assert main(["solve-limit", "--config", cfg]) == 0
        assert (target / "limit_path.csv").exists()


class TestCsvWriter:
    """The block writer is byte-identical to the value-by-value oracle."""

    @staticmethod
    def both(tmp_path, header, make_rows, new_rows=None):
        new = cli._write_csv(str(tmp_path / "new"), "t.csv", header, (new_rows or make_rows)())
        old = oracle._write_csv(str(tmp_path / "old"), "t.csv", header, make_rows())
        return Path(new).read_bytes(), Path(old).read_bytes()

    @pytest.mark.parametrize("blocks", [None, (5, 7)], ids=["default", "small-blocks"])
    def test_grid_path(self, tmp_path, monkeypatch, blocks):
        if blocks:
            monkeypatch.setattr(scheme, "ROW_BLOCK", blocks[0])
            monkeypatch.setattr(cli, "CSV_BLOCK", blocks[1])
        values = np.array([[-0.0, 0.1, 1e-310, -1e300, 2.5, 2.5],
                           [0.0, -1.0 / 3.0, np.nan, np.inf, 7.0, 1e22]])
        gp = GridPath(offsets=np.array([0.0, 0.0125]), values=values,
                      lengths=np.array([5, 6]), n=8, h=0.025, profile_name="uniform",
                      domain=(0.0, 0.1))
        header = ("offset_index", "tau", "k", "t", "x")
        new, old = self.both(tmp_path, header, lambda: oracle.grid_rows(gp), gp.rows)
        assert new == old
        assert b"\n0,0,0,0,-0\n" in new

    def test_mixed_scalar_types(self, tmp_path):
        def rows():
            for i in range(40):
                yield (bool(i % 2), np.bool_(i % 3 == 0), np.int64(-i), i * 10 ** 15,
                       np.float64(i) / 7.0, -0.0 if i % 2 else 1e-300, f"gap@{i / 8:g}")
        new, old = self.both(tmp_path, tuple("abcdefg"), rows)
        assert new == old

    def test_empty_table(self, tmp_path):
        new, old = self.both(tmp_path, ("a", "b"), lambda: iter(()))
        assert new == old == b"a,b\n"

    @pytest.mark.parametrize("command,csv", [
        ("solve-scheme", "grid_path.csv"),
        ("solve-limit", "limit_path.csv"),
        ("study", "study.csv"),
        ("jumpmap", "jumpmap.csv"),
        ("sigma", "sigma_probes.csv"),
        ("classify", "classify_evidence.csv"),
    ])
    def test_commands(self, tmp_path, monkeypatch, command, csv):
        cfg = write(tmp_path, FULL)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "new")]) == 0
        monkeypatch.setattr(cli, "_write_csv", oracle._write_csv)
        monkeypatch.setattr(GridPath, "rows", oracle.grid_rows)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "old")]) == 0
        new = (tmp_path / "new" / csv).read_bytes()
        assert new == (tmp_path / "old" / csv).read_bytes()
        assert new.count(b"\n") > 2


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
