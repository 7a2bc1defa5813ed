"""The pinned outputs of the ``bvode`` command line, one case per run.

A case is one invocation.  ``ini`` is its config text, written to a file
and passed as ``--config``, with ``--out`` a fresh directory (``None`` runs
``argv`` alone).  ``argv`` is the subcommand and any further option.  A run
must exit with ``code``, and the first line of its stdout (exit 0) or of
its stderr (any other code) must match ``line`` (``re.match``).  A case
that writes a CSV names it; it may give the CSV's line count, header
included (``wc -l``), its sha256, and a ``check`` of its text for what no
other field says.

A sha256 is pinned only where the bytes do not depend on the platform; the
comment above each pinned case says why.  A derived config is its base
text with one line replaced (:func:`derive`).

``tests/test_pinned.py`` runs every case through ``cli.main`` and, when a
``bvode`` script is on PATH, through that script too.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class Case(NamedTuple):
    ini: str | None
    argv: tuple
    line: str | None = None
    code: int = 0
    csv: str | None = None
    lines: int | None = None
    sha256: str | None = None
    check: Callable[[str], None] | None = None


def derive(base: str, old: str, new: str) -> str:
    """base with its one line old replaced by new, as ``sed 's/^old$/new/'`` would."""
    lines = base.split("\n")
    assert lines.count(old) == 1, old
    return "\n".join(new if line == old else line for line in lines)


def jump_rows(count: int):
    """A limit_path.csv check: exactly count rows end in is_jump = 1."""
    def check(text):
        found = sum(line.endswith(",1") for line in text.split("\n"))
        assert found == count, f"{found} jump rows, want {count}"
    return check


def grid_in_order(offsets: int):
    """A grid_path.csv check: its header; offset_index climbs from 0 to offsets - 1
    by at most 1 a row; k restarts at 0 and climbs by 1 within an offset; and
    every float field is its own %.17g text."""
    def check(text):
        lines = text.split("\n")
        assert lines[0] == "offset_index,tau,k,t,x" and lines[-1] == "", lines[0]
        last_j, last_k = -1, -1
        for line in lines[1:-1]:
            j, tau, k, t, x = line.split(",")
            j, k = int(j), int(k)
            assert j in (last_j, last_j + 1), line
            assert k == (last_k + 1 if j == last_j else 0), line
            assert all(v == "%.17g" % float(v) for v in (tau, t, x)), line
            last_j, last_k = j, k
        assert last_j == offsets - 1, last_j
    return check


CLASSIFY = "[mollifier]\nprofile = uniform\nalpha = 2\n"
LIMIT = ("[driver]\nbreakpoints = 0, 0.5, 1\ncoefficients = 0, 2; 1, 0, -4\n"
         "jumps = 0.25:1.5, 0.75:-0.5\n[field]\nname = tanh\n[run]\nmu = lebesgue\n"
         "sample_times = 0.1, 0.6\n")
SCHEME = ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0, 1\njumps = 0.5:1\n[field]\n"
          "name = tanh\n[mollifier]\nprofile = uniform\nalpha = 2\n[run]\nn = 8\n"
          "n_offsets = 4\n")
SIGMA = ("[mollifier]\nprofile = uniform\nalpha = 2\nmeshes = 16, 32, 64\n[run]\n"
         "deltas = 0.25, 0.75\nu_probes = 0, 0.5, 1\n")
TRISIGMA = ("[mollifier]\nprofile = triangular\nalpha = 2\nmeshes = 16, 32, 64, 128\n"
            "[run]\ndeltas = 0.25, 0.75\nu_probes = 0, 0.5, 1\n")
STUDY = ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0, 1\n[field]\nname = tanh\n"
         "[mollifier]\nprofile = uniform\nalpha = 2\nmeshes = 8, 16, 32\n[run]\n"
         "n_offsets = 4\n")
JUMPMAP = "[sigma]\nintervals = 0.2:0.5\n[run]\nx0 = 0.3\n"
BUMP = "[mollifier]\nprofile = bump\nalpha = 2\n"
LINEAR = ("[driver]\nbreakpoints = 0, 0.5, 1\ncoefficients = 0, 2; 1, 0, -4\n"
          "jumps = 0.25:1.5, 0.75:-0.5\n[field]\nname = linear\n[run]\nmu = dirac\n"
          "sample_times = 0.1, 0.6\n")
SINGLE_JUMP = ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0\njumps = 0.5:1.0\n[field]\n"
               "name = linear\n[mollifier]\nprofile = uniform\nalpha = 2\n"
               "meshes = 64, 128, 256, 512\n[sigma]\nintervals = 0.2:0.5\n[run]\nx0 = 1.0\n"
               "mu = lebesgue\nn = 64\n")
TABLE_JUMP = ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0\njumps = 0.5:1.0\n[field]\n"
              "name = linear\n[mollifier]\nprofile = uniform\ntable = 64:0.000244140625, "
              "128:6.103515625e-05, 256:1.52587890625e-05, 512:3.814697265625e-06\n[sigma]\n"
              "intervals = 0.2:0.5\n[run]\nx0 = 1.0\nmu = lebesgue\nn = 64\n")
UNEVEN = ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0\njumps = 0.5:1.0\n[field]\n"
          "name = linear\n[mollifier]\nprofile = uniform\ntable = 64:0.0003\n[sigma]\n"
          "intervals = 0.2:0.5\n[run]\nx0 = 1.0\nmu = lebesgue\nn = 64\nn_offsets = 7\n")
SPLIT = ("[driver]\nbreakpoints = 0, 0.5, 1\ncoefficients = 0, 2; 1, 0, -4\n"
         "jumps = 0.25:1.5, 0.75:-0.5\n[field]\nname = tanh\n[mollifier]\nprofile = uniform\n"
         "alpha = 2\n[run]\nn = 32\nn_offsets = 20\n")
LONG = ("[sigma]\nintervals = "
        + ", ".join(f"{(2 * i + 1) / 8000}:{(2 * i + 2) / 8000}" for i in range(4000))
        + "\n[run]\njump_q = 0\njump_eps = 0.1, 0.3\njump_t = 0.25, 0.5, 0.75, 1\n")
FAN = ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0\njumps = 0.5:1\n[field]\nname = linear\n"
       "[mollifier]\nprofile = uniform\nalpha = 2\n[run]\nn = 8192\n")
GRID = ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0, 1\n[field]\nname = tanh\n[run]\n"
        "v_max = 1e-13\n")
EMPTY = "[mollifier]\nprofile = uniform\nalpha = 2\n[run]\nu_probes =\n"
TABLE = ("[driver]\nbreakpoints = 0, 1\ncoefficients = 0, 1\njumps = 0.5:1\n[field]\n"
         "name = tanh\n[mollifier]\nprofile = uniform\ntable = 64:0.001, 128:0.0005, "
         "256:0.0002\n[run]\nn = 100\n")

CASES = {
    "help": Case(None, ("--help",), r"usage: bvode "),
    # 5 deltas x 21 probes x 10 meshes, plus the header
    "classify": Case(CLASSIFY, ("classify",), r"classify: Flow",
                     csv="classify_evidence.csv", lines=1051),
    "limit": Case(LIMIT, ("solve-limit",), r"solve-limit: 1183 samples, final x=1\.87823011 ",
                  csv="limit_path.csv", lines=1184, check=jump_rows(2)),
    # 4 offsets of 65 lattice points (h = 1/64), plus the header
    "scheme": Case(SCHEME, ("solve-scheme",), r"solve-scheme: n=8 h=0\.015625 offsets=4 ",
                   csv="grid_path.csv", lines=261, check=grid_in_order(4)),
    # 2 deltas x 3 probes x 3 meshes, plus the header.  Each distinct delta, u and
    # n is formatted once; the uniform profile's tail and inverse use + - * /
    # alone, and h = n^-2 is exact on power-of-two meshes
    "sigma": Case(SIGMA, ("sigma",), csv="sigma_probes.csv", lines=19,
                  sha256="e84ef9dd4e225fe556e05a82157b9fc205bdd50588c87a2a9a57350589e9dfa5"),
    # the triangular profile, built by name: its tail and inverse use + - * / and
    # sqrt alone, and h = n^-2 is exact on power-of-two meshes, so the bytes do
    # not depend on the platform; 2 deltas x 3 probes x 4 meshes, plus the header
    "trisigma": Case(TRISIGMA, ("sigma",), csv="sigma_probes.csv", lines=25,
                     sha256="6e79e270544f78e9c82e982aac0b27bc9bc29ce3839fc0d78fdf7548d14dd4b2"),
    # the L1 score, pinned to its value; l1 and l1_rel for each of 3 meshes, plus
    # the header.  One study repeats no fan, so kept results change none of the bytes
    "study": Case(STUDY, ("study",),
                  r"study: 3 meshes, final l1=0\.000959981 \(rel 0\.000675\), decreasing=True ",
                  csv="study.csv", lines=7,
                  sha256="ff8df21f176fe320365c8bc843c54a5f8b5a4f713ce41e4220ca3bf3bad7a3cb"),
    # the grid is drawn from the seed: 108 of its 6 x 4 x 5 evaluations, plus the
    # header; the one-pass walk gives the bits of the per-stretch sums
    "jumpmap": Case(JUMPMAP, ("jumpmap", "--seed", "0"), csv="jumpmap.csv", lines=109,
                    sha256="7f451ced1d2eb0b73daa6fbcd86b8e3a18f74e92e271f09aa2e116d81a806c83"),
    # The bump's tables are built with exp and read with interp, so its bytes
    # depend on the platform's libm and are not pinned: these cases read the
    # verdict, the summary and the line counts
    "bump-classify": Case(BUMP, ("classify",), r"classify: Flow",
                          csv="classify_evidence.csv", lines=1051),
    # 5 deltas x 21 probes x 10 meshes, plus the header
    "bump-sigma": Case(BUMP, ("sigma",), csv="sigma_probes.csv", lines=1051),
    # 4 offsets of 65 lattice points (h = 1/64), plus the header
    "bump-scheme": Case(derive(SCHEME, "profile = uniform", "profile = bump"), ("solve-scheme",),
                        r"solve-scheme: n=8 h=0\.015625 offsets=4 ", csv="grid_path.csv",
                        lines=261, check=grid_in_order(4)),
    # a linear field under a dirac measure steps with + - * / alone, and the
    # grid's cuts add sqrt, so these bytes do not depend on the platform's tanh or exp
    "linear": Case(LINEAR, ("solve-limit",), r"solve-limit: 1183 samples, final x=1\.250000001 ",
                   csv="limit_path.csv",
                   sha256="31bc00cbad0b3716a5c15dfb00e9fc9f0f43b5f71d8a92698d555ad2686951a4"),
    # The README's single_jump.cfg at n = 64: every lattice window of its
    # pure-jump driver ends on a flat piece, read with + - * / and no matrix
    # product, and the linear field's scan is + - * / too, so these bytes do not
    # depend on the BLAS build
    "step-study": Case(SINGLE_JUMP, ("study",),
                       r"study: 4 meshes, final l1=0\.00272178 \(rel 0\.00146\), decreasing=True ",
                       csv="study.csv",
                       sha256="7456f9f31ed2d2ef5b3a3d3794e29bb8b230a6c08760ca4d6a466005667cd880"),
    "step-scheme": Case(SINGLE_JUMP, ("solve-scheme",),
                        r"solve-scheme: n=64 h=0\.000244141 offsets=16 ", csv="grid_path.csv",
                        sha256="1ab5b493febc1c53b59d0afd4894c94d19aae75c5116d3003849c155d9e54e10"),
    # the same driver under mu = dirac, the Ito limit: the L1 score's read-out
    # through the limit path's kept cells, and the limit path itself, with the
    # same operations
    "dirac-study": Case(derive(SINGLE_JUMP, "mu = lebesgue", "mu = dirac"), ("study",),
                        r"study: 4 meshes, final l1=0\.359215 \(rel 0\.239\), decreasing=True ",
                        csv="study.csv",
                        sha256="56a6953d778c18b659c3e94f386bbcdf6be260f34305edad6018d08bfc76ee3a"),
    "dirac-limit": Case(derive(SINGLE_JUMP, "mu = lebesgue", "mu = dirac"), ("solve-limit",),
                        csv="limit_path.csv",
                        sha256="f4a7214b8ec88a641204a8f33d3495c0f42fa4bf4aa3c27283a937ab4147afe5"),
    # The steps of the table are exact powers of two, and the uniform profile and
    # the linear field use + - * / alone, so the bytes do not depend on the
    # platform.  A table and a power rule with equal steps give equal bytes:
    # study.csv is step-study's pin, and sigma_probes.csv is also that of
    # alpha = 2 on these meshes
    "table-sigma": Case(TABLE_JUMP, ("sigma",), csv="sigma_probes.csv",
                        sha256="f753d901fee60835f6cc704ab570da090b54a4d310f7479afe933be5483e0549"),
    "table-study": Case(TABLE_JUMP, ("study",),
                        r"study: 4 meshes, final l1=0\.00272178 \(rel 0\.00146\), decreasing=True ",
                        csv="study.csv",
                        sha256="7456f9f31ed2d2ef5b3a3d3794e29bb8b230a6c08760ca4d6a466005667cd880"),
    # Offsets 0-2 take 3,334 steps and offsets 3-6 take 3,333, so the fan's
    # counts step down from offset 0's; 3 offsets of 3,335 lattice points and 4
    # of 3,334 are more than one 8,192-row block, so the encoder writes them,
    # in three blocks whose bounds fall inside offsets.  The uniform profile, the
    # pure-jump driver and the linear field use + - * / alone, so the bytes do
    # not depend on the platform
    "uneven": Case(UNEVEN, ("solve-scheme",), r"solve-scheme: n=64 h=0\.0003 offsets=7 ",
                   csv="grid_path.csv", lines=23342,
                   sha256="a8692bfd95feb7726bdd61663a6c98b9b5ab21e0fbe95f74f43e3eeb829fe9dc"),
    # 20 offsets of 1,025 lattice points (h = 1/1024) are more than one
    # 8,192-row block, so the encoder writes them; tanh makes the values
    # platform-dependent, so the check reads the text itself
    "split": Case(SPLIT, ("solve-scheme",), r"solve-scheme: n=32 h=0\.000976562 offsets=20 ",
                  csv="grid_path.csv", lines=20501, check=grid_in_order(20)),
    # 4,000 staircase intervals; the walk's speed bound is
    # test_jumpmap.py::TestPhiSolveWalk::test_long_staircase_is_linear
    "long-staircase": Case(LONG, ("jumpmap",), r"jumpmap: 8 evaluations ", csv="jumpmap.csv",
                           lines=9),
    # 16 offsets of 8192^2 steps pass the per-offset cap; the fan as a whole must not
    "fan-cap": Case(FAN, ("solve-scheme",), r"step limit:", code=2),
    # a unit-slope driver at v_max = 1e-13 asks for 1.2e13 cuts, past the cap
    "grid-cap": Case(GRID, ("solve-limit",), r"step limit: variation grid needs", code=2),
    # an empty [run] list is a config error, not a traceback
    "empty-probes": Case(EMPTY, ("classify",), r"config error: \[run\]\.u_probes", code=1),
    # a table schedule with no step for [run] n is a config error, not a traceback
    "table-without-n": Case(TABLE, ("solve-scheme",),
                            r"config error: \[run\]\.n: schedule table has no entry for n=100",
                            code=1),
    # refused inputs, each a config error naming its key
    "field-without-name": Case(derive(LIMIT, "name = tanh", ""), ("solve-limit",),
                               r"config error: \[field\]\.name: required key is missing$",
                               code=1),
    "bad-deltas": Case(derive(SIGMA, "deltas = 0.25, 0.75", "deltas = 0.1, abc"), ("sigma",),
                       r"config error: \[run\]\.deltas: expected comma-separated numbers",
                       code=1),
    "bad-jumps": Case(derive(SCHEME, "jumps = 0.5:1", "jumps = 0.5"), ("solve-scheme",),
                      r"config error: \[driver\]\.jumps: expected 'a:b' entries", code=1),
    "atom-outside": Case(derive(LIMIT, "mu = lebesgue", "mu = dirac:2"), ("solve-limit",),
                         r"config error: \[run\]\.mu: atom location 2\.0 outside \[0, 1\]$",
                         code=1),
    "jumps-without-mu": Case(derive(LIMIT, "mu = lebesgue", ""), ("solve-limit",),
                             r"config error: \[run\]\.mu: required when the driver has jumps$",
                             code=1),
}
