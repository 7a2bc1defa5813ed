"""Config-driven command line: run solvers and studies, emit CSV tables.

Every subcommand reads one INI config; its handler returns one table and a
summary, and :func:`main` writes the table as CSV into the output directory
(atomically, via a temp file and rename) and prints the summary.  One
packer cuts a table into blocks of ``CSV_BLOCK`` rows, which may span
groups; a table of one block is formatted by one ``%`` call, each block of
a longer one by a numpy encoder that writes the same bytes.  Exit codes: 0
success, 1 invalid config or output error (an output directory or CSV that
cannot be written), 2 step cap or argparse usage error, 3 non-finite
result (no CSV is written then).  Only this module lays out tables: a
table is an iterable of groups ``(prefix, columns)``, where the numbers in
``prefix`` open every line of the group (``()`` for none) and ``columns``
are equal-length 1-D arrays, one per remaining header field, each field of
one dtype in every group.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys

import numpy as np

from .analysis import convergence_study
from .config import ConfigError, ExperimentConfig, load_config
from .jumpmap import JumpMeasure, measure_from_sigma, phi_solve, phi_explicit_ramp, ramp_z
from .limit import solve_limit
from .mollify import classify_regime, sigma_delta_limit
from .scheme import StepLimitError, solve_grid


# rows per CSV block; bounds the text held in memory.  A table longer than
# one block goes to the encoder, whose temporaries scale with the block:
# blocks of 16,384 rows raised scheme_fan's peak RSS
CSV_BLOCK = 8192


class _NonFinite(Exception):
    """A non-finite result; the message locates it."""


def _spec(dtype) -> str:
    """%-format of one CSV column of the given dtype."""
    return {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}.get(dtype.kind, "%s")


def _head(prefix) -> str:
    """The text of a group's prefix, each number followed by a comma."""
    return "".join(_spec(np.asarray(v).dtype) % v + "," for v in prefix)


def _blocks(groups):
    """The groups' rows in blocks of CSV_BLOCK rows (the last may hold fewer),
    each a list of pieces ``(head, columns)``: the text of a group's prefix
    and slices of its columns.  A block may span groups."""
    pieces, rows = [], 0
    for prefix, columns in groups:
        head = _head(prefix)
        columns = [np.asarray(c) for c in columns]
        m, s = len(columns[0]), 0
        while s < m:
            take = min(m - s, CSV_BLOCK - rows)
            pieces.append((head, [c[s:s + take] for c in columns]))
            s += take
            rows += take
            if rows == CSV_BLOCK:
                yield pieces
                pieces, rows = [], 0
    if pieces:
        yield pieces


def _grid_table(gp):
    """Groups of a GridPath's table (offset_index, tau, k, t, x), one per offset."""
    k = np.arange(gp.values.shape[1])
    for j, (tau, m) in enumerate(zip(gp.offsets.tolist(), gp.lengths.tolist())):
        yield (j, tau), (k[:m], tau + k[:m] * gp.h, gp.values[j, :m])


def _probe_table(probe):
    """The one group of a probe grid's table (delta, u, n, value): delta-major, then u, then n.

    Each distinct delta, u and n is formatted once; the text "delta,u,n" of a
    row is one column, joined from those strings by broadcasting."""
    d, u, n = (np.array([_spec(x.dtype) % v for v in x.ravel().tolist()],
                        dtype=object).reshape(x.shape)
               for x in map(np.asarray, (probe.delta, probe.u, probe.n_values)))
    keys, values = np.broadcast_arrays(d[..., None] + "," + u[..., None] + "," + n,
                                       probe.values)
    return [((), [keys.ravel(), values.ravel()])]


def _format(pieces):
    """The CSV text of one block's pieces ``(head, columns)``, by one ``%`` call
    over their line formats: each piece's head, then one spec per column."""
    columns = [np.concatenate(parts).tolist() for parts in zip(*(c for _, c in pieces))]
    width = len(columns)
    values = [None] * (width * len(columns[0]))
    for i, column in enumerate(columns):
        values[i::width] = column
    line = ",".join(_spec(c.dtype) for c in pieces[0][1]) + "\n"
    return ("".join((head + line) * len(c[0]) for head, c in pieces) % tuple(values)).encode()


# -- the exact encoder for tables longer than one block ----------------------
#
# A block's columns are encoded into (rows, width) uint8 arrays, one value per
# row, padded with NUL bytes.  They are laid out side by side in one matrix
# with the prefix text and the separators, and the matrix's bytes less the
# NULs are the block's text.  Digits are made as little-endian uint64 lanes of
# eight ASCII bytes, the first digit in the lowest byte.

_ASCII_ZEROS = 0x3030303030303030
# _LOW[:, b]: three lanes (24 bytes) with their low b bytes set, b = 0..24
_LOW = np.array([[(1 << 8 * min(max(b - 8 * i, 0), 8)) - 1 for b in range(25)]
                 for i in range(3)], dtype=np.uint64)
_HIGH = ~_LOW
# _LEAD[neg, z]: the bytes before a number's first digit, "-" when neg, then z zeros
_LEAD = np.array([[int.from_bytes(sign + b"0" * z, "little") for z in range(5)]
                  for sign in (b"", b"-")], dtype=np.uint64)
# _P10[:, k]: 10**k for k = 0..22 (each exact), and its high and low halves in
# Dekker's split
_SPLIT = 134217729.0  # 2**27 + 1
_P10 = np.array([float(10 ** k) for k in range(23)])
_P10_HI = _SPLIT * _P10 - (_SPLIT * _P10 - _P10)
_P10 = np.array([_P10, _P10_HI, _P10 - _P10_HI])
# 10**1 .. 10**16: an integer below 10**17 has one digit more than it has of these
_P10_INT = np.array([10 ** k for k in range(1, 17)], dtype=np.uint64)


def _lane8(x):
    """The 8 ASCII digits of each uint64 x < 10**8, as one lane."""
    hi = x // 10000
    v = hi | ((x - hi * 10000) << 32)  # two 4-digit halves
    h = ((v * 10486) >> 20) & 0x7F0000007F  # v // 100 in each half
    v = h | ((v - h * 100) << 16)  # four 2-digit quarters
    t = ((v * 103) >> 10) & 0x000F000F000F000F  # v // 10 in each quarter
    return t | ((v - t * 10) << 8) | _ASCII_ZEROS


def _digits(n):
    """Three lanes (rows) holding the 17 ASCII digits of each uint64 n < 10**17
    in bytes 0..16."""
    lanes = np.empty((3, n.size), dtype=np.uint64)
    lanes[0] = n // 10 ** 9
    r = n - lanes[0] * 10 ** 9
    lanes[1] = r // 10
    lanes[2] = (r - lanes[1] * 10) | 0x30
    lanes[:2] = _lane8(lanes[:2])
    return lanes


def _shifted(lanes, bits):
    """The lanes' 24 bytes moved ``bits / 8`` bytes later (0 to 56 bits, one
    count or one per number); bytes moved past the last lane are lost."""
    out = lanes << bits
    carry = lanes[:-1] >> (np.uint64(63) - bits)  # uint64 under numpy 1's promotion too
    carry >>= 1  # two shifts: one of 64 bits is undefined
    out[1:] |= carry
    return out


def _text(lanes):
    """Rows of 24 bytes, the lanes of each number in order."""
    return np.ascontiguousarray(lanes.T, dtype="<u8").view(np.uint8)


def _trailing_zeros(lane):
    """Trailing '0' digits (0 to 8) of a lane of 8 ASCII digits.

    The bit length of the digit values comes from the exponent of their float,
    which rounds no bit past the highest set one: each byte is at most 9."""
    bits = np.frexp((lane ^ _ASCII_ZEROS).astype(np.float64))[1]
    return 7 - ((bits - 1) >> 3)


def _round17(a, x):
    """``a * 10**(16 - x)`` rounded half to even, as int64, where it is at least 2**53.

    Dekker's product gives it as ``p + e`` exactly, ``p`` the float product,
    which is an integer from 2**53 on; so the rounding is that of ``e``, with
    a tie settled on the parity of ``p + floor(e)``."""
    b, bh, bl = _P10.take(16 - x, axis=1)
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    fe = np.floor(e)
    fr = e - fe
    base = p.astype(np.int64) + fe.astype(np.int64)
    return base + ((fr > 0.5) | ((fr == 0.5) & (base & 1 == 1)))


def _python_rows(text, rows, strings):
    """The text with the given rows replaced by the strings, widened to fit them."""
    if not rows.size:
        return text
    s = np.array([t.encode() for t in strings], dtype=bytes)
    if s.itemsize > text.shape[1]:
        text = np.pad(text, ((0, 0), (0, s.itemsize - text.shape[1])))
    text[rows] = 0
    text[rows, :s.itemsize] = s.view(np.uint8).reshape(rows.size, s.itemsize)
    return text


def _float_text(v):
    """``'%.17g' % x`` for each float x of v, as rows as wide as the longest.

    A finite x with 1e-4 <= |x| < 1e16 is written from its 17 significant
    digits N = |x| 10**(16 - X) rounded half to even, 10**16 <= N < 10**17,
    the exponent X started at floor(log10 |x|) and corrected by one until N
    fits; zeros take N = 0 and X = 0.  The sign and, for X < 0, "0." and
    -X - 1 zeros come before the digits, the point goes after digit X >= 0,
    and trailing zeros of the fraction go, with the point when none is left.
    Python formats the other values (non-finite, subnormal, below 1e-4 or
    from 1e16 on) one at a time."""
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    n = _round17(a, x)
    bad = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
    while bad.size:  # log10 is off near powers of ten; N may round up to 10**17
        x[bad] += np.where(n[bad] < 10 ** 16, -1, 1)
        n[bad] = _round17(a[bad], x[bad])
        bad = bad[(n[bad] < 10 ** 16) | (n[bad] >= 10 ** 17)]
    n[~fast] = 0
    x[~fast] = 0
    lanes = _digits(n.view(np.uint64))
    del a, n  # a block's temporaries set the writer's peak memory
    t1 = _trailing_zeros(lanes[1])
    zeros = (lanes[2] == 0x30) * (1 + t1 + (t1 == 8) * _trailing_zeros(lanes[0]))
    neg = np.signbit(v)
    z = np.maximum(-x, 0)
    lanes = _shifted(lanes, (z + neg).astype(np.uint64) * 8)
    lanes[0] |= _LEAD[neg.view(np.int8), z]
    point = neg + np.maximum(x, 0) + 1
    tail = _shifted(lanes, np.uint64(8))  # the bytes from the point on, moved past it
    tail &= _HIGH.take(point + 1, axis=1)
    mark = _LOW.take(point, axis=1)
    lanes &= mark
    lanes |= tail
    del tail
    mark ^= _LOW.take(point + 1, axis=1)  # the point's byte
    mark &= 0x2E2E2E2E2E2E2E2E
    lanes |= mark
    frac = np.maximum(16 - zeros - x, 0)  # fraction digits left when x >= 0
    size = neg + np.where(x >= 0, x + 1 + (frac > 0) * (frac + 1), 18 - x - zeros)
    lanes &= _LOW.take(size, axis=1)
    slow = np.flatnonzero(~fast & (v != 0.0))
    return _python_rows(_text(lanes)[:, :int(size.max())], slow,
                        ["%.17g" % s for s in v[slow].tolist()])


def _int_text(k):
    """``'%d' % i`` for each integer or bool i of k, as rows as wide as the longest."""
    k = np.asarray(k)
    k = k.astype(np.uint64 if k.dtype.kind == "u" else np.int64)  # no abs overflows below
    fast = k < 10 ** 17 if k.dtype.kind == "u" else (k < 10 ** 17) & (k > -10 ** 17)
    m = np.where(fast, np.abs(k), 0).astype(np.uint64)
    width = 1 + np.searchsorted(_P10_INT, m, side="right")
    lanes = _digits(m)
    lanes &= _HIGH.take(17 - width, axis=1)
    w = int(width.max())
    text = np.empty((k.size, w + 1), dtype=np.uint8)
    text[:, 0] = (k < 0) * 0x2D
    text[:, 1:] = _text(lanes)[:, 17 - w:17]
    slow = np.flatnonzero(~fast)
    return _python_rows(text, slow, ["%d" % s for s in k[slow].tolist()])


def _str_text(values):
    """``'%s' % s`` for each s of values, as rows as wide as the longest (a
    NUL in a string would be lost with the padding; the tables write none)."""
    s = np.array([str(t).encode() for t in values.tolist()], dtype=bytes)
    return s.view(np.uint8).reshape(s.size, s.itemsize)


_TEXT = {"%d": _int_text, "%.17g": _float_text, "%s": _str_text}


def _block_text(pieces):
    """The CSV text of one block's pieces ``(head, columns)``, head the
    prefix's text, as a uint8 array; each column is encoded once, over all
    the pieces."""
    fields = [_TEXT[_spec(parts[0].dtype)](np.concatenate(parts))
              for parts in zip(*(columns for _, columns in pieces))]
    rows = [len(columns[0]) for _, columns in pieces]
    at = max(len(head) for head, _ in pieces)
    out = np.zeros((sum(rows), at + sum(f.shape[1] + 1 for f in fields)), dtype=np.uint8)
    r = 0
    for (head, _), m in zip(pieces, rows):
        out[r:r + m, :len(head)] = np.frombuffer(head.encode(), dtype=np.uint8)
        r += m
    for f in fields:
        out[:, at:at + f.shape[1]] = f
        at += f.shape[1] + 1
        out[:, at - 1] = ord(",")
    out[:, -1] = ord("\n")
    del fields  # before the compaction's mask and result are made
    flat = out.ravel()
    return flat[flat != 0]


def _write_csv(out_dir: str, filename: str, header, groups) -> str:
    """Write the header and then each group ``(prefix, columns)`` as CSV text.

    A table of one block (``CSV_BLOCK`` rows) is formatted by ``%``, the
    blocks of a longer one by the exact encoder; the bytes are the same.
    The text goes to ``<path>.tmp.<pid>``, which replaces ``path`` once it
    is complete; on an exception it is removed and ``path`` is left as it was."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            blocks = _blocks(groups)
            first = list(itertools.islice(blocks, 2))
            text = _block_text if len(first) > 1 else _format
            for block in itertools.chain(first, blocks):
                fh.write(text(block))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return path


def _mu_for(cfg: ExperimentConfig) -> JumpMeasure:
    if cfg.mu is not None:
        return cfg.mu
    if cfg.driver is not None and cfg.driver.jump_epochs.size:
        raise ConfigError("run", "mu", "required when the driver has jumps")
    return JumpMeasure.lebesgue()


def _step(sched, n: int, a: float, section: str, key: str) -> float:
    """The schedule's step at mesh n; a config error at [section].key when the
    schedule has none or a lattice from the driver's start a cannot take it."""
    try:
        h = sched.h(n)
    except ValueError as exc:
        raise ConfigError(section, key, str(exc)) from exc
    if not a + h > a:
        raise ConfigError(section, key, f"step h={h!r} at n={n} is below the "
                                        f"float spacing at the driver's start {a!r}")
    return h


# Each handler takes (cfg, args) and returns (filename, header, groups, summary).

def _cmd_solve_scheme(cfg: ExperimentConfig, args):
    L = cfg.need("driver", "driver", "breakpoints")
    f = cfg.need("field", "field", "name")
    profile = cfg.need("profile", "mollifier", "profile")
    sched = cfg.need("schedule", "mollifier", "alpha")
    n = cfg.need("n", "run", "n")
    h = _step(sched, n, L.domain[0], "run", "n")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        gp = solve_grid(f, L, profile, n, h, cfg.x0, n_offsets=cfg.n_offsets,
                        mollify_coefficient=cfg.mollify_coefficient)
    bad = ~np.isfinite(gp.values)
    if bad.any():
        # the earliest non-finite step over the fan, lowest offset first
        first = np.where(bad.any(axis=1), bad.argmax(axis=1), gp.values.shape[1])
        j = int(np.argmin(first))
        k = int(first[j])
        raise _NonFinite(f"non-finite state: offset {j}, step {k}, "
                         f"t={float(gp.offsets[j] + k * h)!r}")
    finals = gp.final_values()
    return ("grid_path.csv", ("offset_index", "tau", "k", "t", "x"), _grid_table(gp),
            f"n={n} h={h:g} offsets={cfg.n_offsets} "
            f"final x in [{finals.min():.6g}, {finals.max():.6g}]")


def _cmd_solve_limit(cfg: ExperimentConfig, args):
    L = cfg.need("driver", "driver", "breakpoints")
    f = cfg.need("field", "field", "name")
    mu = _mu_for(cfg)
    a, b = L.domain
    if bad := [t for t in cfg.sample_times or () if not a <= t <= b]:
        raise ConfigError("run", "sample_times", f"time {bad[0]!r} outside [{a!r}, {b!r}]")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        lp = solve_limit(f, L, mu, cfg.x0, sample_times=cfg.sample_times,
                         v_max=cfg.v_max)
    bad = ~(np.isfinite(lp.x_left) & np.isfinite(lp.x))
    if bad.any():
        raise _NonFinite(f"non-finite state: t={float(lp.t[bad.argmax()])!r}")
    table = [((), (lp.t, lp.x_left, lp.x, lp.is_jump.astype(int)))]
    return ("limit_path.csv", ("t", "x_left", "x", "is_jump"), table,
            f"{lp.t.size} samples, final x={lp.x[-1]:.10g}")


def _cmd_sigma(cfg: ExperimentConfig, args):
    profile = cfg.need("profile", "mollifier", "profile")
    sched = cfg.need("schedule", "mollifier", "alpha")
    deltas = np.asarray(cfg.deltas, dtype=np.float64)
    us = np.asarray(cfg.u_probes, dtype=np.float64)
    probe = sigma_delta_limit(profile, sched, deltas[:, None], us[None, :])
    return ("sigma_probes.csv", ("delta", "u", "n", "value"), _probe_table(probe),
            f"{probe.converged.size} probes ({int(probe.converged.sum())} converged), "
            f"{len(sched.meshes)} meshes each")


def _cmd_classify(cfg: ExperimentConfig, args):
    profile = cfg.need("profile", "mollifier", "profile")
    sched = cfg.need("schedule", "mollifier", "alpha")
    report = classify_regime(profile, sched, deltas=cfg.deltas,
                             u_probes=cfg.u_probes)
    detail = f" ({report.detail})" if report.detail else ""
    return ("classify_evidence.csv", ("delta", "u", "n", "value"), _probe_table(report.probe),
            f"{report.verdict}{detail} max_spread={report.max_spread:.3g}")


def _cmd_study(cfg: ExperimentConfig, args):
    L = cfg.need("driver", "driver", "breakpoints")
    f = cfg.need("field", "field", "name")
    profile = cfg.need("profile", "mollifier", "profile")
    sched = cfg.need("schedule", "mollifier", "alpha")
    key = "table" if sched.table is not None else "meshes"
    if len(sched.meshes) < 3:
        raise ConfigError("mollifier", key, "this subcommand needs at least three meshes")
    mu = _mu_for(cfg)
    for n in sched.meshes:
        _step(sched, n, L.domain[0], "mollifier", key)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        result = convergence_study(f, L, profile, sched, mu, cfg.x0,
                                   n_offsets=cfg.n_offsets,
                                   mollify_coefficient=cfg.mollify_coefficient)
    bad = ~np.isfinite(result.l1_errors)
    if bad.any():
        raise _NonFinite(f"non-finite l1: mesh n={result.ns[bad.argmax()]}")
    # two lines per mesh, l1 then l1_rel
    table = [((), (np.repeat(result.ns, 2), np.repeat(result.h_values, 2),
                   np.tile(["l1", "l1_rel"], len(result.ns)),
                   np.column_stack((result.l1_errors, result.rel_errors)).ravel()))]
    return ("study.csv", ("n", "h_n", "metric", "value"), table,
            f"{len(result.ns)} meshes, final l1={result.l1_errors[-1]:.6g} "
            f"(rel {result.rel_errors[-1]:.3g}), decreasing={result.decreasing}")


def _cmd_jumpmap(cfg: ExperimentConfig, args):
    # phi cannot be non-finite: ramp_z takes values in [0, 1] and the
    # measure has unit mass, so phi lies in [x, x + 1]
    sigma = cfg.need("sigma", "sigma", "intervals")
    mu = measure_from_sigma(sigma)
    rng = np.random.default_rng(args.seed)
    qs = cfg.jump_q if cfg.jump_q is not None else tuple(rng.uniform(0.0, 1.0, 6))
    eps_list = cfg.jump_eps if cfg.jump_eps is not None else tuple(rng.uniform(0.05, 0.6, 4))
    ts = cfg.jump_t if cfg.jump_t is not None else tuple(rng.uniform(0.0, 1.0, 5))
    x_ref = cfg.x0
    rows = []
    for q in qs:
        for eps in eps_list:
            z = ramp_z(q, eps, x_ref)
            for t in ts:
                try:
                    oracle = phi_explicit_ramp(sigma, q, eps, x_ref, t)
                except ValueError:
                    continue
                phi = phi_solve(z, x_ref, t, mu)
                rows.append((q, eps, t, phi, oracle, abs(phi - oracle)))
    columns = np.array(rows, dtype=np.float64).reshape(-1, 6).T
    skipped = len(qs) * len(eps_list) * len(ts) - len(rows)
    return ("jumpmap.csv", ("q", "eps", "t", "phi", "oracle", "abs_err"), [((), columns)],
            f"{len(rows)} evaluations ({skipped} skipped at "
            f"staircase-interior q), max |err|={columns[5].max(initial=0.0):.3g}")


# subcommand: (handler, help, its one extra option as (flag, default, help) or None)
_COMMANDS = {
    "solve-scheme": (_cmd_solve_scheme, "run the lattice scheme over an offset fan", None),
    "solve-limit": (_cmd_solve_limit, "solve the limit equation for a driver and measure",
                    None),
    "sigma": (_cmd_sigma, "tabulate shifted-inverse limits over the mesh schedule", None),
    "classify": (_cmd_classify, "name the scheme's limiting regime for a schedule", None),
    "study": (_cmd_study, "mesh-refinement error study against the limit path", None),
    "jumpmap": (_cmd_jumpmap, "jump-map evaluations against the explicit ramp oracle",
                ("--seed", 0, "seed for randomized probe grids")),
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvode",
        description="Finite-difference and limit-equation toolkit for "
                    "equations driven by bounded-variation signals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, extra) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default=None, help="output directory (default: config or .)")
        if extra is not None:
            flag, default, text = extra
            sp.add_argument(flag, type=int, default=default, help=text)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        filename, header, table, summary = _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StepLimitError as exc:
        print(f"step limit: {exc}", file=sys.stderr)
        return 2
    except _NonFinite as exc:
        print(exc, file=sys.stderr)
        return 3
    out_dir = args.out if args.out is not None else cfg.out_dir
    try:
        path = _write_csv(out_dir, filename, header, table)
    except OSError as exc:
        print(f"output error: {exc.filename or out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    try:
        print(f"{args.command}: {summary} -> {path}", flush=True)
    except BrokenPipeError as exc:
        # the reader has gone; stdout now points at devnull, so the flush at exit
        # cannot fail again (Python's note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        with contextlib.suppress(OSError):  # a closed stderr too
            print(f"output error: <stdout>: {exc.strerror}", file=sys.stderr, flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
