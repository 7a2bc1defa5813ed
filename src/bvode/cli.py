"""Config-driven command line: run solvers and studies, emit CSV tables.

Every subcommand reads one INI config; its handler returns one table and a
summary, and :func:`main` writes the table as CSV into the output directory
(atomically, via a temp file and rename) and prints the summary.  A table
longer than one block (``CSV_BLOCK`` rows) is formatted by two processes
where the system can fork onto a second CPU, with the same bytes.  Exit
codes: 0 success, 1 invalid config or output error (an output directory or
CSV that cannot be written), 2 step cap or argparse usage error, 3
non-finite result (no CSV is written then).  Only this module lays out
tables: a table is an iterable of groups ``(prefix, columns)``, where the
numbers in ``prefix`` open every line of the group (``()`` for none) and
``columns`` are equal-length 1-D arrays, one per remaining header field.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import shutil
import signal
import sys

import numpy as np

from .analysis import convergence_study
from .config import ConfigError, ExperimentConfig, load_config
from .jumpmap import JumpMeasure, measure_from_sigma, phi_solve, phi_explicit_ramp, ramp_z
from .limit import solve_limit
from .mollify import classify_regime, sigma_delta_limit
from .scheme import StepLimitError, solve_grid


# rows per CSV block; bounds the text held in memory
CSV_BLOCK = 16384


class _NonFinite(Exception):
    """A non-finite result; the message locates it."""


def _spec(dtype) -> str:
    """%-format of one CSV column of the given dtype."""
    return {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}.get(dtype.kind, "%s")


def _blocks(prefix, columns):
    """Blocks ``(line_format, values)`` of one group, CSV_BLOCK rows each at most;
    the prefix is formatted once, into the line format."""
    head = "".join(_spec(np.asarray(v).dtype) % v + "," for v in prefix)
    columns = [np.asarray(c) for c in columns]
    line = head + ",".join(_spec(c.dtype) for c in columns) + "\n"
    width = len(columns)
    for s in range(0, columns[0].size, CSV_BLOCK):
        parts = [c[s:s + CSV_BLOCK].tolist() for c in columns]
        values = [None] * (width * len(parts[0]))
        for i, part in enumerate(parts):
            values[i::width] = part
        yield line * len(parts[0]), tuple(values)


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


def _format(fh, groups) -> None:
    """Write each group ``(prefix, columns)`` as CSV text, one ``%`` call per block."""
    for prefix, columns in groups:
        for line, values in _blocks(prefix, columns):
            fh.write(line % values)


def _halves(groups):
    """The table's groups before and after the block boundary nearest half its
    rows, when the table is longer than one block and a forked child may run on
    a second CPU; otherwise the groups as given and no second part.

    The boundary may fall inside a group, whose columns are then sliced there."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if not hasattr(os, "fork") or cpus < 2:
        return groups, []
    groups = list(groups)
    sizes = [len(columns[0]) for _, columns in groups]
    total = sum(sizes)
    if total <= CSV_BLOCK:
        return groups, []
    half, start, best = total / 2, 0, (total, 0, 0)
    for i, m in enumerate(sizes):
        # the group's block boundaries are start + s, s = 0, CSV_BLOCK, ... below m
        s = min(max(round((half - start) / CSV_BLOCK), 0), max(m - 1, 0) // CSV_BLOCK)
        best = min(best, (abs(start + s * CSV_BLOCK - half), i, s * CSV_BLOCK))
        start += m
    _, i, s = best
    prefix, columns = groups[i]
    head = groups[:i] + [(prefix, [c[:s] for c in columns])] if s else groups[:i]
    return head, [(prefix, [c[s:] for c in columns])] + groups[i + 1:]


def _fork_part(part: str, groups):
    """Fork a child that formats groups into the new file part; its pid, or
    None when the fork fails.

    The child opens only part and runs only the block loop, whose numpy calls
    (``asarray``, slicing, ``.tolist()``) reach no BLAS routine and no lock
    that numpy's OpenBLAS thread could hold; it always ends in ``os._exit``,
    0 when part is complete, so it never runs ``atexit`` handlers or flushes
    the parent's stdio.  That narrow job is what makes the fork safe although
    the OpenBLAS thread makes the process multi-threaded (Python 3.12 and
    later warn about such a fork with a DeprecationWarning)."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            with open(part, "w", encoding="utf-8", newline="\n") as fh:
                _format(fh, groups)
            code = 0
        finally:
            os._exit(code)
    return pid


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _write_csv(out_dir: str, filename: str, header, groups) -> str:
    """Write the header and then each group ``(prefix, columns)`` as CSV text.

    The text goes to ``<path>.tmp.<pid>``, which replaces ``path`` once it is
    complete; on an exception it is removed and ``path`` is left as it was.
    A table longer than one block is formatted in two parts when the process
    can fork onto a second CPU: a child formats the second part into
    ``<tmp>.part`` while this process formats the header and the first, then
    appends the part's bytes.  The child is reaped on every exit path (killed
    first on an exception), and when the fork fails or the child does not
    exit 0 this process formats the second part itself, so the bytes never
    depend on the child."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    tmp = f"{path}.tmp.{os.getpid()}"
    part = f"{tmp}.part"
    first, second = _halves(groups)
    pid = _fork_part(part, second) if second else None
    forked = pid is not None
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            _format(fh, first)
            if forked:
                status = os.waitpid(pid, 0)[1]
                pid = None
                if os.waitstatus_to_exitcode(status) == 0:
                    fh.flush()  # the text layer's pending bytes precede the part's
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh.buffer)
                    second = []
            _format(fh, second)  # what no child wrote
        os.replace(tmp, path)
    except BaseException:
        if pid is not None:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        _remove(tmp)
        raise
    finally:
        if forked:
            _remove(part)
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
