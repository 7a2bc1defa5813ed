"""Config-driven command line: run solvers and studies, emit CSV tables.

Every subcommand reads one INI config, writes CSV into an output
directory (atomically, via a temp file and rename), and prints a one
line summary.  Exit codes: 0 success, 1 invalid config, 2 step cap or
argparse usage error, 3 non-finite result (``solve-scheme`` and
``solve-limit`` on a state, ``study`` on an L1 error; no CSV is written
then).  ``jumpmap`` cannot reach a non-finite ``phi``: ``ramp_z`` has
values in [0, 1] and the measure has unit mass, so ``phi`` lies in
[x, x + 1].
"""

from __future__ import annotations

import argparse
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


# rows formatted and written per block; bounds the text held in memory
CSV_BLOCK = 16384


def _spec(value) -> str:
    """%-format of one CSV column, chosen from its first value."""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.17g"
    return "%s"


def _write_csv(out_dir: str, filename: str, header, rows) -> str:
    """Write header and tuple rows as CSV; every row has the column types of the first."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    tmp = f"{path}.tmp.{os.getpid()}"
    rows = iter(rows)
    block = list(itertools.islice(rows, CSV_BLOCK))
    line = ",".join(_spec(v) for v in block[0]) + "\n" if block else ""
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while block:
            fh.write("".join([line % row for row in block]))
            block = list(itertools.islice(rows, CSV_BLOCK))
    os.replace(tmp, path)
    return path


def _mu_for(cfg: ExperimentConfig) -> JumpMeasure:
    if cfg.mu is not None:
        return cfg.mu
    if cfg.driver is not None and cfg.driver.jump_epochs.size:
        raise ConfigError("run", "mu", "required when the driver has jumps")
    return JumpMeasure.lebesgue()


def _cmd_solve_scheme(cfg: ExperimentConfig, out_dir: str, args) -> int:
    L = cfg.need("driver", "driver", "breakpoints")
    f = cfg.need("field", "field", "name")
    profile = cfg.need("profile", "mollifier", "profile")
    sched = cfg.need("schedule", "mollifier", "alpha")
    n = cfg.need("n", "run", "n")
    h = sched.h(n)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        gp = solve_grid(f, L, profile, n, h, cfg.x0, n_offsets=cfg.n_offsets,
                        mollify_coefficient=cfg.mollify_coefficient,
                        conv_points=cfg.conv_points, step_cap=cfg.step_cap)
    bad = ~np.isfinite(gp.values)
    if bad.any():
        # the earliest non-finite step over the fan, lowest offset first
        first = np.where(bad.any(axis=1), bad.argmax(axis=1), gp.values.shape[1])
        j = int(np.argmin(first))
        k = int(first[j])
        print(f"non-finite state: offset {j}, step {k}, t={float(gp.offsets[j] + k * h)!r}",
              file=sys.stderr)
        return 3
    path = _write_csv(out_dir, "grid_path.csv",
                      ("offset_index", "tau", "k", "t", "x"), gp.rows())
    finals = gp.final_values()
    print(f"solve-scheme: n={n} h={h:g} offsets={cfg.n_offsets} "
          f"final x in [{finals.min():.6g}, {finals.max():.6g}] -> {path}")
    return 0


def _cmd_solve_limit(cfg: ExperimentConfig, out_dir: str, args) -> int:
    L = cfg.need("driver", "driver", "breakpoints")
    f = cfg.need("field", "field", "name")
    mu = _mu_for(cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        lp = solve_limit(f, L, mu, cfg.x0, sample_times=cfg.sample_times,
                         v_max=cfg.v_max)
    bad = ~(np.isfinite(lp.x_left) & np.isfinite(lp.x))
    if bad.any():
        print(f"non-finite state: t={float(lp.t[bad.argmax()])!r}", file=sys.stderr)
        return 3
    path = _write_csv(out_dir, "limit_path.csv",
                      ("t", "x_left", "x", "is_jump"), lp.rows())
    print(f"solve-limit: {lp.t.size} samples, final x={lp.x[-1]:.10g} -> {path}")
    return 0


def _cmd_sigma(cfg: ExperimentConfig, out_dir: str, args) -> int:
    profile = cfg.need("profile", "mollifier", "profile")
    sched = cfg.need("schedule", "mollifier", "alpha")
    deltas = np.asarray(cfg.deltas, dtype=np.float64)
    us = np.asarray(cfg.u_probes, dtype=np.float64)
    probe = sigma_delta_limit(profile, sched, deltas[:, None], us[None, :])
    path = _write_csv(out_dir, "sigma_probes.csv",
                      ("delta", "u", "n", "value"), probe.rows())
    print(f"sigma: {probe.converged.size} probes ({int(probe.converged.sum())} converged), "
          f"{len(sched.meshes)} meshes each -> {path}")
    return 0


def _cmd_classify(cfg: ExperimentConfig, out_dir: str, args) -> int:
    profile = cfg.need("profile", "mollifier", "profile")
    sched = cfg.need("schedule", "mollifier", "alpha")
    report = classify_regime(profile, sched, deltas=cfg.deltas,
                             u_probes=cfg.u_probes)
    path = _write_csv(out_dir, "classify_evidence.csv",
                      ("delta", "u", "n", "value"), report.evidence)
    detail = f" ({report.detail})" if report.detail else ""
    print(f"classify: {report.verdict}{detail} "
          f"max_spread={report.max_spread:.3g} -> {path}")
    return 0


def _cmd_study(cfg: ExperimentConfig, out_dir: str, args) -> int:
    L = cfg.need("driver", "driver", "breakpoints")
    f = cfg.need("field", "field", "name")
    profile = cfg.need("profile", "mollifier", "profile")
    sched = cfg.need("schedule", "mollifier", "alpha")
    mu = _mu_for(cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        result = convergence_study(f, L, profile, sched, mu, cfg.x0,
                                   n_offsets=cfg.n_offsets, threads=args.threads,
                                   mollify_coefficient=cfg.mollify_coefficient,
                                   conv_points=cfg.conv_points,
                                   step_cap=cfg.step_cap)
    bad = ~np.isfinite(result.l1_errors)
    if bad.any():
        print(f"non-finite l1: mesh n={result.ns[bad.argmax()]}", file=sys.stderr)
        return 3
    path = _write_csv(out_dir, "study.csv", ("n", "h_n", "metric", "value"),
                      result.rows())
    print(f"study: {len(result.ns)} meshes, final l1={result.l1_errors[-1]:.6g} "
          f"(rel {result.rel_errors[-1]:.3g}), decreasing={result.decreasing} -> {path}")
    return 0


def _cmd_jumpmap(cfg: ExperimentConfig, out_dir: str, args) -> int:
    sigma = cfg.need("sigma", "sigma", "intervals")
    mu = measure_from_sigma(sigma)
    rng = np.random.default_rng(args.seed)
    qs = cfg.jump_q if cfg.jump_q is not None else tuple(rng.uniform(0.0, 1.0, 6))
    eps_list = cfg.jump_eps if cfg.jump_eps is not None else tuple(rng.uniform(0.05, 0.6, 4))
    ts = cfg.jump_t if cfg.jump_t is not None else tuple(rng.uniform(0.0, 1.0, 5))
    x_ref = cfg.x0
    rows = []
    skipped = 0
    max_err = 0.0
    for q in qs:
        for eps in eps_list:
            z = ramp_z(q, eps, x_ref)
            for t in ts:
                try:
                    oracle = phi_explicit_ramp(sigma, q, eps, x_ref, t)
                except ValueError:
                    skipped += 1
                    continue
                phi = phi_solve(z, x_ref, t, mu)
                err = abs(phi - oracle)
                max_err = max(max_err, err)
                rows.append((q, eps, t, phi, oracle, err))
    path = _write_csv(out_dir, "jumpmap.csv",
                      ("q", "eps", "t", "phi", "oracle", "abs_err"), rows)
    print(f"jumpmap: {len(rows)} evaluations ({skipped} skipped at "
          f"staircase-interior q), max |err|={max_err:.3g} -> {path}")
    return 0


_HANDLERS = {
    "solve-scheme": _cmd_solve_scheme,
    "solve-limit": _cmd_solve_limit,
    "sigma": _cmd_sigma,
    "classify": _cmd_classify,
    "study": _cmd_study,
    "jumpmap": _cmd_jumpmap,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvode",
        description="Finite-difference and limit-equation toolkit for "
                    "equations driven by bounded-variation signals.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "solve-scheme": "run the lattice scheme over an offset fan",
        "solve-limit": "solve the limit equation for a driver and measure",
        "sigma": "tabulate shifted-inverse limits over the mesh schedule",
        "classify": "name the scheme's limiting regime for a schedule",
        "study": "mesh-refinement error study against the limit path",
        "jumpmap": "jump-map evaluations against the explicit ramp oracle",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default=None, help="output directory (default: config or .)")
        if name == "study":
            sp.add_argument("--threads", type=int, default=1, help="worker threads for study rows")
        if name == "jumpmap":
            sp.add_argument("--seed", type=int, default=0, help="seed for randomized probe grids")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.out_dir
        return _HANDLERS[args.command](cfg, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StepLimitError as exc:
        print(f"step limit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
