"""The benchmark's three workloads: input generators, ops and output checks.

Each workload is a seeded input generator, an op (one full pass of the
workload's call list into ``bvode``) and a checker that returns the list
of problems it found in one op's outputs (empty when the op is correct).
Importing this module imports ``bvode`` from the ``src`` directory of the
checkout that holds it, and nothing else; a ``bvode`` found elsewhere is
refused.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The seed whose outputs are compared with the values recorded at the
# commit the benchmark was written against (reference.json).
REFERENCE_SEED = 0

sys.path.insert(0, str(SRC))
with warnings.catch_warnings(record=True) as IMPORT_WARNINGS:
    warnings.simplefilter("always")
    import bvode  # noqa: E402
    import bvode.cli  # noqa: E402
if not Path(bvode.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"bvode imported from {bvode.__file__}, not from {SRC}")

PROFILES = ("uniform", "triangular", "bump")

# Criterion 8's driver corpus: (breakpoints, coefficients, jumps).
CORPUS = (
    ([0.0, 1.0], [[0.0]], ((0.5, 1.0),)),
    ([0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]], ((0.25, 1.5), (0.75, -0.5))),
    ([0.0, 2.0], [[0.0, 0.0, 1.5, -0.5]], ((1.2, -0.8),)),
    ([0.0, 0.4, 0.7, 1.0], [[0.0, 1.0], [0.4, -2.0], [-0.2, 3.0]],
     ((0.2, 0.5), (0.5, -1.0), (0.8, 0.25))),
    ([0.0, 1.5], [[1.0, -0.6]], ((0.7, 2.0),)),
)


def setup() -> None:
    """Build the three profiles and make the first call into every layer.

    The first call runs a tiny scheme fan on each profile (lattice and
    generic Euler) and a tiny limit solve (Heun and the jump map), so
    lazily built tables and compiled kernels are ready before op 1.
    """
    L = bvode.BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]], jumps=((0.5, 1.0),))
    f = bvode.ScalarField.bounded_tanh(1.0, 1.0)
    for name in PROFILES:
        bvode.solve_grid(f, L, bvode.get_profile(name), 8, 1.0 / 64, 1.0, n_offsets=2)
    bvode.solve_limit(f, L, bvode.JumpMeasure.lebesgue(), 1.0)


def inputs_hash(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _ini(sections: dict) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
    return "\n".join(lines) + "\n"


def _cli(argv) -> tuple[int, str]:
    """Run ``bvode`` through its CLI entry point; return (code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = bvode.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=rtol, atol=atol))


def _gronwall_cap(field, driver, x0: float) -> float:
    """Criterion 8's a-priori bound C* (1 + |x0|) with C* = exp(K (V + 1))."""
    K = max(field.lipschitz_const, field.growth_const)
    return math.exp(K * (driver.total_variation() + 1.0)) * (1.0 + abs(x0))


# -- gate_dichotomy ----------------------------------------------------------
#
# Acceptance criterion 2: four convergence studies and two limit solves on
# the unit-jump driver with f = x.  The Ito schedule is the criterion's own;
# the flow schedule runs meshes 16-64 instead of 64-512, because one op at
# the criterion's size takes over a minute here and a run must hold several.

GATE_FLOW_MESHES = (16, 32, 64)
GATE_ITO_MESHES = (512, 1024, 2048, 4096)
GATE_REL_TOL = 1e-6  # against the recorded relative-error table


def gate_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"seed": seed, "x0": float(rng.uniform(0.25, 4.0))}


def gate_run(inputs: dict, work: Path) -> dict:
    x0 = inputs["x0"]
    L = bvode.BVFunction.from_segments(*CORPUS[0])
    f = bvode.ScalarField.linear_x()
    prof = bvode.get_profile("uniform")
    flow_sched = bvode.Schedule.power(2.0, meshes=GATE_FLOW_MESHES)
    ito_sched = bvode.Schedule.power(0.5, meshes=GATE_ITO_MESHES)
    lebesgue = bvode.JumpMeasure.lebesgue()
    dirac = bvode.JumpMeasure.dirac(0.0)

    flow = bvode.convergence_study(f, L, prof, flow_sched, lebesgue, x0)
    flow_path = bvode.solve_limit(f, L, lebesgue, x0)
    ito = bvode.convergence_study(f, L, prof, ito_sched, dirac, x0)
    ito_path = bvode.solve_limit(f, L, dirac, x0)
    cross_a = bvode.convergence_study(f, L, prof, flow_sched, dirac, x0)
    cross_b = bvode.convergence_study(f, L, prof, ito_sched, lebesgue, x0)
    return {
        "flow_rel": list(flow.rel_errors),
        "flow_decreasing": bool(flow.decreasing),
        "flow_x1": float(flow_path.eval(1.0)),
        "ito_rel": list(ito.rel_errors),
        "ito_x1": float(ito_path.eval(1.0)),
        "cross_a_rel": list(cross_a.rel_errors),
        "cross_b_rel": list(cross_b.rel_errors),
    }


def gate_check(inputs: dict, out: dict, ref: dict) -> list[str]:
    x0 = inputs["x0"]
    bad = []
    if not (out["flow_decreasing"] and out["flow_rel"][-1] <= 0.05):
        bad.append(f"flow study not converging: {out['flow_rel']}")
    if not abs(out["flow_x1"] - x0 * math.e) <= 1e-6 * abs(x0):
        bad.append(f"flow limit x(1)={out['flow_x1']!r}, want {x0 * math.e!r}")
    if not out["ito_rel"][-1] <= 0.05:
        bad.append(f"ito study not converging: {out['ito_rel']}")
    if out["ito_x1"] != 2.0 * x0:
        bad.append(f"ito limit x(1)={out['ito_x1']!r}, want {2.0 * x0!r}")
    if not (min(out["cross_a_rel"]) > 0.10 and min(out["cross_b_rel"]) > 0.10):
        bad.append("a cross-check study does not stagnate above 0.10")
    # f = x is linear, so the relative errors do not depend on x0: one
    # recorded table serves every seed.
    for key in ("flow_rel", "ito_rel", "cross_a_rel", "cross_b_rel"):
        if not _close(out[key], ref[key], GATE_REL_TOL):
            bad.append(f"{key} {out[key]} differs from reference {ref[key]}")
    return bad


def gate_summary(out: dict) -> dict:
    return {k: out[k] for k in ("flow_rel", "ito_rel", "cross_a_rel", "cross_b_rel")}


# -- scheme_fan --------------------------------------------------------------
#
# Two `bvode solve-scheme` runs on the mixed driver with a tanh field:
# (a) bump profile, generic Euler over 64 offsets; (b) uniform profile with
# the mollified coefficient over 8 offsets.  The meshes are half of n = 64
# and n = 32, at which one op takes 8-9 s here, so a run holds a dozen ops.

# The second driver of CORPUS, as a config section.
MIXED_DRIVER = {"breakpoints": "0, 0.5, 1", "coefficients": "0, 2; 1, 0, -4",
                "jumps": "0.25:1.5, 0.75:-0.5"}
SCHEME_RUNS = (
    {"label": "a", "profile": "bump", "n": 32, "n_offsets": 64, "mollify_f": False},
    {"label": "b", "profile": "uniform", "n": 16, "n_offsets": 8, "mollify_f": True},
)
SCHEME_ALPHA = 2.0
SCHEME_REF_RTOL = 1e-7


def scheme_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    field = {"name": "tanh", "amp": float(rng.uniform(0.5, 1.5)),
             "slope": float(rng.uniform(0.5, 2.0)), "offset": float(rng.uniform(-0.3, 0.3))}
    x0 = float(rng.uniform(-1.0, 1.0))
    configs = {}
    for run in SCHEME_RUNS:
        configs[run["label"]] = _ini({
            "driver": MIXED_DRIVER,
            "field": {k: repr(v) if isinstance(v, float) else v for k, v in field.items()},
            "mollifier": {"profile": run["profile"], "alpha": repr(SCHEME_ALPHA)},
            "run": {"x0": repr(x0), "n": run["n"], "n_offsets": run["n_offsets"],
                    "mollify_f": str(run["mollify_f"]).lower()},
        })
    return {"seed": seed, "field": field, "x0": x0, "configs": configs}


def scheme_run(inputs: dict, work: Path) -> dict:
    out = {}
    for label, text in inputs["configs"].items():
        cfg = work / f"scheme_{label}.ini"
        if not cfg.exists():
            cfg.write_text(text, encoding="utf-8")
        out_dir = work / f"scheme_{label}"
        code, _ = _cli(["solve-scheme", "--config", cfg, "--out", out_dir])
        out[label] = {"code": code, "csv": str(out_dir / "grid_path.csv")}
    return out


def _expected_lengths(n: int, n_offsets: int) -> list[int]:
    """Lattice lengths K_j + 1 with K_j the first k such that tau_j + k h >= 1."""
    h = float(n) ** -SCHEME_ALPHA
    lengths = []
    for j in range(n_offsets):
        tau = (h / n_offsets) * j
        k = max(int(math.ceil((1.0 - tau) / h)) - 2, 0)
        while tau + k * h < 1.0:
            k += 1
        lengths.append(k + 1)
    return lengths


def _read_grid_csv(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].astype(np.int64), data[:, 4]


def scheme_check(inputs: dict, out: dict, ref: dict) -> list[str]:
    fld = inputs["field"]
    field = bvode.ScalarField.bounded_tanh(fld["amp"], fld["slope"], fld["offset"])
    cap = _gronwall_cap(field, bvode.BVFunction.from_segments(*CORPUS[1]), inputs["x0"])
    bad = []
    for run in SCHEME_RUNS:
        label = run["label"]
        res = out[label]
        if res["code"] != 0:
            bad.append(f"run {label}: exit code {res['code']}")
            continue
        try:
            idx, xs = _read_grid_csv(res["csv"])
        except (OSError, ValueError) as exc:
            bad.append(f"run {label}: unreadable CSV: {exc}")
            continue
        lengths = _expected_lengths(run["n"], run["n_offsets"])
        if xs.size != sum(lengths):
            bad.append(f"run {label}: {xs.size} CSV rows, want {sum(lengths)}")
            continue
        if not np.all(np.isfinite(xs)):
            bad.append(f"run {label}: non-finite state in the CSV")
            continue
        if np.max(np.abs(xs)) > cap:
            bad.append(f"run {label}: max |x| {np.max(np.abs(xs))!r} above cap {cap!r}")
        counts = np.bincount(idx, minlength=run["n_offsets"])
        if counts.tolist() != lengths:
            bad.append(f"run {label}: per-offset row counts differ from the lattice lengths")
            continue
        if inputs["seed"] == REFERENCE_SEED:
            if not _close(_finals(xs, lengths), ref[label], SCHEME_REF_RTOL, 1e-12):
                bad.append(f"run {label}: final states differ from reference")
    return bad


def _finals(xs: np.ndarray, lengths: list) -> list:
    """Final state of every offset's run."""
    return xs[np.cumsum(lengths) - 1].tolist()


def scheme_summary(out: dict) -> dict:
    return {run["label"]: _finals(_read_grid_csv(out[run["label"]]["csv"])[1],
                                  _expected_lengths(run["n"], run["n_offsets"]))
            for run in SCHEME_RUNS}


# -- diagnostics -------------------------------------------------------------
#
# Lattice-free and Euler-free: `bvode classify` on every profile and
# schedule exponent, `bvode sigma` on every profile, criterion 6's staircase
# check with 256 offsets, 250 criterion-5 jump-map trials, `bvode jumpmap`,
# and limit solves over criterion 8's driver corpus.  `bvode sigma` runs at
# the first exponent only and the trials are a quarter of criterion 5's
# 1000: the full set takes 5-10 s here, too long for a run to hold more
# than three ops, and the rest repeats work the kept calls already time.

DIAG_ALPHAS = (2.0, 1.0, 0.5)
SIGMA_ALPHA = DIAG_ALPHAS[0]
EXPECTED_VERDICTS = {2.0: "Flow", 1.0: "DeltaDependent", 0.5: "Ito"}
CRIT6_MESHES = (64, 128, 256, 512)
CRIT5_TRIALS = 250
CRIT5_BUDGET = 1e-9
JUMPMAP_TOL = 1e-8
DIAG_REF_RTOL = 1e-7
SIGMA_PROBES = 21 * 5  # default u grid times default deltas


def _limit_fields():
    return (bvode.ScalarField.bounded_tanh(1.0, 1.0, offset=0.2), bvode.ScalarField.linear_x())


def diag_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    configs = {}
    for prof in PROFILES:
        for alpha in DIAG_ALPHAS:
            configs[f"{prof}_{alpha:g}"] = _ini(
                {"mollifier": {"profile": prof, "alpha": repr(alpha)}})
    configs["jumpmap"] = _ini({"sigma": {"intervals": "0.2:0.5"},
                               "run": {"x0": repr(float(rng.uniform(-1.0, 1.0)))}})
    return {"seed": seed, "configs": configs,
            "crit5_seed": int(rng.integers(0, 2 ** 31)),
            "jumpmap_seed": int(rng.integers(0, 2 ** 31)),
            "limit_x0": float(rng.uniform(-1.0, 1.0))}


def _random_lipschitz_field(rng):
    kind = rng.integers(0, 5)
    if kind == 0:
        return bvode.ScalarField.bounded_tanh(rng.uniform(0.3, 2.0), rng.uniform(0.3, 1.5),
                                              offset=rng.uniform(-0.5, 0.5))
    if kind == 1:
        return bvode.ScalarField.bounded_sin(rng.uniform(0.3, 1.5), rng.uniform(0.3, 2.0),
                                             phase=rng.uniform(0.0, 6.28),
                                             offset=rng.uniform(-0.5, 0.5))
    if kind == 2:
        return bvode.ScalarField.ramp(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0),
                                      height=rng.uniform(0.2, 1.5))
    if kind == 3:
        return bvode.ScalarField.affine(rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5))
    return bvode.ScalarField.constant(rng.uniform(-2.0, 2.0))


def _crit5_violations(seed: int) -> int:
    """Criterion 5's five growth inequalities over seeded random trials."""
    rng = np.random.default_rng(seed)
    measures = (
        bvode.JumpMeasure.lebesgue(),
        bvode.JumpMeasure.dirac(0.0),
        bvode.JumpMeasure.dirac(0.3),
        bvode.measure_from_sigma(bvode.SigmaG([(0.2, 0.5)])),
        bvode.measure_from_sigma(bvode.SigmaG([(0.1, 0.3), (0.6, 0.95)])),
    )
    violations = 0
    for _ in range(CRIT5_TRIALS):
        z = _random_lipschitz_field(rng)
        K1, K2 = z.lipschitz_const, z.growth_const
        mu = measures[rng.integers(0, len(measures))]
        x, y = rng.uniform(-3.0, 3.0, size=2)
        u, v = np.sort(rng.uniform(0.0, 1.0, size=2))
        if u == v:
            continue
        px_u = bvode.phi_solve(z, x, float(u), mu)
        py_u = bvode.phi_solve(z, y, float(u), mu)
        px_v = bvode.phi_solve(z, x, float(v), mu)
        eK1, eK2 = np.exp(K1), np.exp(K2)
        checks = (
            abs(px_u - py_u) <= abs(x - y) * eK1 + CRIT5_BUDGET,
            abs(px_u) <= (abs(x) + K2) * eK2 + CRIT5_BUDGET,
            abs(px_u - x) <= K2 * (abs(x) + 1.0) * eK2 + CRIT5_BUDGET,
            abs(px_u - x - py_u + y) <= abs(x - y) * K1 * eK1 + CRIT5_BUDGET,
            abs(px_u - px_v)
            <= K2 * (1.0 + (abs(x) + K2) * eK2) * mu.mass_closed(u, v) + CRIT5_BUDGET,
        )
        violations += sum(not c for c in checks)
    return violations


def diag_run(inputs: dict, work: Path) -> dict:
    cfgs = {}
    for key, text in inputs["configs"].items():
        cfgs[key] = work / f"diag_{key}.ini"
        if not cfgs[key].exists():
            cfgs[key].write_text(text, encoding="utf-8")

    verdicts, sigma = {}, {}
    for prof in PROFILES:
        for alpha in DIAG_ALPHAS:
            key = f"{prof}_{alpha:g}"
            code, text = _cli(["classify", "--config", cfgs[key],
                               "--out", work / f"classify_{key}"])
            ok = code == 0 and text.startswith("classify:")
            verdicts[key] = text.split()[1] if ok else f"exit {code}"
            if alpha == SIGMA_ALPHA:
                out_dir = work / f"sigma_{key}"
                code, _ = _cli(["sigma", "--config", cfgs[key], "--out", out_dir])
                sigma[key] = {"code": code, "csv": str(out_dir / "sigma_probes.csv")}

    uniform = bvode.get_profile("uniform")
    flow = bvode.sigma_n_check(uniform, bvode.Schedule.power(2.0, meshes=CRIT6_MESHES), 0.5,
                               bvode.SigmaG(), n_offsets=256)
    ito = bvode.sigma_n_check(uniform, bvode.Schedule.power(0.5, meshes=CRIT6_MESHES), 0.5,
                              bvode.SigmaG([(0.0, 1.0)]), n_offsets=256)

    violations = _crit5_violations(inputs["crit5_seed"])

    jm_dir = work / "diag_jumpmap"
    code, _ = _cli(["jumpmap", "--config", cfgs["jumpmap"], "--out", jm_dir,
                    "--seed", inputs["jumpmap_seed"]])
    jumpmap = {"code": code, "csv": str(jm_dir / "jumpmap.csv")}

    fields = _limit_fields()
    mus = (bvode.JumpMeasure.lebesgue(), bvode.JumpMeasure.dirac(0.0),
           bvode.measure_from_sigma(bvode.SigmaG([(0.2, 0.5)])))
    x0 = inputs["limit_x0"]
    limits = []
    for di, spec in enumerate(CORPUS):
        L = bvode.BVFunction.from_segments(*spec)
        for fi, f in enumerate(fields):
            path = bvode.solve_limit(f, L, mus[di % len(mus)], x0)
            limits.append({"driver": di, "field": fi, "final": float(path.x[-1]),
                           "max_abs": float(max(np.max(np.abs(path.x)),
                                                np.max(np.abs(path.x_left))))})
    return {
        "verdicts": verdicts,
        "sigma": sigma,
        "crit6": {"flow_decreasing": bool(flow.decreasing),
                  "ito_decreasing": bool(ito.decreasing),
                  "flow_final": float(flow.gaps[-1].max()),
                  "ito_final": float(ito.gaps[-1].max())},
        "crit5_violations": int(violations),
        "jumpmap": jumpmap,
        "limits": limits,
    }


def diag_check(inputs: dict, out: dict, ref: dict) -> list[str]:
    bad = []
    for prof in PROFILES:
        for alpha in DIAG_ALPHAS:
            key = f"{prof}_{alpha:g}"
            if out["verdicts"][key] != EXPECTED_VERDICTS[alpha]:
                bad.append(f"classify {key}: {out['verdicts'][key]}, "
                           f"want {EXPECTED_VERDICTS[alpha]}")
            if alpha != SIGMA_ALPHA:
                continue
            res = out["sigma"][key]
            if res["code"] != 0:
                bad.append(f"sigma {key}: exit code {res['code']}")
                continue
            try:
                vals = np.loadtxt(res["csv"], delimiter=",", skiprows=1, ndmin=2)[:, 3]
            except (OSError, ValueError) as exc:
                bad.append(f"sigma {key}: unreadable CSV: {exc}")
                continue
            want = SIGMA_PROBES * len(bvode.DEFAULT_MESHES)
            if vals.size != want or not np.all((vals >= 0.0) & (vals <= 1.0)):
                bad.append(f"sigma {key}: {vals.size} rows (want {want}) or values outside [0, 1]")
    c6 = out["crit6"]
    if not (c6["flow_decreasing"] and c6["flow_final"] <= 0.05
            and c6["ito_decreasing"] and c6["ito_final"] <= 0.05):
        bad.append(f"criterion 6 staircase gaps not closing: {c6}")
    if out["crit5_violations"] != 0:
        bad.append(f"criterion 5: {out['crit5_violations']} violations")
    jm = out["jumpmap"]
    if jm["code"] != 0:
        bad.append(f"jumpmap: exit code {jm['code']}")
    else:
        try:
            errs = np.loadtxt(jm["csv"], delimiter=",", skiprows=1, ndmin=2)[:, 5]
        except (OSError, ValueError) as exc:
            errs = None
            bad.append(f"jumpmap: unreadable CSV: {exc}")
        if errs is not None and not (errs.size > 0 and np.all(errs <= JUMPMAP_TOL)):
            bad.append(f"jumpmap: max error {np.max(errs, initial=np.inf)!r} above {JUMPMAP_TOL}")
    fields = _limit_fields()
    for res in out["limits"]:
        L = bvode.BVFunction.from_segments(*CORPUS[res["driver"]])
        cap = _gronwall_cap(fields[res["field"]], L, inputs["limit_x0"])
        if not (math.isfinite(res["max_abs"]) and res["max_abs"] <= cap):
            bad.append(f"limit solve driver {res['driver']} field {res['field']}: "
                       f"max |x| {res['max_abs']!r} above cap {cap!r}")
    if inputs["seed"] == REFERENCE_SEED:
        got = diag_summary(out)
        if not _close([got["crit6"]["flow_final"], got["crit6"]["ito_final"]],
                      [ref["crit6"]["flow_final"], ref["crit6"]["ito_final"]], DIAG_REF_RTOL):
            bad.append("criterion 6 gaps differ from reference")
        if not _close(got["limit_finals"], ref["limit_finals"], DIAG_REF_RTOL, 1e-12):
            bad.append("limit solves differ from reference")
    return bad


def diag_summary(out: dict) -> dict:
    return {"crit6": {k: out["crit6"][k] for k in ("flow_final", "ito_final")},
            "limit_finals": [r["final"] for r in out["limits"]]}


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    run: Callable[[dict, Path], dict]
    check: Callable[[dict, dict, dict], list]
    summary: Callable[[dict], dict]


WORKLOADS = {w.name: w for w in (
    Workload("gate_dichotomy", gate_inputs, gate_run, gate_check, gate_summary),
    Workload("scheme_fan", scheme_inputs, scheme_run, scheme_check, scheme_summary),
    Workload("diagnostics", diag_inputs, diag_run, diag_check, diag_summary),
)}
