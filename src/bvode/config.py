"""INI experiment configs: one file reproduces one run.

Sections: [driver] piecewise-polynomial segments plus a jump table,
[field] the coefficient by name and constants, [mollifier] kernel profile
and mesh schedule, [sigma] staircase intervals, [run] everything else
(start value, probe lists, output knobs).  Every validation error names
the offending key as [section].key so the CLI can point at it.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .drivers import BVFunction
from .fields import ScalarField
from .jumpmap import JumpMeasure, SigmaG, measure_from_sigma
from .mollify import (DEFAULT_DELTAS, DEFAULT_MESHES, DEFAULT_U_PROBES, MollifierProfile,
                      Schedule, _meshes, get_profile)


class ConfigError(ValueError):
    """Invalid or missing config entry, located by [section].key."""

    def __init__(self, section: str, key: str, msg: str):
        self.section = section
        self.key = key
        super().__init__(f"[{section}].{key}: {msg}")


def _integer(raw: str, section: str, key: str, what: str) -> int:
    """raw as an int that converts to a float, as the step rules and the caps
    need; else a ConfigError, which names raw after ``what`` if it is no int."""
    try:
        val = int(raw)
        float(val)
    except ValueError as exc:
        raise ConfigError(section, key, f"{what} {raw!r}") from exc
    except OverflowError as exc:
        raise ConfigError(section, key, f"integer of {len(raw.strip())} characters "
                                        "is too large for a float") from exc
    return val


def _floats(raw: str, section: str, key: str) -> list:
    try:
        vals = [float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(section, key, f"expected comma-separated numbers, got {raw!r}") from exc
    if not np.all(np.isfinite(vals)):
        raise ConfigError(section, key, f"expected finite numbers, got {raw!r}")
    return vals


class _Section:
    """One config section with typed, error-located accessors."""

    def __init__(self, name: str, items: dict):
        self.name = name
        self.items = dict(items)
        self.seen = set()

    def raw(self, key: str, default=None):
        self.seen.add(key)
        return self.items.get(key, default)

    def check_all_read(self) -> None:
        """Reject the first key no accessor has read: it would be ignored."""
        for key in self.items:
            if key not in self.seen:
                raise ConfigError(self.name, key,
                                  f"unknown key; this section reads {sorted(self.seen)}")

    def require(self, key: str) -> str:
        val = self.raw(key)
        if val is None:
            raise ConfigError(self.name, key, "required key is missing")
        return val

    def floatval(self, key: str, default=None) -> Optional[float]:
        raw = self.raw(key)
        if raw is None:
            return default
        try:
            val = float(raw)
        except ValueError as exc:
            raise ConfigError(self.name, key, f"expected a number, got {raw!r}") from exc
        if not np.isfinite(val):
            raise ConfigError(self.name, key, f"expected a finite number, got {raw!r}")
        return val

    def intval(self, key: str, default=None) -> Optional[int]:
        raw = self.raw(key)
        if raw is None:
            return default
        return _integer(raw, self.name, key, "expected an integer, got")

    def boolval(self, key: str, default=False) -> bool:
        raw = self.raw(key)
        if raw is None:
            return default
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(self.name, key, f"expected a boolean, got {raw!r}")

    def floatlist(self, key: str, default=None):
        raw = self.raw(key)
        if raw is None:
            return default
        return _floats(raw, self.name, key)

    def pairs(self, key: str):
        """Parse 'a:b, c:d' into [(a, b), (c, d)]."""
        raw = self.raw(key)
        if raw is None:
            return None
        out = []
        for tok in raw.split(","):
            tok = tok.strip()
            if not tok:
                continue
            parts = tok.split(":")
            if len(parts) != 2:
                raise ConfigError(self.name, key, f"expected 'a:b' entries, got {tok!r}")
            try:
                out.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ConfigError(self.name, key, f"non-numeric entry {tok!r}") from exc
        return out


@dataclass
class ExperimentConfig:
    """Everything a subcommand may need, parsed and validated."""

    driver: Optional[BVFunction] = None
    field: Optional[ScalarField] = None
    profile: Optional[MollifierProfile] = None
    schedule: Optional[Schedule] = None
    sigma: Optional[SigmaG] = None
    mu: Optional[JumpMeasure] = None
    x0: float = 1.0
    n: Optional[int] = None
    n_offsets: int = 16
    v_max: Optional[float] = None
    mollify_coefficient: bool = False
    deltas: tuple = DEFAULT_DELTAS
    u_probes: tuple = DEFAULT_U_PROBES
    sample_times: Optional[tuple] = None
    jump_q: Optional[tuple] = None
    jump_eps: Optional[tuple] = None
    jump_t: Optional[tuple] = None
    out_dir: str = "."

    def need(self, attr: str, section: str, key: str):
        val = getattr(self, attr)
        if val is None:
            raise ConfigError(section, key, "required by this subcommand")
        return val


def _parse_driver(sec: _Section) -> BVFunction:
    bp = sec.floatlist("breakpoints")
    if bp is None:
        raise ConfigError(sec.name, "breakpoints", "required key is missing")
    raw_coefs = sec.require("coefficients")
    rows = []
    for tok in raw_coefs.split(";"):
        tok = tok.strip()
        if tok:
            rows.append(_floats(tok, sec.name, "coefficients"))
    jumps = sec.pairs("jumps") or ()
    # BVFunction checks breakpoints, coefficients and jumps in that order; build
    # it up the same way so that an error names the key whose check failed
    key = "breakpoints"
    try:
        BVFunction(bp, [[0.0]] * (len(bp) - 1))
        key = "coefficients"
        BVFunction(bp, rows)
        key = "jumps"
        return BVFunction(bp, rows, jumps=jumps)
    except ValueError as exc:
        raise ConfigError(sec.name, key, str(exc)) from exc


_FIELD_BUILDERS = {
    "constant": lambda s: ScalarField.constant(s.floatval("value", 0.0)),
    "affine": lambda s: ScalarField.affine(s.floatval("offset", 0.0),
                                           s.floatval("slope", 1.0)),
    "linear": lambda s: ScalarField.linear_x(),
    "ramp": lambda s: ScalarField.ramp(s.floatval("threshold", 0.0),
                                       s.floatval("width", 1.0),
                                       s.floatval("height", 1.0)),
    "sin": lambda s: ScalarField.bounded_sin(s.floatval("amp", 1.0),
                                             s.floatval("freq_x", 1.0),
                                             s.floatval("freq_t", 0.0),
                                             s.floatval("phase", 0.0),
                                             s.floatval("offset", 0.0)),
    "tanh": lambda s: ScalarField.bounded_tanh(s.floatval("amp", 1.0),
                                               s.floatval("slope", 1.0),
                                               s.floatval("offset", 0.0)),
}


def _parse_field(sec: _Section) -> ScalarField:
    name = sec.require("name").strip().lower()
    builder = _FIELD_BUILDERS.get(name)
    if builder is None:
        raise ConfigError(sec.name, "name",
                          f"unknown field {name!r}; choose from {sorted(_FIELD_BUILDERS)}")
    try:
        return builder(sec)
    except ValueError as exc:
        # a constructor's message names the parameter whose check failed
        key = next((k for k in sorted(sec.seen) if k in str(exc).split()), "name")
        raise ConfigError(sec.name, key, str(exc)) from exc


def _parse_mollifier(sec: _Section):
    name = sec.require("profile").strip().lower()
    try:
        profile = get_profile(name)
    except ValueError as exc:
        raise ConfigError(sec.name, "profile", str(exc)) from exc
    meshes = sec.raw("meshes")
    mesh_list = DEFAULT_MESHES if meshes is None else tuple(
        _integer(tok.strip(), sec.name, "meshes", "non-integer mesh")
        for tok in meshes.split(",") if tok.strip())
    table = sec.pairs("table")
    alpha = sec.floatval("alpha")
    coef = sec.floatval("c", 1.0) if alpha is not None else None
    if table is not None and alpha is not None:
        raise ConfigError(sec.name, "table", "give either alpha or table, not both")
    key = "meshes"  # an error names the key whose check failed
    try:
        _meshes(mesh_list)
        if table is not None:
            key = "table"
            if meshes is not None:
                raise ValueError("give either meshes or table, not both")
            return profile, Schedule.from_table(table)
        if alpha is None:
            return profile, None
        # alpha is at fault if its steps fail at c = 1, where the last mesh's is the
        # least; the schedule is then built at c = 1, so that the error is alpha's
        key = "c" if alpha > 0.0 and float(mesh_list[-1]) ** -alpha > 0.0 else "alpha"
        return profile, Schedule.power(alpha, coef if key == "c" else 1.0, meshes=mesh_list)
    except ValueError as exc:
        raise ConfigError(sec.name, key, str(exc)) from exc


def _parse_sigma(sec: _Section) -> SigmaG:
    ivals = sec.pairs("intervals")
    if ivals is None:
        ivals = []
    try:
        return SigmaG(ivals)
    except ValueError as exc:
        raise ConfigError(sec.name, "intervals", str(exc)) from exc


def _parse_mu(raw: str, sigma: Optional[SigmaG], section: str) -> JumpMeasure:
    low = raw.strip().lower()
    try:
        if low == "lebesgue":
            return JumpMeasure.lebesgue()
        if low == "dirac":
            return JumpMeasure.dirac(0.0)
        if low.startswith("dirac:"):
            return JumpMeasure.dirac(float(low.split(":", 1)[1]))
        if low == "sigma":
            if sigma is None:
                raise ConfigError(section, "mu", "mu = sigma needs a [sigma] section")
            return measure_from_sigma(sigma)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(section, "mu", str(exc)) from exc
    raise ConfigError(section, "mu",
                      f"expected lebesgue, dirac, dirac:LOC or sigma, got {raw!r}")


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("file", path, f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError("file", path, f"malformed config: {exc}") from exc

    cfg = ExperimentConfig()
    known = {"driver", "field", "mollifier", "sigma", "run"}
    for name in parser.sections():
        if name not in known:
            raise ConfigError(name, "*", f"unknown section; choose from {sorted(known)}")

    secs = {name: _Section(name, parser[name]) for name in parser.sections()}
    if "driver" in secs:
        cfg.driver = _parse_driver(secs["driver"])
    if "field" in secs:
        cfg.field = _parse_field(secs["field"])
    if "mollifier" in secs:
        cfg.profile, cfg.schedule = _parse_mollifier(secs["mollifier"])
    if "sigma" in secs:
        cfg.sigma = _parse_sigma(secs["sigma"])

    run = secs.get("run", _Section("run", {}))
    cfg.x0 = run.floatval("x0", cfg.x0)
    cfg.n = run.intval("n")
    cfg.n_offsets = run.intval("n_offsets", cfg.n_offsets)
    for key in ("n", "n_offsets"):
        if getattr(cfg, key) is not None and getattr(cfg, key) < 1:
            raise ConfigError("run", key, "must be a positive integer")
    cfg.v_max = run.floatval("v_max")
    if cfg.v_max is not None and cfg.v_max <= 0.0:
        raise ConfigError("run", "v_max", "must be positive")
    cfg.mollify_coefficient = run.boolval("mollify_f", False)
    # comma-separated [run] lists: (key and attribute, entry name, range check, range)
    for key, name, inside, where in (
            ("deltas", "delta", lambda v: 0.0 < v < 1.0, "outside (0, 1)"),
            ("u_probes", "probe", lambda v: 0.0 <= v <= 1.0, "outside [0, 1]"),
            ("sample_times", "time", None, ""),
            ("jump_q", "q", lambda v: 0.0 <= v <= 1.0, "outside [0, 1]"),
            ("jump_eps", "eps", lambda v: v > 0.0, "must be positive"),
            ("jump_t", "t", lambda v: 0.0 <= v <= 1.0, "outside [0, 1]")):
        vals = run.floatlist(key)
        if vals is None:
            continue
        if not vals and key != "sample_times":  # no extra sample times is a valid list
            raise ConfigError("run", key, "needs at least one entry")
        for v in vals:
            if inside is not None and not inside(v):
                raise ConfigError("run", key, f"{name} {v!r} {where}")
        setattr(cfg, key, tuple(vals))
    out = run.raw("out")
    if out is not None:
        cfg.out_dir = out.strip()
    raw_mu = run.raw("mu")
    if raw_mu is not None:
        cfg.mu = _parse_mu(raw_mu, cfg.sigma, "run")
    for sec in secs.values():
        sec.check_all_read()
    return cfg
