"""Layer hooks for the traced run: spans and counters around bvode's calls.

Each hook wraps one public function of a ``bvode`` module.  The wrapper
replaces every binding of that function object in the ``bvode`` package
and its modules, so ``from``-imported names (``analysis.solve_grid``,
``cli.solve_grid``, ``limit.phi_solve``) are timed as well as module
attribute calls (``backend.driver_lattice_values``).  Nothing under
``src/`` is edited; ``uninstall`` puts the originals back.

A span records (id, layer, start, end, parent id, op).  Spans stay in
memory and are written once, by the caller, when the run ends.  A layer's
self time is its spans' duration minus the time their child spans cover.
A hook whose target does not exist is reported as missing.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _count_lattice(tr, a, result):
    tr.add("mollify.lattice.points", np.size(a["ts"]))


def _count_probe(tr, a, result):
    tr.add("mollify.probe.evals", len(a["sched"].meshes))


def _count_euler(tr, a, result):
    kind = "affine_steps" if a["field"].kind in tr.affine_kinds else "generic_steps"
    tr.add(f"scheme.euler.{kind}", np.size(a["dLn"]))


def _count_euler_mollified(tr, a, result):
    steps = np.size(a["dLn"])
    tr.add("scheme.euler_mollified.steps", steps)
    tr.add("scheme.euler_mollified.field_evals",
           steps * np.size(a["conv_s"]) * np.size(a["conv_w"]))


def _count_grid(tr, a, result):
    J = int(a["n_offsets"])
    tr.add("scheme.grid.offsets", J)
    tr.add("scheme.grid.bytes", J * int(np.max(result.lengths)) * 8)
    key = _fingerprint(a)
    if key in tr.grid_keys:
        tr.add("scheme.grid.repeats", 1)
    tr.grid_keys.add(key)


def _count_l1(tr, a, result):
    # computed: lattice cells of every offset plus the limit path's breakpoints
    p, q = a["p"], a["q"]
    tr.add("analysis.l1.cells", int(np.sum(p.lengths)) + p.offsets.size * np.size(q.t))


def _count_heun(tr, a, result):
    tr.add("limit.heun.points", np.size(a["s_grid"]))


def _count_flow(tr, a, result):
    mass, substep = float(a["mass"]), float(a["substep"])
    if mass > 0.0:
        tr.add("jumpmap.flow.substeps", math.ceil(mass / substep))


def _count_cli(tr, a, result):
    argv = list(a["argv"] or ())
    if "--out" not in argv:
        return
    for csv in Path(argv[argv.index("--out") + 1]).glob("*.csv"):
        data = csv.read_bytes()
        tr.add("cli.csv_bytes", len(data))
        tr.add("cli.csv_rows", max(data.count(b"\n") - 1, 0))


# (layer, module, function, counter); every layer also counts calls and
# calls that raised.
HOOKS = (
    ("mollify.lattice", "bvode.backend", "driver_lattice_values", _count_lattice),
    ("mollify.probe", "bvode.mollify", "sigma_delta_limit", _count_probe),
    ("mollify.classify", "bvode.mollify", "classify_regime", None),
    ("scheme.euler", "bvode.backend", "euler_exact", _count_euler),
    ("scheme.euler_mollified", "bvode.backend", "euler_mollified", _count_euler_mollified),
    ("scheme.grid", "bvode.scheme", "solve_grid", _count_grid),
    ("scheme.xi_grid", "bvode.scheme", "xi_grid_for_offset", None),
    ("analysis.l1", "bvode.analysis", "l1_distance", _count_l1),
    ("analysis.study", "bvode.analysis", "convergence_study", None),
    ("analysis.sigma_check", "bvode.analysis", "sigma_n_check", None),
    ("limit.solve", "bvode.limit", "solve_limit", None),
    ("limit.heun", "bvode.backend", "heun_path", _count_heun),
    ("jumpmap.phi", "bvode.jumpmap", "phi_solve", None),
    ("jumpmap.flow", "bvode.backend", "flow_mass", _count_flow),
    ("config.load", "bvode.config", "load_config", None),
    ("cli", "bvode.cli", "main", _count_cli),
)

# Per-layer metrics, in report order: (name, unit).  Values are per op,
# averaged over the traced ops.
LAYER_METRICS = (
    ("mollify.lattice.calls", "count"), ("mollify.lattice.points", "count"),
    ("mollify.lattice.s", "s"), ("mollify.lattice.ns_per_point", "ns"),
    ("mollify.probe.calls", "count"), ("mollify.probe.evals", "count"),
    ("mollify.probe.s", "s"), ("mollify.classify.self_s", "s"),
    ("scheme.euler.affine_steps", "count"), ("scheme.euler.generic_steps", "count"),
    ("scheme.euler.s", "s"),
    ("scheme.euler_mollified.steps", "count"), ("scheme.euler_mollified.field_evals", "count"),
    ("scheme.euler_mollified.s", "s"),
    ("scheme.grid.calls", "count"), ("scheme.grid.offsets", "count"),
    ("scheme.grid.self_s", "s"), ("scheme.grid.bytes", "B"),
    ("scheme.grid.repeat_frac", "ratio"),
    ("scheme.xi_grid.calls", "count"), ("scheme.xi_grid.s", "s"),
    ("analysis.l1.calls", "count"), ("analysis.l1.cells", "count"), ("analysis.l1.s", "s"),
    ("analysis.study.self_s", "s"), ("analysis.sigma_check.self_s", "s"),
    ("limit.solve.calls", "count"), ("limit.solve.self_s", "s"),
    ("limit.heun.points", "count"), ("limit.heun.s", "s"),
    ("jumpmap.phi.calls", "count"), ("jumpmap.phi.self_s", "s"),
    ("jumpmap.flow.calls", "count"), ("jumpmap.flow.substeps", "count"),
    ("jumpmap.flow.s", "s"),
    ("config.load.s", "s"),
    ("cli.self_s", "s"), ("cli.csv_rows", "count"), ("cli.csv_bytes", "B"),
) + tuple((f"{layer}.failed", "count") for layer, *_ in HOOKS) + tuple(
    (f"share.{layer}", "ratio") for layer, *_ in HOOKS) + (
    ("share.unhooked", "ratio"),
    ("trace.op_s", "s"), ("trace.untraced_op_s", "s"), ("trace.overhead", "ratio"),
)


def _fingerprint(value):
    """Hashable value identity of call arguments; private attributes are caches."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_fingerprint(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _fingerprint(v)) for k, v in value.items()
                            if not str(k).startswith("_")))
    if callable(value):
        return ("callable", id(value))
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _fingerprint(vars(value)))
    return value


class Tracer:
    """Spans and counters of the traced ops of one run."""

    def __init__(self):
        import bvode

        self.spans = []  # (id, layer, start, end, parent, op)
        self.stack = []
        self.counts = defaultdict(float)
        self.grid_keys = set()
        self.ops = 0
        self.missing = {}  # layer -> hook target that does not exist
        self.affine_kinds = {bvode.ScalarField.affine(0.0, 1.0).kind,
                             bvode.ScalarField.constant(1.0).kind}
        self._saved = []
        self._hooks = []
        for layer, module, func, counter in HOOKS:
            try:
                target = getattr(importlib.import_module(module), func)
            except (ImportError, AttributeError):
                self.missing[layer] = f"{module}.{func}"
                continue
            self._hooks.append((target, self._wrap(layer, target, counter)))

    def add(self, name: str, amount) -> None:
        self.counts[name] += amount

    def _wrap(self, layer, target, counter):
        sig = inspect.signature(target)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            stack.append(sid)
            spans.append(None)
            self.counts[f"{layer}.calls"] += 1
            start = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.failed"] += 1
                raise
            finally:
                spans[sid] = (sid, layer, start, time.perf_counter(), parent, self.ops - 1)
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        wrapper.__wrapped__ = target
        return wrapper

    def install(self) -> None:
        """Start a traced op: rebind every hooked function in bvode's modules."""
        self.ops += 1
        self.grid_keys = set()
        swaps = {id(target): wrapper for target, wrapper in self._hooks}
        for name, mod in list(sys.modules.items()):
            if name != "bvode" and not name.startswith("bvode."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = swaps.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    def layer_times(self):
        """Per-layer inclusive and self seconds summed over the traced ops."""
        child = defaultdict(float)
        incl = defaultdict(float)
        for sid, layer, start, end, parent, _ in self.spans:
            incl[layer] += end - start
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for sid, layer, start, end, parent, _ in self.spans:
            self_s[layer] += (end - start) - child[sid]
        return incl, self_s

    def is_missing(self, metric: str) -> bool:
        return any(metric.startswith(f"{layer}.") or metric == f"share.{layer}"
                   for layer in self.missing)

    def metrics(self, traced_ops: list, untraced_ops: list) -> dict:
        """Per-op layer metrics, shares of traced op time, and the overhead."""
        n = max(self.ops, 1)
        total = float(sum(traced_ops))
        incl, self_s = self.layer_times()
        values = {}
        for layer, *_ in HOOKS:
            values[f"{layer}.calls"] = self.counts[f"{layer}.calls"] / n
            values[f"{layer}.failed"] = self.counts[f"{layer}.failed"] / n
            values[f"{layer}.s"] = incl.get(layer, 0.0) / n
            values[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
            values[f"share.{layer}"] = self_s.get(layer, 0.0) / total if total else 0.0
        for name, count in self.counts.items():
            values.setdefault(name, count / n)
        points = self.counts["mollify.lattice.points"]
        values["mollify.lattice.ns_per_point"] = (
            1e9 * incl.get("mollify.lattice", 0.0) / points if points else 0.0)
        calls = self.counts["scheme.grid.calls"]
        values["scheme.grid.repeat_frac"] = (
            self.counts["scheme.grid.repeats"] / calls if calls else 0.0)
        values["share.unhooked"] = 1.0 - sum(values[f"share.{layer}"] for layer, *_ in HOOKS)
        traced = float(np.median(traced_ops))
        untraced = float(np.median(untraced_ops))
        values["trace.op_s"] = traced
        values["trace.untraced_op_s"] = untraced
        values["trace.overhead"] = traced / untraced
        return {name: values.get(name, 0.0) for name, _ in LAYER_METRICS}

    def dump(self) -> dict:
        """Spans of every traced op, for writing once when the run ends."""
        return {"fields": ["id", "layer", "start", "end", "parent", "op"],
                "spans": self.spans, "missing": self.missing}
