"""Tests of the benchmark itself: inputs, hooks and correctness checkers.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import copy

import numpy as np
import pytest

import run
import tracing
import workloads
from workloads import REFERENCE_SEED, WORKLOADS, bvode


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    make = WORKLOADS[name].make_inputs
    assert make(7) == make(7)
    assert workloads.inputs_hash(make(7)) == workloads.inputs_hash(make(7))
    assert workloads.inputs_hash(make(7)) != workloads.inputs_hash(make(8))


def test_command_names_every_workload():
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_every_hook_target_resolves():
    assert tracing.Tracer().missing == {}


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    hooks = tracing.HOOKS + (("gone", "bvode.scheme", "no_such_function", None),)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    tracer = tracing.Tracer()
    assert tracer.missing == {"gone": "bvode.scheme.no_such_function"}
    assert tracer.is_missing("gone.calls") and not tracer.is_missing("scheme.grid.calls")


def test_hooks_rebind_every_caller_binding_and_restore():
    originals = (bvode.analysis.solve_grid, bvode.cli.solve_grid, bvode.limit.phi_solve,
                 bvode.backend.driver_lattice_values)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bvode.analysis.solve_grid is bvode.cli.solve_grid is bvode.solve_grid
        assert bvode.analysis.solve_grid.__wrapped__ is originals[0]
        assert bvode.limit.phi_solve.__wrapped__ is originals[2]
        assert bvode.backend.driver_lattice_values.__wrapped__ is originals[3]
    finally:
        tracer.uninstall()
    assert (bvode.analysis.solve_grid, bvode.cli.solve_grid, bvode.limit.phi_solve,
            bvode.backend.driver_lattice_values) == originals


def test_repeat_fraction_and_self_time():
    L = bvode.BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))
    f = bvode.ScalarField.linear_x()
    prof = bvode.get_profile("uniform")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for x0 in (1.0, 1.0, 2.0, 1.0):
            bvode.solve_grid(f, L, prof, 8, 1.0 / 64, x0, n_offsets=2)
    finally:
        tracer.uninstall()
    m = tracer.metrics([1.0], [1.0])
    assert m["scheme.grid.calls"] == 4
    assert m["scheme.grid.repeat_frac"] == 0.5
    assert m["mollify.lattice.calls"] == 8
    assert m["mollify.lattice.points"] == 4 * 2 * 65
    assert m["scheme.euler.affine_steps"] == 4 * 2 * 64
    incl, self_s = tracer.layer_times()
    assert self_s["scheme.grid"] == pytest.approx(
        incl["scheme.grid"] - incl["mollify.lattice"] - incl["scheme.euler"])


def test_raising_call_counts_as_failed():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            bvode.phi_solve(bvode.ScalarField.linear_x(), 1.0, 2.0, bvode.JumpMeasure.lebesgue())
    finally:
        tracer.uninstall()
    m = tracer.metrics([1.0], [1.0])
    assert m["jumpmap.phi.failed"] == 1 and m["jumpmap.phi.self_s"] > 0.0


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    """One op of every workload at the reference seed."""
    workloads.setup()
    out = {}
    for name, wl in WORKLOADS.items():
        inputs = wl.make_inputs(REFERENCE_SEED)
        out[name] = (inputs, wl.run(inputs, tmp_path_factory.mktemp(name)))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_accepts_a_correct_op(name, ops, reference):
    inputs, out = ops[name]
    assert WORKLOADS[name].check(inputs, out, reference[name]) == []


@pytest.mark.parametrize("key, value", [
    ("flow_rel", [0.04, 0.03, 0.06]),
    ("flow_decreasing", False),
    ("flow_x1", 0.0),
    ("ito_rel", [0.2, 0.1, 0.08, 0.07]),
    ("ito_x1", None),
    ("cross_a_rel", [0.3, 0.2, 0.09]),
    ("cross_b_rel", [0.21, 0.2, 0.19, 0.195 * (1 + 1e-5)]),
])
def test_gate_checker_rejects_perturbed_output(key, value, ops, reference):
    inputs, out = ops["gate_dichotomy"]
    bad = copy.deepcopy(out)
    bad[key] = np.nextafter(out["ito_x1"], np.inf) if value is None else value
    assert workloads.gate_check(inputs, bad, reference["gate_dichotomy"])


@pytest.mark.parametrize("edit", ["inf", "nan", "cap", "drop_row", "final"])
def test_scheme_checker_rejects_perturbed_csv(edit, ops, reference, tmp_path):
    inputs, out = ops["scheme_fan"]
    lines = open(out["a"]["csv"], encoding="utf-8").read().splitlines()
    row = lines[-1].split(",")
    if edit == "drop_row":
        del lines[len(lines) // 2]
    else:
        x = float(row[4])
        row[4] = {"inf": "inf", "nan": "nan", "cap": "1e300", "final": repr(x * (1 + 1e-5))}[edit]
        lines[-1] = ",".join(row)
    path = tmp_path / "grid_path.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bad = copy.deepcopy(out)
    bad["a"]["csv"] = str(path)
    assert workloads.scheme_check(inputs, bad, reference["scheme_fan"])


def test_scheme_checker_rejects_failed_run(ops, reference):
    inputs, out = ops["scheme_fan"]
    bad = copy.deepcopy(out)
    bad["b"]["code"] = 2
    assert workloads.scheme_check(inputs, bad, reference["scheme_fan"])


@pytest.mark.parametrize("edit", ["verdict", "crit5", "crit6", "limit_cap", "limit_ref",
                                  "jumpmap", "sigma_rows"])
def test_diagnostics_checker_rejects_perturbed_output(edit, ops, reference, tmp_path):
    inputs, out = ops["diagnostics"]
    bad = copy.deepcopy(out)
    if edit == "verdict":
        bad["verdicts"]["bump_1"] = "Flow"
    elif edit == "crit5":
        bad["crit5_violations"] = 1
    elif edit == "crit6":
        bad["crit6"]["ito_final"] = 0.06
    elif edit == "limit_cap":
        bad["limits"][3]["max_abs"] = 1e6
    elif edit == "limit_ref":
        bad["limits"][0]["final"] *= 1 + 1e-5
    elif edit == "jumpmap":
        lines = open(out["jumpmap"]["csv"], encoding="utf-8").read().splitlines()
        row = lines[1].split(",")
        row[5] = "2e-8"
        lines[1] = ",".join(row)
        path = tmp_path / "jumpmap.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        bad["jumpmap"]["csv"] = str(path)
    else:
        lines = open(out["sigma"]["uniform_2"]["csv"], encoding="utf-8").read().splitlines()
        path = tmp_path / "sigma_probes.csv"
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        bad["sigma"]["uniform_2"]["csv"] = str(path)
    assert workloads.diag_check(inputs, bad, reference["diagnostics"])
