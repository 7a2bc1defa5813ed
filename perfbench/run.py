"""End-to-end and per-layer benchmark of bvode.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gate_dichotomy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30 --label mybranch

With ``--workload`` it runs that workload in this process: a closed loop with
one client, each op starting when the previous one (and its correctness
check) has finished, for about ``--seconds`` seconds.  Set-up time is taken
from fresh processes before the loop.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced ops
and reports the per-layer metrics of the traced ones plus the tracing
overhead.  Each run writes its op times, manifest and (traced) spans to
``perfbench/out``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only when every op passed its check.

Without ``--workload`` it runs every workload, each in a fresh process, both
untraced and traced, prints every metric by name and unit, and writes
``perfbench/out/BENCH_<label>.json``.
"""

import os

# One client on one core: keep numpy's thread pools at one thread.  This
# must happen before numpy is imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("gate_dichotomy", "scheme_fan", "diagnostics")  # keys of workloads.WORKLOADS
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def measure_setup(samples: int) -> list:
    """Set-up seconds, each measured in its own fresh process."""
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def git_commit(root: Path):
    """Commit of the checkout read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workloads, seed: int, inputs: dict) -> dict:
    import bvode
    import numpy

    return {
        "bvode_version": bvode.__version__,
        "lane": bvode.backend.ACTIVE,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "import_warnings": [str(w.message) for w in workloads.IMPORT_WARNINGS],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(workloads.ROOT),
        "seed": seed,
        "inputs_sha256": workloads.inputs_hash(inputs),
    }


def tail_time(times: list):
    """Highest percentile of op time with at least ten ops beyond it."""
    if len(times) < 11:
        return None
    return sorted(times)[len(times) - 11]


def checked_op(wl, inputs: dict, work: Path, reference: dict, tracer=None):
    """Run one op, traced when a tracer is given, and check it: (seconds, problems)."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        out = wl.run(inputs, work)
    except Exception as exc:  # a raising op counts as failed; the run goes on
        out, problems = None, [f"raised {exc!r}"]
    op_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if out is not None:
        try:
            problems = wl.check(inputs, out, reference)
        except Exception as exc:  # malformed output
            problems = [f"check raised {exc!r}"]
    return op_s, problems


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    setup_times = measure_setup(SETUP_SAMPLES) if not traced else []

    import workloads
    from tracing import LAYER_METRICS, Tracer

    workloads.setup()
    wl = workloads.WORKLOADS[name]
    reference = workloads.load_reference()[name]
    inputs = wl.make_inputs(seed)
    info = manifest(workloads, seed, inputs)
    print("manifest " + json.dumps(info, sort_keys=True))
    tracer = Tracer() if traced else None

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work_{name}_", dir=OUT))
    min_ops = 2 if traced else 1
    op_times, traced_ops, untraced_ops, iter_times = [], [], [], []
    failed = 0
    try:
        loop_start = time.perf_counter()
        while (len(op_times) < min_ops or time.perf_counter() - loop_start
               + statistics.median(iter_times) <= seconds):
            trace_this = traced and len(op_times) % 2 == 1
            iter_start = time.perf_counter()
            op_s, problems = checked_op(wl, inputs, work, reference,
                                        tracer if trace_this else None)
            iter_times.append(time.perf_counter() - iter_start)
            op_times.append(op_s)
            (traced_ops if trace_this else untraced_ops).append(op_s)
            if problems:
                failed += 1
                print(f"op {len(op_times)} failed: " + "; ".join(problems[:3]), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(op_times)
    print(f"{name}: {attempted} ops, {failed} failed, seed {seed}")
    result = {"workload": name, "traced": traced, "manifest": info, "attempted": attempted,
              "failed": failed, "fail_frac": failed / attempted, "op_times": op_times}
    if traced:
        values = tracer.metrics(traced_ops, untraced_ops)
        units = dict(LAYER_METRICS)
        for key, value in values.items():
            flag = "  MISSING" if tracer.is_missing(key) else ""
            print(f"{key} = {value:.6g} {units[key]}{flag}")
        if tracer.missing:
            print("missing hooks: " + ", ".join(tracer.missing.values()))
        print(f"tracing overhead: traced op_s {values['trace.op_s']:.4g} s vs untraced "
              f"{values['trace.untraced_op_s']:.4g} s ({values['trace.overhead']:.3f}x)")
        result.update(traced_ops=traced_ops, untraced_ops=untraced_ops, **tracer.dump())
    else:
        units = dict(END_TO_END)
        values = {
            "op_s": statistics.median(op_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        tail = tail_time(op_times)
        shown = [(k, values[k], u) for k, u in END_TO_END]
        if tail is not None:
            shown.append(("op_tail_s", tail, "s"))
        shown.append(("fail_frac", failed / attempted, "ratio"))
        for key, value, unit in shown:
            print(f"{key} = {value:.6g} {unit}")
        result.update(setup_times=setup_times, op_tail_s=tail)
    result["metrics"] = values
    with open(result_path(name, traced, seed), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0 if failed == 0 else 1


def result_path(name: str, traced: bool, seed: int) -> Path:
    return OUT / f"{name}_trace{int(traced)}_seed{seed}.json"


def run_all(seed: int, seconds: float, label: str) -> int:
    """Every workload in a fresh process, untraced then traced; write BENCH_<label>.json."""
    report = {"label": label, "seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        entry = report["workloads"][name] = {}
        for traced in (False, True):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(traced))],
                stdout=subprocess.PIPE, text=True, check=False)
            code = proc.returncode
            # the last line repeats the metrics as JSON; the result file holds them
            print(f"== {name} (trace {int(traced)})\n" + proc.stdout.rsplit("\n", 2)[0], flush=True)
            status = status or code
            if code != 0:
                continue
            with open(result_path(name, traced, seed), encoding="utf-8") as fh:
                result = json.load(fh)
            report["manifest"] = result["manifest"]
            if traced:
                entry["per_layer"] = result["metrics"]
                entry["missing"] = result["missing"]
            else:
                entry["end_to_end"] = dict(result["metrics"], op_tail_s=result["op_tail_s"],
                                           fail_frac=result["fail_frac"])
                entry["op_times"] = result["op_times"]
    path = OUT / f"BENCH_{label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {path.relative_to(HERE.parent)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, each in its own)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the op loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--label", default="local", help="name of the BENCH_<label>.json file")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.label)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
