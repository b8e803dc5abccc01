"""conekit benchmark: one workload, timed end to end or traced layer by layer.

    python3 benchmarks/run.py --workload {ensemble,relax,cli} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository; conekit is imported from its ``src/``
(nothing is installed).  The process pins BLAS/OpenMP to one thread and
unsets ``CONEKIT_THREADS`` before numpy is imported.

``--seed`` selects one of ``reference.json``'s input sets (seed modulo its
size), so every run is checked against stored fingerprints.  Set-up is
measured several times and reported as a median; then units of the workload
run on the same inputs until ``--seconds`` is spent.  Every unit's
fingerprints must match the stored reference within the stated tolerances
and, bitwise, the first unit's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced units, reports per-layer counts and self times from the
traced ones, the tracing overhead between the two, and microbenchmarks of
each layer at the workload's shape.  The last line of standard output is one
JSON object; the exit code is 1 when any operation failed, 2 on a usage or
checkout error.
"""

from __future__ import annotations

import os

# Pin every thread pool before numpy loads: the benchmark measures the
# single-threaded program, and CONEKIT_THREADS would select the thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONEKIT_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from tracer import LAYERS, Tracer, TraceSummary  # noqa: E402
from workloads import WORKLOADS, UnitResult, check  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times (fresh interpreters for the import).
SETUP_REPEATS = 3

#: Per-kernel budget of the microbenchmarks, as a share of --seconds (capped).
MICRO_SHARE, MICRO_CAP = 1 / 200, 0.15

IMPORT_PROBE = ("import time; t = time.perf_counter(); import conekit, conekit.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


class CheckoutError(RuntimeError):
    """The checkout lacks what the benchmark builds from."""


def import_conekit():
    if not (SRC / "conekit" / "__init__.py").is_file():
        raise CheckoutError(f"no conekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conekit
    import conekit.cli  # noqa: F401  (the cli workload and the tracer need it loaded)
    import conekit.config  # noqa: F401
    if Path(conekit.__file__).resolve().parent != SRC / "conekit":
        raise CheckoutError(f"imported conekit from {conekit.__file__}, not {SRC}")
    return conekit


def environment(ck) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    site = Path(np.__file__).resolve().parent.parent
    for lib in sorted(site.glob("numpy.libs/*openblas*")) + sorted(site.glob("scipy.libs/*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[lib.parent.name] = fn()
                break
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "conekit": ck.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "CONEKIT_THREADS": os.environ.get("CONEKIT_THREADS", "unset")}


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


# ------------------------------------------------------------------ set-up


def measure_import() -> float:
    """Median time to import conekit in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure_setup(ck, workload, seed: int):
    """(setup seconds, state): import median plus median of in-process set-ups."""
    import_s = measure_import()
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        t0 = time.perf_counter()
        state = workload.setup(ck, seed)
        times.append(time.perf_counter() - t0)
    return import_s + statistics.median(times), state


# ------------------------------------------------------------------- units


@dataclass
class Unit:
    traced: bool
    wall: float                        # the whole unit as the runner saw it
    result: UnitResult | None = None   # None when the unit raised
    error: str = ""
    summary: TraceSummary | None = None


def run_unit(ck, workload, state, tracer: Tracer | None) -> Unit:
    unit = Unit(traced=tracer is not None, wall=0.0)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            unit.result = workload.run(ck, state)
        else:
            tracer.install(ck)
            try:
                unit.result = tracer.call("bench.unit", workload.run, ck, state)
            finally:
                tracer.uninstall()
            unit.summary = tracer.summary()
    except Exception:  # a failed unit is counted, and the run goes on
        unit.error = traceback.format_exc()
    finally:
        unit.wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.clear()
    return unit


def run_units(ck, workload, state, seconds: float, trace: bool) -> list[Unit]:
    """Units until ``seconds`` are spent; with ``trace`` every other unit is traced."""
    units: list[Unit] = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while True:
        traced = trace and len(units) % 2 == 1
        units.append(run_unit(ck, workload, state, tracer if traced else None))
        elapsed = time.perf_counter() - start
        typical = statistics.median(u.wall for u in units)
        if elapsed + 0.5 * typical >= seconds and (not trace or len(units) >= 2):
            return units


# ------------------------------------------------------------------ checks


def check_units(workload, units: list[Unit], reference: dict | None, rules: dict):
    """(attempted, failed, problems): each op against the reference and unit 0."""
    attempted, failed, problems = 0, 0, []
    first = None
    for i, unit in enumerate(units):
        if unit.result is None:
            attempted += workload.unit_size
            failed += workload.unit_size
            problems.append(f"unit {i}: {unit.error.strip().splitlines()[-1]}")
            continue
        first = first or unit.result
        for op, first_op in zip(unit.result.ops, first.ops):
            attempted += op.size
            found = check(op.fingerprint, None if reference is None else reference.get(op.label),
                          rules)
            if op.fingerprint != first_op.fingerprint:
                found.append("differs from the first unit's fingerprint")
            if found:
                failed += op.size
                problems.append(f"unit {i} {op.label}: " + "; ".join(found))
    return attempted, failed, problems


# ----------------------------------------------------------------- metrics


def end_to_end(units: list[Unit], setup_s: float) -> dict[str, float]:
    ok = [u.result for u in units if u.result is not None]
    if not ok:
        return {}
    return {"wall_s": statistics.median(r.wall for r in ok),
            "setup_s": setup_s,
            "steps_per_s": statistics.median(r.steps / r.wall for r in ok),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced_metrics(summary, result: UnitResult) -> dict[str, float]:
    """Per-layer counts and self times of one traced unit."""
    counts, inside = summary.counts, summary.counts_in_semiflow
    steps = inside.get("operators.solve_ch_system", 0)   # one implicit solve per step

    def per_step(*names):
        return sum(inside.get(nm, 0) for nm in names) / steps if steps else 0.0

    out = {
        "fields.fft.calls_per_step": per_step("fields.coeffs_to_values",
                                              "fields.values_to_coeffs"),
        "operators.apply_laplacian_coeffs.calls_per_step":
            per_step("operators.apply_laplacian_coeffs"),
        "operators.zgttrf.calls": counts.get("operators.zgttrf", 0),
        "operators.solve_neglap.calls": counts.get("operators.solve_neglap", 0),
        "spaces.h1_seminorm.calls_per_step": per_step("spaces.h1_seminorm"),
        "spaces.h01_dual_norm.calls": counts.get("spaces.h01_dual_norm", 0),
        "spaces.mellin_norm.calls": counts.get("spaces.mellin_norm", 0),
        "dynamics.steps": steps,
        "dynamics.exact_residual_rate": per_step("spaces.h01_dual_norm"),
        "dynamics.run_semiflow.self_s": summary.self_time.get("dynamics.run_semiflow", 0.0),
        "analysis.absorbing_set_experiment.self_s":
            summary.self_time.get("analysis.absorbing_set_experiment", 0.0),
        "cli.bytes_written": result.bytes_written,
        "indicial.self_ms": 1e3 * summary.layer_self_time("indicial"),
        "bench.self_s": summary.layer_self_time("bench"),
        "trace.spans": summary.spans,
        "trace.unit_s": summary.root_time,
    }
    for layer in LAYERS:
        if layer != "indicial":
            out[f"{layer}.self_s"] = summary.layer_self_time(layer)
    return {k: float(v) for k, v in out.items()}


def per_layer(ck, workload, units: list[Unit], seconds: float) -> dict[str, float]:
    traced = [(u.result, u.summary) for u in units if u.traced and u.result is not None]
    plain = [u.wall for u in units if not u.traced and u.result is not None]
    out: dict[str, float] = {}
    if traced:
        rows = [traced_metrics(s, r) for r, s in traced]
        out = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
        if plain:
            traced_wall = statistics.median(s.root_time for _r, s in traced)
            out["trace.overhead_pct"] = 100.0 * (traced_wall / statistics.median(plain) - 1.0)
    budget = min(MICRO_CAP, seconds * MICRO_SHARE)
    out.update(layers.measure(ck, workload.shape(ck), budget))
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"us": "us", "ms": "ms", "self_ms": "ms", "self_s": "s", "unit_s": "s",
            "bytes_computed": "B", "bytes_written": "B", "calls": "count", "spans": "count",
            "steps": "count", "calls_per_step": "1/step", "exact_residual_rate": "1/step",
            "ch_overhead_share": "ratio", "overhead_pct": "%"}[suffix]


# -------------------------------------------------------------------- main


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(names))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, workloads=None, reference=None) -> int:
    workloads = WORKLOADS if workloads is None else workloads
    args = parse_args(argv, workloads)
    workload = workloads[args.workload]
    try:
        ck = import_conekit()
        reference = load_reference() if reference is None else reference
    except (CheckoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stored = reference["workloads"].get(workload.name, {})
    if stored.get("spec") != json.loads(json.dumps(asdict(workload))):
        print(f"error: reference fingerprints for {workload.name!r} were recorded for "
              "another workload shape; regenerate them with record_reference.py",
              file=sys.stderr)
        return 2
    input_seed = args.seed % reference["seeds"]
    print("# environment " + json.dumps(environment(ck), sort_keys=True))
    print(f"# workload {workload.name}: {workload}")
    print(f"# seed {args.seed} -> input set {input_seed}; trace {args.trace}; "
          f"seconds {args.seconds:g}")

    setup_s, state = measure_setup(ck, workload, input_seed)
    try:
        units = run_units(ck, workload, state, args.seconds, bool(args.trace))
        metrics = (per_layer(ck, workload, units, args.seconds) if args.trace
                   else end_to_end(units, setup_s))
    finally:
        workload.teardown(state)
    attempted, failed, problems = check_units(
        workload, units, stored["seeds"].get(str(input_seed)),
        reference["tolerances"][workload.name])

    walls = [u.result.wall for u in units if u.result is not None]
    print(f"# units {len(units)} ({sum(u.traced for u in units)} traced); unit wall_s "
          + " ".join(f"{w:.4f}" for w in walls))
    for problem in problems:
        print(f"# FAILED {problem}")
    print(f"failed_frac {failed / attempted:.4f} (failed {failed} of {attempted})")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v if math.isfinite(v) else None, "unit": unit_of(name)}
                    for name, v in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
