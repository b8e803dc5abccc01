"""Smoke test of the benchmark at tiny shapes.

    python3 -m pytest benchmarks/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the fingerprint check fails on a perturbed reference, and that traced
self times add up to the traced wall.
"""

import copy
import json
import math
import time
from dataclasses import asdict

import pytest

import run
from record_reference import TOLERANCES, record
from tracer import Tracer
from workloads import Cli, Ensemble, Relax, check

TINY = {
    "ensemble": Ensemble(cells=16, modes=2, t_max=2e-3, snapshot_stride=5),
    "relax": Relax(cells=16, modes=2, dt=1e-2, eq_tol=1e-5, snapshot_stride=20),
    "cli": Cli(overrides=(("geometry", "M", "64"), ("geometry", "K", "2"),
                          ("dynamics", "T_max", "0.01"), ("dynamics", "snapshot_stride", "5"))),
}


@pytest.fixture(scope="module")
def ck():
    return run.import_conekit()


@pytest.fixture(scope="module")
def reference(ck):
    tolerances = copy.deepcopy(TOLERANCES)
    tolerances["relax"]["final_residual"]["max"] = TINY["relax"].eq_tol
    return {"seeds": 1, "tolerances": tolerances,
            "workloads": {name: json.loads(json.dumps(
                {"spec": asdict(w), "seeds": {"0": record(w, ck, 0)}}))
                for name, w in TINY.items()}}


def run_main(capsys, reference, *args):
    code = run.main([*args], workloads=TINY, reference=reference)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(capsys, reference, workload, trace):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    code, out = run_main(capsys, reference, "--workload", workload, "--seed", "5",
                         "--seconds", "0.5", "--trace", str(trace))
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} \
        == {m["name"]: m["unit"] for m in section}
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def test_fingerprint_check_fails_on_perturbed_reference(capsys, ck, reference):
    rules = reference["tolerances"]
    fps = {name: reference["workloads"][name]["seeds"]["0"] for name in TINY}
    perturbed = [
        ("ensemble", "experiment", "level", lambda v: v * (1 + 1e-6)),
        ("ensemble", "experiment", "kappa", lambda v: [v[0], v[1] * (1 + 1e-6)]),
        ("ensemble", "experiment", "diameters",
         lambda v: [v[0], [*v[1][:-1], v[1][-1] * (1 + 1e-6)]]),
        ("ensemble", "experiment", "tip_norm_sup_lap", lambda v: [v[0] * (1 + 1e-6), v[1]]),
        ("relax", "sphere", "final_energy", lambda v: v * (1 + 1e-6)),
        ("relax", "cone_capped", "eq_step", lambda v: v + 2),
        ("cli", "simulate", "sha256",
         lambda v: {**v, "diagnostics.csv": "0" * 64}),
    ]
    for name, label, key, change in perturbed:
        fp = fps[name][label]
        assert check(fp, fp, rules[name]) == []
        bad = {**fp, key: change(fp[key])}
        assert check(fp, bad, rules[name]), (name, key)
    assert check(fps["relax"]["sphere"], None, rules["relax"]) == ["no stored reference"]

    broken = copy.deepcopy(reference)
    broken["workloads"]["ensemble"]["seeds"]["0"]["experiment"]["level"] *= 1 + 1e-6
    code, out = run_main(capsys, broken, "--workload", "ensemble", "--seed", "0",
                         "--seconds", "0.2", "--trace", "0")
    assert code == 1
    assert out["correct"] is False and out["failed"] == out["attempted"] > 0


def test_traced_self_times_cover_traced_wall(ck):
    workload = TINY["relax"]
    state = workload.setup(ck, 0)
    original = ck.spaces.h01_dual_norm
    tracer = Tracer()
    tracer.install(ck)
    try:
        t0 = time.perf_counter()
        tracer.call("bench.unit", workload.run, ck, state)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert ck.spaces.h01_dual_norm is original and ck.dynamics.h1_seminorm is ck.h1_seminorm
    summary = tracer.summary()
    assert sum(summary.self_time.values()) == pytest.approx(summary.root_time, rel=1e-9)
    assert 0.95 * wall <= summary.root_time <= wall
    assert min(summary.self_time.values()) >= -1e-9
    # names bound in dynamics and the call-time import in _projected_rate_norm are caught
    inside = summary.counts_in_semiflow
    assert inside["spaces.h1_seminorm"] >= inside["operators.solve_ch_system"] > 0
    assert inside["spaces.h01_dual_norm"] > 0
