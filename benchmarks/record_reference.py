"""Record the reference fingerprints the benchmark checks every unit against.

    python3 benchmarks/record_reference.py

Runs one unit of every workload for input sets 0..SEEDS-1 and writes
``reference.json`` next to this file, together with the workload shapes and
the tolerances below.  Regenerate it only when a change is meant to alter the
numbers (and say so in the change); a speed-up must pass against the stored
file unchanged.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import run  # pins BLAS threads before numpy is imported
from workloads import WORKLOADS, check

#: Input sets stored per workload; ``run.py`` reduces ``--seed`` modulo this.
SEEDS = 32

#: Per workload, fingerprint key -> tolerance, with the reason for its size.
TOLERANCES = {
    "ensemble": {
        "level": {"rtol": 1e-9, "why": (
            "1.05 x the largest final Dirichlet norm of 8 members after 500 steps; "
            "dissipative flow, so roundoff-level reordering (batched members, one stacked "
            "solver) moves it by ~1e-13 relative, while a change of scheme, dt or operator "
            "moves it by > 1e-6")},
        "kappa": {"rtol": 1e-9, "why": "largest post-entry Dirichlet norm per radius; as level"},
        "entry_times": {"rtol": 1e-9, "why": (
            "per radius, each member's first record time from which its Dirichlet norm stays "
            "below level: a record index times dt, so it moves only if a norm lands within "
            "roundoff of level")},
        "tip_norm_sup": {"rtol": 1e-9, "why": (
            "per radius, largest Mellin tip norm of u over post-entry snapshots; as level")},
        "tip_norm_sup_lap": {"rtol": 1e-9, "why": (
            "per radius, largest Mellin tip norm of Lap u over post-entry snapshots; as level")},
        "diameters": {"rtol": 1e-9, "why": (
            "per radius, largest pairwise H^1_0-dual distance between members at each common "
            "snapshot; members differ at O(1) relative, so roundoff moves it by ~1e-13 "
            "relative; as level")},
    },
    "relax": {
        "mass_drift": {"max": 1e-12, "why": (
            "invariant: the mean is restored exactly after every solve, so the integral "
            "of u changes only by roundoff")},
        "final_residual": {"max": WORKLOADS["relax"].eq_tol, "why": (
            "invariant: equilibrium is declared only when the exact dual residual is "
            "<= eq_tol")},
        "equilibrium": {"exact": True, "why": "every input set reaches equilibrium"},
        "eq_step": {"exact": True, "why": (
            "every input set decays to u = 0 with the residual shrinking 0.2% (sphere) to "
            "2% (cone) per step, so a roundoff-level change moves the step at which it "
            "crosses eq_tol only if it lands within ~1e-12 relative of eq_tol")},
        "final_energy": {"rtol": 1e-9, "why": (
            "energy at that step (~1e-17, decaying to the u = 0 equilibrium): homogeneous in "
            "u, so roundoff perturbs it by ~1e-13 relative, while a change of scheme moves "
            "it by the per-step decay, >= 0.4%")},
    },
    "cli": {
        "exit": {"exact": True, "why": "every command exits 0"},
        "status": {"exact": True, "why": "every run directory ends with status 'ok'"},
        "sha256": {"exact": True, "why": (
            "acceptance criterion 12: identical configurations reproduce every CSV (and "
            "final_state.txt) bitwise")},
    },
}


def record(workload, ck, seed: int) -> dict:
    state = workload.setup(ck, seed)
    try:
        result = workload.run(ck, state)
    finally:
        workload.teardown(state)
    return {op.label: op.fingerprint for op in result.ops}


def main() -> int:
    ck = run.import_conekit()
    out = {"about": "fingerprints of one unit per input set; written by record_reference.py",
           "seeds": SEEDS, "tolerances": TOLERANCES, "workloads": {}}
    for name, workload in sorted(WORKLOADS.items()):
        seeds = {}
        for seed in range(SEEDS):
            seeds[str(seed)] = fps = record(workload, ck, seed)
            bad = [f"{label}: {p}" for label, fp in fps.items()
                   for p in check(fp, fp, TOLERANCES[name])]
            print(name, seed, "ok" if not bad else bad, flush=True)
        out["workloads"][name] = {"spec": asdict(workload), "seeds": seeds}
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
