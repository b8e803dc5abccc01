"""Microbenchmarks of single layers at a workload's shape.

Each kernel is timed in batches of about 10 ms until its time budget is spent
(at least three batches); the reported time per call is the median over
batches.  Kernels measured in microseconds also report the bytes one call
moves, *computed* from array sizes: the arrays it must read and write (inputs,
outputs, the cached factors it uses and, for ``solve_ch_system``, the passes
of its residual verification).  Other intermediates and cache misses are not
counted, so these are lower bounds, not measurements.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

clock = time.perf_counter

F8 = 8   # bytes per float64


def time_per_call(fn, budget: float) -> float:
    """Median seconds per call of ``fn()`` over batches filling ``budget``."""
    fn()
    t0 = clock()
    fn()
    once = clock() - t0
    per_batch = max(1, int(0.01 / max(once, 1e-7)))
    samples = []
    deadline = clock() + budget
    while clock() < deadline or len(samples) < 3:
        t0 = clock()
        for _ in range(per_batch):
            fn()
        samples.append((clock() - t0) / per_batch)
    return statistics.median(samples)


def measure(ck, shape, budget: float) -> dict[str, float]:
    """Per-call times (``.us``/``.ms``), computed bytes and the CH overhead share."""
    from scipy.linalg.lapack import zgttrs

    ops = shape.build(ck)
    mesh = ops.mesh
    kmax, m = ops.max_mode, mesh.cells
    n = (kmax + 1) * m
    dt, s = shape.dt, shape.stabilization
    u = ck.smooth_random_field(ops, np.random.default_rng(0), sup_amplitude=0.5)
    coeffs = u.coeffs
    vals = ck.fields.coeffs_to_values(coeffs)
    stack = coeffs[1].T.copy()                       # one mode, cos and sin columns
    factors, _ = ops.ch_factorization(dt, s)
    packed = (coeffs * ops.sqrt_volumes).transpose(1, 0, 2).reshape(2, n).T.astype(complex)

    def sweeps():
        mid, _ = zgttrs(*factors[0], packed)
        zgttrs(*factors[1], mid)

    field_b = coeffs.nbytes                          # one field, coefficient form
    grid_b = vals.nbytes                             # one field on the angular grid
    radial_b = m * F8                                # one radial profile
    factor_b = sum(a.nbytes for fac in factors for a in fac)
    chol_b = 2 * m * F8 * (kmax + 1)                 # banded Cholesky factors, all modes
    fast = {
        "fields.coeffs_to_values": (lambda: ck.fields.coeffs_to_values(coeffs),
                                    field_b + grid_b),
        "fields.values_to_coeffs": (lambda: ck.fields.values_to_coeffs(vals, kmax),
                                    grid_b + field_b),
        "operators.apply_laplacian_coeffs": (lambda: ops.apply_laplacian_coeffs(coeffs),
                                             2 * field_b + 3 * radial_b),
        "operators.solve_ch_system": (lambda: ops.solve_ch_system(u, dt, s),
                                      # rhs, solution, factors, two verification Laplacians,
                                      # |A| bands and quadrature weights
                                      2 * field_b + factor_b + 4 * field_b + 5 * n * F8),
        "operators.ch_sweeps": (sweeps, 4 * packed.nbytes + factor_b),
        "operators.solve_neglap": (lambda: ops.solve_neglap(1, stack),
                                   2 * stack.nbytes + 2 * radial_b),
        "spaces.h1_seminorm": (lambda: ck.h1_seminorm(u), field_b + 3 * radial_b),
        "spaces.h01_dual_norm": (lambda: ck.h01_dual_norm(u, ops),
                                 field_b + grid_b + chol_b + radial_b),
        "spaces.mellin_norm": (lambda: ck.mellin_norm(u, 1, -0.75), field_b + 4 * radial_b),
    }
    config_text = ck.config.default_config_text()
    slow = {
        "operators.smallest_eigenvalue": lambda: ops.smallest_eigenvalue(0),
        "spaces.poincare_constant": lambda: ck.poincare_constant(ops),
        "analysis.smooth_random_field": lambda: ck.smooth_random_field(
            ops, np.random.default_rng(1), sup_amplitude=0.5),
        "geometry.build_mesh": lambda: ck.build_mesh(shape.profile, m, shape.grading),
        "geometry.boundary_spectrum": lambda: ck.boundary_spectrum(shape.profile, kmax),
        "config.parse_config": lambda: ck.config.parse_config(config_text),
    }
    out: dict[str, float] = {}
    for name, (fn, nbytes) in fast.items():
        out[f"{name}.us"] = 1e6 * time_per_call(fn, budget)
        out[f"{name}.bytes_computed"] = float(nbytes)
    for name, fn in slow.items():
        out[f"{name}.ms"] = 1e3 * time_per_call(fn, budget)
    out["operators.ch_overhead_share"] = (
        1.0 - out["operators.ch_sweeps.us"] / out["operators.solve_ch_system.us"])
    return out
