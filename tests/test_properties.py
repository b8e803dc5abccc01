"""Invariants of the discrete operator over generated meshes and fields.

Meshes are spheres and capped cones, uniform and tip-graded, with angular
truncations 0 to 4.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from conekit.analysis import smooth_random_field
from conekit.dynamics import StepperConfig, run_semiflow
from conekit.fields import Field, channel_weights, constant_field
from conekit.geometry import build_mesh, build_profile
from conekit.operators import (EIGEN_MAX_ITER, EIGEN_TOL, RESIDUAL_NOISE_FACTOR,
                               SOLVE_RESIDUAL_TOL, ModeOperators)
from conekit.spaces import h01_dual_norm, h1_seminorm

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SLOPES = ("1/3", "1/2", "3/4", "1")


def profile(kind, c):
    if kind == "sphere":
        return build_profile("sphere", radius=1.0)
    return build_profile("cone_capped", c=c, length=math.pi)  # the sphere's length


@st.composite
def workspaces(draw, gradings=(1.0, 0.9, 0.8)):
    kind = draw(st.sampled_from(("sphere", "cone_capped")))
    c = draw(st.sampled_from(SLOPES)) if kind == "cone_capped" else None
    grading = draw(st.sampled_from(gradings))
    cells = draw(st.integers(8, 64))
    ops = ModeOperators(build_mesh(profile(kind, c), cells, grading), draw(st.integers(0, 4)))
    return ops, (kind, c, grading, cells)


@st.composite
def fields_on(draw, ops):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        return smooth_random_field(ops, rng, sup_amplitude=draw(st.floats(1e-3, 2.0)))
    c = rng.standard_normal((ops.max_mode + 1, 2, ops.mesh.cells))
    c[0, 1] = 0.0
    return Field(ops.mesh, c)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_dirichlet_seminorm_is_the_laplacian_pairing(data):
    ops, _ = data.draw(workspaces())
    u = data.draw(fields_on(ops))
    w = channel_weights(ops.max_mode)
    lap = ops.apply_laplacian(u).coeffs
    pairing = -float(np.einsum("kci,kci,kc,i->", lap, u.coeffs, w, ops.volumes))
    assert h1_seminorm(u) ** 2 == pytest.approx(pairing, rel=1e-12)


@st.composite
def foreign_fields(draw, ops, spec):
    """A field on the same cell count from another slope, grading or truncation."""
    kind, c, grading, cells = spec
    change = draw(st.sampled_from(("slope", "grading", "truncation")))
    max_mode = ops.max_mode
    if change == "slope":
        kind, c = "cone_capped", draw(st.sampled_from([s for s in SLOPES if s != c]))
    elif change == "grading":
        grading = draw(st.sampled_from([q for q in (1.0, 0.9, 0.8, 0.7) if q != grading]))
    else:
        max_mode = draw(st.sampled_from([k for k in range(6) if k != max_mode]))
    return Field(build_mesh(profile(kind, c), cells, grading), np.zeros((max_mode + 1, 2, cells)))


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fields_from_another_geometry_or_truncation_are_rejected(data):
    ops, spec = data.draw(workspaces())
    foreign = data.draw(foreign_fields(ops, spec))
    for apply in (ops.apply_laplacian, lambda v: ops.solve_ch_system(v, 1e-3, 2.0),
                  lambda v: h01_dual_norm(v, ops)):
        with pytest.raises(ValueError, match="does not match operator"):
            apply(foreign)


def per_mode_solve_neglap(ops, mode, rhs):
    """The reference -L_k solve: its own Cholesky factor per mode, mode 0 on its first M-1 rows."""
    diag, sub = ops.neglap_bands(mode)
    n = ops.mesh.cells - (mode == 0)
    ab = np.zeros((2, n))
    ab[0] = diag[:n]
    ab[1, :-1] = sub[:n - 1]
    fac = cholesky_banded(ab, lower=True)
    rhs = np.asarray(rhs, dtype=float)
    single = rhs.ndim == 1
    r = rhs[:, None] if single else rhs.copy()
    r = ops.sqrt_volumes[:, None] * r
    if mode == 0:
        nhat = ops.sqrt_volumes / np.sqrt(ops.mesh.area)
        r -= nhat[:, None] * (nhat @ r)
        w = np.zeros_like(r)
        w[:-1] = cho_solve_banded((fac, True), r[:-1])
        psi = w / ops.sqrt_volumes[:, None]
        psi -= (ops.volumes @ psi) / ops.mesh.area
    else:
        psi = cho_solve_banded((fac, True), r) / ops.sqrt_volumes[:, None]
    return psi[:, 0] if single else psi


def per_mode_dual_norm(v, ops):
    w = channel_weights(v.max_mode)
    total = 0.0
    for k in range(v.max_mode + 1):
        stack = v.coeffs[k].T
        if k == 0:
            stack = stack.copy()
            stack[:, 0] -= (ops.volumes @ stack[:, 0]) / ops.mesh.area
        psi = per_mode_solve_neglap(ops, k, stack)
        pair = (ops.volumes[:, None] * stack * psi).sum(axis=0)
        total += float(w[k] @ np.maximum(pair, 0.0))
    return math.sqrt(total)


def per_mode_smallest_eigenvalue(ops, mode):
    """The reference inverse iteration: one mode at a time, one solve per step."""
    m = ops.mesh.cells
    v = np.random.default_rng(12345 + mode).standard_normal(m)
    if mode == 0:
        v -= (ops.volumes @ v) / ops.mesh.area
    v /= np.sqrt(ops.volumes @ v ** 2)
    lam_prev = np.inf
    for _ in range(EIGEN_MAX_ITER):
        w = per_mode_solve_neglap(ops, mode, v)
        norm_w = np.sqrt(ops.volumes @ w ** 2)
        lam = 1.0 / float(ops.volumes @ (w * v))
        v = w / norm_w
        if abs(lam - lam_prev) <= EIGEN_TOL * abs(lam):
            break
        lam_prev = lam
    return float(lam)


def mean_free(u):
    c = u.coeffs.copy()
    c[0, 0] -= (u.mesh.volumes @ c[0, 0]) / u.mesh.area
    return Field(u.mesh, c)


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_stacked_factor_solves_equal_the_per_mode_factors_bit_for_bit(data):
    ops, _ = data.draw(workspaces())
    u = data.draw(fields_on(ops))
    for k in range(ops.max_mode + 1):
        for rhs in (u.coeffs[k, 0], u.coeffs[k].T):
            assert ops.solve_neglap(k, rhs).tobytes() == per_mode_solve_neglap(ops, k, rhs).tobytes()
    v = mean_free(u)
    assert h01_dual_norm(v, ops) == per_mode_dual_norm(v, ops)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_stacked_inverse_iteration_equals_the_per_mode_iteration_bit_for_bit(data):
    ops, _ = data.draw(workspaces(gradings=(1.0, 0.9, 0.8, 0.7)))
    for k in data.draw(st.permutations(range(ops.max_mode + 1))):
        assert ops.smallest_eigenvalue(k) == per_mode_smallest_eigenvalue(ops, k)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_whole_field_inverse_solves_the_poisson_problem(data):
    ops, _ = data.draw(workspaces().filter(lambda w: w[1][2] == 1.0))  # uniform meshes
    u = data.draw(fields_on(ops))
    rhs, psi = (a.transpose(0, 2, 1) for a in ops.solve_neglap_field(u.coeffs))
    w = channel_weights(ops.max_mode)

    def norm(c):
        return math.sqrt(float(np.einsum("kci,i,kc->", c * c, ops.volumes, w)))

    assert norm(-ops.apply_laplacian_coeffs(psi) - rhs) <= 1e-10 * norm(rhs)
    assert abs(ops.volumes @ psi[0, 0]) <= 1e-13 * (ops.volumes @ np.abs(psi[0, 0]))


def tridiagonal_apply(diag, sub, v):
    y = diag * v
    y[..., :-1] += sub * v[..., 1:]
    y[..., 1:] += sub * v[..., :-1]
    return y


def ch_residual_terms(ops, x, rhs, dt, s):
    """Residual, right-hand side and Oettli-Prager term of one implicit solve, in long double.

    The system is A x_sym = rhs_sym with A = I + dt*B^2 + S*dt*B in
    symmetrized coordinates, built from the bands of B alone; the three norms
    are the solve's own, volume- and channel-weighted.
    """
    ld = np.longdouble
    vol = ops.volumes.astype(ld)
    xs, bs = np.sqrt(vol) * x.astype(ld), np.sqrt(vol) * rhs.astype(ld)
    resid, op_term = np.empty_like(xs), np.empty_like(xs)
    for k in range(ops.max_mode + 1):
        diag, sub = (band.astype(ld) for band in ops.neglap_bands(k))

        def step_matrix(v, sub):
            """A v; with the sign of ``sub`` flipped, |A| v (B's diagonal is positive)."""
            bv = tridiagonal_apply(diag, sub, v)
            return v + dt * tridiagonal_apply(diag, sub, bv) + s * dt * bv

        resid[k] = step_matrix(xs[k], sub) - bs[k]
        op_term[k] = step_matrix(abs(xs[k]), -sub) + abs(bs[k])
    weight = channel_weights(ops.max_mode)[:, :, None] * vol

    def norm(v):
        return float(np.sqrt((weight * v * v).sum()))

    return norm(resid), norm(bs), norm(op_term)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_implicit_solve_meets_its_residual_bound(data):
    # gradings down to 0.5 reach the meshes where the evaluation floor is live
    ops, _ = data.draw(workspaces(gradings=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5)))
    dt = data.draw(st.sampled_from((1e-4, 1e-3, 1e-2)))
    s = data.draw(st.sampled_from((0.0, 2.0, 5.0)))
    rhs = [np.stack([data.draw(fields_on(ops)).coeffs for _ in range(data.draw(st.integers(1, 3)))])
           for _ in range(2)]
    first = ops.solve_ch_system(rhs[0], dt, s)
    kept = first.copy()
    # the second call reuses or replaces the work arrays the first ran in
    second = (ops.solve_ch_system(Field(ops.mesh, rhs[1][0]), dt, s).coeffs[None]
              if len(rhs[1]) == 1 else ops.solve_ch_system(rhs[1], dt, s))
    assert first.tobytes() == kept.tobytes()
    eps = float(np.finfo(float).eps)
    for x, b in zip([*first, *second], [*rhs[0], *rhs[1]]):
        resid, b_norm, op_norm = ch_residual_terms(ops, x, b, dt, s)
        assert resid <= SOLVE_RESIDUAL_TOL * b_norm + RESIDUAL_NOISE_FACTOR * eps * op_norm


def test_residual_floor_is_live_on_a_deeply_graded_mesh():
    """The property above reaches meshes where 1e-10 * ||rhs|| alone cannot be met."""
    ops = ModeOperators(build_mesh(profile("cone_capped", "1/2"), 64, 0.6), 4)
    rhs = np.random.default_rng(0).standard_normal((1, 5, 2, 64))
    resid, b_norm, _ = ch_residual_terms(ops, ops.solve_ch_system(rhs, 1e-3, 2.0)[0],
                                         rhs[0], 1e-3, 2.0)
    assert resid > 100 * SOLVE_RESIDUAL_TOL * b_norm


@settings(max_examples=50, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_run_split_at_any_step_resumes_bit_for_bit(data):
    ops, _ = data.draw(workspaces())
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    u0 = smooth_random_field(ops, rng, sup_amplitude=data.draw(st.floats(1e-3, 0.5))) \
        + constant_field(ops.mesh, ops.max_mode, data.draw(st.sampled_from((0.0, 0.25, -0.4))))
    dt = data.draw(st.sampled_from((1e-3, 1e-2)))
    stride = data.draw(st.integers(1, 10))
    n_steps = data.draw(st.integers(stride + 1, 40))
    cfg = StepperConfig(dt=dt, t_max=n_steps * dt, snapshot_stride=stride,
                        eq_tol=data.draw(st.sampled_from((0.0, 1e-2, 1e-1, 1.0))))
    if cfg.eq_tol:
        # the head's closing record tests for equilibrium exactly, which the
        # whole run does only at its records and where the Poincare screen lets it
        split = stride * data.draw(st.integers(1, (n_steps - 1) // stride))
    else:
        split = data.draw(st.integers(1, n_steps - 1))
    full = run_semiflow(ops, u0, cfg, collect_snapshots=True)
    head = run_semiflow(ops, u0, replace(cfg, t_max=(split + 0.5) * dt), collect_snapshots=True)
    if head.equilibrium_reached:
        parts = [head]
    else:
        tail = run_semiflow(ops, head.state, cfg, collect_snapshots=True)
        # the head closes with a record at the split, which the whole run has
        # only at a stride
        if split % stride:
            head.records.pop()
            head.snapshots.pop()
        parts = [head, tail]
    assert [rec for p in parts for rec in p.records] == full.records
    snaps = [snap for p in parts for snap in p.snapshots]
    assert [step for step, _ in snaps] == [step for step, _ in full.snapshots]
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(snaps, full.snapshots))
    last = parts[-1]
    assert last.state.step == full.state.step and last.state.mean0 == full.state.mean0
    assert last.state.u.coeffs.tobytes() == full.state.u.coeffs.tobytes()
    assert last.equilibrium_reached == full.equilibrium_reached
    assert last.final_residual == full.final_residual
