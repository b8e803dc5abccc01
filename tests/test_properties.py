"""Invariants of the discrete operator over generated meshes and fields.

Meshes are spheres and capped cones, uniform and tip-graded, with angular
truncations 0 to 4.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from conekit.analysis import smooth_random_field
from conekit.fields import Field, channel_weights, coeffs_to_values, values_to_coeffs
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


# ------------------------------------------- the step's Laplacian and transforms
# Reference copies of the strided formulas the contiguous passes replaced.


def reference_flux_divergence(ops, radial):
    m = radial.shape[-1]
    flux = np.zeros(radial.shape[:-1] + (m + 1,))
    inner = flux[..., 1:m]
    np.subtract(radial[..., 1:], radial[..., :-1], out=inner)
    inner *= ops.trans[1:m]
    div = np.subtract(flux[..., 1:], flux[..., :-1])
    div /= ops.volumes
    return div


def reference_laplacian(ops, coeffs):
    ksq = (np.arange(ops.max_mode + 1, dtype=float) ** 2)[:, None, None]
    return reference_flux_divergence(ops, coeffs) - ksq * ops.inv_f_sq * coeffs


def reference_gauss_defect(ops, coeffs):
    return abs(float(ops.volumes @ reference_flux_divergence(ops, coeffs[0, 0])))


def reference_coeffs_to_values(coeffs):
    kmax, m = coeffs.shape[-3] - 1, coeffs.shape[-1]
    n = 4 * (kmax + 1)
    spec = np.zeros(coeffs.shape[:-3] + (m, n // 2 + 1), dtype=complex)
    spec[..., 0] = n * coeffs[..., 0, 0, :]
    if kmax >= 1:
        spec[..., 1:kmax + 1] = np.swapaxes(
            (n / 2.0) * (coeffs[..., 1:, 0, :] - 1j * coeffs[..., 1:, 1, :]), -1, -2)
    return np.fft.irfft(spec, n=n, axis=-1)


def reference_values_to_coeffs(values, max_mode):
    m, n = values.shape[-2:]
    spec = np.fft.rfft(values, axis=-1)
    out = np.zeros(values.shape[:-2] + (max_mode + 1, 2, m))
    out[..., 0, 0, :] = spec[..., 0].real / n
    if max_mode >= 1:
        modes = np.swapaxes(spec[..., 1:max_mode + 1], -1, -2)
        out[..., 1:, 0, :] = (2.0 / n) * modes.real
        out[..., 1:, 1, :] = (-2.0 / n) * modes.imag
    return out


@st.composite
def coefficient_stacks(draw, ops):
    """(B, K+1, 2, M) stacks of generated fields with exact +-0, and maybe inf and nan, entries.

    C-ordered, or in the layout of the implicit solve's output (a transposed
    (B, 2, K+1, M) array).  Special values favour the ends of the rows.
    """
    nb, k1, m = draw(st.integers(1, 4)), ops.max_mode + 1, ops.mesh.cells
    x = np.stack([draw(fields_on(ops)).coeffs for _ in range(nb)])
    specials = [0.0, -0.0] + ([math.inf, -math.inf, math.nan] if draw(st.booleans()) else [])
    row = st.tuples(st.integers(0, nb - 1), st.integers(0, k1 - 1), st.integers(0, 1))
    for _ in range(draw(st.integers(0, 3))):
        x[draw(row)] = draw(st.sampled_from([0.0, -0.0]))
    for _ in range(draw(st.integers(0, 8))):
        cell = draw(st.one_of(st.sampled_from([0, m - 1]), st.integers(0, m - 1)))
        x[draw(row) + (cell,)] = draw(st.sampled_from(specials))
    if draw(st.booleans()):
        x = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    return x


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.strides == want.strides
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


def without_new_warnings(kernel, reference):
    """Both results; the kernel may warn only with messages the reference also gives."""
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want = reference()
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        got = kernel()
    assert {str(w.message) for w in got_warned} <= {str(w.message) for w in want_warned}
    return got, want


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_laplacian_and_transforms_keep_the_reference_bits_and_strides(data):
    ops, _ = data.draw(workspaces())
    x = data.draw(coefficient_stacks(ops))
    k = ops.max_mode
    with np.errstate(all="ignore"):
        vals = reference_coeffs_to_values(x)
    cases = (
        (lambda: ops.apply_laplacian_coeffs(x), lambda: reference_laplacian(ops, x)),
        (lambda: ops.apply_laplacian_coeffs(x[-1]), lambda: reference_laplacian(ops, x[-1])),
        (lambda: ops.gauss_defect(Field(ops.mesh, x[-1])),
         lambda: reference_gauss_defect(ops, x[-1])),
        (lambda: coeffs_to_values(x), lambda: reference_coeffs_to_values(x)),
        (lambda: coeffs_to_values(x[-1]), lambda: reference_coeffs_to_values(x[-1])),
        (lambda: values_to_coeffs(vals, k), lambda: reference_values_to_coeffs(vals, k)),
    )
    for kernel, reference in cases:
        got, want = without_new_warnings(kernel, reference)
        assert same_bits(got, want)


def test_infinities_meeting_across_a_row_end_raise_no_warning():
    # the flat difference pass subtracts the next row's first cell from this
    # row's last one; that difference is dropped and must not warn
    ops = ModeOperators(build_mesh(profile("sphere", None), 16, 1.0), 2)
    x = np.ones((1, 3, 2, 16))
    x[0, 1, 0, -1] = x[0, 1, 1, 0] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ops.apply_laplacian_coeffs(x)
    assert same_bits(got, reference_laplacian(ops, x))
