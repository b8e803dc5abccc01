"""Integrals, norms and dual norms for fields on a conic surface.

Besides the plain Lebesgue/Sobolev quantities (mean, L^p norms, the Dirichlet
seminorm) this module provides the tip-weighted norm ``mellin_norm``: near the
conical point the field is multiplied by x^{(n+1)/2 - gamma} (n = 1 for a
surface) and measured against the scale-invariant measure dx/x together with
x-scaled derivatives, while away from the tip an ordinary Sobolev norm of the
cutoff remainder is added.  The weight exponent gamma tunes how much blow-up
at the tip is tolerated: smaller gamma admits stronger singularities.

The dual norm ``h01_dual_norm`` is the natural distance for mass-conserving
gradient flows: for mean-zero v it equals sqrt(<v, psi>) with -Lap psi = v.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import CutoffFunction, Field, channel_weights
from .operators import ModeOperators

__all__ = [
    "mean",
    "l2_norm",
    "lp_norm",
    "h1_seminorm",
    "h01_dual_norm",
    "poincare_constant",
    "mellin_norm",
]


def mean(u: Field) -> float:
    """Area-average of the field (only the angular mean contributes)."""
    return u.mesh.integrate_radial(u.coeffs[0, 0]) / u.mesh.area


def lp_norm(u: Field, p: int) -> float:
    """L^p norm via the tensor evaluation grid (exact for p in {2, 4} at this truncation)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = np.abs(u.grid_values()) ** p
    return float(u.mesh.integrate_radial(vals.mean(axis=1))) ** (1.0 / p)


def l2_norm(u: Field) -> float:
    return lp_norm(u, 2)


def h1_seminorm(u: Field) -> float:
    """Dirichlet seminorm sqrt(int |grad u|^2 dmu), evaluated in flux form.

    Uses the mesh's face transmissibilities, the same ones as the discrete
    Laplacian, so h1_seminorm(u)^2 equals <-Lap u, u> exactly (up to roundoff).
    """
    mesh = u.mesh
    w = channel_weights(u.max_mode)
    diffs = u.coeffs[..., 1:] - u.coeffs[..., :-1]
    radial = np.einsum("kci,kc->", mesh.transmissibilities[1:-1] * diffs ** 2, w)
    ang = np.einsum("kci,kc->", mesh.angular_factor(u.max_mode) * u.coeffs ** 2, w)
    return math.sqrt(radial + ang)


def h01_dual_norm(v: Field, ops: ModeOperators) -> float:
    """Dual Dirichlet norm of a mean-zero field: sqrt(<v, (-Lap)^{-1} v>).

    Rejects inputs whose mean is not zero (relative to the sup of the field);
    project the mean off first if needed.
    """
    ops._check_field(v)
    sup = v.max_abs()
    vmean = mean(v)
    if abs(vmean) > 1e-10 * max(sup, 1e-300):
        raise ValueError(f"h01_dual_norm needs a mean-zero field (mean = {vmean:.3e}, "
                         f"sup = {sup:.3e})")
    w = channel_weights(v.max_mode)
    rhs, psi = ops.solve_neglap_field(v.coeffs)
    total = 0.0
    for k in range(v.max_mode + 1):
        # the layouts fix the summation order: mode 0 C-ordered, the rest coeffs[k].T views
        stack, sol = (rhs[0], np.ascontiguousarray(psi[0])) if k == 0 else (v.coeffs[k].T, psi[k])
        pair = (ops.volumes[:, None] * stack * sol).sum(axis=0)   # per channel
        total += float(w[k] @ np.maximum(pair, 0.0))
    return math.sqrt(total)


def poincare_constant(ops: ModeOperators) -> float:
    """Best constant C with ||u - mean(u)||_2 <= C * h1_seminorm(u).

    Equals 1/sqrt(mu_1) with mu_1 the smallest nonzero eigenvalue of -Lap
    over all angular modes up to the workspace truncation.  Eigenvalues are
    obtained by inverse iteration, which stays accurate on tip-graded meshes.
    """
    mu = min(ops.smallest_eigenvalue(k) for k in range(ops.max_mode + 1))
    if mu <= 0.0:
        raise ArithmeticError("nonpositive principal eigenvalue; mesh degenerate?")
    return 1.0 / math.sqrt(mu)


# --------------------------------------------------------------------- mellin


def _xlog_derivative(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(x d/dx) of cell data, second-order centered with one-sided ends."""
    return x * np.gradient(values, x, axis=-1, edge_order=2)


def _plain_derivative(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.gradient(values, x, axis=-1, edge_order=2)


def mellin_norm(u: Field, s: int, gamma: float, collar_only: bool = False) -> float:
    """Tip-weighted Sobolev norm of order s in {0, 1, 2} with weight gamma.

    Collar part (tip region, radius weighted by x^{(n+1)/2-gamma}, n = 1):

        sum over derivative orders a + b <= s of
        int |x^{1-gamma} (x d/dx)^a (angular/x-scale)^b (omega u)|^2 f/x dx/x dtheta

    where the angular factor per mode k is (k x / f(x))^b, plus the ordinary
    order-s Sobolev norm of the remainder (1-omega) u, with omega the mesh's
    default cutoff.  The two contributions are added (collar + interior).
    With ``collar_only=True`` omega is taken identically 1 on x <= min(1, L)
    and the interior term is dropped; this is the convention used by
    closed-form checks on model fields supported in the collar.
    """
    if s not in (0, 1, 2):
        raise ValueError(f"order s must be one of 0, 1, 2, got {s}")
    mesh = u.mesh
    x = mesh.centers
    collar_len = min(1.0, mesh.length)
    in_collar = x < collar_len
    w = channel_weights(u.max_mode)
    kvec = np.arange(u.max_mode + 1, dtype=float)

    if collar_only:
        omega_vals = in_collar.astype(float)
    else:
        omega_vals = CutoffFunction.default_for(mesh)(x)

    # ---- collar term on cells inside the collar
    idx = np.nonzero(in_collar)[0]
    total_collar = 0.0
    if idx.size:
        xc = x[idx]
        fc = mesh.f_centers[idx]
        dxc = mesh.widths[idx]
        weight = xc ** (2.0 * (1.0 - gamma)) * (fc / xc) * (dxc / xc)
        base = (omega_vals[idx] * u.coeffs[..., idx])  # (K+1, 2, nc)
        ang_scale = kvec[:, None, None] * xc / fc      # one angular derivative, x-scaled
        for a in range(s + 1):
            for b in range(s + 1 - a):
                term = base
                for _ in range(a):
                    term = _xlog_derivative(term, xc)
                term = term * ang_scale ** b
                total_collar += float(np.einsum("kci,i,kc->", term ** 2, weight, w))

    # ---- interior term: plain Sobolev norm of (1 - omega) u
    total_interior = 0.0
    if not collar_only:
        rem = (1.0 - omega_vals) * u.coeffs
        if np.any(rem != 0.0):
            ang_plain = kvec[:, None, None] / mesh.f_centers
            for a in range(s + 1):
                for b in range(s + 1 - a):
                    term = rem
                    for _ in range(a):
                        term = _plain_derivative(term, x)
                    term = term * ang_plain ** b
                    total_interior += float(
                        np.einsum("kci,i,kc->", term ** 2, mesh.volumes / (2.0 * math.pi), w))
    # volumes already carry the 2*pi f dx measure; the collar weight above
    # spelled it out explicitly, so put the 2*pi back uniformly here:
    return math.sqrt(2.0 * math.pi * total_collar) + math.sqrt(2.0 * math.pi * total_interior)
