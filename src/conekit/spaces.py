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

from .fields import Field, channel_weights
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
    if not 1 <= p < math.inf:   # NaN fails both comparisons
        raise ValueError(f"p must be >= 1 and finite, got {p}")
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

    Rejects inputs that are not finite or whose mean is not zero (relative to
    the sup of the field); project the mean off first if needed.
    """
    ops._check_field(v)
    if not np.isfinite(v.coeffs).all():   # NaN passes the mean check below
        raise ValueError("h01_dual_norm needs a finite field")
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


def _cutoff(mesh, x: np.ndarray) -> np.ndarray:
    """The collar cutoff omega: 1 on [0, 0.4 l], 0 from 0.8 l on, l = min(1, L),
    with a monotone cubic (C^1) ramp between."""
    start, stop = 0.4 * min(1.0, mesh.length), 0.8 * min(1.0, mesh.length)
    t = np.clip((x - start) / (stop - start), 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _sobolev_sum(v: np.ndarray, x: np.ndarray, xi: np.ndarray | float, ang: np.ndarray,
                 weight: np.ndarray, w: np.ndarray, s: int) -> float:
    """Sum over a + b <= s of int |(xi d/dx)^a ang^b v|^2 weight, channel-weighted by w.

    The radial derivative of cell data is second-order centered with one-sided ends.
    """
    total = 0.0
    for a in range(s + 1):
        if a:
            v = xi * np.gradient(v, x, axis=-1, edge_order=2)
        for b in range(s + 1 - a):
            total += float(np.einsum("kci,i,kc->", (v * ang ** b) ** 2, weight, w))
    return total


def mellin_norm(u: Field, s: int, gamma: float) -> float:
    """Tip-weighted Sobolev norm of order s in {0, 1, 2} with a finite weight gamma.

    Collar part (tip region, radius weighted by x^{(n+1)/2-gamma}, n = 1):

        sum over derivative orders a + b <= s of
        int |x^{1-gamma} (x d/dx)^a (angular/x-scale)^b (omega u)|^2 f/x dx/x dtheta

    where the angular factor per mode k is (k x / f(x))^b, plus the ordinary
    order-s Sobolev norm of the remainder (1-omega) u, with omega the collar
    cutoff ``_cutoff``.  The two contributions are added (collar + interior).
    """
    if s not in (0, 1, 2):
        raise ValueError(f"order s must be one of 0, 1, 2, got {s}")
    if not -math.inf < gamma < math.inf:   # written so that a NaN fails
        raise ValueError(f"weight gamma must be finite, got {gamma}")
    mesh = u.mesh
    x = mesh.centers
    collar_len = min(1.0, mesh.length)
    idx = np.nonzero(x < collar_len)[0]
    if idx.size < (3 if s else 1):   # a derivative's second-order one-sided ends take 3 cells
        raise ValueError(f"mellin_norm of order {s} needs at least {'3 cells' if s else '1 cell'} "
                         f"in the collar x < {collar_len:g}, which has {idx.size}")
    omega = _cutoff(mesh, x)
    w = channel_weights(u.max_mode)
    k = np.arange(u.max_mode + 1, dtype=float)[:, None, None]
    xc, fc = x[idx], mesh.f_centers[idx]
    # the collar weight spells out the 2*pi-free measure f/x dx/x; volumes carry 2*pi f dx
    collar = _sobolev_sum(omega[idx] * u.coeffs[..., idx], xc, xc, k * xc / fc,
                          xc ** (2.0 * (1.0 - gamma)) * (fc / xc) * (mesh.widths[idx] / xc), w, s)
    interior = _sobolev_sum((1.0 - omega) * u.coeffs, x, 1.0, k / mesh.f_centers,
                            mesh.volumes / (2.0 * math.pi), w, s)
    return math.sqrt(2.0 * math.pi * collar) + math.sqrt(2.0 * math.pi * interior)
