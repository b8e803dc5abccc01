"""Finite-volume Laplace-Beltrami mode operators on a radial mesh.

For a field written as a sum of angular modes, the Laplacian acts on each
radial profile through the flux-form operator

    (L_k u)_i = [ t_i (u_{i+1} - u_i) - t_{i-1} (u_i - u_{i-1}) ] / vol_i
                - (k / f(s_i))^2 u_i ,

with face transmissibilities t = 2*pi*f(face) / (center distance) and zero
flux through both ends (the tip face has f = 0, so the inner flux vanishes
identically; no boundary condition is imposed beyond that).  This makes
-L_k symmetric and positive semidefinite in the cell-volume inner product,
with nullspace exactly the constants for k = 0 and trivial for k >= 1.

All solves go through the symmetrized tridiagonal form
B_k = D^{1/2} (-L_k) D^{-1/2}, D = diag(volumes).  The workspace keeps one
banded Cholesky factor of B over the stacked modes, and every -L_k solve is
one block solve on it (_solve_blocks): a single dpbtrs call over a
run of consecutive modes, which gives each block the bits of its own
per-mode solve.  It also keeps the implicit step's LU pair and the implicit
solve's work array (complex right-hand-side columns, replaced when the
member count changes); the solve runs in it, so it is not reentrant.  The
solve is _ch_pack, the two sweeps (_sweep_columns), _ch_verify and _unpack;
the sweeps and the verification may run in different processes, and so may
the sweeps of single columns, with the bits each gets among the others.
Eigenvalues are computed on demand and not kept.  The tip probes' pivoted LU
(solve_neglap_pivoted) stays outside the Cholesky factor: it takes modes
above the truncation, and the Cholesky solve moves the pinned fits.csv and
profiles.csv bits (3e-14 relative at the default configuration).

The fourth-order implicit step matrix I + dt*B^2 + S*dt*B is never assembled
as a pentadiagonal system: squaring B doubles its (enormous, on tip-graded
meshes) condition number and the squared matrix loses numerical positive
definiteness long before the underlying step does.  Instead it is factored
exactly as the product (I + a*B)(I + b*B) with a*b = dt, a + b = S*dt -- a
complex-conjugate pair whenever S^2*dt < 4 -- and each step performs two
tridiagonal LU solves in complex arithmetic.

Residual checks compare against 1e-10 * ||rhs|| plus the Oettli-Prager
evaluation floor eps * || |A| |x| + |rhs| ||: on a tip-graded mesh the rows
of the fourth-order system reach ~1/width^4, so even the residual of the
exact solution cannot be measured below that floor in double precision.
On uniform and mildly graded meshes the floor is negligible and the plain
relative test is what is enforced.

LAPACK is reached through scipy's compiled module scipy.linalg._flapack,
loaded without running the scipy.linalg package, whose import takes most of
a fresh process's import time and 25 MB.  Each call is the routine that
scipy.linalg's wrapper would call (dpbtrf, dpbtrs, dstevd, dgtsv for
cholesky_banded, cho_solve_banded, eigh_tridiagonal, solve_banded) on the
same arrays, with the same bits and the wrapper's errors.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from functools import cached_property

import numpy as np

from .fields import Field, _check_mode, channel_weights
from .geometry import RadialMesh

__all__ = [
    "ModeOperators",
    "SolverError",
]

#: Relative residual above which a linear solve counts as failed.
SOLVE_RESIDUAL_TOL = 1.0e-10

#: Headroom multiplier on the machine-epsilon residual evaluation floor.
RESIDUAL_NOISE_FACTOR = 8.0

#: Relative Rayleigh-quotient change, and iteration cap, that end the
#: inverse iteration of smallest_eigenvalue().
EIGEN_TOL = 1.0e-13
EIGEN_MAX_ITER = 200

_EPS = float(np.finfo(float).eps)


def _load_flapack():
    """scipy.linalg._flapack, shared with scipy.linalg whichever of the two loads it first."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy_dir, "linalg")])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_flapack = _load_flapack()
dgtsv, dpbtrf, dpbtrs, dstevd = _flapack.dgtsv, _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dstevd
zgttrf, zgttrs = _flapack.zgttrf, _flapack.zgttrs


def _lapack(routine, *arrays, **options) -> list:
    """routine's outputs without info, checked and raising as scipy.linalg's wrappers do."""
    *out, info = routine(*map(np.asarray_chkfinite, arrays), **options)
    if info:
        raise (np.linalg.LinAlgError if info > 0 else ValueError)(f"LAPACK returned info={info}")
    return out


def _stage_roots(dt: float, stabilization: float) -> tuple[complex, complex]:
    """Roots a, b with a*b = dt and a + b = S*dt.

    They factor the implicit step matrix: I + dt*B^2 + S*dt*B
    = (I + a*B)(I + b*B).  For S^2*dt < 4 the pair is complex conjugate.
    """
    sd = stabilization * dt
    disc = sd * sd - 4.0 * dt
    if disc >= 0.0:
        a = 0.5 * (sd + math.sqrt(disc))
        return complex(a), complex(dt / a)
    a = complex(0.5 * sd, 0.5 * math.sqrt(-disc))
    return a, a.conjugate()


class SolverError(RuntimeError):
    """A linear solve failed its residual check (or the system is incompatible)."""


class ModeOperators:
    """Workspace bundling mesh data, mode matrices and cached factorizations."""

    def __init__(self, mesh: RadialMesh, max_mode: int):
        if isinstance(max_mode, bool) or not isinstance(max_mode, (int, np.integer)) \
                or max_mode < 0:
            raise ValueError(f"max_mode must be >= 0 and an integer, got {max_mode!r}")
        self.mesh = mesh
        self.max_mode = int(max_mode)
        self.trans = mesh.transmissibilities
        self.volumes = mesh.volumes
        self.sqrt_volumes = np.sqrt(mesh.volumes)
        self.inv_f_sq = 1.0 / mesh.f_centers ** 2
        ksq = (np.arange(self.max_mode + 1, dtype=float) ** 2)[:, None, None]
        self._angular_coeff = ksq * self.inv_f_sq       # (k / f)^2, shape (K+1, 1, M)
        self._smallest_eigenvalues = None   # every mode's, computed together
        self._ch_factor: dict[tuple[float, float], object] = {}
        self._ch_work = None    # the solve's complex (n, 2B) right-hand-side columns
        # weights of the verification norms: channel- and volume-weighted,
        # in the symmetrized coordinates the solver works in
        self._sym_weight = channel_weights(self.max_mode)[:, :, None] * mesh.volumes ** 2

    # ------------------------------------------------------------------ bands

    def neglap_bands(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, subdiagonal) of the symmetrized positive operator B_k, any mode k >= 0."""
        if mode < 0:
            raise ValueError(f"mode must be >= 0, got {mode}")
        m = self.mesh.cells
        t, vol = self.trans, self.volumes
        diag = (t[:m] + t[1:]) / vol + (mode * mode) * self.inv_f_sq
        sub = -t[1:m] / np.sqrt(vol[:-1] * vol[1:])
        return diag, sub

    # ---------------------------------------------------------------- applies

    def _check_field(self, u: Field):
        if not u.mesh.same_as(self.mesh):
            raise ValueError("field mesh does not match operator mesh")
        if u.max_mode != self.max_mode:
            raise ValueError(f"field truncation {u.max_mode} does not match "
                             f"operator truncation {self.max_mode}")

    def _flux_divergence(self, x: np.ndarray, angular=None) -> np.ndarray:
        """Radial flux-form part of L_k for profiles (..., M), minus ``angular * x`` if given.

        Zero flux at both ends.  Contiguous passes over the rows of M cells of
        a C-ordered copy: each cell keeps its own row's operands and order of
        operations, and the result is C-ordered whatever the input layout.
        """
        x = np.ascontiguousarray(x)
        m, n = x.shape[-1], x.size
        flux = np.empty(n + 1)   # flux[r*m + i]: through the inner face of cell i of row r
        flux[0] = 0.0
        with np.errstate(invalid="ignore", over="ignore"):  # the cross-row differences are dropped
            np.subtract(x.reshape(-1)[1:], x.reshape(-1)[:-1], out=flux[1:n])
        faces = flux[1:].reshape(-1, m)
        faces[:, -1] = 0.0   # each row's outer end, which also holds the next row's inner end
        faces *= self.trans[1:]
        div = np.subtract(flux[1:], flux[:-1]).reshape(-1, m)
        div /= self.volumes
        div = div.reshape(x.shape)
        if angular is not None:
            div -= angular * x
        return div

    def apply_laplacian_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """L_k applied to coefficient data (..., K+1, 2, M); leading axes are a batch."""
        if coeffs.ndim < 3 or coeffs.shape[-3] != self.max_mode + 1:
            raise ValueError(f"coefficient shape {coeffs.shape} does not have "
                             f"{self.max_mode + 1} angular modes on axis -3")
        return self._flux_divergence(coeffs, self._angular_coeff)

    def apply_laplacian(self, u: Field) -> Field:
        """Laplace-Beltrami operator applied mode by mode."""
        self._check_field(u)
        return Field(self.mesh, self.apply_laplacian_coeffs(u.coeffs))

    def gauss_defect(self, u: Field) -> float:
        """|integral of Lap(u) dmu|: exact-zero up to roundoff by construction."""
        self._check_field(u)
        # mode 0 has no angular term, so its Laplacian is the flux divergence
        return abs(float(self.volumes @ self._flux_divergence(u.coeffs[0, 0])))

    # ----------------------------------------------------------------- solves

    @cached_property
    def _neglap_factor(self) -> np.ndarray:
        """Cholesky factor of B over the stacked modes, one block per mode.

        Mode 0's last row is pinned to the identity; that drops the constants.
        """
        diag, sub = self._stacked_bands
        m = self.mesh.cells
        ab = np.stack([diag, np.append(sub, 0.0)])  # lower band layout
        ab[0, m - 1] = 1.0
        ab[1, m - 2] = 0.0
        return _lapack(dpbtrf, ab, lower=1)[0]

    def _solve_blocks(self, first: int, rhs: np.ndarray) -> np.ndarray:
        """Solve -L_k psi = rhs, rhs of shape (blocks, M, columns), for k = first, first+1, ...

        One banded Cholesky solve for all blocks.  Mode 0's right-hand side is
        projected off the constants and its solution returned vol-mean-free.
        """
        nb, m, _ = rhs.shape
        r = self.sqrt_volumes[:, None] * rhs
        if first == 0:
            # remove the nullspace component (direction sqrt(vol) in sym coords),
            # on a C-ordered copy: the projection's bits depend on the layout
            r0 = np.ascontiguousarray(r[0])
            nhat = self.sqrt_volumes / np.sqrt(self.mesh.area)
            r0 -= nhat[:, None] * (nhat @ r0)
            r0[-1] = 0.0  # the pinned row: its solution entry is 0
            r[0] = r0
        fac = self._neglap_factor[:, first * m:(first + nb) * m]
        w = _lapack(dpbtrs, fac, r.reshape(nb * m, -1), lower=1)[0]
        psi = w.reshape(rhs.shape) / self.sqrt_volumes[:, None]
        if first == 0:
            psi0 = np.ascontiguousarray(psi[0])  # the mean's bits depend on the layout
            psi0 -= (self.volumes @ psi0) / self.mesh.area
            psi[0] = psi0
        return psi

    def solve_neglap(self, mode: int, rhs: np.ndarray) -> np.ndarray:
        """Solve -L_k psi = rhs for one radial profile (or a stack of them).

        For mode 0 the right-hand side must have zero volume mean (it is
        projected for safety) and the solution is returned vol-mean-free.
        Accepts rhs of shape (M,) or (M, nrhs).
        """
        _check_mode(mode, self.max_mode)
        rhs = np.asarray(rhs, dtype=float)
        return self._solve_blocks(mode, rhs.reshape(1, rhs.shape[0], -1))[0].reshape(rhs.shape)

    def solve_neglap_field(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve -L_k psi_k = v_k for every mode of coefficient data (K+1, 2, M).

        Returns (rhs, psi), each (K+1, M, 2) with cos and sin channel in the
        columns: the right-hand sides, mode 0's with its volume mean removed,
        and the solutions.
        """
        rhs = coeffs.transpose(0, 2, 1).copy()
        rhs[0, :, 0] -= (self.volumes @ rhs[0, :, 0]) / self.mesh.area
        return rhs, self._solve_blocks(0, rhs)

    def solve_neglap_pivoted(self, mode: int, rhs: np.ndarray) -> np.ndarray:
        """Solve -L_k u = rhs for one radial profile and any mode k >= 1 (the tip probes).

        A pivoted banded LU on B_k, outside the Cholesky factor (see the module
        docstring).  The residual (volume-weighted) must be <= 1e-10 * ||rhs||,
        else SolverError.
        """
        rhs = np.asarray(rhs, dtype=float)
        if mode < 1:
            raise ValueError(f"mode must be >= 1 (-L_0 is singular), got {mode}")
        if rhs.shape != (self.mesh.cells,):
            raise ValueError(f"rhs must have shape ({self.mesh.cells},)")
        diag, sub = self.neglap_bands(mode)
        u = _lapack(dgtsv, sub, diag, sub, self.sqrt_volumes * rhs)[3] / self.sqrt_volumes
        vol = self.volumes
        resid = (mode * mode) * self.inv_f_sq * u - self._flux_divergence(u) - rhs
        tol = SOLVE_RESIDUAL_TOL * max(float(np.sqrt(vol @ rhs ** 2)), 1e-300)
        if not (np.sqrt(vol @ resid ** 2) <= tol):  # written so that a NaN fails
            raise SolverError(f"-L_k solve residual exceeded tolerance for mode {mode}")
        return u

    # -------------------------------------------------------- implicit solver

    @cached_property
    def _stacked_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """Bands of B over all modes as one block-diagonal tridiagonal system."""
        nmodes = self.max_mode + 1
        diag = np.concatenate([self.neglap_bands(k)[0] for k in range(nmodes)])
        # zeros between the blocks decouple the modes
        return diag, np.tile(np.append(self.neglap_bands(0)[1], 0.0), nmodes)[:-1]

    def ch_factorization(self, dt: float, stabilization: float):
        """Cached tridiagonal LU pair factoring the implicit step matrix.

        Returns ((fac_a, fac_b), abs_penta) where each fac is the zgttrf
        factorization of I + root*B over the stacked modes and abs_penta
        holds the lower bands of |I + dt*B^2 + S*dt*B| used for the
        residual evaluation floor.
        """
        key = (float(dt), float(stabilization))
        fac = self._ch_factor.get(key)
        if fac is None:
            diag, sub = self._stacked_bands
            factors = []
            for root in _stage_roots(*key):
                dlf, df, duf, du2, ipiv, info = zgttrf(root * sub, 1.0 + root * diag, root * sub)
                if info != 0:
                    raise SolverError(f"tridiagonal factorization failed (info={info})")
                factors.append((dlf, df, duf, du2, ipiv))
            dt_, s_ = key
            asub = np.abs(sub)
            b2_diag = diag * diag
            b2_diag[:-1] += asub * asub
            b2_diag[1:] += asub * asub
            abs_penta = (1.0 + dt_ * b2_diag + s_ * dt_ * diag,
                         dt_ * asub * (diag[:-1] + diag[1:]) + s_ * dt_ * asub,
                         dt_ * asub[:-1] * asub[1:])
            fac = self._ch_factor[key] = (tuple(factors), abs_penta)
        return fac

    @staticmethod
    def _abs_penta_apply(bands: tuple, x: np.ndarray) -> np.ndarray:
        """|A| x for the symmetric pentadiagonal |A| given by its lower bands."""
        d0, d1, d2 = bands
        y = d0[:, None] * x
        y[:-1] += d1[:, None] * x[1:]
        y[1:] += d1[:, None] * x[:-1]
        y[:-2] += d2[:, None] * x[2:]
        y[2:] += d2[:, None] * x[:-2]
        return y

    def _unpack(self, cols: np.ndarray, out=None) -> np.ndarray:
        """Stacked (n, 2B) columns in symmetrized coordinates -> (B, K+1, 2, M) coefficients."""
        nb = cols.shape[1] // 2
        return np.divide(cols.T.reshape(nb, 2, self.max_mode + 1, self.mesh.cells)
                         .transpose(0, 2, 1, 3), self.sqrt_volumes, out=out)

    def _sym_norms(self, stack: np.ndarray) -> np.ndarray:
        """Verification norm of each member of a (B, K+1, 2, M) stack."""
        return np.sqrt(np.einsum("bkci,kci->b", stack * stack, self._sym_weight))

    def solve_ch_system(self, rhs, dt: float, stabilization: float):
        """Solve (I + dt*Lap^2 - S*dt*Lap) u = rhs over all angular modes at once.

        ``rhs`` is a Field, or a stack of B coefficient arrays with shape
        (B, K+1, 2, M); the solution comes back in the same form.  Members of
        a stack are extra right-hand-side columns of the one cached
        factorization, and each is solved exactly as it would be alone.

        The banded solution of every member is verified against an
        independent flux-form application of the operator; the tolerance is
        1e-10 * ||rhs|| plus the machine-precision evaluation floor
        eps * || |A| |x| + |rhs| || (volume- and channel-weighted norms
        throughout).  The floor is only evaluated when the plain test fails.
        Non-finite residuals always fail.
        """
        single = isinstance(rhs, Field)
        if single:
            self._check_field(rhs)
            stack = rhs.coeffs[None]
        else:
            stack = np.asarray(rhs, dtype=float)
            if stack.shape[1:] != (self.max_mode + 1, 2, self.mesh.cells):
                raise ValueError(f"coefficient stack shape {stack.shape} does not match "
                                 f"(B, {self.max_mode + 1}, 2, {self.mesh.cells})")
        if not (0.0 < dt < math.inf):   # written so that a NaN fails
            raise ValueError("dt must be positive and finite")
        if not (0.0 <= stabilization < math.inf):
            raise ValueError("stabilization must be >= 0 and finite")
        sol = self._sweep_columns(self._ch_pack(stack), dt, stabilization).real
        self._ch_verify(stack, sol, dt, stabilization)
        coeffs = self._unpack(sol)
        return Field(self.mesh, coeffs[0]) if single else coeffs

    def _ch_pack(self, stack: np.ndarray, out=None) -> np.ndarray:
        """The implicit solve's (n, 2B) complex columns for the right-hand sides ``stack``,
        in symmetrized coordinates and Fortran order: in ``out`` if given, else in the work
        array that the next solve overwrites."""
        nb, kn, m = stack.shape[0], self.max_mode + 1, self.mesh.cells
        if out is None:
            if self._ch_work is None or self._ch_work.shape[1] != 2 * nb:
                self._ch_work = np.empty((2 * nb, kn * m), dtype=complex).T
            out = self._ch_work
        np.multiply(stack.transpose(0, 2, 1, 3), self.sqrt_volumes, out=out.T.reshape(nb, 2, kn, m))
        return out

    def _sweep_columns(self, cols: np.ndarray, dt: float, stabilization: float) -> np.ndarray:
        """Both sweeps of the implicit solve, in place on a Fortran-contiguous block of packed
        columns.  Each column is swept on its own, so a block gets the bits it gets in the
        whole: the columns of one solve may be swept in parts, in different processes."""
        factors, _ = self.ch_factorization(dt, stabilization)
        mid, info1 = zgttrs(*factors[0], cols, overwrite_b=1)
        sol, info2 = zgttrs(*factors[1], mid, overwrite_b=1)
        if info1 != 0 or info2 != 0:
            raise SolverError("tridiagonal solve failed")
        return sol

    def _ch_verify(self, stack: np.ndarray, sol: np.ndarray, dt: float, stabilization: float):
        """Verify the swept columns ``sol`` (their real part) for the right-hand sides
        ``stack``, in any layout; SolverError for a member that fails."""
        _, abs_penta = self.ch_factorization(dt, stabilization)
        # independent verification through the flux-form operator, on a
        # C-ordered copy; x + dt L(L x) - (S dt) L x - rhs is formed in place
        x = self._unpack(sol, out=np.empty(stack.shape))
        lap1 = self.apply_laplacian_coeffs(x)
        resid = self.apply_laplacian_coeffs(lap1)
        np.add(x, np.multiply(dt, resid, out=resid), out=resid)
        resid -= np.multiply(stabilization * dt, lap1, out=lap1)
        resid -= stack
        plain = SOLVE_RESIDUAL_TOL * self._sym_norms(stack)
        resid_norm = self._sym_norms(resid)
        # the floor term is >= 0, so it can only rescue a member that fails the plain test
        if not np.all(resid_norm <= plain):
            packed = (stack.transpose(0, 2, 1, 3) * self.sqrt_volumes).reshape(-1, sol.shape[0])
            floor = RESIDUAL_NOISE_FACTOR * _EPS * self._sym_norms(self._unpack(
                self._abs_penta_apply(abs_penta, np.abs(sol)) + np.abs(packed.T)))
            failed = np.flatnonzero(~(resid_norm <= plain + floor))
            if failed.size:
                b = failed[0]
                raise SolverError(
                    f"implicit step residual {resid_norm[b]:.3e} exceeded tolerance "
                    f"{plain[b] + floor[b]:.3e} (1e-10*||rhs|| = {plain[b]:.3e}, "
                    f"evaluation floor = {floor[b]:.3e})"
                    + (f" for member {b} of {len(stack)}" if len(stack) > 1 else ""))

    # ------------------------------------------------------------ eigensystems

    def eigenvalues(self, mode: int) -> np.ndarray:
        """All eigenvalues of -L_k, ascending, from a full symmetric eigendecomposition.

        Intended for uniform or mildly graded meshes; on deeply graded meshes
        the smallest eigenvalues should be taken from smallest_eigenvalue(),
        which works through solves.
        """
        # With eigenvectors: without them (eigh_tridiagonal's eigvals_only=True) the last bits
        # of the eigenvalues move, and the SHA-256 of the spectrum command's spectrum.csv pins them.
        return _lapack(dstevd, *self.neglap_bands(mode))[0]

    def smallest_eigenvalue(self, mode: int) -> float:
        """Smallest nonzero eigenvalue of -L_k via inverse power iteration.

        Uses the cached factorizations, so accuracy is set by the solve
        residual rather than by the spread of the spectrum (which is enormous
        on tip-graded meshes).  For mode 0 the constant nullspace is projected
        out and the first nonzero eigenvalue is returned.  The first call
        iterates every mode at once, one block solve per step, each mode until
        its own convergence, and caches all of them.
        """
        _check_mode(mode, self.max_mode)
        if self._smallest_eigenvalues is None:
            m, nmodes = self.mesh.cells, self.max_mode + 1
            v = np.stack([np.random.default_rng(12345 + k).standard_normal(m)
                          for k in range(nmodes)])
            v[0] -= (self.volumes @ v[0]) / self.mesh.area
            for vk in v:
                vk /= np.sqrt(self.volumes @ vk ** 2)
            lam = np.full(nmodes, np.inf)
            active = list(range(nmodes))
            for _ in range(EIGEN_MAX_ITER):
                w = self._solve_blocks(0, v[:, :, None])[:, :, 0]
                # one dot per mode: a matrix-vector product sums in another order
                for k in list(active):
                    lam_k = 1.0 / float(self.volumes @ (w[k] * v[k]))  # Rayleigh quotient
                    v[k] = w[k] / np.sqrt(self.volumes @ w[k] ** 2)
                    if abs(lam_k - lam[k]) <= EIGEN_TOL * abs(lam_k):
                        active.remove(k)
                    lam[k] = lam_k
                if not active:
                    break
            self._smallest_eigenvalues = lam
        return float(self._smallest_eigenvalues[mode])
