"""Scalar fields on a surface of revolution, stored as angular Fourier data.

A field u(s, theta) truncated at angular mode K is stored as a real array of
shape (K+1, 2, M): ``coeffs[k, 0]`` is the cos(k*theta) radial profile on the
M cell centers and ``coeffs[k, 1]`` the sin(k*theta) profile (the sin row of
k = 0 is identically zero).  Pointwise operations that mix modes (cubes,
sup norms) go through an equispaced theta grid with 4*(K+1) nodes, enough to
evaluate products of three mode-K fields without aliasing on modes <= K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RadialMesh

__all__ = [
    "Field",
    "CutoffFunction",
    "constant_field",
    "field_from_modes",
    "n_theta_nodes",
]


def n_theta_nodes(max_mode: int) -> int:
    """Quadrature grid size used for pointwise products at truncation max_mode."""
    return 4 * (max_mode + 1)


@dataclass
class Field:
    """Angular-Fourier representation of a scalar field on a radial mesh."""

    mesh: RadialMesh
    coeffs: np.ndarray  # (K+1, 2, M) float64

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] != 2 \
                or self.coeffs.shape[2] != self.mesh.cells:
            raise ValueError(f"coefficient array shape {self.coeffs.shape} does not match "
                             f"(K+1, 2, {self.mesh.cells})")

    @property
    def max_mode(self) -> int:
        return self.coeffs.shape[0] - 1

    def copy(self) -> "Field":
        return Field(self.mesh, self.coeffs.copy())

    def _check_compatible(self, other: "Field"):
        if not self.mesh.same_as(other.mesh):
            raise ValueError("fields live on different meshes")
        if self.max_mode != other.max_mode:
            raise ValueError(f"angular truncations differ: {self.max_mode} vs {other.max_mode}")

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.mesh, self.coeffs + other.coeffs)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.mesh, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.mesh, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.mesh, -self.coeffs)

    def grid_values(self) -> np.ndarray:
        """Evaluate on the (M, n_theta) tensor grid of cell centers x angles."""
        return coeffs_to_values(self.coeffs)

    def max_abs(self) -> float:
        """Sup norm over the evaluation grid."""
        return float(np.abs(self.grid_values()).max())

    def cubed(self) -> "Field":
        """Pointwise cube, projected back onto modes <= K (exact, no aliasing)."""
        vals = self.grid_values()
        vals *= vals * vals
        return Field(self.mesh, values_to_coeffs(vals, self.max_mode))


def coeffs_to_values(coeffs: np.ndarray) -> np.ndarray:
    """Evaluate coefficient data (..., K+1, 2, M) on the theta quadrature grid -> (..., M, N).

    Leading axes are a batch of fields; each is transformed exactly as it
    would be on its own.
    """
    kmax = coeffs.shape[-3] - 1
    m = coeffs.shape[-1]
    n = n_theta_nodes(kmax)
    spec = np.zeros(coeffs.shape[:-3] + (m, n // 2 + 1), dtype=complex)
    np.multiply(n, coeffs[..., 0, 0, :], out=spec.real[..., 0])
    if kmax >= 1:
        # complex arithmetic as written: writing .real and .imag differs on +-0, inf, nan
        z = 1j * coeffs[..., 1:, 1, :]
        np.subtract(coeffs[..., 1:, 0, :], z, out=z)
        np.multiply(n / 2.0, z, out=np.swapaxes(spec[..., 1:kmax + 1], -1, -2))
    return np.fft.irfft(spec, n=n, axis=-1)


def values_to_coeffs(values: np.ndarray, max_mode: int) -> np.ndarray:
    """Project grid values (..., M, N) onto modes <= max_mode -> (..., K+1, 2, M)."""
    m, n = values.shape[-2:]
    spec = np.fft.rfft(values, axis=-1)
    out = np.zeros(values.shape[:-2] + (max_mode + 1, 2, m))
    np.divide(spec.real[..., 0], n, out=out[..., 0, 0, :])
    if max_mode >= 1:
        modes = np.swapaxes(spec[..., 1:max_mode + 1], -1, -2)
        np.multiply(2.0 / n, modes.real, out=out[..., 1:, 0, :])
        np.multiply(-2.0 / n, modes.imag, out=out[..., 1:, 1, :])
    return out


def channel_weights(max_mode: int) -> np.ndarray:
    """L^2 weights per (mode, cos/sin) channel: 2*pi*w with w=1 for k=0, 1/2 else.

    With these weights  int u v dmu = sum_ch w_ch * sum_i vol_i u_ch,i v_ch,i
    for fields in coefficient form (the 2*pi is already inside the cell volumes).
    """
    w = np.full((max_mode + 1, 2), 0.5)
    w[0, 0] = 1.0
    w[0, 1] = 0.0
    return w


def constant_field(mesh: RadialMesh, max_mode: int, value: float) -> Field:
    c = np.zeros((max_mode + 1, 2, mesh.cells))
    c[0, 0, :] = value
    return Field(mesh, c)


def field_from_modes(mesh: RadialMesh, max_mode: int, radial, mode: int = 0,
                     part: str = "cos") -> Field:
    """Field with a single angular mode and the given radial profile.

    ``radial`` is a callable evaluated on cell centers or an array of length M.
    """
    c = np.zeros((max_mode + 1, 2, mesh.cells))
    prof = radial(mesh.centers) if callable(radial) else np.asarray(radial, dtype=float)
    if mode > max_mode:
        raise ValueError(f"mode {mode} exceeds truncation {max_mode}")
    c[mode, 0 if part == "cos" else 1, :] = prof
    return Field(mesh, c)


@dataclass(frozen=True)
class CutoffFunction:
    """Radial cutoff that is 1 near the tip and 0 outside the collar.

    Cubic ramp (C^1): equal to 1 on [0, start], to 0 on [stop, infinity),
    monotone in between.  Defaults put the ramp on [0.4, 0.8] * min(1, L).
    """

    start: float
    stop: float

    def __post_init__(self):
        if not (0.0 < self.start < self.stop):
            raise ValueError("need 0 < start < stop")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        t = np.clip((s - self.start) / (self.stop - self.start), 0.0, 1.0)
        return 1.0 - t * t * (3.0 - 2.0 * t)

    @classmethod
    def default_for(cls, mesh: RadialMesh) -> "CutoffFunction":
        collar = min(1.0, mesh.length)
        return cls(0.4 * collar, 0.8 * collar)
