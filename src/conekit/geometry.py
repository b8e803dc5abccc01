"""Surfaces of revolution with a conical tip, and radial finite-volume meshes.

A surface is described by its profile radius f(s) >= 0 as a function of arc
length s in [0, L].  Near s = 0 the profile is exactly linear, f(s) = c*s with
0 < c <= 1, which is a cone of opening slope c (c = 1 is a flat disk, i.e. no
singularity).  The induced area measure is dmu = f(s) ds dtheta.

Meshes are cell-centered in s with geometric grading toward the tip.  Cell
volumes are computed with a composite trapezoid rule (two panels per cell),
which keeps the measured area-convergence order at 2 and volumes strictly
positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "SurfaceProfile",
    "RadialMesh",
    "build_profile",
    "build_mesh",
    "boundary_spectrum",
    "exact_number",
]

PROFILE_KINDS = ("cone_capped", "sphere")

#: Geometric grading is applied until cell widths have shrunk by this factor
#: relative to the bulk width; beyond that depth extra cells go to the bulk.
#: A pure geometric law with many cells would otherwise drive the smallest
#: width below representable scales and starve the outer region.
GRADING_DEPTH_FLOOR = 1.0e-8

#: Meshes whose smallest cell is below this fraction of the total length are
#: rejected outright.
MIN_WIDTH_FRACTION = 1.0e-14


def exact_number(value) -> Fraction:
    """Coerce int/float/str/Fraction to an exact Fraction.

    Strings accept both "1/3" and decimal forms; floats convert exactly
    (every binary float is rational).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, (float, np.floating)):
        return Fraction(float(value))
    raise TypeError(f"cannot interpret {value!r} as an exact number")


def _smoothstep_quintic(t: np.ndarray) -> np.ndarray:
    """C^2 monotone ramp 0 -> 1 on [0, 1] (6t^5 - 15t^4 + 10t^3)."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


@dataclass(frozen=True)
class SurfaceProfile:
    """Profile radius of a surface of revolution with a conical tip at s=0.

    Attributes
    ----------
    kind : one of ``cone_capped``, ``sphere``.
    length : total arc length L of the generating curve.
    tip_slope : exact cone opening slope c at s=0 (Fraction; f(s) = c*s there).
    radius : for ``sphere``, the sphere radius; else None.
    """

    kind: str
    length: float
    tip_slope: Fraction
    radius: float | None = None

    def __call__(self, s):
        """Profile radius f(s), vectorized."""
        s = np.asarray(s, dtype=float)
        if self.kind == "sphere":
            return self.radius * np.sin(np.clip(s / self.radius, 0.0, math.pi))
        L = self.length
        a, b, r_cap = L / 3.0, 2.0 * L / 3.0, L / 2.0
        w = _smoothstep_quintic((s - a) / (b - a))
        cap = r_cap * np.sin(np.clip((L - s) / r_cap, 0.0, math.pi))
        return (1.0 - w) * (float(self.tip_slope) * s) + w * cap


def build_profile(kind: str, *, c=None, radius=None, length=None) -> SurfaceProfile:
    """Construct a named profile.

    ``cone_capped``: f = c*s near the tip, blended by a C^2 quintic ramp over
    the middle third of [0, L] into a spherical cap of radius L/2 that closes
    smoothly at s = L, so f is C^2 on (0, L).  Requires 0 < c <= 1 and a finite length > 0.

    ``sphere``: round sphere of the given radius, f = R sin(s/R), L = pi*R.
    The poles are smooth (slope 1), so this is the no-singularity reference.
    """
    if kind == "sphere":
        if radius is None or not 0 < radius < math.inf:   # written so that a NaN fails
            raise ValueError(f"sphere profile needs radius > 0 and finite, got {radius!r}")
        if c is not None or length is not None:
            raise ValueError("sphere profile takes only 'radius'")
        r = float(radius)
        return SurfaceProfile(kind="sphere", length=math.pi * r, tip_slope=Fraction(1), radius=r)

    if kind not in PROFILE_KINDS:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {PROFILE_KINDS}")
    if length is None or not 0 < length < math.inf:
        raise ValueError(f"{kind} profile needs length > 0 and finite, got {length!r}")
    if c is None:
        raise ValueError(f"{kind} profile needs a tip slope c")
    c_exact = exact_number(c)
    if not (0 < c_exact <= 1):
        raise ValueError(f"tip slope must satisfy 0 < c <= 1, got {c_exact}")
    return SurfaceProfile(kind="cone_capped", length=float(length), tip_slope=c_exact)


@dataclass(frozen=True)
class RadialMesh:
    """Cell-centered radial mesh on [0, L] with tip-graded widths.

    ``faces`` has cells+1 entries with faces[0] = 0 and faces[-1] = L;
    ``volumes`` are the per-cell area measures 2*pi*int_cell f(s) ds computed
    with the two-panel trapezoid rule.
    """

    profile: SurfaceProfile
    grading: float
    faces: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    volumes: np.ndarray
    f_faces: np.ndarray
    f_centers: np.ndarray

    @property
    def cells(self) -> int:
        return self.centers.size

    @property
    def length(self) -> float:
        return float(self.faces[-1])

    @property
    def area(self) -> float:
        """Total surface area (sum of cell volumes)."""
        return float(self.volumes.sum())

    @property
    def min_width(self) -> float:
        return float(self.widths.min())

    @property
    def s_min(self) -> float:
        """First cell center: the smallest resolved radial coordinate."""
        return float(self.centers[0])

    def integrate_radial(self, values: np.ndarray) -> float:
        """Integrate a cell-centered radial function against dmu."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.cells,):
            raise ValueError(f"expected {self.cells} cell values, got shape {values.shape}")
        return float(self.volumes @ values)

    def same_as(self, other: "RadialMesh") -> bool:
        """Whether both meshes discretize the same surface on the same cells.

        Faces depend only on L, M and q, so the profile and the volumes are
        compared too: cones of different slope share their faces.
        """
        return self is other or (
            self.cells == other.cells
            and self.profile == other.profile
            and np.array_equal(self.faces, other.faces)
            and np.array_equal(self.volumes, other.volumes)
        )

    @cached_property
    def transmissibilities(self) -> np.ndarray:
        """Face transmissibilities 2*pi*f(face) / (center distance), cells+1 entries.

        Both end entries are zero (no flux through the tip or the outer end).
        This is the one definition of the discrete Dirichlet form: the mode
        Laplacians and the H^1 seminorm both read it.
        """
        m = self.cells
        trans = np.zeros(m + 1)
        trans[1:m] = 2.0 * np.pi * self.f_faces[1:m] / np.diff(self.centers)
        trans.flags.writeable = False
        return trans

    def angular_factor(self, max_mode: int) -> np.ndarray:
        """vol_i * k^2 / f(s_i)^2 for modes k <= max_mode, shape (K+1, 1, M); cached."""
        cache = self.__dict__.setdefault("_angular_factors", {})
        factor = cache.get(max_mode)
        if factor is None:
            ksq = (np.arange(max_mode + 1, dtype=float) ** 2)[:, None, None]
            factor = self.volumes * ksq / self.f_centers ** 2
            factor.flags.writeable = False
            cache[max_mode] = factor
        return factor


def _graded_widths(cells: int, grading: float, length: float) -> np.ndarray:
    """Cell widths, smallest at the tip.

    Geometric grading with ratio ``grading`` is applied for
    m = min(cells-1, floor(ln(depth_floor)/ln q)) cells at the tip; remaining
    cells share a uniform bulk width.  Widths are normalized to sum to L.
    """
    if grading == 1.0:
        return np.full(cells, length / cells)
    m_star = int(math.floor(math.log(GRADING_DEPTH_FLOOR) / math.log(grading)))
    m = min(cells - 1, m_star)
    # tip -> outer: h*q^m, ..., h*q, then (cells - m) bulk cells of width h
    ratios = np.concatenate([grading ** np.arange(m, 0, -1), np.ones(cells - m)])
    h = length / ratios.sum()
    return h * ratios


def build_mesh(profile: SurfaceProfile, cells: int, grading: float = 1.0) -> RadialMesh:
    """Build a tip-graded cell-centered mesh for the given profile.

    ``grading`` is the width ratio q in (0, 1] between a tip cell and its
    outward neighbor (q = 1 is uniform).  Raises ValueError for meshes whose
    smallest cell would be below 1e-14 of the total length.
    """
    if cells < 4:
        raise ValueError("need at least 4 cells")
    if not (0.0 < grading <= 1.0):
        raise ValueError(f"grading ratio must lie in (0, 1], got {grading}")
    L = profile.length
    widths = _graded_widths(cells, float(grading), L)
    if widths.min() < MIN_WIDTH_FRACTION * L:
        raise ValueError(
            f"mesh rejected: smallest cell {widths.min():.3e} is below "
            f"{MIN_WIDTH_FRACTION:g} * L = {MIN_WIDTH_FRACTION * L:.3e}")
    faces = np.concatenate([[0.0], np.cumsum(widths)])
    faces[-1] = L  # kill cumulative roundoff at the outer end
    centers = 0.5 * (faces[:-1] + faces[1:])
    f_faces = profile(faces)
    f_centers = profile(centers)
    # two-panel trapezoid per cell: weights (1/4, 1/2, 1/4) on (left, center, right)
    volumes = 2.0 * math.pi * widths * (f_faces[:-1] + 2.0 * f_centers + f_faces[1:]) / 4.0
    if not np.all(volumes > 0.0):
        raise ValueError("mesh rejected: nonpositive cell volume (profile touches zero inside?)")
    return RadialMesh(profile=profile, grading=float(grading), faces=faces,
                      centers=centers, widths=widths, volumes=volumes,
                      f_faces=f_faces, f_centers=f_centers)


def boundary_spectrum(profile: SurfaceProfile, max_mode: int) -> tuple[tuple[int, Fraction], ...]:
    """Exact cross-section spectrum of the tip cone of the given profile.

    The link of the conical point is a circle of circumference 2*pi*c, whose
    Laplace eigenvalues are lambda_k = -(k/c)^2 (nonpositive sign convention).
    Returns the pairs (k, lambda_k) for k = 0..max_mode, lambda_k a Fraction;
    each mode k >= 1 stands for two eigenfunctions, cos and sin.
    """
    if max_mode < 0:
        raise ValueError("need max_mode >= 0")
    c = profile.tip_slope
    return tuple((k, -Fraction(k) ** 2 / c ** 2) for k in range(max_mode + 1))
