"""Exact tip-exponent arithmetic for cone Laplacians and their squares.

Separating variables at a conical point of cross-section spectrum
{lambda_j <= 0} turns the Laplacian on mode j into an Euler operator whose
characteristic ("indicial") polynomial is

    p_j(z) = z^2 + (n - 1) z + lambda_j ,    n = surface dimension,

so solutions behave like x^q (times powers of log x at multiple roots) with

    q_j(+-) = -(n-1)/2 +- sqrt( ((n-1)/2)^2 - lambda_j ).

A spectrum is a sequence of (mode j, lambda_j) pairs, as
``geometry.boundary_spectrum`` returns them; lambda_j is any exact number.

The roots of p_j are computed in one place (``_mode_roots``).  For the
squared Laplacian the exponent set per mode is the root set of
p_j(z) * p_j(z - 2), i.e. exactly those Laplacian roots and their shifts by
+2, with multiplicities added where values coincide.  Roots are stored as the
exponents q of the solution branches x^q.

Every quantity here is exact: for rational inputs all radicands
((n-1)/2)^2 - lambda_j are rational, so values live in the set
{a + b*sqrt(r) : a, b, r rational} which the ``Surd`` type models.  A Surd
folds perfect-square radicands on construction, so for b != 0 the root
sqrt(r) is irrational and the key (a, b^2 r, b > 0) determines the value:
equality and hashing use that key, and no floating point enters any decision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import exact_number

__all__ = [
    "Surd",
    "IndicialRoot",
    "GammaWindow",
    "laplacian_indicial_roots",
    "bilaplacian_indicial_roots",
    "ch_gamma_window",
    "laplacian_gamma_window",
    "asymptotic_space",
    "minimal_domain_check",
    "interpolation_exclusions",
]

#: No root of p_j(z) p_j(z-2) can exceed this log-power (double-double roots
#: would need two coincidences at once, which the shift structure forbids).
LOG_POWER_BOUND = 3


def _sqrt_fraction(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    pn, pd = f.numerator, f.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


@functools.total_ordering
class Surd:
    """Exact real number of the form a + b*sqrt(r) with a, b, r rational, r >= 0.

    Perfect-square radicands fold into the rational part on construction, so
    an irrational Surd (b != 0) has sqrt(r) irrational and is determined by
    its key (a, b^2 r, b > 0).  Equality and hashing use the key (a rational
    Surd hashes like the Fraction it equals); ordering is exact against
    rationals and Surds of the same radicand, and raises ArithmeticError
    across two different irrational radicands.
    """

    __slots__ = ("a", "b", "r")

    def __init__(self, a, b=0, r=0):
        a, b, r = exact_number(a), exact_number(b), exact_number(r)
        if r < 0:
            raise ValueError("negative radicand")
        if b == 0:
            r = Fraction(0)
        else:
            root = _sqrt_fraction(r)
            if root is not None:
                a, b, r = a + b * root, Fraction(0), Fraction(0)
        self.a, self.b, self.r = a, b, r

    @classmethod
    def sqrt(cls, radicand) -> "Surd":
        return cls(0, 1, radicand)

    # ----------------------------------------------------------- arithmetic

    def __add__(self, other):
        o = self._as_surd(other)
        if self.b and o.b and self.r != o.r:
            raise ArithmeticError("cannot add surds with different radicands exactly")
        return Surd(self.a + o.a, self.b + o.b, self.r or o.r)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.r)

    def __sub__(self, other):
        return self + -self._as_surd(other)

    def __rsub__(self, other):
        return -self + other

    # ----------------------------------------------------------- comparisons

    def _sign(self) -> int:
        """Exact sign of a + b*sqrt(r): for b != 0 the value is never 0, so
        the term with the larger square, a^2 or b^2 r, carries the sign."""
        a, s = self.a, self.b * abs(self.b) * self.r
        big = a if a * a > abs(s) else s
        return (big > 0) - (big < 0)

    def _as_surd(self, other) -> "Surd":
        if isinstance(other, str):   # a number, not text that parses as one
            raise TypeError(f"a Surd does not combine with the string {other!r}")
        return other if isinstance(other, Surd) else Surd(exact_number(other))

    def _key(self) -> tuple:
        return self.a, self.b * self.b * self.r, self.b > 0

    def __eq__(self, other) -> bool:
        try:
            return self._key() == self._as_surd(other)._key()
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash(self._key())

    def __lt__(self, other):
        return (self - other)._sign() < 0  # raises ArithmeticError for distinct radicands

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.r))

    def __repr__(self) -> str:
        if self.b == 0:
            return str(self.a)
        mag = abs(self.b)
        tail = f"sqrt({self.r})" if mag == 1 else f"({mag})*sqrt({self.r})"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {tail}"


def _check_dimension(n: int):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"surface dimension n must be a positive integer, got {n!r}")


def _radicand(n: int, lam) -> Fraction:
    return Fraction(n - 1, 2) ** 2 - exact_number(lam)


@dataclass(frozen=True)
class IndicialRoot:
    """One exponent q of a solution branch x^q (times log^p x for p < log_power_max + 1).

    ``multiplicity`` is the algebraic multiplicity of q as an indicial
    polynomial root; the maximal log power of the branch is multiplicity - 1.
    """

    operator: str          # "laplacian" or "bilaplacian"
    mode: int
    value: Surd
    multiplicity: int

    @property
    def log_power_max(self) -> int:
        return self.multiplicity - 1


def _mode_roots(n: int, spectrum) -> list[tuple[int, list[tuple[Surd, int]]]]:
    """Per spectrum entry, its mode and the roots of p_j with their multiplicities."""
    _check_dimension(n)
    shift = Surd(-Fraction(n - 1, 2))
    out = []
    for mode, lam in spectrum:
        rad = _radicand(n, lam)
        root = Surd.sqrt(rad)
        out.append((mode, [(shift, 2)] if rad == 0 else [(shift - root, 1), (shift + root, 1)]))
    return out


def laplacian_indicial_roots(n: int, spectrum) -> list[IndicialRoot]:
    """Exponents q with Laplacian-harmonic branches x^q per angular mode.

    Roots come in pairs -(n-1)/2 +- sqrt(((n-1)/2)^2 - lambda_j); the pair
    collapses to one double root (with a log branch) exactly when the
    radicand vanishes, e.g. the mode-0 pair {1, log x} on a surface.
    """
    return [IndicialRoot("laplacian", mode, q, mult)
            for mode, roots in _mode_roots(n, spectrum) for q, mult in roots]


def bilaplacian_indicial_roots(n: int, spectrum) -> list[IndicialRoot]:
    """Exponent set of the squared Laplacian per mode: roots of p(z) p(z-2).

    These are the Laplacian roots q and their shifts q + 2, with
    multiplicities added where values coincide: radicand 0 gives double roots
    at q and q + 2, radicand 1 makes q- + 2 collide with q+ (one double
    root), and no other coincidences are possible.  Log powers stay below
    LOG_POWER_BOUND structurally.  Per mode the roots are sorted by value.
    """
    out: list[IndicialRoot] = []
    for mode, roots in _mode_roots(n, spectrum):
        merged: dict[Surd, int] = {}  # keeps the first representation of a value
        for q, mult in roots + [(q + 2, mult) for q, mult in roots]:
            merged[q] = merged.get(q, 0) + mult
        for q, mult in sorted(merged.items(), key=lambda t: float(t[0])):
            assert mult - 1 < LOG_POWER_BOUND
            out.append(IndicialRoot("bilaplacian", mode, q, mult))
    return out


@dataclass(frozen=True)
class GammaWindow:
    """Open admissibility interval for the tip weight gamma.

    ``nonempty`` is decided at float precision: windows of width below float
    resolution count as empty even when exact arithmetic keeps them open a
    hair's breadth.
    """

    lower: Surd
    upper: Surd

    @property
    def nonempty(self) -> bool:
        return float(self.upper) > float(self.lower)

    def contains(self, gamma) -> bool:
        """Exact strict containment lower < gamma < upper."""
        g = Surd(exact_number(gamma))
        return self.lower < g and g < self.upper

    def __str__(self) -> str:
        return f"({float(self.lower):g}, {float(self.upper):g})"


def _gamma_window(n: int, lambda_1, cap: Fraction) -> GammaWindow:
    """gamma in ( (n-3)/2 , min{ -1 + sqrt(((n-1)/2)^2 - lambda_1), cap } ), lambda_1 < 0."""
    _check_dimension(n)
    lam1 = exact_number(lambda_1)
    if lam1 >= 0:
        raise ValueError(f"lambda_1 must be negative, got {lam1}")
    return GammaWindow(lower=Surd(Fraction(n - 3, 2)),
                       upper=min(Surd(-1) + Surd.sqrt(_radicand(n, lam1)), Surd(cap)))


def ch_gamma_window(n: int, lambda_1) -> GammaWindow:
    """Weight window for the fourth-order flow on an (n+1)-dimensional cone.

    With d = n + 1:  gamma in ( (d-4)/2 , min{ -1 + sqrt(((d-2)/2)^2 - lambda_1),
    (d-4)/4 } ), lambda_1 < 0 the first nonzero cross-section eigenvalue.
    """
    return _gamma_window(n, lambda_1, Fraction(n - 3, 4))


def laplacian_gamma_window(n: int, lambda_1) -> GammaWindow:
    """Weight window for the second-order problem on the n-dimensional surface:
    gamma in ( (n-3)/2 , min{ -1 + sqrt(((n-1)/2)^2 - lambda_1), (n+1)/2 } ).
    """
    return _gamma_window(n, lambda_1, Fraction(n + 1, 2))


def asymptotic_space(n: int, spectrum, gamma) -> tuple[Surd, Surd, tuple[IndicialRoot, ...]]:
    """Tip branches attached to a weight gamma: (lower, upper, members).

    ``members`` lists the squared-Laplacian exponents q in the half-open
    window [lower, upper) = [(n-7)/2 - gamma, (n-3)/2 - gamma); solutions in
    the maximal domain split into these branches plus a remainder that is
    two orders flatter.
    """
    _check_dimension(n)
    g = exact_number(gamma)
    lo = Surd(Fraction(n - 7, 2) - g)
    hi = Surd(Fraction(n - 3, 2) - g)
    members = tuple(root for root in bilaplacian_indicial_roots(n, spectrum)
                    if lo <= root.value and root.value < hi)
    return lo, hi, members


def minimal_domain_check(n: int, spectrum, gamma) -> tuple[tuple[Surd, int], ...]:
    """Exact hits of gamma + 1 or gamma + 3 by an exponent offset +-sqrt(((n-1)/2)^2 - lambda_j).

    Returns the hits as (offset, mode) pairs in spectrum order; no hit means the
    maximal domain collapses to the clean weighted space.
    """
    _check_dimension(n)
    g = exact_number(gamma)
    targets = (Surd(g + 1), Surd(g + 3))
    hits = []
    for mode, lam in spectrum:
        root = Surd.sqrt(_radicand(n, lam))
        for offset in dict.fromkeys((root, -root)):  # one offset at a double root
            if offset in targets:
                hits.append((offset, mode))
    return tuple(hits)


def interpolation_exclusions(n: int, spectrum, gamma) -> list[Surd]:
    """Interpolation parameters in (0, 1) that must be avoided for this gamma.

    These are the values (1 - gamma)/2 +- sqrt(((n-1)/2)^2 - lambda_j)/2
    that land strictly inside (0, 1), deduplicated exactly and sorted.
    """
    _check_dimension(n)
    g = exact_number(gamma)
    center = Surd((1 - g) / 2)
    cands: list[Surd] = []
    for _, lam in spectrum:
        half_root = Surd(0, Fraction(1, 2), _radicand(n, lam))
        cands += [center + half_root, center - half_root]
    return sorted(dict.fromkeys(c for c in cands if 0 < c < 1), key=float)
