"""Measurement tools: tip-exponent fits, decay-exponent probes, attractor scans.

Everything here consumes the operator workspace and the semiflow, producing
plain dataclass reports that the command-line layer serializes to CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SemiflowResult, StepperConfig, _mean_free_dual_norm, _run_sliced, gradient_residual
from .fields import Field
from .operators import ModeOperators
from .spaces import h01_dual_norm, mellin_norm

__all__ = [
    "TipFit",
    "LojasiewiczProbe",
    "AbsorbingReport",
    "fit_tip_asymptotics",
    "tip_probe",
    "fit_lojasiewicz",
    "lojasiewicz_probe",
    "smooth_random_field",
    "absorbing_set_experiment",
]


# ------------------------------------------------------------------- tip fits


@dataclass(frozen=True)
class TipFit:
    """Least-squares fit of a radial mode profile near the tip.

    For modes >= 1 the fit is log A ~ rho * log s + const, A the mode
    amplitude (rho_hat is the measured branch exponent); for mode 0 the fit is u ~ a + b log s and
    ``log_slope`` = b measures the strength of the logarithmic branch.
    """

    mode: int
    rho_hat: float | None
    log_slope: float | None
    r_squared: float
    n_points: int
    window: tuple[float, float]


def fit_tip_asymptotics(u: Field, mode: int,
                        window: tuple[float, float] | None = None) -> TipFit:
    """Fit the tip behavior of one angular mode of a field.

    Mode 0 fits its signed profile; a mode k >= 1 fits its amplitude
    sqrt(cos^2 + sin^2), which does not change when the field is rotated.
    The fit window defaults to [2 * (first cell center), 0.1 * L], which on a
    tip-graded mesh spans several decades.  Raises ValueError when the window
    holds fewer than 8 cells or the mode amplitude is at roundoff level
    ("mode numerically absent").
    """
    mesh = u.mesh
    if mode > u.max_mode:
        raise ValueError(f"mode {mode} exceeds the field truncation {u.max_mode}")
    profile = u.coeffs[0, 0] if mode == 0 else np.hypot(u.coeffs[mode, 0], u.coeffs[mode, 1])
    lo, hi = window if window is not None else (2.0 * mesh.s_min, 0.1 * mesh.length)
    mask = (mesh.centers >= lo) & (mesh.centers < hi)
    n_points = int(mask.sum())
    if n_points < 8:
        raise ValueError(f"fit window [{lo:g}, {hi:g}) holds only {n_points} cells (< 8)")
    seg = profile[mask]
    amp = float(np.abs(seg).max())
    scale = max(1.0, float(np.abs(u.coeffs).max()))
    if amp < 1e-13 * scale:
        raise ValueError(f"mode {mode} numerically absent in the fit window "
                         f"(amplitude {amp:.2e})")
    x = np.log(mesh.centers[mask])
    if mode == 0:
        slope, r2 = _line_fit(x, seg)
        return TipFit(mode=0, rho_hat=None, log_slope=slope, r_squared=r2,
                      n_points=n_points, window=(lo, hi))
    good = np.abs(seg) > 0
    slope, r2 = _line_fit(x[good], np.log(np.abs(seg[good])))
    return TipFit(mode=mode, rho_hat=slope, log_slope=None, r_squared=r2,
                  n_points=int(good.sum()), window=(lo, hi))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares line through (x, y): its slope and coefficient of determination,
    which is 1 for constant data."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    return float(slope), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def tip_probe(ops: ModeOperators, mode: int, source_center_frac: float = 0.75,
              source_width_frac: float = 0.08) -> tuple[np.ndarray, TipFit]:
    """Solve a Poisson problem forced away from the tip and fit the tip exponent.

    The source is a Gaussian bump centered at source_center_frac * L; near the
    tip the solution is forced onto its regular branch, whose exponent the
    log-log fit recovers.  For mode 0 the source is mean-projected (so the
    flux balance closes) and the fit reports the log-branch amplitude, which
    zero tip flux kills.
    """
    mesh = ops.mesh
    s0 = source_center_frac * mesh.length
    width = source_width_frac * mesh.length
    g = np.exp(-((mesh.centers - s0) / width) ** 2)
    if mode == 0:
        g = g - (mesh.volumes @ g) / mesh.area
        sol = ops.solve_neglap(0, g)
    else:
        sol = ops.solve_neglap_pivoted(mode, g)
    coeffs = np.zeros((max(mode, 1) + 1, 2, mesh.cells))
    coeffs[mode, 0] = sol
    fit = fit_tip_asymptotics(Field(mesh, coeffs), mode)
    return sol, fit


# --------------------------------------------------------- decay exponent fit

MIN_LOJASIEWICZ_SAMPLES = 10   # fewer points do not pin a log-log slope


@dataclass(frozen=True)
class LojasiewiczProbe:
    """Measured energy-gradient scaling exponent along a relaxing trajectory."""

    theta_hat: float
    slope: float
    r_squared: float
    n_samples: int
    energy_limit: float

    @property
    def in_bracket(self) -> bool:
        """Whether theta_hat lies in the expected range (0, 0.55]."""
        return 0.0 < self.theta_hat <= 0.55


def fit_lojasiewicz(energy_gaps: np.ndarray, gradient_norms: np.ndarray) -> tuple[float, float, float]:
    """Regress log(gradient norm) on log(energy gap); returns (theta, slope, r2).

    A gradient inequality ||grad E|| >= c |E - E_inf|^(1-theta) shows up as
    slope = 1 - theta in these coordinates.
    """
    x = np.log(np.asarray(energy_gaps, dtype=float))
    y = np.log(np.asarray(gradient_norms, dtype=float))
    if x.size < 2:
        raise ValueError("need at least two samples")
    slope, r2 = _line_fit(x, y)
    return 1.0 - slope, slope, r2


def lojasiewicz_probe(ops: ModeOperators, result: SemiflowResult,
                      drop_last_fraction: float = 0.05) -> LojasiewiczProbe:
    """Estimate the decay exponent from a finished relaxation run.

    Needs a run with collected snapshots that actually reached equilibrium.
    Samples with energy gap at the roundoff floor (10 eps |E_inf|) are
    discarded, as is the final drop_last_fraction of the remaining samples
    (they sit closest to the noise floor).
    """
    if not result.equilibrium_reached:
        raise ValueError("trajectory did not reach equilibrium; extend t_max or relax eq_tol")
    if not result.snapshots:
        raise ValueError("run was not collected with snapshots")
    e_by_step = {rec.step: rec.energy for rec in result.records}
    e_inf = result.records[-1].energy
    floor = 10.0 * np.finfo(float).eps * abs(e_inf)
    gaps, grads = [], []
    for step, coeffs in result.snapshots:
        gap = e_by_step[step] - e_inf
        if gap <= floor:
            continue
        gaps.append(gap)
        grads.append(gradient_residual(Field(ops.mesh, coeffs.copy()), ops))
    keep = len(gaps) - int(math.ceil(drop_last_fraction * len(gaps)))
    gaps, grads = gaps[:keep], grads[:keep]
    if len(gaps) < MIN_LOJASIEWICZ_SAMPLES:
        raise ValueError(f"only {len(gaps)} usable samples (< {MIN_LOJASIEWICZ_SAMPLES}); "
                         "the trajectory spent too little time in the scaling regime")
    theta, slope, r2 = fit_lojasiewicz(np.array(gaps), np.array(grads))
    return LojasiewiczProbe(theta_hat=theta, slope=slope, r_squared=r2,
                            n_samples=len(gaps), energy_limit=e_inf)


# ------------------------------------------------------------ initial sampler


def smooth_random_field(ops: ModeOperators, rng: np.random.Generator,
                        dual_radius: float | None = None,
                        sup_amplitude: float | None = None,
                        mode_decay: float = 2.0) -> Field:
    """Mean-zero random initial data, smooth enough for the fourth-order flow.

    Gaussian coefficients with (1+k)^(-mode_decay) angular decay are passed
    twice through the inverse Laplacian (radial smoothing), mean-projected,
    and rescaled to the requested dual norm or sup amplitude.
    """
    mesh = ops.mesh
    coeffs = rng.standard_normal((ops.max_mode + 1, 2, mesh.cells))
    coeffs[0, 1, :] = 0.0
    coeffs *= ((1.0 + np.arange(ops.max_mode + 1)) ** (-mode_decay))[:, None, None]
    for _ in range(2):
        coeffs = np.ascontiguousarray(ops.solve_neglap_field(coeffs)[1].transpose(0, 2, 1))
    coeffs[0, 0, :] -= (mesh.volumes @ coeffs[0, 0]) / mesh.area
    u = Field(mesh, coeffs)
    if dual_radius is not None:
        u = u * (dual_radius / h01_dual_norm(u, ops))
    elif sup_amplitude is not None:
        u = u * (sup_amplitude / u.max_abs())
    return u


# ------------------------------------------------------- absorbing experiment


@dataclass
class AbsorbingReport:
    """Ensemble evidence for an absorbing set: entry levels and post-entry sups."""

    radii: tuple[float, ...]
    seeds_per_radius: int
    level: float
    entry_times: dict       # radius -> list of entry times (one per seed)
    post_sups: dict         # radius -> list of post-entry sup H^1_0 norms
    kappa: dict             # radius -> max post-entry sup over the ensemble
    tip_norm_sup: dict      # radius -> post-entry sup of the records' mellin_s0
    tip_norm_sup_lap: dict  # radius -> same for Lap(u), at the run's mellin_gamma
    diam_times: np.ndarray
    diameters: dict         # radius -> dual-norm ensemble diameter per record time

    @property
    def kappa_spread(self) -> float:
        """Relative disagreement of the absorbing radius across initial radii."""
        vals = [self.kappa[r] for r in self.radii]
        return (max(vals) - min(vals)) / max(vals)


def absorbing_set_experiment(ops: ModeOperators, cfg: StepperConfig,
                             radii=(1.0, 10.0), seeds_per_radius: int = 4,
                             base_seed: int = 0, level_margin: float = 1.05,
                             mode_decay: float = 2.0) -> AbsorbingReport:
    """Evolve ensembles started on dual-norm spheres and locate a common
    absorbing level for the Dirichlet norm.

    The entry level is level_margin (at least 1) times the largest final
    Dirichlet norm over all runs; each run's entry time is the first record
    from which the norm stays below that level, and kappa is the largest
    post-entry sup per starting radius; the tip norms are taken at the
    stepper's mellin_gamma, as its records are.  The runs advance through the
    batched step kernel in slices, one per usable CPU, forked from this
    process; each is bitwise equal to its own run_semiflow.
    """
    if len(radii) == 0:
        raise ValueError("radii must hold at least one radius")
    if not (all(r > 0 for r in radii) and len(set(radii)) == len(radii)):
        raise ValueError(f"radii must be positive and distinct, got {tuple(radii)}")
    if not level_margin >= 1:   # below 1, a run may never enter the level
        raise ValueError(f"level_margin must be >= 1, got {level_margin}")
    if seeds_per_radius < 1:
        raise ValueError(f"seeds_per_radius must be >= 1, got {seeds_per_radius}")
    jobs = [(radius, base_seed + i) for radius in radii for i in range(seeds_per_radius)]
    initials = [smooth_random_field(ops, np.random.default_rng(seed),
                                    dual_radius=radius, mode_decay=mode_decay)
                for radius, seed in jobs]
    results = _run_sliced(ops, initials, cfg, collect_snapshots=True)

    # each member's own records: an equilibrium stop ends a member at its own step
    times = [np.array([rec.t for rec in res.records]) for res in results]
    norms = [np.array([rec.h1_seminorm for rec in res.records]) for res in results]
    level = level_margin * max(series[-1] for series in norms)

    entry_times = {r: [] for r in radii}
    post_sups = {r: [] for r in radii}
    tip_sup = {r: 0.0 for r in radii}
    tip_sup_lap = {r: 0.0 for r in radii}
    for (radius, _), res, t, series in zip(jobs, results, times, norms):
        suffix = np.maximum.accumulate(series[::-1])[::-1]
        idx = int(np.argmax(suffix <= level))   # enters by its last record at the latest
        entry_times[radius].append(float(t[idx]))
        post_sups[radius].append(float(suffix[idx]))
        tip_sup[radius] = max(tip_sup[radius],
                              float(np.max([rec.mellin_s0 for rec in res.records[idx:]])))
        # a snapshot is taken at each record: the post-entry ones follow the entry record
        for _, coeffs in res.snapshots[idx:]:
            lap = ops.apply_laplacian(Field(ops.mesh, coeffs))
            tip_sup_lap[radius] = max(tip_sup_lap[radius], mellin_norm(lap, 0, cfg.mellin_gamma))

    kappa = {r: max(post_sups[r]) for r in radii}

    # ensemble diameter in the dual norm at common snapshot steps
    common_steps = sorted(set.intersection(
        *[set(step for step, _ in res.snapshots) for res in results]))
    diam_times = np.array([s * cfg.dt for s in common_steps])
    snap_maps = [dict(res.snapshots) for res in results]
    diameters = {}
    for radius in radii:
        sel = [snap_maps[i] for i, job in enumerate(jobs) if job[0] == radius]
        series = []
        for s in common_steps:
            dmax = 0.0
            for i in range(len(sel)):
                for j in range(i + 1, len(sel)):
                    dmax = max(dmax, _mean_free_dual_norm(ops, sel[i][s] - sel[j][s]))
            series.append(dmax)
        diameters[radius] = np.array(series)

    return AbsorbingReport(radii=tuple(radii), seeds_per_radius=seeds_per_radius,
                           level=float(level), entry_times=entry_times,
                           post_sups=post_sups, kappa=kappa,
                           tip_norm_sup=tip_sup, tip_norm_sup_lap=tip_sup_lap,
                           diam_times=diam_times, diameters=diameters)
