"""Acceptance suite: one test per shipping criterion, at the stated tolerance.

The criteria pin exact symbolic results (indicial roots, weight windows),
analytic oracles (sphere spectrum, Poincare constant), conservation and
Lyapunov structure of the stepper, tip-exponent and decay-exponent fits,
ensemble behavior, end-to-end reproducibility of the command line, and the
tip asymptotics of a nontrivial equilibrium.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conekit.analysis import (absorbing_set_experiment, fit_lojasiewicz, fit_tip_asymptotics,
                              lojasiewicz_probe, smooth_random_field, tip_probe)
from conekit.cli import main
from conekit.dynamics import (ENERGY_INCREASE_TOL, StepperConfig, energy,
                              energy_gradient, gradient_residual, run_semiflow)
from conekit.fields import Field, channel_weights, constant_field
from conekit.geometry import boundary_spectrum, build_mesh, build_profile
from conekit.indicial import (bilaplacian_indicial_roots, ch_gamma_window,
                              laplacian_gamma_window)
from conekit.operators import ModeOperators
from conekit.spaces import (h01_dual_norm, h1_seminorm, l2_norm, mean, mellin_norm,
                            poincare_constant)


def random_field(mesh, max_mode, rng, amplitude=1.0):
    c = rng.standard_normal((max_mode + 1, 2, mesh.cells))
    c[0, 1, :] = 0.0
    return Field(mesh, amplitude * c)


def mean_zero(u):
    c = u.coeffs.copy()
    c[0, 0] -= float(u.mesh.volumes @ c[0, 0]) / u.mesh.area
    return Field(u.mesh, c)


def pairing(a, b):
    w = channel_weights(a.max_mode)
    return float(np.einsum("kci,kc,i->", a.coeffs * b.coeffs, w, a.mesh.volumes))


# --------------------------------------------------------------- criterion 1


def test_criterion_01_indicial_roots_exact_with_polynomial_cross_check():
    max_mode = 3
    for c_str in ("1", "1/2", "1/3"):
        c = Fraction(c_str)
        spectrum = boundary_spectrum(build_profile("cone_capped", c=c_str, length=2.0),
                                     max_mode)
        roots = bilaplacian_indicial_roots(1, spectrum)
        for k in range(max_mode + 1):
            mode_roots = [r for r in roots if r.mode == k]

            # exact analytic multiset {±k/c} ∪ {2 ± k/c}, zero tolerance
            pair = (Fraction(k) / c, -Fraction(k) / c)
            expected = Counter(q + off for q in pair for off in (0, 2))
            actual = Counter()
            for r in mode_roots:
                matches = [v for v in expected if r.value == v]
                assert len(matches) == 1, (c_str, k, r.value)
                actual[matches[0]] += r.multiplicity
                assert r.multiplicity == expected[matches[0]]
                assert r.log_power_max == r.multiplicity - 1
            assert actual == expected

            # independent enumeration: roots of p(z) p(z-2), p(z) = z^2 + lambda_k
            lam = -float(Fraction(k) / c) ** 2
            base = np.roots([1.0, 0.0, lam])
            oracle = np.sort(np.concatenate([base, base + 2.0]).real)
            expanded = np.sort(np.array(
                [float(r.value) for r in mode_roots for _ in range(r.multiplicity)]))
            assert expanded.size == 4
            assert np.allclose(expanded, oracle, atol=1e-9)


# --------------------------------------------------------------- criterion 2


def test_criterion_02_gamma_window_arithmetic_and_inclusion():
    w4 = ch_gamma_window(1, -1)
    assert (w4.lower, w4.upper) == (Fraction(-1), Fraction(-1, 2))
    w2 = laplacian_gamma_window(1, -1)
    assert (w2.lower, w2.upper) == (Fraction(-1), Fraction(0))

    rng = np.random.default_rng(12345)
    for _ in range(1000):
        lam = -Fraction(int(rng.integers(1, 25_000_001)), 1_000_000)
        fourth = ch_gamma_window(1, lam)
        second = laplacian_gamma_window(1, lam)
        assert fourth.lower == second.lower       # both floors are (n-3)/2
        assert fourth.upper <= second.upper       # exact comparison
        if fourth.nonempty:
            mid = (float(fourth.lower) + float(fourth.upper)) / 2.0
            assert fourth.contains(Fraction(mid).limit_denominator(10 ** 9))


# --------------------------------------------------------------- criterion 3


def test_criterion_03_sphere_spectrum_oracle_and_convergence_order(sphere_ops):
    pooled = []
    for k in range(sphere_ops.max_mode + 1):
        vals = sphere_ops.eigenvalues(k)
        pooled.extend(vals.tolist() if k == 0 else np.repeat(vals, 2).tolist())
    pooled = np.sort(np.asarray(pooled))[:25]
    expected = np.array([ell * (ell + 1) for ell in range(5)
                         for _ in range(2 * ell + 1)], dtype=float)
    assert abs(pooled[0]) <= 1e-9
    assert np.allclose(pooled[1:], expected[1:], rtol=0.01)

    mus = []
    for cells in (64, 128, 256):
        mesh = build_mesh(build_profile("sphere", radius=1.0), cells, 1.0)
        mus.append(ModeOperators(mesh, 1).smallest_eigenvalue(1))
    order = math.log2(abs(mus[0] - mus[1]) / abs(mus[1] - mus[2]))
    assert 1.8 <= order <= 2.2


# --------------------------------------------------------------- criterion 4


def test_criterion_04_gauss_defect_and_mass_conservation(sphere_ops,
                                                         graded_cone_ops,
                                                         small_sphere_ops):
    rng = np.random.default_rng(20260815)
    for ops in (sphere_ops, graded_cone_ops):
        for _ in range(50):
            u = random_field(ops.mesh, ops.max_mode, rng)
            bound = 1e-12 * u.max_abs() * ops.mesh.area / ops.mesh.widths.min() ** 2
            assert ops.gauss_defect(u) <= bound

    ops = small_sphere_ops
    u0 = mean_zero(random_field(ops.mesh, ops.max_mode, rng, 0.3)) \
        + constant_field(ops.mesh, ops.max_mode, 0.1)
    cfg = StepperConfig(dt=1e-3, stabilization=2.0, t_max=10.0, eq_tol=0.0,
                        snapshot_stride=100)
    masses = []
    run_semiflow(ops, u0, cfg, on_record=lambda rec, _coeffs: masses.append(rec.mass))
    assert len(masses) == 101  # 10^4 steps recorded every 100
    drift = max(abs(m - masses[0]) for m in masses)
    assert drift <= 1e-12


# ----------------------------------------------------------- criteria 5 + 6


@pytest.fixture(scope="module")
def relaxation_suite():
    """Ten random initial states relaxed to equilibrium on sphere and cone."""
    cfg = StepperConfig(dt=1e-3, stabilization=2.0, t_max=1000.0, eq_tol=1e-8,
                        snapshot_stride=200)
    suite = []
    geometries = (
        (build_profile("sphere", radius=1.0), range(100, 105)),
        (build_profile("cone_capped", c="1/2", length=2.0), range(105, 110)),
    )
    for profile, seeds in geometries:
        ops = ModeOperators(build_mesh(profile, 128, 1.0), 16)
        for seed in seeds:
            u0 = smooth_random_field(ops, np.random.default_rng(seed),
                                     sup_amplitude=0.5)
            result = run_semiflow(ops, u0, cfg, collect_snapshots=True)
            suite.append((ops, result))
    return suite


@pytest.fixture(scope="module")
def nontrivial_relaxations(cone_equilibria):
    """Criterion 13's runs, which end on an equilibrium other than u = 0."""
    _, ops, results = cone_equilibria
    return [(ops, result) for result in results]


def first_monotone(dists, slack=1.0 + 1e-9):
    """The first index from which ``dists`` never rises by more than ``slack``."""
    return next(i for i in range(len(dists))
                if all(b <= a * slack for a, b in zip(dists[i:], dists[i + 1:])))


def test_criterion_05_lyapunov_decrease_and_equilibration(relaxation_suite,
                                                          nontrivial_relaxations):
    assert len(relaxation_suite) == 10
    for ops, result in relaxation_suite + nontrivial_relaxations:
        assert result.equilibrium_reached is True
        assert result.final_residual <= 1e-8
        assert result.records[-1].t <= 1000.0
        energies = [rec.energy for rec in result.records]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + ENERGY_INCREASE_TOL * (1.0 + abs(a))


def test_criterion_06_distance_to_limit_eventually_monotone(relaxation_suite,
                                                            nontrivial_relaxations):
    for ops, result in relaxation_suite + nontrivial_relaxations:
        u_inf = result.state.u
        diffs = [Field(ops.mesh, coeffs - u_inf.coeffs) for _step, coeffs in result.snapshots]
        # in the dual norm and in the tip-weighted norm of order 1
        for dists in ([h01_dual_norm(mean_zero(diff), ops) for diff in diffs],
                      [mellin_norm(diff, 1, -0.75) for diff in diffs]):
            assert len(dists) >= 4
            # monotone over at least the last half of the trajectory
            assert first_monotone(dists) <= len(dists) // 2
        assert gradient_residual(u_inf, ops) <= 1e-7


# --------------------------------------------------------------- criterion 7


def test_criterion_07_tip_exponents_from_poisson_probes(graded_cone_ops):
    _, fit1 = tip_probe(graded_cone_ops, 1)
    assert fit1.rho_hat == pytest.approx(1.0, abs=0.05)
    _, fit2 = tip_probe(graded_cone_ops, 2)
    assert fit2.rho_hat == pytest.approx(2.0, abs=0.05)

    half = ModeOperators(
        build_mesh(build_profile("cone_capped", c="1/2", length=2.0), 512, 0.8), 2)
    _, fit = tip_probe(half, 1)
    assert fit.rho_hat == pytest.approx(2.0, abs=0.1)


# --------------------------------------------------------------- criterion 8


def test_criterion_08_absorbing_level_independent_of_initial_radius(small_sphere_ops):
    cfg = StepperConfig(dt=1e-4, stabilization=2.0, t_max=2.0, eq_tol=0.0,
                        snapshot_stride=200)
    report = absorbing_set_experiment(small_sphere_ops, cfg, radii=(1.0, 10.0),
                                      seeds_per_radius=4, base_seed=0)
    assert report.kappa_spread <= 0.10
    for radius in report.radii:
        entry = max(report.entry_times[radius])
        series = report.diameters[radius][report.diam_times >= entry]
        assert series.size >= 2
        for a, b in zip(series, series[1:]):
            assert b <= a + 1e-6


# --------------------------------------------------------------- criterion 9


def test_criterion_09_lojasiewicz_exponents(cone_ops, nontrivial_relaxations):
    gaps = np.logspace(-11.0, -2.0, 400)
    theta_hat, _, _ = fit_lojasiewicz(gaps, 1.7 * gaps ** 0.5)
    assert theta_hat == pytest.approx(0.5, abs=1e-3)

    cfg = StepperConfig(dt=1e-3, stabilization=2.0, t_max=1000.0, eq_tol=1e-9,
                        snapshot_stride=50)
    for seed in (1, 2):
        u0 = smooth_random_field(cone_ops, np.random.default_rng(seed),
                                 sup_amplitude=0.75)
        result = run_semiflow(cone_ops, u0, cfg, collect_snapshots=True)
        probe = lojasiewicz_probe(cone_ops, result)
        assert 0.0 < probe.theta_hat < 0.55
    for ops, result in nontrivial_relaxations:
        assert 0.0 < lojasiewicz_probe(ops, result).theta_hat < 0.55


# -------------------------------------------------------------- criterion 10


def test_criterion_10_poincare_constant_and_inequality(sphere_ops):
    cp = poincare_constant(sphere_ops)
    assert cp == pytest.approx(2.0 ** -0.5, rel=0.01)
    rng = np.random.default_rng(77)
    for _ in range(100):
        u = mean_zero(random_field(sphere_ops.mesh, sphere_ops.max_mode, rng))
        assert l2_norm(u) <= cp * h1_seminorm(u) * (1.0 + 1e-6)


# -------------------------------------------------------------- criterion 11


def test_criterion_11_energy_gradient_convergence_order(small_sphere_ops):
    ops = small_sphere_ops
    rng = np.random.default_rng(99)
    eps_list = (1e-2, 5e-3, 2.5e-3)
    for _ in range(10):
        u = random_field(ops.mesh, ops.max_mode, rng, 0.4)
        h = mean_zero(random_field(ops.mesh, ops.max_mode, rng, 0.4))
        directional = pairing(energy_gradient(u, ops), h)
        errs = [abs((energy(u + eps * h) - energy(u + (-eps) * h)) / (2 * eps)
                    - directional) for eps in eps_list]
        order = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 1.8 <= order <= 2.2


# -------------------------------------------------------------- criterion 12


def test_criterion_12_identical_manifests_reproduce_csvs_bitwise(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[geometry]\nkind = sphere\nM = 48\nK = 2\nq = 1.0\n"
        "[dynamics]\nT_max = 0.05\neq_tol = 0\nsnapshot_stride = 10\n"
        "[experiment]\namplitude = 0.3\nseed = 21\nsnapshots = false\n")
    root = tmp_path / "runs"
    assert main(["simulate", "--config", str(ini), "--run-root", str(root)]) == 0
    first = sorted(root.iterdir())[-1]
    assert main(["simulate", "--config", str(first / "manifest.ini"),
                 "--run-root", str(root)]) == 0
    second = sorted(p for p in root.iterdir() if p != first)[-1]
    csvs = sorted(p.name for p in first.glob("*.csv"))
    assert csvs == ["diagnostics.csv", "summary.csv"]
    for name in csvs:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert (first / "final_state.txt").read_bytes() \
        == (second / "final_state.txt").read_bytes()


# -------------------------------------------------------------- criterion 13


@pytest.fixture(scope="module")
def cone_equilibria():
    """Equilibria on the c = 1/2, L = 6 cone, where u = 0 is unstable (modes 0 and 1)."""
    profile = build_profile("cone_capped", c="1/2", length=6.0)
    ops = ModeOperators(build_mesh(profile, 256, 0.85), 4)
    cfg = StepperConfig(dt=0.2, stabilization=2.0, t_max=1000.0, eq_tol=1e-8,
                        snapshot_stride=10)
    results = [run_semiflow(ops, smooth_random_field(ops, np.random.default_rng(seed),
                                                     sup_amplitude=0.5), cfg,
                            collect_snapshots=True)
               for seed in (1, 2, 3)]
    return profile, ops, results


def test_criterion_13_equilibrium_tip_exponents(cone_equilibria):
    # equilibria come as a circle of rotations (and its mirror -u), so every
    # compared quantity is invariant under both
    profile, ops, results = cone_equilibria
    roots = bilaplacian_indicial_roots(1, boundary_spectrum(profile, 2))
    mesh = ops.mesh
    tip = (mesh.centers >= 2.0 * mesh.s_min) & (mesh.centers < 0.05 * mesh.length)
    x = mesh.centers[tip]
    tip_values = []
    for result in results:
        assert result.equilibrium_reached
        u = result.state.u
        # modes k >= 1: the amplitude follows the leading regular branch x^(k/c)
        for mode, tol in ((1, 0.02), (2, 0.15)):
            exact = float(min(r.value for r in roots if r.mode == mode and r.value > 0))
            fit = fit_tip_asymptotics(u, mode)
            assert fit.rho_hat == pytest.approx(exact, abs=tol)
            assert fit.r_squared >= 0.999
        # mode 0: -Lap u + u^3 - u = mu gives u_0 = a + b x^2 + O(x^4) with
        # b = (a^3 - a - mu) / 4; the zero tip flux leaves no log x branch
        design = np.column_stack([np.ones_like(x), x ** 2, x ** 4])
        a, b, _ = np.linalg.lstsq(design, u.coeffs[0, 0, tip], rcond=None)[0]
        mu = mean(u.cubed() - u)
        assert b == pytest.approx((a ** 3 - a - mu) / 4.0, rel=0.02)
        tip_values.append(abs(a))
    assert max(tip_values) == pytest.approx(min(tip_values), rel=1e-6)
