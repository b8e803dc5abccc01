"""Exact tip-exponent bookkeeping: surd arithmetic, windows, roots, branches.

Frozen values below were derived by hand from the indicial polynomial
p(z) = z^2 + (n-1)z + lambda and double-checked against the independent
floating-point enumeration oracle at the bottom (numpy.roots of
p(z) * p(z-2) per mode).
"""

from fractions import Fraction

import numpy as np
import pytest

from conekit.geometry import boundary_spectrum, build_profile
from conekit.indicial import (
    LOG_POWER_BOUND,
    IndicialRoot,
    Surd,
    asymptotic_space,
    bilaplacian_indicial_roots,
    ch_gamma_window,
    interpolation_exclusions,
    laplacian_gamma_window,
    laplacian_indicial_roots,
    minimal_domain_check,
)


def circle_spectrum(c, max_mode=2):
    profile = build_profile("cone_capped", c=c, length=2.0)
    return boundary_spectrum(profile, max_mode)


# ----------------------------------------------------------------- surds


def test_surd_folds_perfect_square_radicands():
    x = Surd.sqrt(Fraction(9, 4))
    assert x == Fraction(3, 2)
    assert Surd(1, 2, 4) == 5  # 1 + 2*sqrt(4)
    with pytest.raises(ValueError, match="negative radicand"):
        Surd(0, 1, -2)


def test_irrational_surds_print_as_roots_csv_writes_them():
    assert [repr(x) for x in (Surd.sqrt(2), -Surd.sqrt(2), Surd(1, 3, 2),
                              Surd(Fraction(1, 2), -1, 5))] \
        == ["sqrt(2)", "-sqrt(2)", "1 + (3)*sqrt(2)", "1/2 - sqrt(5)"]


def test_surd_additive_arithmetic_is_exact():
    x = Surd.sqrt(2)
    assert (1 + x) - x == 1
    assert x + x == Surd(0, 2, 2)
    assert -x < 0 < x
    assert float(x) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_surd_ordering_against_rationals_is_exact():
    x = Surd.sqrt(2)
    # 239/169 and 577/408 are continued-fraction approximants bracketing
    # sqrt(2) more tightly than float resolution comfortably decides
    assert x > Fraction(239, 169)
    assert x < Fraction(577, 408)
    assert not (x == Fraction(577, 408))


def test_surd_mixed_radicands_raise_on_order_but_compare_equal():
    with pytest.raises(ArithmeticError):
        Surd.sqrt(2) < Surd.sqrt(3)
    with pytest.raises(ArithmeticError):
        Surd.sqrt(2) + Surd.sqrt(3)
    # equality across radicands is still decided exactly
    assert Surd.sqrt(8) == Surd(0, 2, 2)
    assert Surd.sqrt(2) != Surd.sqrt(3)
    assert Surd(1, 1, 2) != Surd(0, 1, 3)


@pytest.mark.parametrize("text", ["1", "2", "abc", "sqrt(2)"])
def test_surd_does_not_parse_strings_in_comparisons_or_arithmetic(text):
    for x in (Surd(1), Surd.sqrt(2)):
        assert x != text and not (x == text) and text != x
        for op in (lambda: x < text, lambda: x >= text, lambda: text < x,
                   lambda: x + text, lambda: text + x, lambda: x - text, lambda: text - x):
            with pytest.raises(TypeError):
                op()
    assert Surd("1/2") == Fraction(1, 2)   # the constructor still reads exact text


def test_surd_equal_values_hash_alike(rng):
    # a*sqrt(r k^2) and k*a*sqrt(r) are one number in two representations
    pairs = [(Fraction(1, 3), Fraction(10), 199)]
    for _ in range(300):
        a = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 30)))
        r = Fraction(int(rng.integers(1, 200)), int(rng.integers(1, 30)))
        pairs.append((a, r, int(rng.integers(2, 500)) * int(rng.choice([-1, 1]))))
    for a, r, k in pairs:
        x, y = Surd(a, 1 if k > 0 else -1, r * k * k), Surd(a, k, r)
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1 and {x: "found"}[y] == "found"
        assert x != Surd(a, -k, r) and x != y + Fraction(1, 10 ** 9)
    assert len({Surd(0, 1, 10 * 199 ** 2), Surd(0, 199, 10)}) == 1
    assert hash(Surd(Fraction(7, 3))) == hash(Fraction(7, 3)) and hash(Surd(2)) == hash(2)


def test_indicial_roots_from_equal_surds_hash_alike():
    x, y = Surd(Fraction(1, 3), 1, 10 * 199 ** 2), Surd(Fraction(1, 3), 199, 10)
    roots = [IndicialRoot("bilaplacian", 1, v, 2) for v in (x, y)]
    assert roots[0] == roots[1] and hash(roots[0]) == hash(roots[1])
    assert len(set(roots)) == 1


def test_surd_ordering_matches_floats_away_from_ties(rng):
    for _ in range(200):
        a = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        b = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        r = Fraction(int(rng.integers(0, 30)))
        x = Surd(a, b, r)
        p = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        if abs(float(x) - float(p)) > 1e-9:
            assert (x < p) == (float(x) < float(p))
            assert (x > p) == (float(x) > float(p))


# ------------------------------------------------------- weight windows


def test_fourth_order_weight_window_unit_slope():
    w = ch_gamma_window(1, -1)
    assert w.lower == Fraction(-1)
    assert w.upper == Fraction(-1, 2)
    assert w.nonempty
    assert w.contains(Fraction(-3, 4))
    assert not w.contains(-1)          # open ends
    assert not w.contains(Fraction(-1, 2))


def test_fourth_order_weight_window_three_dimensional_case():
    w = ch_gamma_window(2, -2)
    assert w.lower == Fraction(-1, 2)
    assert w.upper == Fraction(-1, 4)
    assert w.nonempty


def test_fourth_order_weight_window_collapses_as_eigenvalue_vanishes():
    # upper -> min{-1 + sqrt(1/4), -1/4} = lower as lambda_1 -> 0-
    w = ch_gamma_window(2, Fraction(-1, 10**40))
    assert not w.nonempty
    # exact arithmetic still keeps it open a hair: lower < upper exactly
    assert w.lower < w.upper


def test_second_order_weight_windows():
    w = laplacian_gamma_window(1, -1)
    assert (w.lower, w.upper) == (Fraction(-1), Fraction(0))
    w = laplacian_gamma_window(1, -4)
    assert (w.lower, w.upper) == (Fraction(-1), Fraction(1))
    w = laplacian_gamma_window(2, -2)
    assert (w.lower, w.upper) == (Fraction(-1, 2), Fraction(1, 2))


def test_weight_windows_reject_bad_inputs():
    with pytest.raises(ValueError):
        ch_gamma_window(1, 0)
    with pytest.raises(ValueError):
        laplacian_gamma_window(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        ch_gamma_window(0, -1)


def test_fourth_order_upper_never_exceeds_second_order_upper(rng):
    # both uppers share the branch -1 + sqrt(-lambda) when n = 1, so the
    # fourth-order cap at -1/2 keeps it below the second-order cap at 1
    for _ in range(1000):
        lam = -Fraction(int(rng.integers(1, 25_000_001)), 1_000_000)
        upper_4th = ch_gamma_window(1, lam).upper
        upper_2nd = laplacian_gamma_window(1, lam).upper
        assert upper_4th <= upper_2nd


# ------------------------------------------------------ second-order roots


def test_harmonic_exponents_axisymmetric_mode_has_log_branch():
    roots = laplacian_indicial_roots(1, [(0, 0)])
    assert len(roots) == 1
    assert roots[0].value == 0
    assert roots[0].multiplicity == 2
    assert roots[0].log_power_max == 1


def test_harmonic_exponents_first_mode_unit_slope():
    roots = laplacian_indicial_roots(1, [(1, -1)])
    assert sorted((r.value for r in roots), key=float) == [Surd(-1), Surd(1)]
    assert all(r.multiplicity == 1 for r in roots)


def test_harmonic_exponents_two_dimensional_surface():
    roots = laplacian_indicial_roots(2, [(0, 0)])
    assert sorted((float(r.value) for r in roots)) == [-1.0, 0.0]
    assert all(r.multiplicity == 1 for r in roots)


def test_harmonic_exponent_pair_sums_to_minus_n_minus_one(rng):
    for n in (1, 2):
        for _ in range(50):
            lam = -Fraction(int(rng.integers(1, 400)), int(rng.integers(1, 20)))
            lo, hi = laplacian_indicial_roots(n, [(1, lam)])
            assert lo.value + hi.value == Fraction(-(n - 1))


# ------------------------------------------------------ fourth-order roots


def bilap_by_value(n, spectrum, mode):
    return {r.value: r for r in bilaplacian_indicial_roots(n, spectrum)
            if r.mode == mode}


def test_biharmonic_exponents_unit_slope_mode_one_merges():
    by_val = bilap_by_value(1, circle_spectrum(1, 1), mode=1)
    assert set(by_val) == {Surd(-1), Surd(1), Surd(3)}
    assert by_val[Surd(1)].multiplicity == 2
    assert by_val[Surd(1)].log_power_max == 1
    assert by_val[Surd(-1)].multiplicity == 1
    assert by_val[Surd(3)].multiplicity == 1


def test_biharmonic_exponents_axisymmetric_mode_double_doubles():
    by_val = bilap_by_value(1, circle_spectrum(1, 1), mode=0)
    assert set(by_val) == {Surd(0), Surd(2)}
    assert by_val[Surd(0)].multiplicity == 2
    assert by_val[Surd(2)].multiplicity == 2


def test_biharmonic_exponents_half_slope_mode_one_all_simple():
    by_val = bilap_by_value(1, circle_spectrum(Fraction(1, 2), 1), mode=1)
    assert set(by_val) == {Surd(-2), Surd(0), Surd(2), Surd(4)}
    assert all(r.multiplicity == 1 for r in by_val.values())


def test_biharmonic_exponent_multiset_symmetry(rng):
    # per mode the value multiset is invariant under q -> 2 - (n-1) - q
    for n in (1, 2):
        for _ in range(50):
            lam = -Fraction(int(rng.integers(0, 400)), int(rng.integers(1, 20)))
            roots = bilaplacian_indicial_roots(n, [(1, lam)])
            bag = sorted(((float(r.value), r.multiplicity) for r in roots))
            mirrored = sorted(((float(Surd(2 - (n - 1)) - r.value), r.multiplicity)
                               for r in roots))
            assert all(abs(x - y) < 1e-12 and mx == my
                       for (x, mx), (y, my) in zip(bag, mirrored))
            assert all(r.log_power_max <= LOG_POWER_BOUND for r in roots)


def test_biharmonic_exponents_match_independent_polynomial_enumeration(rng):
    # oracle: numpy.roots of p(z) = z^2 + (n-1) z + lam, and the same shifted
    # by +2 (the roots of p(z-2)), merged by value; n = 1 on the circle
    # spectra (rational roots), n = 2 and 3 on generated eigenvalues
    # (irrational radicands, plus lam = 0 and -3/4, whose radicand 1 merges roots)
    cases = [(1, circle_spectrum(c, 3))
             for c in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 10))]
    for n in (2, 3):
        lams = [Fraction(0), Fraction(-3, 4)]
        lams += [-Fraction(int(rng.integers(1, 400)), int(rng.integers(1, 20))) for _ in range(40)]
        cases.append((n, [(k, lam) for k, lam in enumerate(lams)]))
    for n, spectrum in cases:
        roots = bilaplacian_indicial_roots(n, spectrum)
        for mode, lam in spectrum:
            pair = np.roots([1.0, n - 1.0, float(lam)])
            oracle = np.sort(np.concatenate([pair.real, pair.real + 2.0]))
            computed = np.sort(np.concatenate(
                [[float(r.value)] * r.multiplicity for r in roots if r.mode == mode]))
            assert np.allclose(computed, oracle, atol=1e-9)


# ------------------------------------------------------- branch spaces


def test_branch_space_unit_slope_canonical_weight():
    lower, upper, members = asymptotic_space(1, circle_spectrum(1, 2), Fraction(-3, 4))
    assert lower == Fraction(-9, 4)
    assert upper == Fraction(-1, 4)
    assert {(r.mode, r.value) for r in members} == {(1, Surd(-1)), (2, Surd(-2))}


def test_branch_space_weight_near_window_edge():
    lower, upper, members = asymptotic_space(1, circle_spectrum(1, 2), Fraction(-999, 1000))
    assert lower == Fraction(-2001, 1000)
    assert upper == Fraction(-1, 1000)
    assert {(r.mode, r.value) for r in members} == {(1, Surd(-1)), (2, Surd(-2))}


def test_branch_space_slope_three_tenths_has_shifted_member():
    # mode-1 exponents for c = 3/10 are {-10/3, 10/3} and shifts {-4/3, 16/3};
    # the shifted branch -4/3 lands inside [-9/4, -1/4) (enumeration oracle)
    _, _, members = asymptotic_space(1, circle_spectrum(Fraction(3, 10), 2), Fraction(-3, 4))
    assert {(r.mode, r.value) for r in members} == {(1, Surd(0) + Fraction(-4, 3))}


def test_branch_space_wider_truncation_adds_shifted_branches():
    # with modes up to 4, the +2 shifts of modes 3 and 4 also enter the window
    _, _, members = asymptotic_space(1, circle_spectrum(1, 4), Fraction(-3, 4))
    assert {(r.mode, float(r.value)) for r in members} == {(1, -1.0), (2, -2.0), (3, -1.0),
                                                          (4, -2.0)}


def test_branch_space_window_is_half_open():
    # upper end excluded: with gamma = 0 the window is [-3, -1) and the
    # mode-1 exponent -1 sits exactly on the excluded end
    _, _, members = asymptotic_space(1, circle_spectrum(1, 2), 0)
    assert {(r.mode, r.value) for r in members} == {(2, Surd(-2))}
    # lower end included: gamma = -1 gives [-2, 0) and catches -2 exactly
    _, _, members = asymptotic_space(1, circle_spectrum(1, 2), -1)
    assert {(r.mode, r.value) for r in members} == {(1, Surd(-1)), (2, Surd(-2))}


def test_branch_space_window_affine_in_weight(rng):
    spectrum = circle_spectrum(1, 2)
    for _ in range(20):
        g1 = Fraction(int(rng.integers(-40, 40)), 16)
        g2 = Fraction(int(rng.integers(-40, 40)), 16)
        lower1, upper1, _ = asymptotic_space(1, spectrum, g1)
        lower2, upper2, _ = asymptotic_space(1, spectrum, g2)
        assert lower1 - lower2 == g2 - g1
        assert upper1 - upper2 == g2 - g1


def test_branch_space_members_are_biharmonic_exponents(rng):
    for _ in range(20):
        a, b = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        c = Fraction(min(a, b), max(a, b))
        g = Fraction(int(rng.integers(-32, 8)), 16)
        spectrum = circle_spectrum(c, 3)
        all_roots = {(r.mode, r.value) for r in bilaplacian_indicial_roots(1, spectrum)}
        _, _, members = asymptotic_space(1, spectrum, g)
        assert {(r.mode, r.value) for r in members} <= all_roots
        assert all(r.log_power_max <= LOG_POWER_BOUND for r in members)


# -------------------------------------------------- minimal-domain check


def test_minimal_domain_clean_cases():
    assert minimal_domain_check(1, circle_spectrum(1, 3), Fraction(-3, 4)) == ()
    assert minimal_domain_check(1, circle_spectrum(Fraction(1, 2), 3), Fraction(-3, 4)) == ()


def test_minimal_domain_integer_weight_hits_exponent_offsets():
    res = minimal_domain_check(1, circle_spectrum(1, 3), 0)
    assert res
    hits = {(float(v), mode) for v, mode in res}
    assert (1.0, 1) in hits   # gamma + 1 collides with the mode-1 offset
    assert (3.0, 3) in hits   # gamma + 3 collides with the mode-3 offset


def test_minimal_domain_reports_a_double_root_offset_once():
    # radicand 0 gives the offsets +0 and -0, one value: one hit, not two
    assert minimal_domain_check(1, [(0, 0)], -1) == ((Surd(0), 0),)
    res = minimal_domain_check(1, [(0, 0), (1, -4)], -1)
    assert [(repr(v), mode) for v, mode in res] == [("0", 0), ("2", 1)]


# ------------------------------------------------ interpolation exclusions


def test_interpolation_exclusions_canonical_weight():
    out = interpolation_exclusions(1, circle_spectrum(1, 2), Fraction(-3, 4))
    assert out == [Fraction(3, 8), Fraction(7, 8)]


def test_interpolation_exclusions_zero_weight_drops_boundary_points():
    out = interpolation_exclusions(1, circle_spectrum(1, 2), 0)
    assert out == [Fraction(1, 2)]  # mode-1 candidates 0 and 1 are excluded


def test_interpolation_exclusions_two_dimensional_case():
    out = interpolation_exclusions(2, [(0, 0), (1, -2)], Fraction(-3, 10))
    assert out == [Fraction(2, 5), Fraction(9, 10)]


def test_interpolation_exclusions_deduplicate_exactly():
    out = interpolation_exclusions(1, [(0, 0), (1, 0)], Fraction(-3, 4))
    assert out == [Fraction(7, 8)]
