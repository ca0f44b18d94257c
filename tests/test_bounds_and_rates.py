import math

import numpy as np
import pytest
from scipy.integrate import quad

from trotterbench import errors, op_norm, trotter_left, trotter_right
from trotterbench.bounds_and_rates import (
    beta_sum_bound,
    beta_sum_scan,
    euler_beta,
    rate_fit,
    reference_grid,
    sandwiched_defect_constant,
    solve_stability_constant,
    stability_step_threshold,
    sup_error,
)


class TestBetaSum:
    def test_trivial_pair(self):
        lhs, rhs, holds = beta_sum_bound(2, 0.0, 0.0)
        assert lhs == 1.0 and rhs == pytest.approx(2.0) and holds

    def test_half_half(self):
        lhs, rhs, holds = beta_sum_bound(2, 0.5, 0.5)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(math.pi)  # B(1/2, 1/2) = pi
        assert holds

    def test_beta_function_against_quadrature(self):
        # independent oracle: the defining singular integral
        val, _ = quad(lambda x: x ** (-0.3) * (1.0 - x) ** (-0.4), 0.0, 1.0)
        assert euler_beta(0.7, 0.6) == pytest.approx(val, rel=1e-8)

    def test_direct_summation(self):
        n, alpha, gamma = 10, 0.3, 0.4
        expected = sum((n - k) ** (-gamma) * k ** (-alpha) for k in range(1, n))
        lhs, rhs, holds = beta_sum_bound(n, alpha, gamma)
        assert lhs == pytest.approx(expected, rel=1e-14)
        assert holds

    def test_scan_matches_pointwise(self):
        rows = beta_sum_scan(40)
        by_key = {(n, a, g): (lhs, rhs) for n, a, g, lhs, rhs, _ in rows}
        for n, a, g in ((2, 0.0, 0.0), (17, 0.3, 0.4), (40, 0.1, 0.9)):
            lhs, rhs, _ = beta_sum_bound(n, a, g)
            got = by_key[(n, a, g)]
            assert got[0] == pytest.approx(lhs, rel=1e-12)
            assert got[1] == pytest.approx(rhs, rel=1e-12)


class TestDefectConstant:
    def test_vanishes_without_perturbation(self):
        assert sandwiched_defect_constant(0.5, 0.5, 0.0, 0.0, 1.0) == 0.0

    def test_reference_value(self):
        # 2/((1.5)(2.5)) + 2 + 2/((1.5)(0.5)) = 5.2
        assert sandwiched_defect_constant(0.5, 0.5, 1.0, 0.0, 1.0) == pytest.approx(5.2)

    def test_monotone_in_parameters(self):
        base = sandwiched_defect_constant(0.6, 0.4, 1.0, 1.0, 1.0)
        assert sandwiched_defect_constant(0.6, 0.4, 1.5, 1.0, 1.0) > base
        assert sandwiched_defect_constant(0.6, 0.4, 1.0, 2.0, 1.0) > base
        assert sandwiched_defect_constant(0.6, 0.4, 1.0, 1.0, 2.0) > base

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            sandwiched_defect_constant(0.0, 0.5, 1.0, 0.0, 1.0)


class TestStabilityThreshold:
    def test_zero_constant(self):
        assert stability_step_threshold(0.5, 0.0, 1.0) == 1

    def test_reference_value(self):
        # (2 (1/(1-0.5) + 1) 0.5)^2 = 9 -> floor(9) + 1 = 10
        assert stability_step_threshold(0.5, 0.5, 1.0, lambda_gamma=1.0) == 10

    def test_monotone(self):
        base = stability_step_threshold(0.5, 0.5, 1.0)
        assert stability_step_threshold(0.5, 1.0, 1.0) >= base
        assert stability_step_threshold(0.5, 0.5, 2.0) >= base


class TestStabilityConstant:
    def test_fixed_point_trivial(self):
        assert solve_stability_constant(3.5, 0.0, 0.0, 10, 0.5, 0.25) == 3.5

    def test_quadratic_case(self):
        # 5 + 0.5 sqrt(M) = M solved by the quadratic formula in sqrt(M)
        expected = ((0.5 + math.sqrt(0.25 + 20.0)) / 2.0) ** 2
        got = solve_stability_constant(5.0, 0.0, 0.5, 10, 0.5, 0.25)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_residual_self_verification(self):
        c0, c1, c2, n, gamma, alpha = 2.0, 0.8, 1.1, 50, 0.6, 0.3
        m = solve_stability_constant(c0, c1, c2, n, gamma, alpha)
        residual = c0 + c1 * m / n ** (1 - gamma) + c2 * m ** (alpha / gamma) - m
        assert residual <= 1e-8 * m

    def test_decreases_to_limit_in_n(self):
        vals = [solve_stability_constant(5.0, 1.0, 0.5, n, 0.5, 0.25) for n in (10, 1000, 10 ** 6)]
        assert vals[0] >= vals[1] >= vals[2]
        limit = solve_stability_constant(5.0, 0.0, 0.5, 10, 0.5, 0.25)
        assert vals[2] == pytest.approx(limit, rel=1e-2)

    def test_feasibility_violated(self):
        # c1^{1/(1-gamma)} = 64 so n = 32 is too small
        with pytest.raises(errors.FeasibilityViolatedError):
            solve_stability_constant(1.0, 8.0, 0.0, 32, 0.5, 0.25)


class TestRateFit:
    def test_exact_half_rate(self):
        entries = [(n, n ** -0.5) for n in (2, 4, 8, 16, 32, 64, 128, 256)]
        rep = rate_fit(entries, 0.0, 0.5)
        assert rep.fitted_slope == pytest.approx(0.5, abs=1e-12)
        assert rep.r2 == pytest.approx(1.0)
        assert rep.condition_ok

    def test_constant_recovered(self):
        entries = [(n, 3.0 / n) for n in (2, 4, 8, 16)]
        rep = rate_fit(entries, 0.0, 1.0)
        assert rep.fitted_slope == pytest.approx(1.0, abs=1e-12)
        assert rep.fitted_log_constant == pytest.approx(math.log(3.0), abs=1e-12)

    def test_rescale_invariance(self):
        entries = [(n, n ** -0.7) for n in (2, 4, 8, 16, 32)]
        scaled = [(n, 17.3 * e) for n, e in entries]
        s1 = rate_fit(entries, 0.0, 0.7).fitted_slope
        s2 = rate_fit(scaled, 0.0, 0.7).fitted_slope
        assert abs(s1 - s2) <= 1e-12

    def test_too_few_points(self):
        with pytest.raises(errors.TooFewPointsError):
            rate_fit([(2, 0.1), (4, 0.05), (8, 1e-15)], 0.0, 0.5)

    def test_all_below_floor(self):
        with pytest.raises(errors.AllBelowFloorError):
            rate_fit([(2, 0.0), (4, 1e-15), (8, 0.0), (16, 0.0)], 0.0, 0.5)

    def test_condition_flag(self):
        entries = [(n, n ** -0.5) for n in (2, 4, 8, 16)]
        assert rate_fit(entries, 0.7, 0.5).condition_ok       # 0.5 > 0.4
        assert not rate_fit(entries, 0.8, 0.5).condition_ok   # 0.5 < 0.6


class TestSupError:
    def test_zero_family(self, a_scalar, zero_family):
        refs = reference_grid(a_scalar, zero_family, 4, 1e-10)
        for n in (1, 4, 32):
            assert sup_error(a_scalar, zero_family, n, refs) <= 1e-13

    def test_scalar_candidates(self, a_scalar, linear_family):
        # grid {0, 1/2, 1}: the (0, 1) pair dominates
        refs = reference_grid(a_scalar, linear_family, 2, 1e-10)
        got = sup_error(a_scalar, linear_family, 2, refs)
        candidates = [
            abs(math.exp(-0.5625) - math.exp(-0.625)),   # (0, 1/2)
            abs(math.exp(-1.25) - math.exp(-1.5)),       # (0, 1)
            abs(math.exp(-0.8125) - math.exp(-0.875)),   # (1/2, 1)
        ]
        assert got == pytest.approx(max(candidates), abs=1e-9)

    def test_shared_references_match_fresh(self, a_scalar, sqrt_family):
        refs = reference_grid(a_scalar, sqrt_family, 4, 1e-10)
        for n in (2, 8):
            with_refs = sup_error(a_scalar, sqrt_family, n, refs, "left")
            fresh_refs = reference_grid(a_scalar, sqrt_family, 4, 1e-10)
            fresh = sup_error(a_scalar, sqrt_family, n, fresh_refs, "left")
            assert with_refs == fresh

    @pytest.mark.parametrize("variant", ["left", "right"])
    def test_explicit_pairwise_maximum(self, synth_pair, variant):
        # the grid size comes from the references: every pair of a 5-interval grid
        a_op, fam = synth_pair
        refs = reference_grid(a_op, fam, 5, 1e-8)
        product = trotter_left if variant == "left" else trotter_right
        ts = np.linspace(0.0, fam.horizon, 6)
        expected = max(
            op_norm(product(a_op, fam, ts[i], ts[j], 3).matrix - refs[(i, j)])
            for j in range(1, 6)
            for i in range(j)
        )
        assert sup_error(a_op, fam, 3, refs, variant) == expected

    def test_variants_share_rate(self, a_scalar, weier_family):
        refs = reference_grid(a_scalar, weier_family, 4, 1e-10)
        ns = (2, 4, 8, 16, 32, 64)
        left = [(n, sup_error(a_scalar, weier_family, n, refs, "left")) for n in ns]
        right = [(n, sup_error(a_scalar, weier_family, n, refs, "right")) for n in ns]
        sl = rate_fit(left, 0.0, 0.5).fitted_slope
        sr = rate_fit(right, 0.0, 0.5).fitted_slope
        assert sl >= 0.3 and sr >= 0.3
