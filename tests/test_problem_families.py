import math

import numpy as np
import pytest
from scipy.stats import linregress

import trotterbench as tb
from trotterbench import errors
from trotterbench.problem_families import loglog_fit, sandwiched_difference_norms


class TestScalarFamilies:
    def test_power_sample(self, sqrt_family):
        assert sqrt_family.sample(0.25) == pytest.approx(np.array([[0.5]]))

    def test_zero_family(self, zero_family):
        for t in (0.0, 0.3, 1.0):
            assert np.array_equal(zero_family.sample(t), np.zeros((1, 1)))

    def test_weierstrass_single_term(self):
        fam = tb.make_scalar_family("weierstrass", 2.0, c=1.0, beta=0.5, terms=0)
        ts = np.linspace(0.0, 2.0, 33)
        vals = fam.profile(ts)
        assert np.allclose(vals, 1.0 + np.cos(np.pi * ts / 2.0))
        assert np.all(vals >= 0.0)

    def test_weierstrass_at_zero(self, weier_family):
        # finite geometric sum: every cosine term is 1 at t = 0
        expected = 2.0 * sum(2.0 ** (-0.5 * k) for k in range(13))
        assert weier_family.profile(0.0) == pytest.approx(expected, abs=1e-12)

    def test_negative_coefficient(self):
        with pytest.raises(errors.NegativeCoefficientError):
            tb.make_scalar_family("linear", 1.0, c=-1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            tb.make_scalar_family("cubic", 1.0)

    def test_time_out_of_range(self, linear_family):
        with pytest.raises(errors.TimeOutOfRangeError):
            linear_family.sample(1.5)
        with pytest.raises(errors.TimeOutOfRangeError):
            linear_family.sample(-0.2)
        with pytest.raises(errors.TimeOutOfRangeError):
            linear_family.factors([0.5, 1.5], 0.1)
        with pytest.raises(errors.TimeOutOfRangeError):
            linear_family.factors([np.nan], 0.1)

    def test_sampler_deterministic(self, weier_family):
        a = weier_family.sample(0.377)
        b = weier_family.sample(0.377)
        assert np.array_equal(a, b)


class TestSyntheticFamilies:
    def test_constant_when_profile_vanishes(self, const_matrix_pair):
        _, fam = const_matrix_pair
        assert np.array_equal(fam.sample(0.1), fam.sample(0.9))

    def test_linear_identity_modulation(self):
        fam = tb.make_synthetic_matrix_family(np.zeros((2, 2)), np.eye(2), "linear", 1.0)
        assert np.allclose(fam.sample(0.4), 0.4 * np.eye(2))

    def test_not_psd_rejected(self):
        with pytest.raises(errors.NotPSDError):
            tb.make_synthetic_matrix_family(np.diag([-1.0, 1.0]), np.eye(2), "linear", 1.0)

    def test_holder_factorization(self, a_diag3):
        # B(t) - B(s) = (w(t) - w(s)) B1, so the fitted seminorm is
        # |A^-a B1 A^-a| times the profile's own constant (1 for w = t)
        b1 = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
        fam = tb.make_synthetic_matrix_family(np.zeros((3, 3)), b1, "linear", 1.0)
        rep = tb.estimate_holder(fam, a_diag3, 0.5, 64)
        a_neg = a_diag3.frac_power(-0.5)
        expected_l = tb.op_norm(a_neg @ b1 @ a_neg)
        assert rep.holder_l_hat == pytest.approx(expected_l, rel=1e-6)
        assert rep.beta_clipped


@pytest.mark.parametrize(
    "b_const, b_mod, error",
    [
        (np.zeros((2, 2)), np.array([[1.0, 0.5], [0.0, 1.0]]), errors.NotSymmetricError),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2), errors.NonFiniteError),
    ],
    ids=["asymmetric_b_mod", "nan_b_const"],
)
def test_construction_validates_matrices(b_const, b_mod, error):
    with pytest.raises(error):
        tb.TimeDependentFamily(
            horizon=1.0, dim=2, declared_alpha=0.0, declared_beta=1.0, label="synthetic:linear",
            profile=tb.ScalarProfile("linear"), b_const=b_const, b_mod=b_mod,
        )


# generator and family fixtures per case; b_const == 0 except for synth_pair
FACTOR_CASES = {
    "heat1d": ("heat_pair",),
    "scalar_power": ("a_scalar", "sqrt_family"),
    "synthetic_b0": ("synth_pair",),
}


@pytest.mark.parametrize("case", list(FACTOR_CASES))
def test_factors_match_per_node_exponentials(request, case):
    got = [request.getfixturevalue(name) for name in FACTOR_CASES[case]]
    a_op, fam = got[0] if len(got) == 1 else got
    assert (fam._mod_eig is None) == (case == "synthetic_b0")
    ts = np.array([0.0, 0.1875, 0.5, 0.9, 1.0])
    for tau in (0.05, 0.6):
        for t, eb in zip(ts, fam.factors(ts, tau)):
            assert np.abs(eb - tb.sym_expm_neg(fam.sample(t), tau)).max() <= 1e-13
    assert np.array_equal(fam.factors(ts, 0.0), np.tile(np.eye(fam.dim), (ts.size, 1, 1)))
    # both products against a per-factor loop over the same nodes
    s, t, n = 0.125, 0.875, 12
    tau = (t - s) / n
    nodes = np.linspace(s, t, n + 1)
    ea = a_op.semigroup(tau)
    left = right = np.eye(fam.dim)
    for j in range(n):
        left = ea @ tb.sym_expm_neg(fam.sample(nodes[j]), tau) @ left
        right = tb.sym_expm_neg(fam.sample(nodes[j + 1]), tau) @ ea @ right
    assert np.abs(tb.trotter_left(a_op, fam, s, t, n).matrix - left).max() <= 1e-13
    assert np.abs(tb.trotter_right(a_op, fam, s, t, n).matrix - right).max() <= 1e-13


class TestHeat1d:
    def test_zero_potential(self):
        _, fam = tb.make_heat1d_family(4, tb.zero_potential, 1.0, "linear")
        assert np.allclose(fam.sample(0.7), 0.0, atol=1e-14)

    def test_constant_potential_orthonormality(self):
        # v = 1 makes the potential matrix the identity, by orthonormality
        _, fam = tb.make_heat1d_family(5, tb.constant_potential(1.0), 1.0, "linear")
        assert np.allclose(fam.sample(1.0), np.eye(5), atol=1e-8)

    def test_sin_squared_first_entry(self):
        # (2/pi) * int sin^2(x) sin^2(x) dx = (2/pi)(3 pi/8) = 3/4
        _, fam = tb.make_heat1d_family(2, tb.sin_squared_potential, 1.0, "linear")
        for t in (0.25, 1.0):
            assert fam.sample(t)[0, 0] == pytest.approx(0.75 * t, abs=1e-8)

    def test_spectrum_is_exact_squares(self, heat_pair):
        a_op, _ = heat_pair
        assert np.array_equal(a_op.eigenvalues, np.arange(1.0, 9.0) ** 2)
        assert a_op.role == tb.GENERATOR_ROLE

    def test_negative_potential_rejected(self):
        with pytest.raises(errors.NegativePotentialError):
            tb.make_heat1d_family(3, lambda x: -np.ones_like(x), 1.0, "linear")

    def test_samples_psd(self, heat_pair):
        _, fam = heat_pair
        for t in np.linspace(0.0, 1.0, 9):
            assert np.linalg.eigvalsh(fam.sample(t))[0] >= -1e-10


class TestEstimateCAlpha:
    def test_zero_family(self, zero_family, a_scalar):
        assert tb.estimate_c_alpha(zero_family, a_scalar, 0.3, 16) == 0.0

    def test_scalar_linear(self, linear_family, a_scalar):
        for alpha in (0.0, 0.4, 0.9):
            assert tb.estimate_c_alpha(linear_family, a_scalar, alpha, 16) == pytest.approx(1.0)

    def test_constant_identity_against_diag(self, a_diag14):
        fam = tb.make_synthetic_matrix_family(np.eye(2), np.eye(2), "power", 1.0, c=0.0)
        # |I * A^{-1/2}| = largest of l^{-1/2} = 1
        assert tb.estimate_c_alpha(fam, a_diag14, 0.5, 8) == pytest.approx(1.0)

    def test_stack_matches_per_node_loop(self, heat_pair, synth_pair):
        # one norm of the stacked samples is the maximum over the grid nodes
        for a_op, fam in (heat_pair, synth_pair):
            a_neg = a_op.frac_power(-0.4)
            ts = np.linspace(0.0, fam.horizon, 17)
            per_node = max(tb.op_norm(fam.sample(t) @ a_neg) for t in ts)
            assert tb.estimate_c_alpha(fam, a_op, 0.4, 16) == per_node

    def test_monotone_in_alpha(self, heat_pair, synth_pair):
        for a_op, fam in (heat_pair, synth_pair):
            alphas = [0.0, 0.2, 0.4, 0.6, 0.8]
            vals = [tb.estimate_c_alpha(fam, a_op, a, 16) for a in alphas]
            for lo, hi in zip(vals[1:], vals[:-1]):
                assert lo <= hi + 1e-10


class TestEstimateHolder:
    def test_constant_family_convention(self, const_matrix_pair):
        a_op, fam = const_matrix_pair
        rep = tb.estimate_holder(fam, a_op, 0.5, 16)
        assert rep.degenerate
        assert rep.holder_l_hat == 0.0
        assert rep.holder_beta_hat == 1.0
        assert rep.fit_r2 == 1.0

    def test_sqrt_profile(self, sqrt_family, a_scalar):
        # the Hoelder-1/2 seminorm of sqrt(t) is exactly 1 (attained at s=0)
        rep = tb.estimate_holder(sqrt_family, a_scalar, 0.0, 64)
        assert 0.45 <= rep.holder_beta_hat <= 0.55
        assert 0.9 <= rep.holder_l_hat <= 1.1
        assert rep.fit_r2 >= 0.99

    def test_lipschitz_clipped(self, linear_family, a_scalar):
        rep = tb.estimate_holder(linear_family, a_scalar, 0.0, 64)
        assert rep.holder_beta_hat == 1.0
        assert rep.beta_clipped

    def test_degenerate_grid(self, sqrt_family, a_scalar):
        with pytest.raises(errors.DegenerateGridError):
            tb.estimate_holder(sqrt_family, a_scalar, 0.0, 7)

    def test_seminorm_monotone_in_alpha(self, heat_pair):
        a_op, fam = heat_pair
        beta = fam.declared_beta
        vals = [tb.holder_seminorm(fam, a_op, a, beta, 32) for a in (0.0, 0.3, 0.6, 0.9)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-10


def test_remark_monotonicity_all_builtins(a_scalar, zero_family, linear_family,
                                          sqrt_family, weier_family, heat_pair, synth_pair):
    # regularity at some alpha implies it at every larger alpha
    cases = [(a_scalar, zero_family), (a_scalar, linear_family), (a_scalar, sqrt_family),
             (a_scalar, weier_family), heat_pair, synth_pair]
    for a_op, fam in cases:
        beta = fam.declared_beta
        c_vals = [tb.estimate_c_alpha(fam, a_op, a, 16) for a in (0.1, 0.5, 0.9)]
        l_vals = [tb.holder_seminorm(fam, a_op, a, beta, 16) for a in (0.1, 0.5, 0.9)]
        assert c_vals[1] <= c_vals[0] + 1e-10 and c_vals[2] <= c_vals[1] + 1e-10
        assert l_vals[1] <= l_vals[0] + 1e-10 and l_vals[2] <= l_vals[1] + 1e-10


FIT_X = np.array([1.0, 2.0, 4.0, 8.0])


@pytest.mark.parametrize(
    "y, slope, intercept, r2",
    [(3.0 * FIT_X ** -0.5, -0.5, math.log(3.0), 1.0), (np.full(4, math.e), 0.0, 1.0, 0.0)],
    ids=["power_law", "constant"],
)
def test_loglog_fit(y, slope, intercept, r2):
    fit = loglog_fit(FIT_X, y)
    assert fit == pytest.approx((slope, intercept, r2), abs=1e-14)
    ref = linregress(np.log(FIT_X), np.log(y))
    assert fit[:2] == pytest.approx((ref.slope, ref.intercept), abs=1e-14)
    # a flat y has no correlation to report: r2 is 0 where recent scipy gives NaN
    ref_r2 = 0.0 if np.isnan(ref.rvalue) else ref.rvalue ** 2
    assert fit[2] == pytest.approx(ref_r2, abs=1e-14)


@pytest.mark.parametrize("case, alpha", [("heat_pair", 0.75), ("synth_pair", 0.5)])
def test_sandwiched_norms_match_all_pairs(request, case, alpha):
    a_op, fam = request.getfixturevalue(case)
    grid_n = 32
    ts = np.linspace(0.0, fam.horizon, grid_n + 1)
    a_neg = a_op.frac_power(-alpha)
    sandwiches = [a_neg @ fam.sample(t) @ a_neg for t in ts]
    ref_norms, ref_gaps = [], []
    for j in range(1, len(ts)):
        for i in range(j):
            ref_gaps.append(ts[j] - ts[i])
            ref_norms.append(tb.op_norm(sandwiches[j] - sandwiches[i]))
    norms, gaps = sandwiched_difference_norms(fam, a_op, alpha, grid_n)
    assert np.array_equal(gaps, ref_gaps)
    ref = np.array(ref_norms)
    assert np.all(np.abs(norms - ref) <= 1e-12 * ref)
