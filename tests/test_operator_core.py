import math

import numpy as np
import pytest

import trotterbench as tb
from trotterbench import errors


def random_spd(rng, dim, lam_min=0.2, lam_max=5.0):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = np.sort(rng.uniform(lam_min, lam_max, size=dim))
    return tb.SpectralOperator(lam, q)


class TestDiagonalize:
    def test_already_diagonal(self):
        op = tb.diagonalize(np.diag([2.0, 1.0]))
        assert np.allclose(op.eigenvalues, [1.0, 2.0])
        # eigenvectors of a diagonal matrix are (signed) unit vectors
        assert np.allclose(np.abs(op.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]] is l^2 - 4l + 3
        roots = np.sort(np.roots([1.0, -4.0, 3.0]))
        op = tb.diagonalize([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(op.eigenvalues, roots, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 3, 7])
    def test_identity(self, dim):
        op = tb.diagonalize(np.eye(dim))
        assert np.allclose(op.eigenvalues, 1.0)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for dim in (2, 5, 16):
            m = rng.normal(size=(dim, dim))
            m = 0.5 * (m + m.T)
            op = tb.diagonalize(m)
            err = np.linalg.norm(op.to_matrix() - m) / np.linalg.norm(m)
            assert err <= 1e-10

    def test_not_symmetric(self):
        with pytest.raises(errors.NotSymmetricError):
            tb.diagonalize([[0.0, 1.0], [0.0, 0.0]])

    def test_non_finite(self):
        with pytest.raises(errors.NonFiniteError):
            tb.diagonalize([[np.nan, 0.0], [0.0, 1.0]])

    def test_generator_role_enforced(self):
        with pytest.raises(errors.SpectrumBelowOneError):
            tb.diagonalize(np.diag([0.5, 2.0]), role=tb.GENERATOR_ROLE)
        tb.diagonalize(np.diag([1.0, 2.0]), role=tb.GENERATOR_ROLE)


class TestFracPower:
    def test_sqrt(self, a_diag14):
        assert np.allclose(a_diag14.frac_power(0.5), np.diag([1.0, 2.0]))

    def test_zero_is_exact_identity(self, a_diag14):
        assert np.array_equal(a_diag14.frac_power(0.0), np.eye(2))

    def test_negative_power(self, a_diag14):
        assert np.allclose(a_diag14.frac_power(-0.5), np.diag([1.0, 0.5]))

    def test_group_law(self):
        rng = np.random.default_rng(3)
        op = random_spd(rng, 5)
        for g1, g2 in [(0.3, 0.4), (-0.5, 0.2), (0.9, -0.9)]:
            lhs = op.frac_power(g1) @ op.frac_power(g2)
            assert np.abs(lhs - op.frac_power(g1 + g2)).max() <= 1e-10

    def test_nonpositive_spectrum(self):
        op = tb.diagonalize(np.diag([0.0, 1.0]))
        with pytest.raises(errors.NonPositiveSpectrumError):
            op.frac_power(0.5)


class TestSemigroup:
    def test_zero_time_exact_identity(self, a_diag14):
        assert np.array_equal(a_diag14.semigroup(0.0), np.eye(2))

    def test_scalar_half(self):
        op = tb.scalar_operator(1.0)
        assert np.isclose(op.semigroup(math.log(2.0))[0, 0], 0.5)

    def test_smoothing_example(self, a_diag14):
        # max of l * e^{-0.25 l} over the spectrum {1, 4}
        expected = max(1.0 * math.exp(-0.25), 4.0 * math.exp(-1.0))
        val = tb.op_norm(a_diag14.frac_power(1.0) @ a_diag14.semigroup(0.25))
        assert np.isclose(val, expected)
        assert val <= 1.0 / 0.25

    def test_negative_time(self, a_diag14):
        with pytest.raises(errors.NegativeTimeError):
            a_diag14.semigroup(-0.1)

    def test_semigroup_law(self):
        rng = np.random.default_rng(11)
        op = random_spd(rng, 6)
        lhs = op.semigroup(0.3) @ op.semigroup(0.45)
        assert np.abs(lhs - op.semigroup(0.75)).max() <= 1e-10

    def test_commutes_with_frac_power(self):
        rng = np.random.default_rng(13)
        op = random_spd(rng, 4, lam_min=0.5)
        left = op.frac_power(0.3) @ op.semigroup(0.7)
        right = op.semigroup(0.7) @ op.frac_power(0.3)
        assert np.abs(left - right).max() <= 1e-13


class TestOpNorm:
    def test_identity(self):
        assert tb.op_norm(np.eye(4)) == pytest.approx(1.0)

    def test_symmetric_largest_abs(self):
        assert tb.op_norm(np.diag([3.0, -2.0])) == pytest.approx(3.0)

    def test_nilpotent_shift(self):
        # singular values of [[0,1],[0,0]] are {1, 0}
        assert tb.op_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0)

    def test_non_finite(self):
        with pytest.raises(errors.NonFiniteError):
            tb.op_norm([[np.inf, 0.0], [0.0, 1.0]])

    def test_stack_gives_largest_norm(self):
        stack = np.random.default_rng(5).normal(size=(2, 5, 3, 3))
        assert tb.op_norm(stack) == max(tb.op_norm(m) for m in stack.reshape(10, 3, 3))
        stack[1, 2, 0, 0] = np.nan
        with pytest.raises(errors.NonFiniteError):
            tb.op_norm(stack)


def test_smoothing_bound_randomized():
    # |A^g e^{-tau A}| <= tau^-g for nonneg A, any g in [0,1], tau > 0
    rng = np.random.default_rng(42)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        op = random_spd(rng, dim, lam_min=1e-3, lam_max=50.0)
        gamma = float(rng.uniform(0.0, 1.0))
        tau = float(10.0 ** rng.uniform(-3, 1))
        val = tb.op_norm(op.frac_power(gamma) @ op.semigroup(tau))
        assert val <= tau ** (-gamma) * (1.0 + 1e-12)


def test_sym_expm_neg_matches_spectral():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    m = 0.5 * (m + m.T)
    direct = tb.sym_expm_neg(m, 0.8)
    via_op = tb.diagonalize(m).semigroup(0.8) if np.linalg.eigvalsh(m)[0] >= 0 else None
    lam, q = np.linalg.eigh(m)
    expected = (q * np.exp(-0.8 * lam)) @ q.T
    assert np.abs(direct - expected).max() <= 1e-12
    assert np.array_equal(tb.sym_expm_neg(m, 0.0), np.eye(6))
