import inspect
import math

import numpy as np
import pytest

import trotterbench as tb
from trotterbench import errors, evolution_semigroup, reference_oracle
from trotterbench.evolution_semigroup import defect_decay_slope


class TestBlockShiftOperator:
    def test_block_norm_basics(self):
        assert tb.block_norm(tb.BlockShiftOperator.identity(4, 2)) == pytest.approx(1.0)
        assert tb.block_norm(tb.BlockShiftOperator.zero(4, 2, 1)) == 0.0
        blocks = np.zeros((2, 1, 1))
        blocks[0, 0, 0] = 0.3
        blocks[1, 0, 0] = 0.7
        assert tb.block_norm(tb.BlockShiftOperator(0, blocks)) == pytest.approx(0.7)

    def test_rejects_nonzero_below_shift(self):
        blocks = np.ones((3, 1, 1))
        with pytest.raises(ValueError):
            tb.BlockShiftOperator(1, blocks)

    def test_block_norm_matches_assembled_matrix(self):
        # small-instance oracle: disjoint blocks mean the max block norm is
        # the true operator norm of the assembled (N dim) x (N dim) matrix
        rng = np.random.default_rng(9)
        for n_slots, dim, shift in ((8, 4, 0), (16, 4, 3), (64, 8, 5), (128, 4, 1)):
            blocks = np.zeros((n_slots, dim, dim))
            for i in range(shift, n_slots):
                blocks[i] = rng.normal(size=(dim, dim))
            op = tb.BlockShiftOperator(shift, blocks)
            assembled = np.linalg.norm(op.to_matrix(), 2)
            assert abs(tb.block_norm(op) - assembled) <= 1e-10 * max(1.0, assembled)

    def test_block_norm_equals_per_block_maximum(self):
        rng = np.random.default_rng(3)
        for n_slots, dim, shift in ((8, 4, 0), (16, 3, 5), (4, 2, 3), (4, 2, 4), (4, 2, 9)):
            blocks = rng.normal(size=(n_slots, dim, dim))
            blocks[: min(shift, n_slots)] = 0.0
            op = tb.BlockShiftOperator(shift, blocks)
            per_block = max(
                (tb.op_norm(blocks[i]) for i in range(min(shift, n_slots), n_slots)), default=0.0
            )
            assert tb.block_norm(op) == per_block

    def test_compose_matches_per_slot_loop(self):
        # block i of the composition is self.blocks[i] @ other.blocks[i - self.shift]
        rng = np.random.default_rng(5)
        for n_slots, dim, s1, s2 in ((8, 3, 0, 0), (8, 3, 2, 3), (16, 2, 5, 1), (6, 1, 3, 3)):
            ops = []
            for shift in (s1, s2):
                blocks = rng.normal(size=(n_slots, dim, dim))
                blocks[:shift] = 0.0
                ops.append(tb.BlockShiftOperator(shift, blocks))
            first, second = ops
            expected = np.zeros((n_slots, dim, dim))
            for i in range(s1 + s2, n_slots):
                expected[i] = first.blocks[i] @ second.blocks[i - s1]
            composed = first.compose(second)
            assert composed.shift == s1 + s2
            assert np.array_equal(composed.blocks, expected)

    def test_compose_shift_addition(self, a_scalar, linear_family):
        t2 = tb.build_T(a_scalar, linear_family, 8, 2)
        t3 = tb.build_T(a_scalar, linear_family, 8, 3)
        assert t2.compose(t3).shift == 5

    def test_subtract_requires_equal_shift(self):
        a = tb.BlockShiftOperator.zero(4, 1, 1)
        b = tb.BlockShiftOperator.zero(4, 1, 2)
        with pytest.raises(ValueError):
            _ = a - b


class TestBuilders:
    def test_U0_zero_shift_identity(self, a_diag14):
        op = tb.build_U0(a_diag14, 4, 0, 1.0)
        assert np.array_equal(op.blocks, np.broadcast_to(np.eye(2), (4, 2, 2)))

    def test_U0_dies_at_horizon(self, a_diag14):
        op = tb.build_U0(a_diag14, 4, 4, 1.0)
        assert tb.block_norm(op) == 0.0

    def test_U0_scalar_blocks(self, a_scalar):
        op = tb.build_U0(a_scalar, 4, 1, 1.0)
        for i in range(1, 4):
            assert op.blocks[i, 0, 0] == pytest.approx(math.exp(-0.25))

    def test_expB_zero_tau(self, linear_family):
        op = tb.build_expB(linear_family, 4, 0.0)
        assert np.array_equal(op.blocks, np.broadcast_to(np.eye(1), (4, 1, 1)))

    def test_expB_zero_family(self, zero_family):
        op = tb.build_expB(zero_family, 8, 0.5)
        assert np.allclose(op.blocks, np.eye(1))

    def test_expB_left_endpoints(self, linear_family):
        op = tb.build_expB(linear_family, 2, 0.5)
        assert op.blocks[0, 0, 0] == pytest.approx(1.0)
        assert op.blocks[1, 0, 0] == pytest.approx(math.exp(-0.25))

    def test_T_zero_shift_is_identity(self, a_scalar, linear_family):
        op = tb.build_T(a_scalar, linear_family, 4, 0)
        assert np.allclose(op.blocks, np.eye(1))

    def test_T_zero_family_is_U0(self, a_diag14, zero_family):
        fam = tb.make_synthetic_matrix_family(np.zeros((2, 2)), np.eye(2), "power", 1.0, c=0.0)
        t_op = tb.build_T(a_diag14, fam, 8, 2)
        u0 = tb.build_U0(a_diag14, 8, 2, 1.0)
        assert np.abs(t_op.blocks - u0.blocks).max() <= 1e-15

    def test_T_power_unrolls_to_left_product(self, heat_pair):
        # block i of T(k)^n is the left split product over (i h, (i - nk) h)
        a_op, fam = heat_pair
        n_slots, k, n = 16, 2, 3
        h = fam.horizon / n_slots
        power = tb.build_T(a_op, fam, n_slots, k).power(n)
        for i in range(n * k, n_slots):
            v = tb.trotter_left(a_op, fam, (i - n * k) * h, i * h, n).matrix
            assert np.abs(power.blocks[i] - v).max() <= 1e-14

    def test_T_reversed_power_unrolls_to_right_product(self, heat_pair):
        a_op, fam = heat_pair
        n_slots, k, n = 16, 2, 3
        h = fam.horizon / n_slots
        power = tb.build_T_reversed(a_op, fam, n_slots, k).power(n)
        for i in range(n * k, n_slots):
            v = tb.trotter_right(a_op, fam, (i - n * k) * h, i * h, n).matrix
            assert np.abs(power.blocks[i] - v).max() <= 1e-14

    def test_T_nilpotent_at_horizon(self, a_scalar, linear_family):
        t_op = tb.build_T(a_scalar, linear_family, 8, 2)
        assert tb.block_norm(t_op.power(4)) == 0.0
        assert tb.block_norm(t_op.power(5)) == 0.0

    def test_T_contractive(self, heat_pair):
        a_op, fam = heat_pair
        for k in (1, 2, 4):
            assert tb.block_norm(tb.build_T(a_op, fam, 16, k)) <= 1.0

    def test_U_evo_zero_shift_identity(self, a_scalar, linear_family):
        refs = tb.reference_grid(a_scalar, linear_family, 4, 1e-10)
        op = tb.build_U_evo(a_scalar, linear_family, 4, 0, refs)
        assert op.shift == 0
        assert np.array_equal(op.blocks, np.ones((4, 1, 1)))

    def test_U_evo_zero_family_is_U0(self, a_scalar, zero_family):
        refs = tb.reference_grid(a_scalar, zero_family, 8, 1e-10)
        u0 = tb.build_U0(a_scalar, 8, 3, 1.0)
        u = tb.build_U_evo(a_scalar, zero_family, 8, 3, refs)
        assert np.abs(u.blocks - u0.blocks).max() <= 1e-12

    def test_U_evo_semigroup_law(self, a_scalar, linear_family):
        tol = 1e-10
        refs = tb.reference_grid(a_scalar, linear_family, 16, tol)
        u1 = tb.build_U_evo(a_scalar, linear_family, 16, 3, references=refs)
        u2 = tb.build_U_evo(a_scalar, linear_family, 16, 5, references=refs)
        u12 = tb.build_U_evo(a_scalar, linear_family, 16, 8, references=refs)
        # blocks of one grid obey the cocycle up to round-off
        assert tb.block_norm(u1.compose(u2) - u12) <= 1e-12
        fresh_refs = tb.reference_grid(a_scalar, linear_family, 16, tol)
        fresh = tb.build_U_evo(a_scalar, linear_family, 16, 8, fresh_refs)
        assert np.array_equal(fresh.blocks, u12.blocks)

    def test_U_evo_contractive(self, heat_pair):
        a_op, fam = heat_pair
        refs = tb.reference_grid(a_op, fam, 8, 1e-8)
        for k in (1, 2, 7):
            u = tb.build_U_evo(a_op, fam, 8, k, references=refs)
            assert tb.block_norm(u) <= 1.0 + 1e-12

    @pytest.mark.parametrize("grid_n", [4, 16])
    def test_U_evo_rejects_other_grid_size(self, a_scalar, linear_family, grid_n):
        # a 16-interval grid once gave 8-slot blocks over 3/16, not 3/8
        refs = tb.reference_grid(a_scalar, linear_family, grid_n, 1e-10)
        with pytest.raises(errors.GridMismatchError, match=f"8 slots.*got {grid_n} intervals"):
            tb.build_U_evo(a_scalar, linear_family, 8, 3, refs)


class TestCorrespondence:
    def test_zero_family(self, a_scalar, zero_family):
        refs = tb.reference_grid(a_scalar, zero_family, 8, 1e-10)
        res = tb.correspondence_check(a_scalar, zero_family, 8, 2, refs)
        assert res.semigroup_error <= 1e-12
        assert res.propagator_error <= 1e-12
        assert res.gap <= 1e-12

    def test_single_step_constant_commuting(self):
        a_op = tb.diagonalize(np.diag([1.0, 2.0]), role=tb.GENERATOR_ROLE)
        fam = tb.make_synthetic_matrix_family(np.diag([0.5, 0.3]), np.eye(2), "power", 1.0, c=0.0)
        res = tb.correspondence_check(a_op, fam, 8, 1, tb.reference_grid(a_op, fam, 8, 1e-10))
        assert res.semigroup_error <= 5e-10
        assert res.gap <= 1e-10

    def test_scalar_linear_gap(self, a_scalar, linear_family):
        refs = tb.reference_grid(a_scalar, linear_family, 8, 1e-8)
        res = tb.correspondence_check(a_scalar, linear_family, 8, 2, refs)
        assert res.gap <= 1e-10
        assert res.propagator_error > 1e-3  # genuinely nonzero comparison

    def test_heat1d_gap_is_exact(self, heat_pair):
        # T(kappa/n)^n blocks and the left products share one factor path
        a_op, fam = heat_pair
        refs = tb.reference_grid(a_op, fam, 16, 1e-6)
        for n in (2, 4, 8):
            res = tb.correspondence_check(a_op, fam, 16, n, refs)
            assert res.gap == 0.0
            assert res.propagator_error > 1e-3

    def test_indivisible_grid(self, a_scalar, linear_family):
        refs = tb.reference_grid(a_scalar, linear_family, 8, 1e-8)
        with pytest.raises(errors.IndivisibleGridError):
            tb.correspondence_check(a_scalar, linear_family, 8, 3, refs)

    def test_defect_series_decays_at_declared_rate(self, a_scalar, weier_family):
        refs = tb.reference_grid(a_scalar, weier_family, 16, 1e-8)
        series = tb.semigroup_defect_series(a_scalar, weier_family, 16, [2, 4, 8], refs)
        assert defect_decay_slope(series) >= weier_family.declared_beta - 0.2
        series_rev = tb.semigroup_defect_series(
            a_scalar, weier_family, 16, [2, 4, 8], refs, reversed_product=True
        )
        assert defect_decay_slope(series_rev) >= weier_family.declared_beta - 0.2


class TestOneStepBound:
    def test_zero_family(self, a_scalar, zero_family):
        rep = tb.check_onestep_linear_bound(a_scalar, zero_family, 0.5, [0.1, 0.01])
        assert rep.max_ratio == 0.0
        assert rep.ok

    def test_scalar_closed_form(self, a_scalar, linear_family):
        # at t=0, gamma=0, tau=0.1 the defect is e^{-0.1} (1 - e^{-0.005})
        tau = 0.1
        defect = a_scalar.semigroup(tau)[0, 0] - tb.refine_to_tol(
            a_scalar, linear_family, 0.0, tau, 1e-11
        ).matrix[0, 0]
        expected = math.exp(-0.1) * (1.0 - math.exp(-0.005))
        assert abs(defect) == pytest.approx(expected, abs=1e-9)
        rep = tb.check_onestep_linear_bound(a_scalar, linear_family, 0.0, [tau], grid_n=8)
        assert rep.ok
        assert rep.max_ratio <= 1.0

    def test_ratio_bounded_as_tau_shrinks(self, a_scalar, sqrt_family):
        rep = tb.check_onestep_linear_bound(
            a_scalar, sqrt_family, 0.5, [1e-1, 1e-2, 1e-3, 1e-4], grid_n=8
        )
        assert rep.ok
        ratios = [r for _, r in rep.per_tau]
        assert max(ratios) <= 1.0 + 1e-6

    def test_gamma_below_declared_alpha_rejected(self, heat_pair):
        a_op, fam = heat_pair
        with pytest.raises(ValueError):
            tb.check_onestep_linear_bound(a_op, fam, 0.5, [0.1])


class TestSandwichBound:
    def test_zero_family(self, a_scalar, zero_family):
        rep = tb.check_sandwiched_defect(a_scalar, zero_family, 0.5, 0.5, [0.25, 0.125])
        assert rep.max_ratio == 0.0

    def test_gamma_equals_beta(self, a_scalar, sqrt_family):
        taus = [2.0 ** (-e) for e in range(2, 9)]
        rep = tb.check_sandwiched_defect(a_scalar, sqrt_family, 0.5, 0.5, taus, grid_n=8)
        assert rep.ok and rep.max_ratio <= 1.0 + 1e-6
        assert rep.kappa == 0.5

    def test_beta_below_gamma(self, a_scalar, sqrt_family):
        taus = [2.0 ** (-e) for e in range(2, 9)]
        rep = tb.check_sandwiched_defect(a_scalar, sqrt_family, 0.7, 0.5, taus, grid_n=8)
        assert rep.ok
        assert rep.kappa == 0.5

    def test_matrix_case(self, heat_pair):
        a_op, fam = heat_pair
        taus = [2.0 ** (-e) for e in range(2, 7)]
        rep = tb.check_sandwiched_defect(a_op, fam, 0.8, 0.5, taus, grid_n=4, oracle_tol=1e-9)
        assert rep.ok


class TestPowerSmoothing:
    def test_zero_family_bounded_by_one(self, a_diag14):
        fam = tb.make_synthetic_matrix_family(np.zeros((2, 2)), np.eye(2), "power", 1.0, c=0.0)
        rep = tb.check_power_smoothing(a_diag14, fam, 0.6, 8, 16)
        assert all(s <= 1.0 + 1e-12 for s in rep.s_values)
        assert rep.interpolation_ok

    def test_first_power_bounded_by_one(self, heat_pair):
        a_op, fam = heat_pair
        rep = tb.check_power_smoothing(a_op, fam, 0.8, 8, 16)
        assert rep.s_values[0] <= 1.0 + 1e-12

    def test_heat_desk_scale(self):
        a_op, fam = tb.make_heat1d_family(
            16, tb.sin_squared_potential, 1.0, "weierstrass", declared_alpha=0.75
        )
        rep = tb.check_power_smoothing(a_op, fam, 0.8, 64, 64)
        assert np.isfinite(rep.m_hat)
        assert rep.stable
        assert rep.interpolation_ok

    def test_indivisible(self, a_scalar, linear_family):
        with pytest.raises(errors.IndivisibleGridError):
            tb.check_power_smoothing(a_scalar, linear_family, 0.5, 3, 16)


class TestSmoothingConstant:
    def test_scalar_bounded_and_stable(self, a_scalar, linear_family):
        fine = tb.reference_grid(a_scalar, linear_family, 32, 1e-9)
        rep = tb.measure_smoothing_constant(a_scalar, linear_family, 16, 0.5, fine)
        assert np.isfinite(rep.lambda_left) and np.isfinite(rep.lambda_right)
        assert rep.stable

    def test_heat_both_sides(self, heat_pair):
        a_op, fam = heat_pair
        fine = tb.reference_grid(a_op, fam, 16, 1e-7)
        rep = tb.measure_smoothing_constant(a_op, fam, 8, 0.8, fine)
        assert rep.lambda_left < 20.0 and rep.lambda_right < 20.0
        assert rep.stable

    def test_shared_grid_refines_nothing(self, monkeypatch, heat_pair):
        a_op, fam = heat_pair
        fine = tb.reference_grid(a_op, fam, 16, 1e-7)
        calls = []
        refine = reference_oracle.refine_to_tol

        def counted(*args):
            calls.append(args)
            return refine(*args)

        monkeypatch.setattr(reference_oracle, "refine_to_tol", counted)
        shared = tb.measure_smoothing_constant(a_op, fam, 8, 0.8, fine)
        assert calls == []
        # a freshly built 2N-slot grid costs one refinement per fine interval
        fresh = tb.reference_grid(a_op, fam, 16, 1e-7)
        assert tb.measure_smoothing_constant(a_op, fam, 8, 0.8, fresh) == shared
        assert len(calls) == 16


@pytest.mark.parametrize("module", [evolution_semigroup, reference_oracle])
def test_raises_only_typed_errors(module):
    assert "raise ValueError" not in inspect.getsource(module)
