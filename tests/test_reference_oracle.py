import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

import trotterbench as tb
from trotterbench import errors, problem_families, reference_oracle


def weier_integral(profile, a, b):
    # closed form: int c 2^{-bk} (1 + cos(2^k pi t / T)) dt term by term
    total = 0.0
    for k in range(profile.terms + 1):
        w = 2.0 ** (-profile.beta * k)
        omega = 2.0 ** k * math.pi / profile.horizon
        total += w * ((b - a) + (math.sin(omega * b) - math.sin(omega * a)) / omega)
    return profile.c * total


class TestProfileIntegral:
    def test_weierstrass_against_term_sum(self, weier_family):
        prof = weier_family.profile
        for (a, b) in ((0.0, 1.0), (0.0, 0.3), (0.125, 0.875), (0.4, 0.4)):
            assert prof.integral(a, b) == pytest.approx(weier_integral(prof, a, b), abs=1e-14)

    @pytest.mark.parametrize(
        "prof",
        [
            tb.ScalarProfile("power", c=1.3, beta=0.5),
            tb.ScalarProfile("power", c=0.7, beta=0.05),
            tb.ScalarProfile("linear", c=2.0),
            tb.ScalarProfile("weierstrass", c=1.0, beta=0.5, terms=6, horizon=2.0),
        ],
        ids=["sqrt", "rough_power", "linear", "weierstrass"],
    )
    def test_against_scipy_quad(self, prof):
        for (a, b) in ((0.0, prof.horizon), (0.1, 0.35), (0.5, 0.5)):
            expected, _ = quad(prof, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert prof.integral(a, b) == pytest.approx(expected, abs=1e-13)


class TestAnalyticCommuting:
    def test_zero_profile(self, a_scalar, zero_family):
        u = tb.analytic_commuting(a_scalar, zero_family, 0.2, 0.9)
        assert np.allclose(u.matrix, a_scalar.semigroup(0.7))

    def test_linear_profile(self, a_scalar, linear_family):
        u = tb.analytic_commuting(a_scalar, linear_family, 0.0, 1.0)
        assert u.matrix[0, 0] == pytest.approx(math.exp(-1.5), abs=1e-12)

    def test_zero_width(self, a_scalar, linear_family):
        u = tb.analytic_commuting(a_scalar, linear_family, 0.4, 0.4)
        assert np.array_equal(u.matrix, np.eye(1))

    def test_rejects_matrix_family(self, synth_pair):
        a_op, fam = synth_pair
        with pytest.raises(errors.NonCommutingFamilyError):
            tb.analytic_commuting(a_op, fam, 0.0, 1.0)

    def test_uses_family_matrices(self, a_scalar):
        # the exponent carries b_const and b_mod, whatever the label says
        fam = tb.TimeDependentFamily(
            horizon=1.0, dim=1, declared_alpha=0.0, declared_beta=1.0, label="scalar:linear",
            profile=tb.ScalarProfile("linear"), b_const=[[0.3]], b_mod=[[2.0]],
        )
        for s, t in ((0.0, 1.0), (0.25, 0.6)):
            u = tb.analytic_commuting(a_scalar, fam, s, t).matrix
            ref = tb.refine_to_tol(a_scalar, fam, s, t, 1e-10).matrix
            assert np.abs(u - ref).max() <= 1e-9


class TestMidpointExponential:
    def test_zero_family_any_steps(self, a_diag14):
        fam = tb.make_synthetic_matrix_family(np.zeros((2, 2)), np.eye(2), "power", 1.0, c=0.0)
        for m in (1, 7, 64):
            u = tb.midpoint_exponential(a_diag14, fam, 0.0, 1.0, m)
            assert np.abs(u.matrix - a_diag14.semigroup(1.0)).max() <= 1e-13

    def test_linear_profile_single_step_exact(self, a_scalar, linear_family):
        # the midpoint rule integrates a linear coefficient exactly
        u = tb.midpoint_exponential(a_scalar, linear_family, 0.0, 1.0, 1)
        assert u.matrix[0, 0] == pytest.approx(math.exp(-1.5), abs=1e-14)

    def test_matches_scalar_formula_across_chunks(self, a_scalar, sqrt_family):
        # the matrix path and the scalar fast path must agree
        m = 3 * 8192 + 17  # forces several chunks in the generic path
        u = tb.midpoint_exponential(a_scalar, sqrt_family, 0.0, 1.0, m)
        h = 1.0 / m
        mids = (np.arange(m) + 0.5) * h
        expected = math.exp(-1.0 - h * float(np.sum(sqrt_family.profile(mids))))
        assert u.matrix[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_richardson_ratio_second_order(self, heat_lin_pair):
        a_op, fam = heat_lin_pair
        ref = tb.refine_to_tol(a_op, fam, 0.0, 1.0, 1e-11).matrix
        e1 = tb.op_norm(tb.midpoint_exponential(a_op, fam, 0.0, 1.0, 64).matrix - ref)
        e2 = tb.op_norm(tb.midpoint_exponential(a_op, fam, 0.0, 1.0, 128).matrix - ref)
        assert 3.0 <= e1 / e2 <= 5.0


class TestRefineToTol:
    def test_zero_family_converges_immediately(self, a_scalar, zero_family):
        u = tb.refine_to_tol(a_scalar, zero_family, 0.0, 1.0, 1e-10)
        assert u.n_or_steps == 32
        assert np.allclose(u.matrix, a_scalar.semigroup(1.0))

    def test_agrees_with_analytic(self, a_scalar, linear_family, sqrt_family, weier_family):
        for fam in (linear_family, sqrt_family, weier_family):
            for (s, t) in ((0.0, 1.0), (0.25, 1.0)):
                u = tb.refine_to_tol(a_scalar, fam, s, t, 1e-10)
                ua = tb.analytic_commuting(a_scalar, fam, s, t)
                assert tb.op_norm(u.matrix - ua.matrix) <= 1e-10 + 1e-12

    def test_cocycle_property(self, a_scalar, sqrt_family):
        tol = 1e-10
        s, t = 0.0, 1.0
        r = 0.5 * (s + t)
        full = tb.refine_to_tol(a_scalar, sqrt_family, s, t, tol).matrix
        first = tb.refine_to_tol(a_scalar, sqrt_family, s, r, tol).matrix
        second = tb.refine_to_tol(a_scalar, sqrt_family, r, t, tol).matrix
        assert tb.op_norm(second @ first - full) <= 3.0 * tol

    def test_cocycle_property_matrix_case(self, heat_pair):
        a_op, fam = heat_pair
        tol = 1e-8
        full = tb.refine_to_tol(a_op, fam, 0.0, 1.0, tol).matrix
        first = tb.refine_to_tol(a_op, fam, 0.0, 0.5, tol).matrix
        second = tb.refine_to_tol(a_op, fam, 0.5, 1.0, tol).matrix
        assert tb.op_norm(second @ first - full) <= 3.0 * tol

    def test_error_estimate_recorded(self, a_scalar, sqrt_family):
        u = tb.refine_to_tol(a_scalar, sqrt_family, 0.0, 1.0, 1e-9)
        assert u.error_estimate is not None and u.error_estimate <= 1e-9

    def test_cap_exceeded(self, a_scalar):
        # nearly-flat power profile: derivative blows up at zero slowly enough
        # that step halving cannot reach 1e-12 below the cap
        rough = tb.make_scalar_family("power", 1.0, c=1.0, beta=0.05)
        with pytest.raises(errors.CapExceededError):
            tb.refine_to_tol(a_scalar, rough, 0.0, 1.0, 1e-12)

    def test_tolerance_floor(self, a_scalar, linear_family):
        with pytest.raises(errors.ToleranceFloorError):
            tb.refine_to_tol(a_scalar, linear_family, 0.0, 1.0, 1e-13)

    @pytest.mark.parametrize(
        "pair, s, t, tol",
        [("heat_pair", 0.125, 0.375, 1e-6), ("weier_family", 0.0, 1.0, 1e-10),
         ("sqrt_family", 0.0, 0.5, 1e-10)],
    )
    def test_warm_start_below_needed_level_is_bit_identical(self, request, pair, s, t, tol):
        a_op, fam = warm_start_case(request, pair)
        cold = tb.refine_to_tol(a_op, fam, s, t, tol)
        assert cold.n_or_steps >= 4 * reference_oracle._START_STEPS
        warm = tb.refine_to_tol(a_op, fam, s, t, tol, start_steps=cold.n_or_steps // 2)
        assert np.array_equal(warm.matrix, cold.matrix)
        assert (warm.n_or_steps, warm.error_estimate) == (cold.n_or_steps, cold.error_estimate)

    @pytest.mark.parametrize("pair", ["heat_pair", "weier_family"])
    def test_warm_start_above_needed_level_stays_within_tol(self, request, pair):
        a_op, fam = warm_start_case(request, pair)
        tol = 1e-8
        cold = tb.refine_to_tol(a_op, fam, 0.25, 0.5, tol)
        warm = tb.refine_to_tol(a_op, fam, 0.25, 0.5, tol, start_steps=cold.n_or_steps)
        assert warm.n_or_steps == 2 * cold.n_or_steps
        assert warm.error_estimate <= tol
        assert tb.op_norm(warm.matrix - cold.matrix) <= tol

    @pytest.mark.parametrize("start", [0, reference_oracle.REFINEMENT_CAP // 2 + 1])
    def test_start_steps_out_of_range(self, a_scalar, linear_family, start):
        with pytest.raises(errors.InvalidCountError, match="start_steps"):
            tb.refine_to_tol(a_scalar, linear_family, 0.0, 1.0, 1e-8, start_steps=start)


class TestWindowStarts:
    @staticmethod
    def offered(levels):
        """The start offered before each level is recorded, and after the last."""
        starts, seen = reference_oracle.WindowStarts(), []
        for level in levels:
            seen.append(starts.steps)
            starts.record(
                tb.Propagator(np.eye(1), t=1.0, s=0.0, method="reference", n_or_steps=level)
            )
        return seen + [starts.steps]

    def test_start_two_levels_below_lower_of_last_two(self):
        # one hard window does not raise the start on its own
        assert self.offered([4096, 256, 512, 512]) == [16, 16, 64, 64, 128]

    def test_first_comparison_pass_restarts_cold(self):
        # 512 from a start of 256 passed at once: its level is unknown
        assert self.offered([1024, 1024, 512, 1024, 1024]) == [16, 16, 256, 16, 16, 256]

    @pytest.mark.parametrize("family", ["sqrt_family", "weier_family"])
    def test_windows_cost_no_more_than_cold_starts(self, request, monkeypatch, a_scalar, family):
        # sqrt profile: the window at t = 0 needs 2^16 steps, the others 2^10 to 2^12.
        # Weierstrass: neighbours up to two levels apart; two windows stop one level finer.
        fam, tau, tol = request.getfixturevalue(family), 0.25, 1e-9
        ts = np.linspace(0.0, 1.0 - tau, 9)
        steps = []
        midpoint = reference_oracle._midpoint_matrix

        def counted(a_op, f, s, t, m):
            steps.append(m)
            return midpoint(a_op, f, s, t, m)

        monkeypatch.setattr(reference_oracle, "_midpoint_matrix", counted)
        cold = [tb.refine_to_tol(a_scalar, fam, t, t + tau, tol) for t in ts]
        cold_steps = sum(steps)
        steps.clear()
        starts = reference_oracle.WindowStarts()
        for t, ref in zip(ts, cold):
            warm = tb.refine_to_tol(a_scalar, fam, t, t + tau, tol, start_steps=starts.steps)
            starts.record(warm)
            assert warm.n_or_steps >= ref.n_or_steps
            assert warm.error_estimate <= tol
            assert tb.op_norm(warm.matrix - ref.matrix) <= tol
        assert sum(steps) <= cold_steps


def warm_start_case(request, pair):
    """``(A, family)`` for a heat1d pair fixture or a scalar family fixture."""
    if pair == "heat_pair":
        return request.getfixturevalue(pair)
    return request.getfixturevalue("a_scalar"), request.getfixturevalue(pair)


def sequential_midpoint(a_op, fam, s, t, steps):
    h = (t - s) / steps
    u = np.eye(a_op.dim)
    for k in range(steps):
        u = tb.sym_expm_neg(a_op.to_matrix() + fam.sample(s + (k + 0.5) * h), h) @ u
    return u


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("steps", [1, 7, 16, 33])
def test_pairwise_midpoint_product_matches_sequential(monkeypatch, heat_pair, steps, chunk):
    a_op, fam = heat_pair
    if chunk is not None:
        monkeypatch.setattr(problem_families, "BLOCK_BYTES", chunk * 8 * fam.dim**2)
    got = tb.midpoint_exponential(a_op, fam, 0.125, 0.875, steps).matrix
    assert np.abs(got - sequential_midpoint(a_op, fam, 0.125, 0.875, steps)).max() <= 1e-13


class TestReferenceGrid:
    @pytest.mark.parametrize("case, grid_n, tol", [("heat", 4, 1e-6), ("sqrt", 8, 1e-10)])
    def test_entries_match_direct_refinement(self, request, case, grid_n, tol):
        if case == "heat":
            a_op, fam = request.getfixturevalue("heat_pair")
        else:
            a_op, fam = request.getfixturevalue("a_scalar"), request.getfixturevalue("sqrt_family")
        refs = tb.reference_grid(a_op, fam, grid_n, tol)
        assert sorted(refs) == [(i, j) for i in range(grid_n) for j in range(i + 1, grid_n + 1)]
        ts = np.linspace(0.0, fam.horizon, grid_n + 1)
        for (i, j), mat in refs.items():
            direct = tb.refine_to_tol(a_op, fam, ts[i], ts[j], tol).matrix
            assert tb.op_norm(mat - direct) <= tol

    def test_one_refinement_per_interval(self, monkeypatch, a_scalar, sqrt_family):
        calls = []
        refine = reference_oracle.refine_to_tol

        def counted(a_op, fam, s, t, tol):
            calls.append((s, t, tol))
            return refine(a_op, fam, s, t, tol)

        monkeypatch.setattr(reference_oracle, "refine_to_tol", counted)
        refs = tb.reference_grid(a_scalar, sqrt_family, 6, 1e-9)
        assert len(refs) == 21
        assert len(calls) == 6
        assert all(tol == 1e-9 / 6 for _, _, tol in calls)

    @pytest.mark.parametrize("pair, grid_n, tol", [("heat_pair", 4, 1e-6), ("synth_pair", 4, 1e-8)])
    def test_even_points_match_direct_grid(self, request, pair, grid_n, tol):
        a_op, fam = request.getfixturevalue(pair)
        coarse = reference_oracle.even_points(tb.reference_grid(a_op, fam, 2 * grid_n, tol))
        direct = tb.reference_grid(a_op, fam, grid_n, tol)
        assert sorted(coarse) == sorted(direct)
        for key, mat in coarse.items():
            assert tb.op_norm(mat - direct[key]) <= tol


@st.composite
def psd_problems(draw):
    """Random generator (spectrum >= 1) and random PSD affine family, dim <= 3."""
    dim = draw(st.integers(1, 3))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    m0 = draw(arrays(float, (dim, dim), elements=entries))
    m1 = draw(arrays(float, (dim, dim), elements=entries))
    spectrum = draw(arrays(float, dim, elements=st.floats(1.0, 5.0)))
    a_op = tb.diagonalize(np.diag(spectrum), role=tb.GENERATOR_ROLE)
    c = draw(st.floats(0.0, 2.0))
    fam = tb.make_synthetic_matrix_family(m0 @ m0.T, m1 @ m1.T, "linear", 1.0, c=c)
    return a_op, fam


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=psd_problems(), grid_n=st.integers(1, 4), tol=st.sampled_from([1e-6, 1e-8]))
def test_grid_contraction_cocycle_and_accuracy(problem, grid_n, tol):
    a_op, fam = problem
    refs = tb.reference_grid(a_op, fam, grid_n, tol)
    ts = np.linspace(0.0, fam.horizon, grid_n + 1)
    for (i, j), mat in refs.items():
        assert tb.op_norm(mat) <= 1.0 + 1e-12
        direct = tb.refine_to_tol(a_op, fam, ts[i], ts[j], tol).matrix
        assert tb.op_norm(mat - direct) <= tol
        for k in range(j + 1, grid_n + 1):
            assert tb.op_norm(refs[(i, k)] - refs[(j, k)] @ mat) <= 1e-12


def test_reference_contractivity_and_smoothing(heat_pair):
    a_op, fam = heat_pair
    gamma = 0.8
    a_pow = a_op.frac_power(gamma)
    vals = []
    for ell in (0.05, 0.1, 0.2, 0.4, 0.8):
        u = tb.refine_to_tol(a_op, fam, 0.1, 0.1 + ell, 1e-8)
        assert tb.op_norm(u.matrix) <= 1.0 + 1e-12
        vals.append(ell ** gamma * tb.op_norm(a_pow @ u.matrix))
    # bounded, and stable (within 10%) when the oracle is refined further
    assert max(vals) < 10.0
    u_coarse = tb.refine_to_tol(a_op, fam, 0.1, 0.5, 1e-6).matrix
    u_fine = tb.refine_to_tol(a_op, fam, 0.1, 0.5, 1e-9).matrix
    v_coarse = 0.4 ** gamma * tb.op_norm(a_pow @ u_coarse)
    v_fine = 0.4 ** gamma * tb.op_norm(a_pow @ u_fine)
    assert abs(v_coarse - v_fine) <= 0.1 * v_fine
