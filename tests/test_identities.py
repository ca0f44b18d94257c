"""Relations the mathematics gives for free, checked without an oracle.

- Shift: ``A -> A + cI`` (or ``B -> B + cI``) multiplies ``V_n(t, s)`` and
  ``U(t, s)`` by ``e^{-c (t - s)}``.
- Conjugation: ``(A, B) -> (Q A Q^T, Q B Q^T)`` with Q orthogonal conjugates
  every propagator and leaves every sup error unchanged.
- Mirror: ``V_right(t, s; B) = V_left(T - s, T - t; B(T - .))^T``, and the
  same for the references.
- Composition: ``V_2n(t, s) = V_n(t, r) V_n(r, s)`` at the midpoint r, whose
  partitions line up.  The other three hold for a product taken in reversed
  time order; this one does not.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import trotterbench as tb

HORIZON = 1.0
EXACT = 1e-12  # round-off allowance for relations that hold exactly in exact arithmetic
STEPS = 32  # midpoint steps of the fixed-level references


class ReversedProfile(tb.ScalarProfile):
    """The profile ``t -> w(T - t)`` of the profile with the same fields."""

    def __call__(self, t):
        return super().__call__(self.horizon - np.asarray(t, dtype=float))


def reversed_family(fam):
    p = fam.profile
    rev = ReversedProfile(p.kind, p.c, p.beta, p.terms, p.horizon)
    return dataclasses.replace(fam, profile=rev)


def orthogonal(draw, dim):
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    return np.linalg.qr(draw(arrays(float, (dim, dim), elements=entries)))[0]


@st.composite
def problems(draw, kinds=("linear", "power", "weierstrass")):
    """A generator with spectrum >= 1 in a random basis and a random PSD affine family."""
    dim = draw(st.integers(1, 4))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    m0, m1 = (draw(arrays(float, (dim, dim), elements=entries)) for _ in range(2))
    spectrum = np.sort(draw(arrays(float, dim, elements=st.floats(1.0, 5.0))))
    a_op = tb.SpectralOperator(spectrum, orthogonal(draw, dim), role=tb.GENERATOR_ROLE)
    fam = tb.make_synthetic_matrix_family(
        m0 @ m0.T,
        m1 @ m1.T,
        draw(st.sampled_from(kinds)),
        HORIZON,
        c=draw(st.floats(0.0, 2.0)),
        beta=draw(st.floats(0.2, 1.0)),
        terms=draw(st.integers(0, 3)),
    )
    return a_op, fam


intervals = st.tuples(st.floats(0.0, HORIZON), st.floats(0.0, HORIZON)).map(sorted)


def products(a_op, fam, s, t, n):
    return [product(a_op, fam, s, t, n).matrix for product in (tb.trotter_left, tb.trotter_right)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(problem=problems(), c=st.floats(0.0, 3.0), interval=intervals, n=st.integers(1, 12))
def test_shift_scales_products_and_references(problem, c, interval, n):
    a_op, fam = problem
    s, t = interval
    decay = math.exp(-c * (t - s))
    shifted_a = tb.SpectralOperator(a_op.eigenvalues + c, a_op.eigenvectors, role=tb.GENERATOR_ROLE)
    shifted_b = dataclasses.replace(fam, b_const=fam.b_const + c * np.eye(fam.dim))
    want = [decay * v for v in products(a_op, fam, s, t, n)]
    want_u = decay * tb.midpoint_exponential(a_op, fam, s, t, STEPS).matrix
    for a2, fam2 in ((shifted_a, fam), (a_op, shifted_b)):
        for got, v in zip(products(a2, fam2, s, t, n), want):
            assert tb.op_norm(got - v) <= EXACT
        assert tb.op_norm(tb.midpoint_exponential(a2, fam2, s, t, STEPS).matrix - want_u) <= EXACT


@settings(max_examples=15, deadline=None, derandomize=True)
@given(problem=problems(kinds=("linear", "weierstrass")), data=st.data())
def test_conjugation_keeps_sup_errors(problem, data):
    a_op, fam = problem
    q = orthogonal(data.draw, fam.dim)
    a_conj = tb.SpectralOperator(a_op.eigenvalues, q @ a_op.eigenvectors, role=tb.GENERATOR_ROLE)
    fam_conj = dataclasses.replace(fam, b_const=q @ fam.b_const @ q.T, b_mod=q @ fam.b_mod @ q.T)
    conj_products = products(a_conj, fam_conj, 0.25, 1.0, 5)
    for v, v_conj in zip(products(a_op, fam, 0.25, 1.0, 5), conj_products):
        assert tb.op_norm(q @ v @ q.T - v_conj) <= EXACT
    tol = 1e-8
    refs = tb.reference_grid(a_op, fam, 2, tol)
    refs_conj = tb.reference_grid(a_conj, fam_conj, 2, tol)
    for n in (1, 3, 8):
        for variant in ("left", "right"):
            sup = tb.sup_error(a_op, fam, n, refs, variant)
            sup_conj = tb.sup_error(a_conj, fam_conj, n, refs_conj, variant)
            # both reference grids are within tol of the same propagators
            assert abs(sup - sup_conj) <= 2 * tol


def assert_mirrored(a_op, fam, s, t, n):
    rev = reversed_family(fam)
    left, right = products(a_op, fam, s, t, n)
    rev_left, rev_right = products(a_op, rev, HORIZON - t, HORIZON - s, n)
    assert tb.op_norm(right - rev_left.T) <= EXACT
    assert tb.op_norm(left - rev_right.T) <= EXACT
    u = tb.midpoint_exponential(a_op, fam, s, t, STEPS).matrix
    rev_u = tb.midpoint_exponential(a_op, rev, HORIZON - t, HORIZON - s, STEPS).matrix
    assert tb.op_norm(u - rev_u.T) <= EXACT


@settings(max_examples=30, deadline=None, derandomize=True)
@given(problem=problems(), interval=intervals, n=st.integers(1, 12))
def test_mirror_swaps_left_and_right(problem, interval, n):
    assert_mirrored(*problem, *interval, n)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(problem=problems(), interval=intervals, n=st.integers(1, 8))
def test_products_compose_over_halves(problem, interval, n):
    a_op, fam = problem
    s, t = interval
    r = 0.5 * (s + t)
    halves = zip(products(a_op, fam, r, t, n), products(a_op, fam, s, r, n))
    for whole, (later, earlier) in zip(products(a_op, fam, s, t, 2 * n), halves):
        assert tb.op_norm(whole - later @ earlier) <= EXACT


def test_mirror_heat1d(heat_pair):
    a_op, fam = heat_pair
    for s, t, n in ((0.0, 1.0, 16), (0.125, 0.5, 7)):
        assert_mirrored(a_op, fam, s, t, n)
