"""Products and the oracle work in fixed-size blocks.

The results must not depend on the block size, and memory must not grow
with the step count.
"""

import functools
import tracemalloc

import numpy as np
import pytest

import trotterbench as tb
from trotterbench import problem_families

# Factors per block asked for: one, nine and whatever the default block
# holds; block_len rounds them down to whole groups of four (4, 8, default).
PER_BLOCK = [1, 9, None]


def set_block(monkeypatch, per_block, item_bytes):
    if per_block is not None:
        monkeypatch.setattr(problem_families, "BLOCK_BYTES", per_block * item_bytes)


def _profile_keeps_bits_in_blocks() -> bool:
    """Whether the Weierstrass profile gives a time the same bits in blocks of
    whole groups of four times, the last block taking the remainder, as in one
    call over all times.  ``block_len`` relies on this; it holds on OpenBLAS
    0.3.31 with the Haswell kernel, where it was verified.
    """
    profile = tb.ScalarProfile("weierstrass", terms=12)
    ts = np.random.default_rng(11).uniform(0.0, 1.0, 203)
    for size in (4, 8, 12):
        edges = [*range(0, len(ts) - 3, size), len(ts)]
        blocks = [profile(ts[lo:hi]) for lo, hi in zip(edges, edges[1:])]
        if not np.array_equal(np.concatenate(blocks), profile(ts)):
            return False
    return True


# Bits where the BLAS keeps them in blocks, else equal to round-off
assert_same = (
    np.testing.assert_array_equal
    if _profile_keeps_bits_in_blocks()
    else functools.partial(np.testing.assert_allclose, rtol=1e-13, atol=1e-15)
)


def test_block_len_is_whole_groups_of_four(monkeypatch):
    assert problem_families.block_len(8 * 16**2) == 64
    assert problem_families.block_len(8 * 33**2) == 12
    assert problem_families.block_len(8 * 256**2) == 4
    monkeypatch.setattr(problem_families, "BLOCK_BYTES", 9 * 8)
    assert problem_families.block_len(8) == 8


def unblocked_product(a_op, fam, s, t, n, right):
    """The split product from one stack of all n factors."""
    nodes = np.linspace(s, t, n + 1)
    tau = (t - s) / n
    ea = a_op.semigroup(tau)
    ebs = fam.factors(nodes[1:] if right else nodes[:-1], tau)
    v = np.eye(a_op.dim)
    for g in (ebs @ ea) if right else (ea @ ebs):
        v = g @ v
    return v


def unblocked_midpoint(a_op, fam, s, t, steps):
    """The midpoint product from one stack of all factors, multiplied pairwise."""
    h = (t - s) / steps
    cs = fam.sample_batch(s + (np.arange(steps) + 0.5) * h) + a_op.to_matrix()[None, :, :]
    lam, q = np.linalg.eigh(cs)
    mats = (q * np.exp(-h * lam)[:, None, :]) @ np.transpose(q, (0, 2, 1))
    while len(mats) > 1:
        even = len(mats) - len(mats) % 2
        mats = np.concatenate([mats[1:even:2] @ mats[0:even:2], mats[even:]])
    return mats[0]


@pytest.mark.parametrize("pair", ["heat_pair", "synth_pair"])
@pytest.mark.parametrize("method", ["trotter_left", "trotter_right"])
@pytest.mark.parametrize("per_block", PER_BLOCK)
def test_split_products_do_not_depend_on_block_size(monkeypatch, request, pair, method, per_block):
    a_op, fam = request.getfixturevalue(pair)
    set_block(monkeypatch, per_block, 8 * fam.dim**2)
    for n in (1, 2, 3, 7, 16, 33, 34, 35, 600):
        got = getattr(tb, method)(a_op, fam, 0.125, 0.875, n).matrix
        want = unblocked_product(a_op, fam, 0.125, 0.875, n, method == "trotter_right")
        assert_same(got, want, err_msg=str(n))


@pytest.mark.parametrize("per_block", PER_BLOCK)
def test_midpoint_product_does_not_depend_on_block_size(monkeypatch, heat_pair, per_block):
    a_op, fam = heat_pair
    set_block(monkeypatch, per_block, 8 * fam.dim**2)
    for steps in (1, 2, 16, 64, 1024):
        got = tb.midpoint_exponential(a_op, fam, 0.125, 0.875, steps).matrix
        assert_same(got, unblocked_midpoint(a_op, fam, 0.125, 0.875, steps), err_msg=str(steps))


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def heat32():
    return tb.make_heat1d_family(32, tb.sin_squared_potential, 1.0, "weierstrass", terms=12)


def test_midpoint_memory_does_not_grow_with_steps(heat32):
    a_op, fam = heat32
    assert traced_peak_mb(lambda: tb.midpoint_exponential(a_op, fam, 0.0, 0.125, 4096)) < 2.0


def test_split_product_memory_does_not_grow_with_steps(heat32):
    a_op, fam = heat32
    assert traced_peak_mb(lambda: tb.trotter_left(a_op, fam, 0.0, 1.0, 4096)) < 2.0

