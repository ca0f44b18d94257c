"""Products and the oracle work in fixed-size blocks.

The results must not depend on the block size, and memory must not grow
with the step count.
"""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trotterbench as tb
from trotterbench import problem_families

ROOT = Path(__file__).resolve().parent.parent

# Factors per block: one, nine and whatever the default block holds.
PER_BLOCK = [1, 9, None]


def set_block(monkeypatch, per_block, item_bytes):
    if per_block is not None:
        monkeypatch.setattr(problem_families, "BLOCK_BYTES", per_block * item_bytes)


def test_block_len_is_a_plain_division(monkeypatch):
    assert problem_families.block_len(8 * 16**2) == 64
    assert problem_families.block_len(8 * 33**2) == 15
    assert problem_families.block_len(8 * 256**2) == 1
    monkeypatch.setattr(problem_families, "BLOCK_BYTES", 9 * 8)
    assert problem_families.block_len(8) == 9


def random_cuts(rng, ts):
    """``ts`` cut at three random points."""
    return np.split(ts, np.sort(rng.choice(np.arange(1, ts.size), 3, replace=False)))


@pytest.mark.parametrize("terms", [0, 1, 12, 13, 20, 52])
def test_profile_bits_do_not_depend_on_the_call(terms):
    """A time gets the same bits alone, in any piece of an array, and in the whole array."""
    rng = np.random.default_rng(terms)
    heat = tb.make_heat1d_family(4, tb.sin_squared_potential, 1.0, "weierstrass", terms=terms)[1]
    synth = tb.make_synthetic_matrix_family(
        np.diag([1.0, 0.5]), np.array([[1.0, 0.4], [0.4, 0.3]]), "weierstrass", terms=terms
    )
    profile = heat.profile
    for _ in range(50):
        ts = rng.uniform(0.0, 1.0, rng.integers(4, 120))
        whole = profile(ts)
        pieces = [profile(p) for p in random_cuts(rng, ts)]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
        assert [profile(t) for t in ts[:5]] == list(whole[:5])
    for fam in (heat, synth):
        for _ in range(10):
            ts = rng.uniform(0.0, 1.0, rng.integers(4, 60))
            whole = fam.factors(ts, 0.05)
            pieces = [fam.factors(p, 0.05) for p in random_cuts(rng, ts)]
            np.testing.assert_array_equal(np.concatenate(pieces), whole)
            np.testing.assert_array_equal(fam.factors(ts[:1], 0.05)[0], whole[0])


def test_no_kernel_specific_rounding_rule():
    """No file outside this one names a BLAS kernel or a rounding rule tied to one."""
    banned = re.compile(r"openblas|haswell|skylake|gemv|gemm|% ?4\b|groups? of four", re.I)
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"), ROOT / "README.md"]
    hits = [
        f"{path.relative_to(ROOT)}:{no}: {line.strip()}"
        for path in files
        if path != Path(__file__).resolve()
        for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []


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
        np.testing.assert_array_equal(got, want, err_msg=str(n))


@pytest.mark.parametrize("per_block", PER_BLOCK)
def test_midpoint_product_does_not_depend_on_block_size(monkeypatch, heat_pair, per_block):
    a_op, fam = heat_pair
    set_block(monkeypatch, per_block, 8 * fam.dim**2)
    for steps in (1, 2, 16, 64, 1024):
        got = tb.midpoint_exponential(a_op, fam, 0.125, 0.875, steps).matrix
        want = unblocked_midpoint(a_op, fam, 0.125, 0.875, steps)
        np.testing.assert_array_equal(got, want, err_msg=str(steps))


@pytest.fixture(scope="module")
def scalar_weier40():
    return tb.scalar_operator(1.0), tb.make_scalar_family("weierstrass", 1.0, terms=40)


@pytest.mark.parametrize("per_block", PER_BLOCK)
def test_scalar_midpoint_sum_does_not_depend_on_block_size(monkeypatch, scalar_weier40, per_block):
    """The dim-1 oracle sums its samples block by block; the order moves only round-off."""
    a_op, fam = scalar_weier40
    set_block(monkeypatch, per_block, 8 * (fam.profile.terms + 1))
    for steps in (1, 7, 16, 1024, 4096):
        h = 0.75 / steps
        b_sum = np.sum(fam.sample_batch(0.125 + (np.arange(steps) + 0.5) * h))
        want = math.exp(-0.75 * a_op.eigenvalues[0] - h * b_sum)
        got = tb.midpoint_exponential(a_op, fam, 0.125, 0.875, steps).matrix[0, 0]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), steps


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


def test_scalar_midpoint_memory_does_not_grow_with_steps(scalar_weier40):
    a_op, fam = scalar_weier40
    assert traced_peak_mb(lambda: tb.midpoint_exponential(a_op, fam, 0.0, 1.0, 2**16)) < 2.0
