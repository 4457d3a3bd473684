"""Tests for the symmetric-function calculus.

The independent oracle for sigma_j is brute-force enumeration of all
j-subsets (itertools.combinations), viable up to n = 6.
"""

import itertools
import math

import numpy as np
import pytest

from sumhess.symfun import (
    MAX_DIM,
    SumHessianOp,
    _deleted,
    bisect_roots,
    identity_residuals,
    s_gradient,
    s_hessian,
    s_value,
    sigma_all,
)


def brute_sigma(lam, j):
    """Sum of all j-fold products of distinct entries."""
    if j == 0:
        return 1.0
    if j < 0 or j > len(lam):
        return 0.0
    return sum(math.prod(c) for c in itertools.combinations(lam, j))


def stacked_sigma(lam):
    """The full recurrence with one array per order, stacked with the batch
    axis outer: the kernel's layout before it kept one buffer."""
    lam = np.asarray(lam, float)
    sig = [np.ones(lam.shape[:-1])] + [np.zeros(lam.shape[:-1]) for _ in range(lam.shape[-1])]
    for i in range(lam.shape[-1]):
        for j in range(i + 1, 0, -1):
            sig[j] = sig[j] + lam[..., i] * sig[j - 1]
    return np.stack(sig, axis=-1)


class TestSigmaAll:
    def test_all_ones_gives_binomials(self):
        assert np.allclose(sigma_all([1.0, 1.0, 1.0]), [1, 3, 3, 1])

    def test_pair_sum_example(self):
        # pairs of (2, 0, -1): 0 + (-2) + 0
        assert sigma_all([2.0, 0.0, -1.0])[2] == pytest.approx(-2.0)

    def test_single_entry(self):
        assert np.allclose(sigma_all([5.0]), [1, 5])

    def test_scalar_is_a_one_entry_spectrum(self):
        assert np.array_equal(sigma_all(2.0), [1.0, 2.0])

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            for _ in range(50):
                lam = rng.uniform(-5, 5, size=n)
                got = sigma_all(lam)
                for j in range(n + 1):
                    want = brute_sigma(lam, j)
                    assert got[j] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = rng.integers(2, 9)
            lam = rng.uniform(-5, 5, size=n)
            perm = rng.permutation(n)
            assert np.allclose(sigma_all(lam), sigma_all(lam[perm]), rtol=1e-12, atol=1e-12)

    def test_batch_shape(self):
        lams = np.ones((4, 5, 3))
        out = sigma_all(lams)
        assert out.shape == (4, 5, 4)
        assert np.allclose(out, [1, 3, 3, 1])

    def test_truncated_orders_are_bitwise_prefixes(self):
        # the recurrence stopped at t^order leaves every lower order as the
        # full pass computes it, and the full pass is the stacked one bit
        # for bit, on single spectra, batches and the deletion gathers
        rng = np.random.default_rng(9)
        for n in range(1, MAX_DIM + 1):
            lams = rng.uniform(-5, 5, size=(6, n))
            inputs = [lams[0], lams]
            if n > 1:
                inputs.append(_deleted(lams, [(p,) for p in range(n)]))  # (6, n, n - 1)
            for x in inputs:
                full = sigma_all(x)
                assert np.array_equal(full, stacked_sigma(x)), (n, x.shape)
                for order in range(x.shape[-1] + 1):
                    got = sigma_all(x, order)
                    assert got.shape == x.shape[:-1] + (order + 1,)
                    assert np.array_equal(got, full[..., : order + 1]), (n, x.shape, order)

    def test_orders_past_the_entries_are_zero(self):
        # sigma_j = 0 for j > n comes from sigma_all itself, so no caller
        # pads or branches for it; a negative order still gives sigma_0
        lams = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, -4.0]])
        got = sigma_all(lams, 7)
        assert got.shape == (2, 8)
        assert np.array_equal(got[:, :4], sigma_all(lams))
        assert np.array_equal(got[:, 4:], np.zeros((2, 4)))
        assert not np.signbit(got[:, 4:]).any()
        assert np.array_equal(sigma_all(lams[0], -1), [1.0])


class TestSumHessianOp:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            SumHessianOp(3, 2, 0.0)

    def test_order_range(self):
        with pytest.raises(ValueError):
            SumHessianOp(3, 4, 1.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan], ids=["inf", "nan"])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            SumHessianOp(2, 2, alpha)

    def test_dimension_past_max_dim_rejected(self):
        with pytest.raises(ValueError, match=f"dimension must be in \\[1, {MAX_DIM}\\]"):
            SumHessianOp(MAX_DIM + 1, 2, 1.0)
        with pytest.raises(ValueError, match=f"spectrum length exceeds {MAX_DIM}"):
            sigma_all(np.ones(MAX_DIM + 1))


class TestSigmaDeleted:
    # sigma_j(lam|p) is entry p of s_gradient(lam, j+1, 0) and
    # sigma_j(lam|pq) is entry (p, q) of s_hessian(lam, j+2, 0)
    def test_single_deletion(self):
        assert s_gradient([1.0, 2.0, 3.0], 2, 0.0)[1] == pytest.approx(4.0)

    def test_double_deletion(self):
        assert s_hessian([1.0, 2.0, 3.0], 3, 0.0)[0, 2] == pytest.approx(2.0)

    def test_product_of_survivors(self):
        assert s_gradient([1.0, 1.0, -0.4], 3, 0.0)[2] == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lam = rng.uniform(-5, 5, size=5)
            p, q = rng.choice(5, size=2, replace=False)
            reduced = [lam[i] for i in range(5) if i not in (p, q)]
            for j in range(4):
                assert s_hessian(lam, j + 2, 0.0)[p, q] == pytest.approx(
                    brute_sigma(reduced, j), rel=1e-12, abs=1e-12
                )


class TestS:
    def test_all_ones(self):
        op = SumHessianOp(3, 2, 1.0)
        assert s_value([1.0, 1.0, 1.0], 2, op.alpha) == pytest.approx(6.0)

    def test_order_zero_is_one(self):
        op = SumHessianOp(4, 2, 3.7)
        assert s_value([0.3, -1.0, 2.0, 0.1], 0, op.alpha) == pytest.approx(1.0)

    def test_isotropic_two_dim(self):
        op = SumHessianOp(2, 2, 1.0)
        assert s_value([1.0, 1.0], 2, op.alpha) == pytest.approx(3.0)
        c = 0.7
        assert s_value([c, c], 2, op.alpha) == pytest.approx(c * c + 2 * c)

    def test_beyond_top_order(self):
        # sigma_{n+1} = 0 so S_{n+1} = alpha*sigma_n
        op = SumHessianOp(2, 2, 2.0)
        assert s_value([3.0, 4.0], 3, op.alpha) == pytest.approx(2.0 * 12.0)

    def test_edge_orders_batched_matches_scalar(self):
        # one coefficient pass serves both orders; the batched result (a
        # view of the sigma_all array for in-range m) must equal the
        # per-row scalar calls bit for bit at the boundary orders
        rng = np.random.default_rng(14)
        for n in (1, 2, 4):
            lams = rng.uniform(-5, 5, size=(7, n))
            for m in (0, 1, n, n + 1):
                for alpha in (0.0, 1.0):
                    batched = s_value(lams, m, alpha)
                    assert batched.shape == (7,)
                    rows = [s_value(row, m, alpha) for row in lams]
                    assert all(isinstance(v, float) for v in rows)
                    assert np.array_equal(batched, rows), (n, m, alpha)


class TestDerivatives:
    def test_one_gather_matches_per_index_loop(self):
        # the stacked gather runs the recurrence over the same entries in
        # the same order as one s_value call per deleted index
        rng = np.random.default_rng(15)
        for n in (1, 2, 3, 5):
            lams = rng.uniform(-5, 5, size=(6, n))
            for k in range(1, n + 1):
                grad = np.stack([s_value(np.delete(lams, p, axis=-1), k - 1, 0.5)
                                 for p in range(n)], axis=-1)
                assert np.array_equal(s_gradient(lams, k, 0.5), grad), (n, k)
                hess = np.zeros((6, n, n))
                for p, q in itertools.combinations(range(n), 2):
                    v = s_value(np.delete(lams, (p, q), axis=-1), k - 2, 0.5)
                    hess[:, p, q] = hess[:, q, p] = v
                assert np.array_equal(s_hessian(lams, k, 0.5), hess), (n, k)

    def test_gradient_all_ones(self):
        op = SumHessianOp(3, 2, 1.0)
        assert np.allclose(s_gradient([1.0, 1.0, 1.0], op.k, op.alpha), [3.0, 3.0, 3.0])

    def test_gradient_linear_case(self):
        # S_1 = sigma_1 + alpha has unit gradient
        op = SumHessianOp(4, 1, 2.5)
        grad = s_gradient([0.4, -2.0, 1.0, 3.0], op.k, op.alpha)
        assert np.allclose(grad, 1.0)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(10)
        h = 1e-5
        for _ in range(50):
            n = rng.integers(2, 7)
            k = rng.integers(1, n + 1)
            op = SumHessianOp(int(n), int(k), float(rng.choice([0.1, 1.0, 10.0])))
            lam = rng.uniform(-5, 5, size=n)
            grad = s_gradient(lam, op.k, op.alpha)
            for p in range(n):
                e = np.zeros(n)
                e[p] = h
                fd = (s_value(lam + e, op.k, op.alpha) - s_value(lam - e, op.k, op.alpha)) / (2 * h)
                assert grad[p] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_hessian_k2_case(self):
        # k = 2: off-diagonals are S_0 = 1, diagonal 0
        op = SumHessianOp(3, 2, 1.0)
        H = s_hessian([0.3, -1.2, 4.0], op.k, op.alpha)
        assert np.allclose(H, np.ones((3, 3)) - np.eye(3))

    def test_hessian_k3_entry(self):
        op = SumHessianOp(3, 3, 1.0)
        H = s_hessian([1.0, 2.0, 3.0], op.k, op.alpha)
        assert H[0, 1] == pytest.approx(4.0)  # S_1(lam|12) = 3 + alpha

    def test_hessian_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 7)
            k = rng.integers(1, n + 1)
            op = SumHessianOp(int(n), int(k), 1.0)
            H = s_hessian(rng.uniform(-5, 5, size=n), op.k, op.alpha)
            assert np.array_equal(H, H.T)

    def test_hessian_matches_second_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-4
        for _ in range(20):
            n = rng.integers(2, 6)
            k = rng.integers(1, n + 1)
            op = SumHessianOp(int(n), int(k), 1.0)
            lam = rng.uniform(-3, 3, size=n)
            H = s_hessian(lam, op.k, op.alpha)
            for p in range(n):
                for q in range(n):
                    ep = np.zeros(n)
                    eq = np.zeros(n)
                    ep[p] = h
                    eq[q] = h
                    fd = (
                        s_value(lam + ep + eq, op.k, op.alpha)
                        - s_value(lam + ep - eq, op.k, op.alpha)
                        - s_value(lam - ep + eq, op.k, op.alpha)
                        + s_value(lam - ep - eq, op.k, op.alpha)
                    ) / (4 * h * h)
                    scale = max(1.0, abs(H[p, q]))
                    assert abs(H[p, q] - fd) <= 1e-4 * scale


class TestIdentities:
    def test_all_ones_identity_v(self):
        op = SumHessianOp(3, 2, 1.0)
        lam = np.ones(3)
        grad = s_gradient(lam, op.k, op.alpha)
        assert (lam * grad).sum() == pytest.approx(9.0)
        assert 2 * s_value(lam, 2, op.alpha) - 3.0 == pytest.approx(9.0)

    def test_all_ones_identity_iv(self):
        op = SumHessianOp(3, 2, 1.0)
        total = sum(s_value([1.0, 1.0], 2, 1.0) for _ in range(3))
        assert total == pytest.approx((3 - 2) * 6.0 + 3.0)

    def test_zero_vector(self):
        for n in range(2, 6):
            op = SumHessianOp(n, min(2, n), 0.7)
            assert np.allclose(identity_residuals(op, np.zeros(n)), 0.0, atol=1e-14)

    def test_random_sweep(self):
        rng = np.random.default_rng(13)
        for n in range(2, 9):
            lams = rng.uniform(-5, 5, size=(1250, n))
            for k in range(1, n + 1):
                for alpha in (0.1, 1.0, 10.0):
                    op = SumHessianOp(n, k, alpha)
                    res = identity_residuals(op, lams)
                    scale = 1.0 + np.abs(s_value(lams, k, alpha))
                    assert (res <= 1e-9 * scale[:, None]).all()


class TestBisectRoots:
    def test_entries_converging_at_different_steps_keep_their_brackets(self):
        # brackets of widths 2^-39 to 2^40 around roots of different sizes
        # reach adjacent floats after 11 to 1,049 halvings; each entry of
        # the batch is the root that entry gives when bisected on its own
        roots = np.array([1.0 / 3.0, 2.0**-40 / 3.0, 1e-300, 7.0, 2.0**40 / 3.0])
        lo = np.array([0.25, 0.0, 0.0, 7.0 - 2.0**-40, 0.0])
        hi = np.array([0.5, 2.0**-40, 1.0, 7.0 + 2.0**-40, 2.0**40])

        def gap_of(r):
            return lambda s: s - r

        batched = bisect_roots(gap_of(roots), lo, hi)
        for i, root in enumerate(roots):
            alone = bisect_roots(gap_of(root), lo[i : i + 1], hi[i : i + 1])
            assert batched[i] == alone[0], i
            assert abs(batched[i] - root) <= np.spacing(root), i

    def test_returns_the_last_midpoint_not_the_upper_end(self):
        # gap turns nonnegative at 1 + ulp in [1, 1 + 2 ulp]: the bracket ends
        # as [1, 1 + ulp], whose midpoint 1 + ulp/2 rounds to even, the lower end
        ulp = np.spacing(1.0)
        got = bisect_roots(lambda s: s - (1.0 + ulp), np.array([1.0]), np.array([1.0 + 2 * ulp]))
        assert got[0] == 1.0
