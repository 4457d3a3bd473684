"""Cone membership, sampling, and ellipticity checks."""

import numpy as np
import pytest

from sumhess.cones import (
    DEFAULT_TOL,
    gamma_k_margins,
    gamma_tilde_margins,
    in_gamma_k,
    in_gamma_tilde_k,
    sample_cone_array,
    sample_gamma_k_array,
)
from sumhess.symfun import SumHessianOp, s_gradient, s_value


def stacked_sample(n, count, radius, rng, margins):
    """The rejection loop on the full, batch-outer sigma stack: every
    order, np.stack(axis=-1), then (m > 0).all(axis=-1) per draw."""
    accepted, kept = [], 0
    while kept < count:
        pts = rng.uniform(-radius, radius, size=(4096, n))
        sig = [np.ones(len(pts))] + [np.zeros(len(pts)) for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, 0, -1):
                sig[j] = sig[j] + pts[:, i] * sig[j - 1]
        accepted.append(pts[(margins(np.stack(sig, axis=-1)) > 0).all(axis=-1)])
        kept += len(accepted[-1])
    return np.concatenate(accepted)[:count]


class TestGammaK:
    def test_member_with_one_negative_entry(self):
        assert in_gamma_k([1.0, 1.0, -0.4], 2)
        margins = gamma_k_margins([1.0, 1.0, -0.4], 2)
        assert margins[0] == pytest.approx(1.6)
        assert margins[1] == pytest.approx(0.2)  # 1 - 0.4 - 0.4

    def test_negative_orthant_rejected(self):
        assert not in_gamma_k([-1.0, -1.0, -1.0], 1)

    def test_positive_orthant_in_top_cone(self):
        assert in_gamma_k([1.0, 1.0, 1.0], 3)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = rng.integers(2, 7)
            k = rng.integers(1, n + 1)
            lam = rng.uniform(-5, 5, size=n)
            t = float(rng.uniform(0.01, 100.0))
            assert in_gamma_k(lam, int(k)) == in_gamma_k(t * lam, int(k))


class TestGammaTildeK:
    def test_member_example(self):
        op = SumHessianOp(3, 2, 1.0)
        assert in_gamma_tilde_k(op, [1.0, 1.0, -0.4])
        margins = gamma_tilde_margins(op, [1.0, 1.0, -0.4])
        assert margins[0] == pytest.approx(2.6)
        assert margins[1] == pytest.approx(1.8)

    def test_rejected_example(self):
        op = SumHessianOp(3, 2, 1.0)
        margins = gamma_tilde_margins(op, [1.0, -0.5, -0.6])
        assert margins[0] == pytest.approx(0.9)
        assert margins[1] == pytest.approx(-0.9)
        assert not in_gamma_tilde_k(op, [1.0, -0.5, -0.6])

    def test_positive_orthant_always_member(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = rng.integers(1, 9)
            k = rng.integers(1, n + 1)
            op = SumHessianOp(int(n), int(k), float(rng.uniform(0.1, 10)))
            assert in_gamma_tilde_k(op, rng.uniform(0.01, 5, size=n))

    def test_cone_nesting_in_order(self):
        # membership at order k implies membership at order k-1
        rng = np.random.default_rng(22)
        for n, alpha in [(3, 0.1), (4, 1.0), (5, 10.0)]:
            for k in range(2, n + 1):
                op = SumHessianOp(n, k, alpha)
                for lam in sample_cone_array(op, 200, 4.0, rng):
                    assert in_gamma_tilde_k(SumHessianOp(n, k - 1, alpha), lam)

    def test_membership_upgrade_when_next_order_positive(self):
        # within the admissible cone, S_{k+1} > 0 promotes membership one
        # order up, equivalently sigma_k > 0
        rng = np.random.default_rng(23)
        checked = 0
        for n in (3, 4, 5):
            for k in range(1, n):
                for alpha in (0.1, 1.0, 10.0):
                    op = SumHessianOp(n, k, alpha)
                    lams = sample_cone_array(op, 300, 4.0, rng)
                    sk1 = np.asarray(s_value(lams, k + 1, alpha))
                    up = SumHessianOp(n, k + 1, alpha)
                    for lam in lams[sk1 > 0]:
                        assert in_gamma_tilde_k(up, lam)
                        sig_k = s_value(lam, k, 0.0)
                        assert sig_k > -1e-12 * (1 + abs(sig_k))
                        checked += 1
        assert checked > 100


def equivalent(op, lam):
    """True iff the two characterizations of the admissible cone agree
    on lam: (Gamma_{k-1} and S_k > 0)  <=>  (S_m > 0 for m = 1..k)."""
    via_gamma = op.k == 1 or bool(in_gamma_k(lam, op.k - 1))
    sk = float(s_value(lam, op.k, op.alpha))
    route_a = via_gamma and sk > -DEFAULT_TOL * (1.0 + abs(sk))
    return route_a == bool(in_gamma_tilde_k(op, lam))


class TestBatchedMembership:
    def test_batch_matches_rows_and_slack_boundary(self):
        rng = np.random.default_rng(30)
        for n in (2, 3, 5):
            lams = rng.uniform(-5, 5, size=(300, n))
            for k in range(1, n + 1):
                op = SumHessianOp(n, k, 1.0)
                assert in_gamma_k(lams, k).tolist() == [bool(in_gamma_k(lam, k)) for lam in lams]
                rows = [bool(in_gamma_tilde_k(op, lam)) for lam in lams]
                assert in_gamma_tilde_k(op, lams).tolist() == rows
        # lam = (1, -c): margins (1 - c, -c), so the slack is
        # -DEFAULT_TOL * (2 - c); iterate c to the float where they meet
        c = 2e-12
        for _ in range(10):
            margins = gamma_k_margins([1.0, -c], 2)
            slack = -DEFAULT_TOL * (1.0 + np.abs(margins).max())
            if margins[1] == slack:
                break
            c = -slack
        assert margins[1] == slack
        inside = -np.nextafter(np.nextafter(np.nextafter(c, 0.0), 0.0), 0.0)  # 3 ulps inside
        margins = gamma_k_margins([1.0, inside], 2)
        assert margins[1] > -DEFAULT_TOL * (1.0 + np.abs(margins).max())
        assert in_gamma_k([[1.0, -c], [1.0, inside]], 2).tolist() == [False, True]
        assert not in_gamma_k([1.0, -c], 2) and in_gamma_k([1.0, inside], 2)


class TestEquivalence:
    def test_member_case(self):
        assert equivalent(SumHessianOp(3, 2, 1.0), [1.0, 1.0, -0.4])

    def test_rejected_case(self):
        assert equivalent(SumHessianOp(3, 2, 1.0), [-1.0, -1.0, -1.0])

    def test_random_agreement(self):
        rng = np.random.default_rng(24)
        for _ in range(10_000):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            op = SumHessianOp(n, k, float(rng.choice([0.1, 1.0, 10.0])))
            assert equivalent(op, rng.uniform(-5, 5, size=n))


class TestSampler:
    def test_samples_are_members(self):
        rng = np.random.default_rng(25)
        op = SumHessianOp(2, 2, 1.0)
        for lam in sample_cone_array(op, 10, 3.0, rng):
            assert in_gamma_tilde_k(op, lam)

    def test_tiny_radius_keeps_box_bounded_members(self):
        rng = np.random.default_rng(26)
        op = SumHessianOp(3, 3, 1.0)
        (lam,) = sample_cone_array(op, 1, 0.1, rng)
        assert in_gamma_tilde_k(op, lam)
        assert np.abs(lam).max() <= 0.2

    def test_deterministic_given_seed(self):
        op = SumHessianOp(4, 3, 0.1)
        a = sample_cone_array(op, 50, 5.0, np.random.default_rng(99))
        b = sample_cone_array(op, 50, 5.0, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_late_rows_reach_the_boundary_region(self):
        # rejection samples all the way: the last rows are uniform on the
        # cone, so some have a coordinate near 0 (about 167 of 1000 here)
        pts = sample_gamma_k_array(6, 6, 20_000, 5.0, np.random.default_rng(3))
        assert len(pts) == 20_000
        assert (pts[-1000:].min(axis=-1) < 0.03 * 5.0).sum() >= 100

    @pytest.mark.parametrize(
        "count, radius, message",
        [(0, 1.0, "count must be >= 1"), (5, 0.0, "radius must be positive"),
         (5, -1.0, "radius must be positive"), (5, np.nan, "radius must be positive, with 2 \\* radius finite"),
         (5, np.inf, "2 \\* radius finite"), (5, 1e308, "2 \\* radius finite")],
        ids=["count-0", "radius-0", "radius-negative", "radius-nan", "radius-inf", "radius-1e308"],
    )
    def test_both_samplers_check_arguments(self, count, radius, message):
        rng = np.random.default_rng(29)
        with pytest.raises(ValueError, match=message):
            sample_cone_array(SumHessianOp(3, 2, 1.0), count, radius, rng)
        with pytest.raises(ValueError, match=message):
            sample_gamma_k_array(3, 2, count, radius, rng)

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_samplers_match_the_stacked_rejection_loop(self, seed):
        # same rows and same generator state afterwards, for every
        # (n, k, alpha) of the default sweep and for Gamma_k
        for n in (2, 3, 4, 5, 6):
            for k in range(1, n + 1):
                cases = [(sample_gamma_k_array, (n, k), lambda sig, k=k: sig[:, 1 : k + 1])]
                for alpha in (0.1, 1.0, 10.0):
                    cases.append((
                        sample_cone_array, (SumHessianOp(n, k, alpha),),
                        lambda sig, k=k, a=alpha: sig[:, 1 : k + 1] + a * sig[:, :k],
                    ))
                for sampler, head, margins in cases:
                    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = sampler(*head, 300, 5.0, rng_a)
                    want = stacked_sample(n, 300, 5.0, rng_b, margins)
                    assert np.array_equal(got, want), (sampler.__name__, n, k)
                    assert rng_a.random() == rng_b.random(), (sampler.__name__, n, k)

    def test_gamma_k_sampler(self):
        rng = np.random.default_rng(27)
        pts = sample_gamma_k_array(4, 3, 100, 5.0, rng)
        for lam in pts:
            assert in_gamma_k(lam, 3)
        with pytest.raises(ValueError, match="out of range"):
            sample_gamma_k_array(4, 0, 10, 5.0, rng)


class TestEllipticity:
    def test_first_derivative_positive_on_admissible_cone(self):
        rng = np.random.default_rng(28)
        total = 0
        for n in (2, 3, 4, 5):
            for k in range(1, n + 1):
                for alpha in (0.1, 1.0, 10.0):
                    op = SumHessianOp(n, k, alpha)
                    lams = sample_cone_array(op, 10_000 // (n * 3), 5.0, rng)
                    grads = s_gradient(lams, op.k, op.alpha)
                    assert (grads > 0).all(), (n, k, alpha)
                    total += grads.size
        assert total >= 10_000
