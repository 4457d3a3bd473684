"""Tests for the inequality oracles and their sweep drivers."""

import errno
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import mpmath
import numpy as np
import pytest

from sumhess import inequalities
from sumhess.cones import (
    gamma_tilde_margins,
    in_gamma_k,
    in_gamma_tilde_k,
    sample_cone_array,
    sample_gamma_k_array,
)
from sumhess.inequalities import (
    CAPPED_TAILS,
    OPERATORS,
    _capped_bounds_batch,
    _capped_family_worst,
    _concavity_values,
    _family_coefficients,
    _family_gap,
    _newton_maclaurin_batch,
    _partial_product_batch,
    _quotient_concavity_batch,
    _report_cone_upgrade,
    _s_newton_batch,
    _WorstTracker,
    capped_threshold_search,
    directional_second_derivative,
    run_inequality_suite,
)
from sumhess.symfun import SumHessianOp, s_hessian, s_value, sigma_all


def _quotient_concavity(op, l, lams, ws, delta=None):
    [margins] = _quotient_concavity_batch(op, l, np.atleast_2d(lams), np.atleast_2d(ws), [delta])
    return margins


class TestQuotientConcavityForm:
    def test_zero_direction(self):
        op = SumHessianOp(3, 2, 1.0)
        assert _quotient_concavity(op, 1, [1.0, 1.0, 1.0], np.zeros(3))[0] == 0.0

    def test_closed_form_point(self):
        # lam=(1,1,1), w=e_1: x = 3/6, y = 1/4, LHS = 0, RHS = (x - y)((1-1)x - 2y),
        # so the margin 0.125 over the scale 1 + 2(x^2 + y^2 + xy) = 1.875
        op = SumHessianOp(3, 2, 1.0)
        (m,) = _quotient_concavity(op, 1, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
        assert m == pytest.approx(0.125 / 1.875)

    def test_randomized_sweep(self):
        op = SumHessianOp(3, 2, 1.0)
        rng = np.random.default_rng(40)
        lams = sample_cone_array(op, 10_000, 5.0, rng)
        ws = rng.uniform(-1.0, 1.0, size=lams.shape)
        assert (_quotient_concavity(op, 1, lams, ws) >= -1e-9).all()


class TestQuotientConcavitySplit:
    def test_zero_direction(self):
        op = SumHessianOp(3, 2, 1.0)
        assert _quotient_concavity(op, 1, [1.0, 1.0, 1.0], np.zeros(3), delta=0.5)[0] == 0.0

    def test_closed_form_point(self):
        # lam=(1,1,1), w=(1,-1,0): ddS_2 = -2, gradients cancel, so
        # LHS = 2 and RHS = 0 over the scale 1 + |ddS_2| = 3
        op = SumHessianOp(3, 2, 1.0)
        (m,) = _quotient_concavity(op, 1, [1.0, 1.0, 1.0], [1.0, -1.0, 0.0], delta=0.5)
        assert m == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("delta", [0.5, 0.1, 0.01])
    def test_delta_sweep(self, delta):
        op = SumHessianOp(4, 3, 1.0)
        rng = np.random.default_rng(41)
        lams = sample_cone_array(op, 1000, 5.0, rng)
        ws = rng.uniform(-1.0, 1.0, size=lams.shape)
        for l in (1, 2):
            assert (_quotient_concavity(op, l, lams, ws, delta) >= -1e-9).all()


class TestDirectionalSecondDerivative:
    def test_diagonal_direction_reduces_to_hessian_term(self):
        A = np.diag([3.0, 1.0, 0.5])
        B = np.diag([1.0, 2.0, -1.0])
        expected = float(np.diag(B) @ s_hessian(np.diag(A), 2, 1.0) @ np.diag(B))
        assert directional_second_derivative(2, 1.0, A, B) == pytest.approx(expected)

    def test_off_diagonal_closed_form(self):
        got = directional_second_derivative(
            2, 1.0, np.diag([2.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        assert got == pytest.approx(-2.0)

    def test_degenerate_gap_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue gap"):
            directional_second_derivative(2, 1.0, np.diag([1.0, 1.0 + 1e-9]), np.eye(2))

    @pytest.mark.parametrize(
        "A, B, message",
        [(np.diag([1.0, 2.0]), np.ones((2, 3)), "square matrices of the same size"),
         (np.diag([1.0, 2.0]), np.eye(3), "square matrices of the same size"),
         (np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), "B must be symmetric")],
        ids=["b-not-square", "b-other-size", "b-not-symmetric"],
    )
    def test_bad_direction_rejected(self, A, B, message):
        with pytest.raises(ValueError, match=message):
            directional_second_derivative(2, 1.0, A, B)

    def test_non_diagonal_rejected(self):
        with pytest.raises(ValueError):
            directional_second_derivative(2, 0.0, np.array([[1.0, 0.5], [0.5, 2.0]]), np.eye(2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-4
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 6))
            kap = np.sort(rng.uniform(-3, 3, size=n))[::-1]
            if np.diff(kap).size and np.abs(np.diff(kap)).min() < 0.1:
                continue
            alpha = float(rng.choice([0.0, 0.5, 1.0, 10.0]))
            k = int(rng.integers(1, n + 1))
            B = rng.uniform(-1, 1, size=(n, n))
            B = 0.5 * (B + B.T)
            A = np.diag(kap)

            def g(t):
                return s_value(np.linalg.eigvalsh(A + t * B), k, alpha)

            fd = (g(h) - 2 * g(0.0) + g(-h)) / (h * h)
            got = directional_second_derivative(k, alpha, A, B)
            assert got == pytest.approx(fd, rel=1e-4, abs=5e-4)
            checked += 1


def _partial_products(op, lam):
    margins, theta = _partial_product_batch(op, np.array([lam]))
    return float(margins[0].min()), float(theta[0])


class TestPartialProducts:
    def test_simple_point(self):
        op = SumHessianOp(3, 2, 1.0)
        # S_1 = 4.5 against 2 + 1, over the scale 1 + 4.5 + 2 + 1
        first, theta = _partial_products(op, [2.0, 1.0, 0.5])
        assert first == pytest.approx(1.5 / 8.5)
        assert theta == pytest.approx(2.0 * 2.5 / 7.0)

    def test_two_dim_point(self):
        op = SumHessianOp(2, 2, 1.0)
        # S_1 = 3 against 1 + 1, over the scale 1 + 3 + 1 + 1
        first, _ = _partial_products(op, [1.0, 1.0])
        assert first == pytest.approx(1.0 / 6.0)

    def test_boundary_term_counterexample(self):
        # admissible but not Garding: the s = k-1 term goes negative,
        # which is why the sweep only asserts it on Garding samples
        op = SumHessianOp(3, 2, 1.0)
        first, _ = _partial_products(op, [2.0, -0.2, -0.3])
        assert first == pytest.approx((2.5 - 3.0) / (1.0 + 2.5 + 2.0 + 1.0))

    def test_positive_on_garding_samples(self):
        rng = np.random.default_rng(43)
        for n, k, alpha in [(3, 2, 1.0), (4, 3, 0.1), (5, 4, 10.0), (6, 2, 1.0)]:
            op = SumHessianOp(n, k, alpha)
            margins, theta = _partial_product_batch(
                op, sample_gamma_k_array(n, k, 2000, 5.0, rng)
            )
            assert (margins > 0).all()
            assert (theta > 0).all()

    def test_orders_match_the_partial_products_of_each_order(self):
        # column s-1 is order s: S_s of the sorted spectrum minus
        # lam_1...lam_s + alpha*lam_1...lam_{s-1}, over that order's own scale
        op = SumHessianOp(5, 4, 0.1)
        lams = sample_cone_array(op, 500, 5.0, np.random.default_rng(44))
        margins, _ = _partial_product_batch(op, lams)
        desc = np.sort(lams, axis=-1)[:, ::-1]
        assert margins.shape == (500, op.k - 1)
        for s in range(1, op.k):
            ss = s_value(desc, s, op.alpha)
            prod_s, prod_sm1 = desc[:, :s].prod(axis=-1), desc[:, : s - 1].prod(axis=-1)
            scale = 1.0 + np.abs(ss) + np.abs(prod_s) + op.alpha * np.abs(prod_sm1)
            margin = (ss - (prod_s + op.alpha * prod_sm1)) / scale
            assert np.abs(margins[:, s - 1] - margin).max() <= 1e-13


def _s_newton_margin(op, lam):
    return float(_s_newton_batch(op, np.array([lam], dtype=float))[0])


class TestSNewton:
    def test_all_ones(self):
        op = SumHessianOp(3, 2, 1.0)
        assert _s_newton_margin(op, [1.0, 1.0, 1.0]) == pytest.approx(20.0 / 37.0)

    def test_top_order_convention(self):
        # k = n uses sigma_{n+1} = 0, so S_{n+1} = alpha*sigma_n
        op = SumHessianOp(2, 2, 1.0)
        lam = [2.0, 1.0]
        sk = s_value(lam, 2, 1.0)
        skm = s_value(lam, 1, 1.0)
        skp = 1.0 * 2.0  # alpha * sigma_2
        assert _s_newton_margin(op, lam) == pytest.approx((sk**2 - skm * skp) / (1 + sk**2))

    def test_isotropic_small_limit(self):
        # k = 1, lam = (t, t): margin = (3t^2+2t+1)/(2+4t+4t^2), which
        # tends to alpha^2/(1+alpha^2) = 1/2 as t -> 0+ and stays >= 0
        op = SumHessianOp(2, 1, 1.0)
        t = 1e-6
        m = _s_newton_margin(op, [t, t])
        assert m == pytest.approx((3 * t**2 + 2 * t + 1) / (2 + 4 * t + 4 * t**2), rel=1e-12)
        assert m == pytest.approx(0.5, abs=1e-5)

    def test_one_by_one_boundary_conventions(self):
        # n = k = 1: S_1^2 - S_0*S_2 = (lam+alpha)^2 - alpha*lam, strictly
        # positive; the conventions sigma_0 = 1, sigma_2 = 0 totalize it
        op = SumHessianOp(1, 1, 2.0)
        lam = 0.7
        expected = ((lam + 2.0) ** 2 - 2.0 * lam) / (1 + (lam + 2.0) ** 2)
        assert _s_newton_margin(op, [lam]) == pytest.approx(expected)
        assert _s_newton_margin(op, [lam]) > 0

    def test_randomized_sweep(self):
        rng = np.random.default_rng(44)
        for n in (2, 3, 4, 5, 6):
            for k in range(1, n + 1):
                for alpha in (0.1, 1.0, 10.0):
                    op = SumHessianOp(n, k, alpha)
                    lams = sample_cone_array(op, 120, 5.0, rng)
                    assert (_s_newton_batch(op, lams) >= -1e-9).all()

    def test_one_sigma_pass_is_bitwise_the_s_value_forms(self):
        # _s_newton_batch reads S_{k-1}, S_k and S_{k+1} from one sigma_all
        # pass; every swept operator is checked, k = 1 (S_0 = 1) and k = n
        # (S_{n+1} = alpha*sigma_n) among them
        assert {op.k for op in OPERATORS if op.k in (1, op.n)} == {1, 2, 3, 4, 5, 6}
        rng = np.random.default_rng(50)
        for op in OPERATORS:
            k, alpha = op.k, op.alpha
            lams = sample_cone_array(op, 64, 5.0, rng)
            skm, sk, skp = (np.asarray(s_value(lams, m, alpha)) for m in (k - 1, k, k + 1))
            want = (sk * sk - skm * skp) / (1.0 + sk * sk)
            assert _s_newton_batch(op, lams).tobytes() == want.tobytes(), op

    def test_cone_upgrade_is_bitwise_the_s_value_forms(self):
        # the cone_upgrade sweep reads S_1..S_{k+1} and sigma_k from one
        # sigma_all pass; its report, kept samples and promotion failures
        # included, is the one the s_value forms give on every swept operator
        tracker, failures = _WorstTracker(), 0
        rng = np.random.default_rng(51)
        for op in (op for op in OPERATORS if op.k < op.n):
            lams = sample_cone_array(op, 64, 5.0, rng)
            mtilde = np.stack([s_value(lams, m, op.alpha) for m in range(1, op.k + 2)], axis=-1)
            keep = mtilde[:, -1] > 0
            lams, mtilde = lams[keep], mtilde[keep]
            scale = 1.0 + np.abs(mtilde).max(axis=-1)
            failures += int((mtilde.min(axis=-1) < -1e-9 * scale).sum())
            sig_k = np.asarray(s_value(lams, op.k, 0.0))
            tracker.add_batch(sig_k / (1.0 + np.abs(sig_k)), op, lams)
        want = tracker.report("cone_upgrade", {"promotion_failures": failures})
        assert want.samples > 0
        assert _report_cone_upgrade(64, np.random.default_rng(51)) == want


class TestNewtonMaclaurin:
    def test_collapsed_exponents_all_ones(self):
        # the first margin collapses to 0 and the second is
        # (3*3 - 1*1)/(1 + 9 + 1) > 0, so their minimum is 0
        (m,) = _newton_maclaurin_batch(np.array([[1.0, 1.0, 1.0]]), 2)
        assert m == pytest.approx(0.0, abs=1e-15)

    def test_second_margin_binds_below_the_first(self):
        # lam = (1, -2, -3), k = 2, outside Gamma_2: sigma = (1, -4, 1, 6), the
        # first margin collapses to 0 and the second is (1*(-4) - 1*6)/(1 + 4 + 6)
        (m,) = _newton_maclaurin_batch(np.array([[1.0, -2.0, -3.0]]), 2)
        assert m == pytest.approx(-10.0 / 11.0)
        # lam = (1, 1, 1/32) in Gamma_3: sigma = (1, 65/32, 17/16, 1/32) and
        # sigma_4 = 0, so the second is (17/512)/(1 + 17/512) = 17/529, below
        # the first, (17/16 - sqrt(65/1024))/(1 + 17/16 + sqrt(65/1024)) = 0.35
        (m,) = _newton_maclaurin_batch(np.array([[1.0, 1.0, 1.0 / 32.0]]), 3)
        assert m == pytest.approx(17.0 / 529.0)

    def test_collapsed_exponents_generic_k2(self):
        # k = 2 collapses the first bound to sigma_1 >= sigma_1; the second
        # is (5*4 - 1*2)/(1 + 20 + 2) > 0
        (m,) = _newton_maclaurin_batch(np.array([[2.0, 1.0, 1.0]]), 2)
        assert m == pytest.approx(0.0, abs=1e-15)

    def test_randomized_sweep(self):
        rng = np.random.default_rng(45)
        for n in (3, 4, 5, 6):
            for k in range(2, n + 1):
                m = _newton_maclaurin_batch(sample_gamma_k_array(n, k, 400, 5.0, rng), k)
                assert (m >= -1e-9).all()


class TestCappedBounds:
    def test_cap_margin_point(self):
        # lam = (2, 0.5, 0.1), n0 = 4: K0 = 3*4 = 12, C0 = 2 + 12*3 = 38,
        # S_2 = 3.85 and lam_i S^{ii} = (3.2, 1.55, 0.35)
        op = SumHessianOp(3, 2, 1.0)
        (unconditional,), (conditional,) = _capped_bounds_batch(op, np.array([[2.0, 0.5, 0.1]]), 4.0)
        cap = 2.0 / (1.0 + 2.0 + 2.0)
        floor = (0.1 + 12.0) / (1.0 + 12.0 + 0.1)
        share = (38.0 * 3.85 - 3.2) / (1.0 + 38.0 * 3.85 + 3.2)
        assert unconditional == pytest.approx(min(cap, floor, share))
        assert unconditional == pytest.approx(0.4)  # the cap of 2 binds
        # top: S_2 - 0.9*2*1.6 = 0.97 binds below the weighted margin
        assert conditional == pytest.approx(0.97 / (1.0 + 3.85 + 2.88))

    def test_floor_and_weighted_margin_point(self):
        # n = k = 2, alpha = 0.5, lam = (-4, -7.5), n0 = 2 (outside Gamma_2, so
        # the floor can bind): K0 = 2*(2/0.5) = 8, C0 = 2 + 8*1/0.5 = 18,
        # S_2 = 30 - 5.75 = 24.25, S^{ii} = (-7, -3.5), lam_i S^{ii} = (28, 26.25)
        op = SumHessianOp(2, 2, 0.5)
        (unconditional,), (conditional,) = _capped_bounds_batch(op, np.array([[-4.0, -7.5]]), 2.0)
        cap = 8.0 / (1.0 + 8.0 + 4.0)
        floor = (-7.5 + 8.0) / (1.0 + 8.0 + 7.5)
        share = (18.0 * 24.25 - 28.0) / (1.0 + 18.0 * 24.25 + 28.0)
        assert floor < min(cap, share)
        assert unconditional == pytest.approx(floor)
        # kap = lam + K0 = (4, 0.5): weighted min_i 2*4^4*(-7) - kap_i^4 S^{ii},
        # -3584 + 0.5^4*3.5 at i = 2, over 1 + 3584 + 4^4*7, is below top
        # (24.25 - 0.9*(-4)*(-7))/(1 + 24.25 + 25.2) = -0.95/50.45
        assert conditional == pytest.approx((-3584.0 + 0.21875) / 5377.0)

    def test_share_margin_point(self):
        # lam = (1/64, 0, 0), n0 = 1: K0 = 3, C0 = 2 + 3*binom(3,2) = 11,
        # S_2 = 1/64 and lam_i S^{ii} = (1/64, 0, 0); cap (63/64)/2 and floor
        # 3/4 stay above share (11/64 - 1/64)/(1 + 11/64 + 1/64) = 5/38
        op = SumHessianOp(3, 2, 1.0)
        (unconditional,), (conditional,) = _capped_bounds_batch(op, np.array([[1.0 / 64.0, 0.0, 0.0]]), 1.0)
        assert unconditional == pytest.approx(5.0 / 38.0)
        # top: S_2 - 0.9*(1/64)*1 = 0.1/64 binds below the weighted margin
        assert conditional == pytest.approx((0.1 / 64.0) / (1.0 + 1.0 / 64.0 + 0.9 / 64.0))

    def test_unconditional_margins_on_selfcapped_sweep(self):
        rng = np.random.default_rng(46)
        for n, k, alpha in [(3, 2, 0.1), (4, 3, 1.0), (5, 2, 10.0), (6, 4, 1.0)]:
            op = SumHessianOp(n, k, alpha)
            lams = sample_gamma_k_array(n, k, 1000, 5.0, rng)
            n0 = np.asarray(s_value(lams, k, alpha))
            unconditional, _ = _capped_bounds_batch(op, np.sort(lams, axis=-1)[..., ::-1], n0)
            assert (unconditional >= -1e-9).all()
            # the floor lam_n + K0 holds strictly
            assert (lams.min(axis=-1) + n * (n0 / alpha) ** (1.0 / (k - 1)) > 0).all()

    def test_threshold_search_reports_finite(self):
        rng = np.random.default_rng(47)
        res = capped_threshold_search(SumHessianOp(4, 3, 1.0), rng)
        assert res["finite"]
        assert not res["vacuous"]
        assert len(res["probes"]) >= 4

    def test_threshold_search_needs_k_at_least_2(self):
        with pytest.raises(ValueError, match="needs k >= 2"):
            capped_threshold_search(SumHessianOp(3, 1, 1.0), np.random.default_rng(49))

    def test_threshold_search_vacuous_branch_is_finite(self):
        rng = np.random.default_rng(48)
        res = capped_threshold_search(SumHessianOp(2, 2, 0.1), rng)
        assert res["finite"]


def _exact_family_root(coef, k, target, s_hi):
    """The root in [1e-9, s_hi] of s^(k-2) (c_lo + s c_mid + s^2 c_hi) - target,
    coef = (c_lo, c_mid, c_hi), solved at 50 digits and rounded to a float."""
    with mpmath.workdps(50):
        c_lo, c_mid, c_hi = (mpmath.mpf(c) for c in coef)

        def gap(s):
            return s ** (k - 2) * (c_lo + s * (c_mid + s * c_hi)) - target

        return float(mpmath.findroot(gap, (mpmath.mpf(1e-9), mpmath.mpf(s_hi)), solver="anderson"))


def _family_worst_per_pair(op, n0, lam1, tails):
    """Reference for _capped_family_worst at one top eigenvalue: each tail
    gets its own doubling scan on the s_value gap, its own 50-digit root of
    S_k(lam1, s*nu) = 0.9*n0 (sigma_j(nu) summed in mpmath from the float
    entries), its own Gamma_k test and its own single-row bounds evaluation."""
    k, alpha = op.k, op.alpha
    target = 0.9 * n0
    worst = math.inf
    for nu in tails:

        def gap(s):
            return float(s_value(np.concatenate([[lam1], s * nu]), k, alpha)) - target

        s_hi = 1e-3
        while gap(s_hi) < 0 and s_hi < 1e6:
            s_hi *= 2.0
        if gap(1e-9) >= 0 or gap(s_hi) < 0:
            continue
        with mpmath.workdps(50):
            sig = [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
            for x in nu.tolist():
                for j in range(k, 0, -1):
                    sig[j] += x * sig[j - 1]
            big_l, a = mpmath.mpf(lam1), mpmath.mpf(alpha)
            coef = (a * big_l * sig[k - 2], (big_l + a) * sig[k - 1], sig[k])
        s = _exact_family_root(coef, k, target, s_hi)
        spec = np.sort(np.concatenate([[lam1], s * nu]))[::-1]
        if spec[0] != lam1 or not in_gamma_k(spec, k):
            continue
        worst = min(worst, float(_capped_bounds_batch(op, spec[None, :], n0)[1][0]))
    return worst


# k = 2 (the vacuous branch), 2 < k < n, k = n, and n = 6
FAMILY_OPS = [
    (2, 2, 0.1), (3, 2, 1.0), (4, 3, 1.0), (5, 3, 10.0),
    (3, 3, 1.0), (4, 4, 0.1), (6, 4, 1.0), (6, 6, 10.0),
]


class TestCappedFamilyBatch:
    def test_coefficients_reproduce_s_value(self):
        rng = np.random.default_rng(60)
        for n, k, alpha in FAMILY_OPS:
            op = SumHessianOp(n, k, alpha)
            tails = rng.uniform(-2.0, 3.0, size=(5, n - 1))
            lam1s = rng.uniform(0.1, 50.0, size=4)
            coef = _family_coefficients(op, lam1s, sigma_all(tails, n))
            for s in rng.uniform(0.01, 5.0, size=3):
                got = _family_gap(s, coef, k, 0.0)
                for i, lam1 in enumerate(lam1s):
                    for j, nu in enumerate(tails):
                        want = float(s_value(np.concatenate([[lam1], s * nu]), k, alpha))
                        assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n,k,alpha", FAMILY_OPS)
    @pytest.mark.parametrize("n0", [10.0, 0.5])
    def test_matches_per_pair_reference(self, n, k, alpha, n0):
        op = SumHessianOp(n, k, alpha)
        rng = np.random.default_rng(61)
        tails = sample_gamma_k_array(n - 1, k - 1, CAPPED_TAILS, 1.0, rng)
        target = 0.9 * n0
        lam1s = np.concatenate([
            np.geomspace(0.02 * target / alpha, 0.98 * target / alpha, 12),
            np.geomspace(0.5, 1e6, 18),
        ])
        got = _capped_family_worst(op, n0, lam1s, tails, sigma_all(tails, n))
        want = np.array([_family_worst_per_pair(op, n0, float(l), tails) for l in lam1s])
        assert np.array_equal(got == math.inf, want == math.inf)
        assert np.isfinite(want).any()
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,k,alpha", FAMILY_OPS)
    def test_threshold_search_matches_per_pair_reference(self, n, k, alpha, monkeypatch):
        op = SumHessianOp(n, k, alpha)
        got = capped_threshold_search(op, np.random.default_rng(62))

        def per_pair(op, n0, lam1s, tails, tail_sigma):
            return np.array([_family_worst_per_pair(op, n0, float(l), tails) for l in lam1s])

        monkeypatch.setattr(inequalities, "_capped_family_worst", per_pair)
        want = capped_threshold_search(op, np.random.default_rng(62))
        assert got["lambda_star"] == want["lambda_star"]
        assert got["vacuous"] == want["vacuous"]
        assert [p[0] for p in got["probes"]] == [p[0] for p in want["probes"]]
        np.testing.assert_allclose(
            [p[1] for p in got["probes"]], [p[1] for p in want["probes"]], rtol=0, atol=1e-12
        )

    def test_roots_match_exact_on_family_brackets(self, monkeypatch):
        # record the brackets _capped_family_worst itself builds and hands to
        # the shared bisection, with the kept pairs' coefficients its gap binds
        calls = []
        batched = inequalities.bisect_roots

        def recorder(gap, lo, hi):
            roots = batched(gap, lo, hi)
            calls.append((gap.keywords["coef"], gap.keywords["k"], gap.keywords["target"], hi, roots))
            return roots

        monkeypatch.setattr(inequalities, "bisect_roots", recorder)
        rng = np.random.default_rng(63)
        for n, k, alpha in FAMILY_OPS:
            op = SumHessianOp(n, k, alpha)
            tails = sample_gamma_k_array(n - 1, k - 1, CAPPED_TAILS, 1.0, rng)
            tail_sigma = sigma_all(tails, n)
            for n0 in (10.0, 0.5):
                target = 0.9 * n0
                lam1s = np.concatenate([
                    np.geomspace(0.02 * target / alpha, 0.98 * target / alpha, 12),
                    rng.uniform(0.5, 1e3, size=12),
                ])
                _capped_family_worst(op, n0, lam1s, tails, tail_sigma)
        monkeypatch.undo()
        assert sum(len(call[4]) for call in calls) >= 200
        for coef, k, target, hi, roots in calls:
            for i, root in enumerate(roots):
                want = _exact_family_root([c[i] for c in coef], k, target, hi[i])
                assert abs(root - want) <= 1e-14 * want, (root, want)


# each probe sample j carries the witness field j
_PROBE_OP = SumHessianOp(1, 1, 1.0)
_PROBE_LAMS = np.ones((3, 1))


class TestWorstTracker:
    def test_nan_margin_ranks_worst_and_fails(self):
        tracker = _WorstTracker()
        tracker.add_batch(np.array([0.0, math.nan, 0.5]), _PROBE_OP, _PROBE_LAMS, j=np.arange(3))
        report = tracker.report("probe")
        assert math.isnan(report.worst_margin)
        assert not report.passed
        assert report.witnesses[0]["j"] == 1
        assert [w["j"] for w in report.witnesses] == [1, 0, 2]

    def test_infinite_margin_fails_across_batches(self):
        tracker = _WorstTracker()
        tracker.add_batch(np.array([0.3, 0.1]), _PROBE_OP, _PROBE_LAMS, j=np.arange(2))
        tracker.add_batch(np.array([math.inf, 0.2]), _PROBE_OP, _PROBE_LAMS, j=np.arange(2) + 2)
        report = tracker.report("probe")
        assert report.worst_margin == math.inf
        assert not report.passed
        assert [w["j"] for w in report.witnesses] == [2, 1, 3, 0]

    def test_empty_sweep_passes(self):
        report = _WorstTracker().report("probe")
        assert report.passed and report.samples == 0


def _concavity_margins(op, a, b, l=None):
    """g(mid) - (g(a) + g(b))/2 per row, with the rows whose midpoint
    leaves the admissible cone dropped, and their count."""
    a, b = np.atleast_2d(a).astype(float), np.atleast_2d(b).astype(float)
    mid = 0.5 * (a + b)
    ok = in_gamma_tilde_k(op, mid)
    gm, ga, gb = (_concavity_values(op, gamma_tilde_margins(op, x[ok]), l) for x in (mid, a, b))
    return gm - 0.5 * (ga + gb), int((~ok).sum())


class TestConcavityProbe:
    def test_degenerate_segment(self):
        op = SumHessianOp(3, 2, 1.0)
        (m,), _ = _concavity_margins(op, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert m == 0.0

    def test_symmetric_pair_positive(self):
        op = SumHessianOp(3, 2, 1.0)
        (m,), _ = _concavity_margins(op, [3.0, 1.0, 1.0], [1.0, 1.0, 3.0])
        # midpoint (2,1,2): S_2 = 8+5 = 13; endpoints S_2 = 7+5 = 12
        assert m == pytest.approx(np.sqrt(13.0) - np.sqrt(12.0))
        assert m > 0

    def test_ratio_variant(self):
        op = SumHessianOp(3, 3, 1.0)
        (m,), skips = _concavity_margins(op, [3.0, 1.0, 1.0], [1.0, 1.0, 3.0], l=1)
        assert skips == 0 and m >= -1e-12

    def test_randomized_sweep(self):
        op = SumHessianOp(4, 2, 1.0)
        rng = np.random.default_rng(49)
        a = sample_cone_array(op, 10_000, 5.0, rng)
        b = sample_cone_array(op, 10_000, 5.0, rng)
        m, skips = _concavity_margins(op, a, b)
        assert (m >= -1e-9 * (1 + np.abs(m))).all()
        assert skips < len(a) // 2


def _operators_up_to(monkeypatch, n_max):
    """Sweep only the table's operators with n <= n_max, in table order."""
    rows = tuple(op for op in OPERATORS if op.n <= n_max)
    monkeypatch.setattr(inequalities, "OPERATORS", rows)


class TestSuite:
    def test_reports_pass_and_are_complete(self, monkeypatch):
        _operators_up_to(monkeypatch, 4)
        reports = run_inequality_suite(samples=150, seed=5)
        assert len(reports) == 8
        names = {r.name for r in reports}
        assert names == {
            "quotient_concavity",
            "quotient_concavity_split",
            "cone_upgrade",
            "partial_products",
            "capped_bounds",
            "s_newton",
            "newton_maclaurin",
            "concavity",
        }
        for r in reports:
            assert r.passed, (r.name, r.worst_margin, r.witnesses[:1])
            assert r.samples > 0
            assert len(r.witnesses) <= 5
            if r.name == "cone_upgrade":
                assert r.extras["promotion_failures"] == 0

    def test_deterministic_given_seed(self, monkeypatch):
        _operators_up_to(monkeypatch, 3)
        a = run_inequality_suite(samples=60, seed=11)
        b = run_inequality_suite(samples=60, seed=11)
        for ra, rb in zip(a, b):
            assert asdict(ra) == asdict(rb)

    def test_witnesses_carry_their_report_fields_and_margin(self, monkeypatch):
        # every witness holds exactly its report's fields, and, where the
        # margin comes from one kernel, those fields alone reproduce it
        def quotient(op, w):
            return _quotient_concavity(op, w["l"], w["lam"], w["w"], w.get("delta"))[0]

        def cone_upgrade(op, w):
            sig_k = sigma_all(np.array([w["lam"]]))[0, op.k]
            return sig_k / (1.0 + abs(sig_k))

        def concavity(op, w):
            a, b = np.array([w["lam"]]), np.array([w["lam_b"]])
            gm, ga, gb = (
                _concavity_values(op, gamma_tilde_margins(op, x), w.get("l"))[0]
                for x in (0.5 * (a + b), a, b)
            )
            return (gm - 0.5 * (ga + gb)) / (1.0 + abs(gm) + abs(ga) + abs(gb))

        recompute = {
            "quotient_concavity": quotient,
            "quotient_concavity_split": quotient,
            "cone_upgrade": cone_upgrade,
            "s_newton": lambda op, w: _s_newton_batch(op, np.array([w["lam"]]))[0],
            "newton_maclaurin": lambda op, w: _newton_maclaurin_batch(np.array([w["lam"]]), op.k)[0],
            "concavity": concavity,
        }
        base = {"n", "k", "alpha", "lam", "margin"}
        extra_keys = {"quotient_concavity": {"l", "w"}, "quotient_concavity_split": {"l", "w", "delta"}}
        _operators_up_to(monkeypatch, 3)
        reports = run_inequality_suite(samples=60, seed=17)
        assert len(reports) == 8
        for rep in reports:
            assert rep.witnesses, rep.name
            for w in rep.witnesses:
                keys = base | extra_keys.get(rep.name, set())
                if rep.name == "concavity":
                    keys = base | {"lam_b"} | ({"l"} & set(w))
                assert set(w) == keys, (rep.name, sorted(w))
                assert len(w["lam"]) == w["n"]
                if rep.name in recompute:
                    op = SumHessianOp(w["n"], w["k"], w["alpha"])
                    got = recompute[rep.name](op, w)
                    assert got == pytest.approx(w["margin"], rel=1e-12, abs=0), (rep.name, w)

    def test_thresholds_finite(self, monkeypatch):
        _operators_up_to(monkeypatch, 3)
        [capped] = [r for r in run_inequality_suite(samples=60, seed=13) if r.name == "capped_bounds"]
        ths = capped.extras["conditional_thresholds"]
        assert ths and all(v["finite"] for v in ths.values())
        assert all(math.isfinite(v["lambda_star"]) for v in ths.values())


def _cpus(monkeypatch, count):
    """Let the suite see `count` allowed CPUs."""
    monkeypatch.setattr(inequalities.os, "sched_getaffinity", lambda pid: set(range(count)))


def _suite_json(samples=40, seed=9):
    return json.dumps([asdict(r) for r in run_inequality_suite(samples=samples, seed=seed)], sort_keys=True)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestProcessShares:
    def test_shares_deal_every_report_once_and_balance_two(self):
        names = sorted(inequalities.REPORT_BUILDERS)
        for count in range(1, len(names) + 1):
            shares = inequalities._shares(count)
            assert len(shares) == count and all(shares)
            assert sorted(sum(shares, [])) == names
            assert shares == inequalities._shares(count)
        loads = [sum(inequalities.REPORT_SECONDS[name] for name in share) for share in inequalities._shares(2)]
        assert max(loads) < 0.55 * sum(loads)

    def test_reports_are_byte_identical_for_any_cpu_count(self, monkeypatch):
        _operators_up_to(monkeypatch, 3)
        _cpus(monkeypatch, 1)
        serial = _suite_json()
        _assert_no_child_left()
        for count in (2, 16):
            _cpus(monkeypatch, count)
            assert _suite_json() == serial, count
            _assert_no_child_left()

    def test_child_exception_is_raised_with_its_type_and_message(self, monkeypatch):
        _operators_up_to(monkeypatch, 2)
        _cpus(monkeypatch, 2)
        [child_share] = inequalities._shares(2)[1:]

        def broken(samples, rng):
            raise ValueError(f"broken in process {os.getpid()}")

        monkeypatch.setitem(inequalities.REPORT_BUILDERS, child_share[0], broken)
        with pytest.raises(ValueError, match="broken in process") as info:
            run_inequality_suite(samples=20, seed=1)
        assert str(info.value) != f"broken in process {os.getpid()}"  # it ran in the child
        _assert_no_child_left()

    def test_child_that_dies_without_reports_raises_runtime_error(self, monkeypatch):
        _operators_up_to(monkeypatch, 2)
        _cpus(monkeypatch, 2)
        [child_share] = inequalities._shares(2)[1:]
        monkeypatch.setitem(inequalities.REPORT_BUILDERS, child_share[0], lambda samples, rng: os._exit(7))
        with pytest.raises(RuntimeError, match="exited with status 7"):
            run_inequality_suite(samples=20, seed=1)
        _assert_no_child_left()

    def test_failed_fork_runs_the_share_here(self, monkeypatch):
        _operators_up_to(monkeypatch, 3)
        _cpus(monkeypatch, 1)
        serial = _suite_json()
        forks = []

        def no_fork():
            forks.append(1)
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        _cpus(monkeypatch, 16)
        monkeypatch.setattr(inequalities.os, "fork", no_fork)
        assert _suite_json() == serial
        assert len(forks) == len(inequalities.REPORT_BUILDERS) - 1
        _assert_no_child_left()

    def test_children_do_not_flush_the_stdout_they_inherit(self, tmp_path):
        # a line still in this process's stdout buffer at the fork is
        # written once, by this process alone
        code = (
            "import os\n"
            "from sumhess import inequalities\n"
            "os.sched_getaffinity = lambda pid: set(range(8))\n"
            "print('before the suite')\n"
            "inequalities.run_inequality_suite(samples=5, seed=0)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(inequalities.__file__).parents[1]))
        with open(tmp_path / "stdout.txt", "w") as fh:
            proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=fh, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "stdout.txt").read_text() == "before the suite\n"
