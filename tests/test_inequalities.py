"""Tests for the inequality oracles and their sweep drivers."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import brentq

from sumhess import inequalities
from sumhess.cones import (
    gamma_tilde_margins,
    in_gamma_k,
    members,
    sample_cone_array,
    sample_gamma_k_array,
)
from sumhess.errors import DegenerateEigenvaluesError
from sumhess.inequalities import (
    CAPPED_TAILS,
    _capped_bounds_batch,
    _capped_family_worst,
    _concavity_values,
    _family_coefficients,
    _family_gap,
    _first_worst,
    _newton_maclaurin_batch,
    _partial_product_batch,
    _quotient_concavity_batch,
    _s_newton_batch,
    _WorstTracker,
    capped_threshold_search,
    directional_second_derivative,
    run_inequality_suite,
)
from sumhess.symfun import SumHessianOp, s_hessian, s_value, sigma_all


def _quotient_concavity(op, l, lam, w, delta=None):
    [(margins, _)] = _quotient_concavity_batch(op, l, np.array([lam]), np.array([w]), [delta])
    return float(margins[0])


def _normalized_quotient_concavity(op, l, lams, ws, delta=None):
    [(margins, scales)] = _quotient_concavity_batch(op, l, lams, ws, [delta])
    return margins / scales


class TestQuotientConcavityForm:
    def test_zero_direction(self):
        op = SumHessianOp(3, 2, 1.0)
        assert _quotient_concavity(op, 1, [1.0, 1.0, 1.0], np.zeros(3)) == 0.0

    def test_closed_form_point(self):
        # lam=(1,1,1), w=e_1: LHS = 0, RHS = (3/6 - 1/4)((1-1)3/6 - 2/4)
        op = SumHessianOp(3, 2, 1.0)
        m = _quotient_concavity(op, 1, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
        assert m == pytest.approx(0.125)

    def test_randomized_sweep(self):
        op = SumHessianOp(3, 2, 1.0)
        rng = np.random.default_rng(40)
        lams = sample_cone_array(op, 10_000, 5.0, rng)
        ws = rng.uniform(-1.0, 1.0, size=lams.shape)
        assert (_normalized_quotient_concavity(op, 1, lams, ws) >= -1e-9).all()


class TestQuotientConcavitySplit:
    def test_zero_direction(self):
        op = SumHessianOp(3, 2, 1.0)
        assert _quotient_concavity(op, 1, [1.0, 1.0, 1.0], np.zeros(3), delta=0.5) == 0.0

    def test_closed_form_point(self):
        # lam=(1,1,1), w=(1,-1,0): ddS_2 = -2, gradients cancel, so
        # LHS = 2 and RHS = 0
        op = SumHessianOp(3, 2, 1.0)
        m = _quotient_concavity(op, 1, [1.0, 1.0, 1.0], [1.0, -1.0, 0.0], delta=0.5)
        assert m == pytest.approx(2.0)

    @pytest.mark.parametrize("delta", [0.5, 0.1, 0.01])
    def test_delta_sweep(self, delta):
        op = SumHessianOp(4, 3, 1.0)
        rng = np.random.default_rng(41)
        lams = sample_cone_array(op, 1000, 5.0, rng)
        ws = rng.uniform(-1.0, 1.0, size=lams.shape)
        for l in (1, 2):
            assert (_normalized_quotient_concavity(op, l, lams, ws, delta) >= -1e-9).all()


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
        with pytest.raises(DegenerateEigenvaluesError):
            directional_second_derivative(2, 1.0, np.diag([1.0, 1.0 + 1e-9]), np.eye(2))

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
    margins, _, theta = _partial_product_batch(op, np.array([lam]))
    return float(margins[0].min()), float(theta[0])


class TestPartialProducts:
    def test_simple_point(self):
        op = SumHessianOp(3, 2, 1.0)
        first, theta = _partial_products(op, [2.0, 1.0, 0.5])
        assert first == pytest.approx(1.5)
        assert theta == pytest.approx(2.0 * 2.5 / 7.0)

    def test_two_dim_point(self):
        op = SumHessianOp(2, 2, 1.0)
        first, _ = _partial_products(op, [1.0, 1.0])
        assert first == pytest.approx(1.0)

    def test_boundary_term_counterexample(self):
        # admissible but not Garding: the s = k-1 term goes negative,
        # which is why the sweep only asserts it on Garding samples
        op = SumHessianOp(3, 2, 1.0)
        first, _ = _partial_products(op, [2.0, -0.2, -0.3])
        assert first == pytest.approx(2.5 - 3.0)

    def test_positive_on_garding_samples(self):
        rng = np.random.default_rng(43)
        for n, k, alpha in [(3, 2, 1.0), (4, 3, 0.1), (5, 4, 10.0), (6, 2, 1.0)]:
            op = SumHessianOp(n, k, alpha)
            margins, _, theta = _partial_product_batch(
                op, sample_gamma_k_array(n, k, 2000, 5.0, rng)
            )
            assert (margins > 0).all()
            assert (theta > 0).all()

    def test_orders_match_the_partial_products_of_each_order(self):
        # column s-1 is order s: S_s of the sorted spectrum minus
        # lam_1...lam_s + alpha*lam_1...lam_{s-1}, with that order's own scale
        op = SumHessianOp(5, 4, 0.1)
        lams = sample_cone_array(op, 500, 5.0, np.random.default_rng(44))
        margins, scales, _ = _partial_product_batch(op, lams)
        desc = np.sort(lams, axis=-1)[:, ::-1]
        assert margins.shape == scales.shape == (500, op.k - 1)
        for s in range(1, op.k):
            ss = s_value(desc, s, op.alpha)
            prod_s, prod_sm1 = desc[:, :s].prod(axis=-1), desc[:, : s - 1].prod(axis=-1)
            scale = 1.0 + np.abs(ss) + np.abs(prod_s) + op.alpha * np.abs(prod_sm1)
            assert np.abs(margins[:, s - 1] - (ss - (prod_s + op.alpha * prod_sm1))).max() <= 1e-13 * scale.max()
            assert np.abs(scales[:, s - 1] - scale).max() <= 1e-13 * scale.max()

    def test_first_worst_divides_the_first_smallest_margin_by_its_own_scale(self):
        margins = np.array([[1.0, 0.5, 0.5], [-1.0, 2.0, -3.0], [2.0, 2.0, 3.0]])
        scales = np.array([[1.0, 2.0, 4.0], [1.0, 1.0, 2.0], [4.0, 1.0, 1.0]])
        assert _first_worst(margins, scales).tolist() == [0.25, -1.5, 0.5]


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


class TestNewtonMaclaurin:
    def test_collapsed_exponents_all_ones(self):
        (m1,), (m2,) = _newton_maclaurin_batch(np.array([[1.0, 1.0, 1.0]]), 2)
        assert m1 == pytest.approx(0.0, abs=1e-15)
        assert m2 > 0

    def test_collapsed_exponents_generic_k2(self):
        # k = 2 collapses the first bound to sigma_1 >= sigma_1
        (m1,), _ = _newton_maclaurin_batch(np.array([[2.0, 1.0, 1.0]]), 2)
        assert m1 == pytest.approx(0.0, abs=1e-15)

    def test_randomized_sweep(self):
        rng = np.random.default_rng(45)
        for n in (3, 4, 5, 6):
            for k in range(2, n + 1):
                m1, m2 = _newton_maclaurin_batch(sample_gamma_k_array(n, k, 400, 5.0, rng), k)
                assert (m1 >= -1e-9).all()
                assert (m2 >= -1e-9).all()


class TestCappedBounds:
    def test_cap_margin_point(self):
        op = SumHessianOp(3, 2, 1.0)
        b = _capped_bounds_batch(op, np.array([[2.0, 0.5, 0.1]]), 4.0)
        assert b["cap"][0] == pytest.approx(2.0)
        assert b["k0"][0] == pytest.approx(12.0)
        assert b["c0"][0] == pytest.approx(2.0 + 12.0 * 3.0)

    def test_unconditional_margins_on_selfcapped_sweep(self):
        rng = np.random.default_rng(46)
        for n, k, alpha in [(3, 2, 0.1), (4, 3, 1.0), (5, 2, 10.0), (6, 4, 1.0)]:
            op = SumHessianOp(n, k, alpha)
            lams = sample_gamma_k_array(n, k, 1000, 5.0, rng)
            n0 = np.asarray(s_value(lams, k, alpha))
            b = _capped_bounds_batch(op, np.sort(lams, axis=-1)[..., ::-1], n0)
            assert (b["cap"] >= -1e-9 * (1 + np.abs(b["cap"]))).all()
            assert (b["floor"] > 0).all()
            assert (b["share"] >= -1e-9 * (1 + n0 * b["c0"])).all()

    def test_threshold_search_reports_finite(self):
        rng = np.random.default_rng(47)
        res = capped_threshold_search(SumHessianOp(4, 3, 1.0), rng)
        assert res["finite"]
        assert not res["vacuous"]
        assert len(res["probes"]) >= 4

    def test_threshold_search_vacuous_branch_is_finite(self):
        rng = np.random.default_rng(48)
        res = capped_threshold_search(SumHessianOp(2, 2, 0.1), rng)
        assert res["finite"]


def _family_worst_per_pair(op, n0, lam1, tails):
    """Reference for _capped_family_worst at one top eigenvalue: each tail
    gets its own doubling scan and brentq solve on the s_value gap, its
    own Gamma_k test and its own single-row bounds evaluation."""
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
        s = brentq(gap, 1e-9, s_hi, xtol=1e-12, rtol=1e-12)
        spec = np.sort(np.concatenate([[lam1], s * nu]))[::-1]
        if spec[0] != lam1 or not in_gamma_k(spec, k).member:
            continue
        d = _capped_bounds_batch(op, spec[None, :], n0)
        worst = min(
            worst,
            float(d["weighted"][0] / d["weighted_scale"][0]),
            float(d["top"][0] / d["top_scale"][0]),
        )
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
            coef = _family_coefficients(op, lam1s, np.pad(sigma_all(tails), ((0, 0), (0, 1))))
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
        got = _capped_family_worst(
            op, n0, lam1s, tails, np.pad(sigma_all(tails), ((0, 0), (0, 1)))
        )
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


def _same_root(f, a, b, **kw):
    # the port and scipy must return the same double, bit for bit, or
    # raise the same error
    def outcome(solver):
        try:
            return solver(f, a, b, **kw).hex()
        except (ValueError, RuntimeError) as exc:
            return repr(exc)

    assert outcome(inequalities.brentq) == outcome(brentq)


class TestBrentPort:
    def test_matches_scipy_on_family_brackets(self, monkeypatch):
        # record the brackets _capped_family_worst itself builds
        calls = []
        port = inequalities.brentq

        def recorder(f, a, b, **kw):
            calls.append((f, a, b, kw))
            return port(f, a, b, **kw)

        monkeypatch.setattr(inequalities, "brentq", recorder)
        rng = np.random.default_rng(63)
        for n, k, alpha in FAMILY_OPS:
            op = SumHessianOp(n, k, alpha)
            tails = sample_gamma_k_array(n - 1, k - 1, CAPPED_TAILS, 1.0, rng)
            tail_sigma = np.pad(sigma_all(tails), ((0, 0), (0, 1)))
            for n0 in (10.0, 0.5):
                target = 0.9 * n0
                lam1s = np.concatenate([
                    np.geomspace(0.02 * target / alpha, 0.98 * target / alpha, 12),
                    rng.uniform(0.5, 1e3, size=12),
                ])
                _capped_family_worst(op, n0, lam1s, tails, tail_sigma)
        monkeypatch.undo()
        assert len(calls) >= 200, len(calls)
        for f, a, b, kw in calls:
            assert kw["xtol"] == kw["rtol"] == 1e-12
            _same_root(f, a, b, **kw)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x * x - 1.0, 0.0, 2.0),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),  # Wallis
            (lambda x: math.exp(x) - 2.0, -5.0, 5.0),
            (lambda x: (x - 1.0 / 3.0) ** 3, 0.0, 1.0),  # flat root
            (lambda x: (x - 1.0 / 3.0) ** 9, 0.0, 1.0),  # both give up after maxiter
            (lambda x: math.atan(1e6 * (x - 0.7)), 0.0, 1.0),  # near-step
            # products of slopes underflow, so interpolation divides by zero
            (lambda x: 1e-300 * (x - 0.1), -1.0, 1.0),
            (lambda x: 1e-160 * (x - 0.1) ** 3, -1.0, 1.0),
            (lambda x: 1e300 * math.expm1(x - 0.4), -3.0, 3.0),  # overflowing values
        ],
        ids=["square", "cos", "wallis", "exp", "cube", "ninth-power", "atan-step", "tiny",
             "tiny-cube", "huge"],
    )
    def test_matches_scipy_on_classic_functions(self, f, a, b):
        _same_root(f, a, b, xtol=1e-12, rtol=1e-12)
        _same_root(f, b, a, xtol=1e-12, rtol=1e-12)
        _same_root(f, a, b)

    @pytest.mark.parametrize("solver", [inequalities.brentq, brentq], ids=["port", "scipy"])
    def test_errors_match_scipy(self, solver):
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            solver(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):  # NaN met inside the bracket
            solver(lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
            solver(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, xtol=1e-12, rtol=1e-12, maxiter=3)
        assert solver(lambda x: x - 0.5, 0.5, 1.0) == 0.5  # a root at an end is returned


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
    ok = members(gamma_tilde_margins(op, mid))
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


class TestSuite:
    def test_reports_pass_and_are_complete(self):
        reports = run_inequality_suite(ns=(2, 3, 4), samples=150, seed=5)
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

    def test_deterministic_given_seed(self):
        a = run_inequality_suite(ns=(2, 3), samples=60, seed=11)
        b = run_inequality_suite(ns=(2, 3), samples=60, seed=11)
        for ra, rb in zip(a, b):
            assert asdict(ra) == asdict(rb)

    def test_witnesses_carry_their_report_fields_and_margin(self):
        # every witness holds exactly its report's fields, and, where the
        # margin comes from one kernel, those fields alone reproduce it
        def quotient(op, w):
            [(m, s)] = _quotient_concavity_batch(
                op, w["l"], np.array([w["lam"]]), np.array([w["w"]]), [w.get("delta")]
            )
            return m[0] / s[0]

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
            "newton_maclaurin": lambda op, w: min(
                m[0] for m in _newton_maclaurin_batch(np.array([w["lam"]]), op.k)
            ),
            "concavity": concavity,
        }
        base = {"n", "k", "alpha", "lam", "margin"}
        extra_keys = {"quotient_concavity": {"l", "w"}, "quotient_concavity_split": {"l", "w", "delta"}}
        reports = run_inequality_suite(ns=(2, 3), samples=60, seed=17)
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

    def test_thresholds_finite(self):
        reports = run_inequality_suite(ns=(2, 3), samples=60, seed=13, names=["capped_bounds"])
        ths = reports[0].extras["conditional_thresholds"]
        assert ths and all(v["finite"] for v in ths.values())
        assert all(math.isfinite(v["lambda_star"]) for v in ths.values())
