import math

import numpy as np
import pytest
from scipy.integrate import quad

from sampspectra.errors import ConvergenceError
from sampspectra.marchenko_pastur import _support, mp_expectation, mp_lmmse, mp_pdf
from sampspectra.moments import moment_limit

BETAS = (0.1, 0.4, 0.8, 1.0)


class TestParams:
    def test_support_edges(self):
        assert _support(1.0) == (0.0, 4.0)
        c2, c1 = _support(0.25)
        assert c2 == pytest.approx(0.25)
        assert c1 == pytest.approx(2.25)

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.2])
    def test_rejects_bad_ratio(self, bad):
        with pytest.raises(ValueError, match="beta must lie in"):
            mp_pdf(1.0, bad)
        with pytest.raises(ValueError, match="beta must lie in"):
            mp_expectation(lambda x: x, bad)
        with pytest.raises(ValueError, match="beta must lie in"):
            mp_lmmse(bad, 0.1)


class TestDensity:
    def test_zero_outside_open_support(self):
        c2, c1 = _support(0.5)
        for x in (-1.0, 0.0, c2, c1, c1 + 1):
            assert mp_pdf(x, 0.5) == 0.0
        assert mp_pdf((c1 + c2) / 2, 0.5) > 0

    @pytest.mark.parametrize("x", [math.nan, [1.0, math.nan]])
    def test_nan_point_is_refused(self, x):
        with pytest.raises(ValueError, match="nan"):
            mp_pdf(x, 0.5)

    def test_square_case_closed_form(self):
        # At beta = 1 and x = 1 the density is sqrt(3)/(2 pi).
        assert mp_pdf(1.0, 1.0) == pytest.approx(
            math.sqrt(3) / (2 * math.pi), abs=1e-15
        )

    def test_array_evaluation(self):
        c2, c1 = _support(0.4)
        x = np.linspace(-1, 4, 101)
        y = mp_pdf(x, 0.4)
        assert y.shape == x.shape
        inside = (x > c2) & (x < c1)
        assert (y[inside] > 0).all()
        assert not y[~inside].any()

    @pytest.mark.parametrize("beta", BETAS)
    def test_normalization_by_direct_quadrature(self, beta):
        # Independent route: integrate the density itself, without the
        # substitution used by mp_expectation.
        # The raw integrand keeps its square-root endpoint behavior, so the
        # reported error estimate is looser than the substitution route.
        c2, c1 = _support(beta)
        mass, err = quad(lambda x: mp_pdf(x, beta), c2, c1, limit=300)
        assert err < 1e-5
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestMoments:
    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_limit_polynomial(self, beta):
        # The Narayana numbers C(p, k) C(p, k - 1) / p, written out here.
        for p in range(1, 7):
            narayana = sum(math.comb(p, k) * math.comb(p, k - 1) // p * beta ** (k - 1)
                           for k in range(1, p + 1))
            assert moment_limit(p, beta) == pytest.approx(narayana, rel=1e-15)

    @pytest.mark.parametrize("beta", BETAS)
    def test_quadrature_agrees(self, beta):
        for p in range(1, 7):
            integral = mp_expectation(lambda x, p=p: x**p, beta)
            assert integral == pytest.approx(moment_limit(p, beta), abs=1e-9)


class TestExpectation:
    def test_constant_function(self):
        assert mp_expectation(lambda x: 1.0, 0.7) == pytest.approx(1.0, abs=1e-10)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            mp_expectation(lambda x: x, 0.5, tolerance=0.0)

    def test_nan_tolerance_is_refused(self):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            mp_expectation(lambda x: x, 0.5, tolerance=float("nan"))

    def test_unreachable_tolerance(self):
        with pytest.raises(ConvergenceError) as info:
            mp_expectation(lambda x: x, 0.5, tolerance=1e-16)
        lo, hi = info.value.estimates
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi >= lo


class TestLmmse:
    def test_noiseless_sentinel(self):
        for beta in BETAS:
            assert mp_lmmse(beta, 0.0) == 0.0

    def test_frozen_value(self):
        # Frozen from the closed form after matching the quadrature route
        # below to 1e-10.
        assert mp_lmmse(0.4, 0.1) == pytest.approx(0.060232526704, abs=1e-12)

    def test_golden_ratio_case(self):
        # beta = alpha = 1 gives (sqrt(5) - 1)/2 exactly.
        assert mp_lmmse(1.0, 1.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("snr_db", [-200, -100, -60, 0, 10, 20, 30])
    def test_matches_quadrature(self, beta, snr_db):
        alpha = 10 ** (-snr_db / 10)
        shift = alpha * beta
        integral = mp_expectation(lambda x: shift / (x + shift), beta)
        assert mp_lmmse(beta, alpha) == pytest.approx(integral, abs=1e-10)

    @pytest.mark.parametrize("beta", BETAS)
    def test_no_overflow_at_any_finite_noise(self, beta):
        # theta^2 overflows once alpha passes about 1e154; the error tends to 1.
        for alpha in (1e154, 1e200, 1e300, 1.7e308):
            assert mp_lmmse(beta, alpha) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-12])
    def test_high_snr_at_beta_one_keeps_full_precision(self, alpha):
        # At beta = 1 the form reduces to 2 sqrt(a) / (sqrt(a) + sqrt(4 + a)).
        # Formed as theta^2 - 4, the discriminant carries theta = 2 + alpha's
        # rounding, a relative error of about 1e-16 / alpha.
        root = math.sqrt(alpha)
        exact = 2 * root / (root + math.sqrt(4 + alpha))
        assert mp_lmmse(1.0, alpha) == pytest.approx(exact, rel=1e-14)

    def test_monotone_in_noise(self):
        alphas = [0.0, 0.01, 0.1, 1.0, 10.0, 1e6]
        values = [mp_lmmse(0.6, a) for a in alphas]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert 0.0 <= values[-1] <= 1.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mp_lmmse(0.0, 0.1)
        with pytest.raises(ValueError):
            mp_lmmse(0.5, -0.1)
        with pytest.raises(ValueError):
            mp_lmmse(0.5, float("nan"))
