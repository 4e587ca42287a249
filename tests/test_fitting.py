import numpy as np
import pytest

from obsdecay.fitting import loglog_fit


class TestLogLogFit:
    def test_power_law_recovered(self):
        x = np.geomspace(1.0, 200.0, 200)
        fit = loglog_fit(x, 3.0 * x**-1.25)
        assert fit.slope == pytest.approx(-1.25, rel=1e-14)
        assert fit.intercept == pytest.approx(np.log(3.0), rel=1e-13)
        assert fit.r2 == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_least_squares_solve(self, seed):
        # the closed form against the SVD least-squares line of np.polyfit
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.5, 500.0, 50))
        y = x ** rng.uniform(-3.0, 3.0) * np.exp(rng.normal(scale=0.3, size=x.size))
        lx, ly = np.log(x), np.log(y)
        slope, intercept = np.polyfit(lx, ly, 1)
        resid = ly - (slope * lx + intercept)
        r2 = 1.0 - np.sum(resid**2) / np.sum((ly - ly.mean()) ** 2)
        fit = loglog_fit(x, y)
        assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=1e-12)
        assert fit.r2 == pytest.approx(r2, rel=1e-12)

    def test_constant_samples_fit_exactly(self):
        fit = loglog_fit([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
        assert (fit.slope, fit.r2) == (0.0, 1.0)

    @pytest.mark.parametrize("x, y", [([1.0, 2.0], [1.0, 2.0]), ([1.0, 2.0, 3.0], [1.0, 2.0]),
                                      ([1.0, 0.0, 3.0], [1.0, 2.0, 3.0]),
                                      ([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])])
    def test_invalid_samples_rejected(self, x, y):
        with pytest.raises(ValueError):
            loglog_fit(x, y)
