import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acldp.errors import ConfigurationError
from acldp.noise import NoiseModel

finite_theta = st.floats(-50.0, 50.0, allow_nan=False)


class TestNoiseModel:
    def test_constant(self):
        nm = NoiseModel(kind="constant", g0=0.5)
        assert nm.is_constant
        assert nm.lip == 0.0
        assert np.all(nm.g(np.linspace(-3, 3, 11)) == 0.5)

    @settings(max_examples=200, deadline=None)
    @given(theta=finite_theta)
    def test_floor(self, theta):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.7, c=1.3)
        assert nm.g(np.array(theta)) >= nm.g0 - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(theta=finite_theta, other=finite_theta)
    def test_lipschitz(self, theta, other):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.7, c=1.3)
        gap = abs(float(nm.g(np.array(theta)) - nm.g(np.array(other))))
        assert gap <= nm.lip * abs(theta - other) + 1e-12

    def test_lipschitz_constant_is_sharp(self):
        nm = NoiseModel(kind="smooth_bounded_below", g0=1.0, c=2.0)
        theta = np.linspace(-5, 5, 20001)
        slopes = np.abs(np.diff(nm.g(theta)) / np.diff(theta))
        assert slopes.max() <= nm.lip + 1e-9
        assert slopes.max() >= 0.98 * nm.lip      # attained near theta = 1/sqrt(3)

    def test_derivative_consistency(self):
        nm = NoiseModel(kind="smooth_bounded_below", g0=1.0, c=0.8)
        theta = np.linspace(-4, 4, 101)
        fd = (nm.g(theta + 1e-6) - nm.g(theta - 1e-6)) / 2e-6
        assert np.allclose(fd, nm.g_prime(theta), atol=1e-6)

    def test_growth_constant(self):
        nm = NoiseModel(kind="smooth_bounded_below", g0=0.7, c=1.3)
        theta = np.linspace(-100, 100, 4001)
        assert np.all(nm.g(theta) <= nm.linear_growth_constant() * (1 + np.abs(theta)))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(kind="white", g0=1.0)
        with pytest.raises(ConfigurationError):
            NoiseModel(kind="constant", g0=0.0)
        with pytest.raises(ConfigurationError):
            NoiseModel(kind="smooth_bounded_below", g0=1.0, c=-0.1)
