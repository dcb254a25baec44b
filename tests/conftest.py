import numpy as np
import pytest

from acldp.flow import Path, flow_states, steps_of
from acldp.grid import Boundary, Field, build_domain
from acldp.noise import NoiseModel
from acldp.profile import compute_profile


@pytest.fixture(scope="session")
def dom1():
    """Unit half-length domain, full mode resolution."""
    return build_domain(1.0, 127, 127)


@pytest.fixture(scope="session")
def dom2():
    """Desk-scale domain at L=2 (the acceptance setting, reduced n)."""
    return build_domain(2.0, 127, 64)


@pytest.fixture(scope="session")
def dom2_full():
    """L=2 with modes = n, for action-path work."""
    return build_domain(2.0, 63, 63)


@pytest.fixture(scope="session")
def prof1(dom1):
    return compute_profile(dom1)


@pytest.fixture(scope="session")
def prof2(dom2):
    return compute_profile(dom2)


@pytest.fixture(scope="session")
def prof2_full(dom2_full):
    return compute_profile(dom2_full)


@pytest.fixture
def rng():
    return np.random.default_rng(1729)


@pytest.fixture(scope="session")
def unit_noise():
    return NoiseModel(kind="constant", g0=1.0)


def band_limited(d, rng, k_max=8, amp=0.3):
    """Random field supported on the first k_max modes."""
    coeff = np.zeros(d.modes)
    coeff[:k_max] = amp * rng.standard_normal(k_max)
    from acldp.grid import inverse_transform_values
    return Field(inverse_transform_values(d, coeff), Boundary.ZERO_DIRICHLET)


def flow_path(d, x, dt, T):
    """The states of the noiseless flow from x over [0, T] as a Path, read
    from `flow_states` as `mam_minimize` reads them."""
    steps = steps_of(T, dt, "T")
    return Path(np.asarray([z for z, _, _ in flow_states(d, x.values, dt, steps)]),
                Boundary.ZERO_DIRICHLET, dt)
