import importlib

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import logsumexp

from acldp.errors import ConfigurationError
from acldp.flow import step_weights
from acldp.grid import (Boundary, Field, build_domain, inverse_transform_values,
                        laplacian_values, sobolev_norm, sobolev_norm_values,
                        transform_values)

from .conftest import band_limited
from .fields import basis_eval, l2_inner, lp_norm

action_module = importlib.import_module("acldp.action")   # the package attribute is the function
grid_module = importlib.import_module("acldp.grid")


def fine_grid_inner(L, f, g, n_fine=200_001):
    """Independent trapezoid-rule oracle for L^2 inner products."""
    x = np.linspace(-L, L, n_fine)
    return np.trapezoid(f(x) * g(x), x)


def eigenfunction(L, k):
    if k % 2 == 0:
        return lambda x: np.sin(k * np.pi * x / (2 * L)) / np.sqrt(L)
    return lambda x: np.cos(k * np.pi * x / (2 * L)) / np.sqrt(L)


class TestBuildDomain:
    def test_lambda1_unit(self):
        d = build_domain(1.0, 127, 64)
        assert d.lambda_k[0] == pytest.approx((np.pi / 2) ** 2, rel=1e-14)
        assert d.lambda_k[0] == pytest.approx(2.4674, abs=1e-4)

    def test_lambda1_long(self):
        d = build_domain(10.0, 255, 128)
        assert d.lambda_k[0] == pytest.approx((np.pi / 20) ** 2, rel=1e-14)
        assert d.lambda_k[0] == pytest.approx(0.02467, abs=1e-5)

    def test_modes_exceeding_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            build_domain(1.0, 4, 8)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            build_domain(-1.0, 127, 64)
        with pytest.raises(ConfigurationError):
            build_domain(1.0, 127, 128)

    def test_domains_compare_by_identity(self):
        a, b = build_domain(2.0, 63, 32), build_domain(2.0, 63, 32)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_grid_uniform_and_interior(self, dom2):
        dx = np.diff(dom2.xi)
        assert np.allclose(dx, dx[0], rtol=1e-12)
        assert dom2.xi[0] == pytest.approx(-dom2.L + dom2.h)
        assert dom2.xi[-1] == pytest.approx(dom2.L - dom2.h)

    def test_eigenvalues_increasing(self, dom2):
        assert np.all(np.diff(dom2.lambda_k) > 0)

    def test_psi_ramp(self, dom2):
        assert np.allclose(dom2.psi, dom2.xi / dom2.L)
        # discrete Laplacian of the ramp vanishes at interior points
        ext = np.concatenate(([-1.0], dom2.psi, [1.0]))
        lap = (ext[2:] - 2 * ext[1:-1] + ext[:-2]) / dom2.h ** 2
        assert np.max(np.abs(lap)) < 1e-10


class TestBasis:
    def test_center_values(self, dom1):
        i0 = dom1.n // 2           # xi = 0 for odd n
        assert dom1.xi[i0] == pytest.approx(0.0, abs=1e-14)
        assert basis_eval(dom1, 1).values[i0] == pytest.approx(1.0, rel=1e-14)
        assert basis_eval(dom1, 2).values[i0] == pytest.approx(0.0, abs=1e-14)

    def test_orthogonality_against_quadrature_oracle(self, dom1):
        oracle = fine_grid_inner(1.0, eigenfunction(1.0, 1), eigenfunction(1.0, 3))
        assert abs(oracle) < 1e-12
        grid_ip = l2_inner(dom1, basis_eval(dom1, 1), basis_eval(dom1, 3))
        assert abs(grid_ip - oracle) < 1e-12

    def test_normalization(self, dom2):
        for k in (1, 2, 7, 40):
            e = basis_eval(dom2, k)
            assert l2_inner(dom2, e, e) == pytest.approx(1.0, rel=1e-12)

    def test_out_of_range(self, dom2):
        with pytest.raises(ConfigurationError):
            basis_eval(dom2, 0)
        with pytest.raises(ConfigurationError):
            basis_eval(dom2, dom2.modes + 1)


class TestTransform:
    def test_single_mode(self, dom2):
        c = transform_values(dom2, basis_eval(dom2, 3).values)
        expect = np.zeros(dom2.modes)
        expect[2] = 1.0
        assert np.allclose(c, expect, atol=1e-12)

    def test_zero(self, dom2):
        c = transform_values(dom2, np.zeros(dom2.n))
        assert np.all(c == 0.0)

    def test_combination_against_quadrature_oracle(self, dom1):
        c = transform_values(dom1, basis_eval(dom1, 1).values + 2.0 * basis_eval(dom1, 4).values)
        # oracle: fine-grid quadrature of <f, e_k>
        ffun = lambda x: eigenfunction(1.0, 1)(x) + 2.0 * eigenfunction(1.0, 4)(x)
        for k in (1, 2, 3, 4, 5):
            oracle = fine_grid_inner(1.0, ffun, eigenfunction(1.0, k))
            assert c[k - 1] == pytest.approx(oracle, abs=1e-9)

    def test_inverse_of_leading_block_equals_zero_padded(self, dom2, rng):
        k = dom2.modes // 3
        block = rng.standard_normal((4, k))
        padded = np.zeros((4, dom2.modes))
        padded[:, :k] = block
        assert np.array_equal(inverse_transform_values(dom2, block),
                              inverse_transform_values(dom2, padded))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_round_trip_band_limited(self, dom2, seed):
        f = band_limited(dom2, np.random.default_rng(seed), k_max=dom2.modes)
        rec = inverse_transform_values(dom2, transform_values(dom2, f.values))
        scale = max(np.max(np.abs(f.values)), 1e-30)
        assert np.max(np.abs(rec - f.values)) / scale < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_parseval(self, dom2, seed):
        f = band_limited(dom2, np.random.default_rng(seed), k_max=dom2.modes)
        c = transform_values(dom2, f.values)
        assert np.sum(c * c) == pytest.approx(lp_norm(dom2, f, 2) ** 2, rel=1e-10)


def _sign(d):
    k = np.arange(1, d.modes + 1)
    return np.where(np.isin(k % 4, (0, 1)), 1.0, -1.0)


def forward_formula(d, values):
    """The forward transform as the plain formula, through scipy.fft."""
    coeff = scipy.fft.dst(values, type=1, axis=-1)[..., : d.modes]
    return (d.h / (2.0 * np.sqrt(d.L))) * _sign(d) * coeff


def inverse_formula(d, coeff):
    """The inverse transform as the plain formula, through scipy.fft."""
    k = coeff.shape[-1]
    pad = np.zeros(coeff.shape[:-1] + (d.n,))
    pad[..., :k] = _sign(d)[:k] * coeff / np.sqrt(d.L)
    return scipy.fft.dst(pad, type=1, axis=-1) / 2.0


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestTransformBitwise:
    """Both transforms equal the plain formulas bit for bit, and never write to
    the caller's array."""

    DOMAINS = [(2.0, 63, 32), (2.0, 63, 63), (1.0, 127, 127), (4.0, 255, 128)]
    SHAPES = [(), (32,), (3, 5)]

    @pytest.mark.parametrize("lnm", DOMAINS)
    @pytest.mark.parametrize("lead", SHAPES)
    def test_forward(self, lnm, lead, rng):
        d = build_domain(*lnm)
        v = rng.standard_normal(lead + (d.n,))
        before = v.copy()
        assert_bitwise(transform_values(d, v), forward_formula(d, v))
        assert_bitwise(v, before)

    @pytest.mark.parametrize("lnm", DOMAINS)
    @pytest.mark.parametrize("lead", SHAPES)
    def test_inverse_full_and_leading_blocks(self, lnm, lead, rng):
        d = build_domain(*lnm)
        for k in (d.modes, d.modes // 3, 1):
            # decades down to the subnormal range, where folding the /2 would show
            c = rng.standard_normal(lead + (k,)) * np.logspace(0, -320, k)
            before = c.copy()
            assert_bitwise(inverse_transform_values(d, c), inverse_formula(d, c))
            assert_bitwise(c, before)

    def test_all_subnormal_coefficients(self, rng):
        d = build_domain(2.0, 63, 32)
        c = rng.integers(-50, 50, (4, d.modes)) * 5e-324
        assert_bitwise(inverse_transform_values(d, c), inverse_formula(d, c))

    def test_strided_view(self, rng):
        d = build_domain(2.0, 63, 32)
        a = rng.standard_normal((4, 3, d.n))
        before = a.copy()
        v = a[:, 1, :]
        assert not v.flags.c_contiguous
        assert_bitwise(transform_values(d, v), forward_formula(d, v))
        c = rng.standard_normal((4, 3, d.modes))[:, 2, :]
        assert_bitwise(inverse_transform_values(d, c), inverse_formula(d, c))
        assert_bitwise(a, before)

    def test_read_only_broadcast_input(self, rng):
        d = build_domain(2.0, 63, 32)
        v = np.broadcast_to(rng.standard_normal(d.n), (5, d.n))
        c = np.broadcast_to(rng.standard_normal(d.modes), (5, d.modes))
        assert not v.flags.writeable and not c.flags.writeable
        assert_bitwise(transform_values(d, v), forward_formula(d, v))
        assert_bitwise(inverse_transform_values(d, c), inverse_formula(d, c))

    @pytest.mark.parametrize("shape", [(63,), (95, 63), (32, 255), (4, 255)])
    def test_orthonormal_dst_of_the_action(self, shape, rng):
        a = rng.standard_normal(shape)
        before = a.copy()
        assert_bitwise(action_module._dst_ortho(a),
                       scipy.fft.dst(a, type=1, norm="ortho", axis=-1))
        assert_bitwise(a, before)

    def test_one_binding_for_every_dst(self):
        # the action's transforms go through the grid's module attribute, so
        # wrapping `acldp.grid.dst` (and every module holding it) sees them all
        assert action_module.dst is grid_module.dst


def fd_laplacian_matrix(L, n):
    h = 2 * L / (n + 1)
    A = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) / h ** 2
    return A


class TestLaplacian:
    def test_eigenfunction_exactness(self, dom2):
        for k in range(1, dom2.modes + 1):
            e = basis_eval(dom2, k)
            lap = laplacian_values(dom2, e.values)
            err = np.max(np.abs(lap + dom2.lambda_k[k - 1] * e.values))
            assert err <= 1e-8

    def test_zero(self, dom2):
        assert np.all(laplacian_values(dom2, np.zeros(dom2.n)) == 0.0)

    def test_matches_second_difference_oracle(self, rng):
        # smooth band-limited field: FD Laplacian agrees to O(h^2)
        errs = []
        for n in (63, 127):
            d = build_domain(1.0, n, n)
            f = band_limited(d, np.random.default_rng(5), k_max=4, amp=1.0)
            spec = laplacian_values(d, f.values)
            fd = fd_laplacian_matrix(1.0, n) @ f.values
            errs.append(np.max(np.abs(spec - fd)))
        h63 = 2.0 / 64
        assert errs[0] < 100.0 * h63 ** 2           # O(h^2) with a measured constant
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def semigroup(d, values, t):
    """S(t) as the integrators apply it: the exponential-Euler semigroup factor
    e^{-lambda_k t} on the mode coefficients."""
    return inverse_transform_values(d, step_weights(d, t)[0] * transform_values(d, values))


class TestSemigroup:
    def test_eigenfunction_decay(self, dom2):
        k, t = 5, 0.3
        e = basis_eval(dom2, k)
        out = semigroup(dom2, e.values, t)
        assert np.allclose(out, np.exp(-dom2.lambda_k[k - 1] * t) * e.values,
                           rtol=1e-12, atol=1e-14)

    def test_identity_at_zero(self, dom2, rng):
        f = band_limited(dom2, rng, k_max=dom2.modes)
        out = semigroup(dom2, f.values, 0.0)
        assert np.allclose(out, f.values, rtol=1e-13, atol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(s=st.floats(0.01, 0.5), t=st.floats(0.01, 0.5))
    def test_semigroup_law(self, dom2, s, t):
        f = band_limited(dom2, np.random.default_rng(11), k_max=dom2.modes)
        once = semigroup(dom2, f.values, s + t)
        twice = semigroup(dom2, semigroup(dom2, f.values, s), t)
        scale = max(np.max(np.abs(once)), 1e-12)
        assert np.max(np.abs(once - twice)) / scale < 1e-10

    def test_matches_matrix_exponential_oracle(self):
        n, L, t = 63, 1.0, 0.1
        d = build_domain(L, n, n)
        f = band_limited(d, np.random.default_rng(7), k_max=4, amp=1.0)
        spec = semigroup(d, f.values, t)
        dense = expm(t * fd_laplacian_matrix(L, n)) @ f.values
        assert np.max(np.abs(spec - dense)) < 0.02 * max(np.max(np.abs(f.values)), 1.0)


class TestSobolevNorm:
    def test_zero_order_is_lp(self, dom2, rng):
        f = band_limited(dom2, rng, k_max=dom2.modes)
        assert sobolev_norm(dom2, f, 0.0, 8) == pytest.approx(lp_norm(dom2, f, 8), rel=1e-10)

    def test_single_mode_against_quadrature_oracle(self, dom1):
        # ||(-Lap)^{0.1} e_1||_{L^8} = lambda_1^{0.1} * ||cos(pi xi/2)||_{L^8}
        x = np.linspace(-1.0, 1.0, 400_001)
        oracle = (np.trapezoid(np.cos(np.pi * x / 2) ** 8, x)) ** (1 / 8)
        got = sobolev_norm(dom1, basis_eval(dom1, 1), 0.2, 8)
        assert got == pytest.approx(dom1.lambda_k[0] ** 0.1 * oracle, rel=1e-6)

    def test_zero_field(self, dom2):
        z = Field(np.zeros(dom2.n), Boundary.ZERO_DIRICHLET)
        assert sobolev_norm(dom2, z, 0.2, 8) == 0.0

    def test_odd_exponent_rejected(self, dom2, rng):
        with pytest.raises(ConfigurationError):
            sobolev_norm(dom2, band_limited(dom2, rng), 0.2, 7)

    def test_monotone_in_order_single_mode(self, dom2):
        e = basis_eval(dom2, 6)        # lambda_6 > 1, so the norm grows with k*
        norms = [sobolev_norm(dom2, e, ks, 8) for ks in (0.0, 0.1, 0.2, 0.4)]
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("p_star", [1024, 4096])
    def test_large_exponent_matches_log_sum_exp(self, dom2, rng, p_star):
        # rows of sup 1e-3 .. 1e3: |rec|^p underflows or overflows for all but the middle
        rows = np.stack([a * band_limited(dom2, rng, k_max=dom2.modes).values
                         for a in (1e-3, 0.3, 1.0, 3.0, 1e3)])
        rows = np.vstack([rows, np.zeros(dom2.n)])
        got = sobolev_norm_values(dom2, transform_values(dom2, rows), 0.2, p_star)
        rec = inverse_transform_values(
            dom2, transform_values(dom2, rows) * dom2.lambda_k ** 0.1)
        with np.errstate(divide="ignore"):
            log_norm = (np.log(dom2.h) + logsumexp(p_star * np.log(np.abs(rec)), axis=-1)) / p_star
        assert got[-1] == 0.0
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got[:-1], np.exp(log_norm[:-1]), rtol=1e-12, atol=0.0)

    def test_in_range_rows_keep_the_plain_formula(self, dom2, rng):
        rows = np.stack([band_limited(dom2, rng, k_max=dom2.modes).values for _ in range(4)])
        rec = inverse_transform_values(
            dom2, transform_values(dom2, rows) * dom2.lambda_k ** (0.2 / 2.0))
        plain = (dom2.h * np.sum(np.abs(rec) ** 8, axis=-1)) ** (1.0 / 8)
        got = sobolev_norm_values(dom2, transform_values(dom2, rows), 0.2, 8)
        assert got.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("k_star", [1e300, 1e5])
    def test_overflowing_mode_weight_rejected(self, dom2, rng, k_star):
        with pytest.raises(ConfigurationError, match="kstar"):
            sobolev_norm(dom2, band_limited(dom2, rng), k_star, 8)

