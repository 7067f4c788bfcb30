import math

import numpy as np
import pytest

from oamsim.numerics import GaussPolarRule, hermitian_eigen, psd_sqrt
from oracles import PolarGrid, integrate_polar, laguerre, polar_mesh, su_basis


# Explicit closed forms used as an independent oracle for the recurrence.
def laguerre_closed(p, a, x):
    if p == 0:
        return np.ones_like(np.asarray(x, float))
    if p == 1:
        return 1 + a - x
    if p == 2:
        return x**2 / 2 - (a + 2) * x + (a + 1) * (a + 2) / 2
    if p == 3:
        return -(x**3) / 6 + (a + 3) * x**2 / 2 - (a + 2) * (a + 3) * x / 2 + (a + 1) * (a + 2) * (a + 3) / 6
    raise ValueError(p)


class TestLaguerre:
    def test_base_cases(self):
        assert laguerre(0, 1.7, 5.0) == 1.0
        assert laguerre(1, 2.0, 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_degree_two_value(self):
        # (x^2 - 4x + 2) / 2 at x = 2
        assert laguerre(2, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, 7.0])
    def test_matches_closed_forms(self, p, alpha):
        x = np.linspace(0.0, 20.0, 201)
        got = laguerre(p, alpha, x)
        want = laguerre_closed(p, alpha, x)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_rejects_out_of_range_degree(self):
        with pytest.raises(ValueError):
            laguerre(65, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)


class TestPolarGrid:
    def test_weights_sum_to_disc_area(self):
        grid = PolarGrid(r_max=2.0)
        assert grid.weights.sum() == pytest.approx(np.pi * 4.0, rel=1e-10)

    def test_weights_positive(self):
        grid = PolarGrid(r_max=3.0, n_r=64, n_phi=32)
        assert np.all(grid.weights > 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PolarGrid(r_max=-1.0)
        with pytest.raises(ValueError):
            PolarGrid(r_max=1.0, n_r=0)


class TestGaussPolarRule:
    @pytest.mark.parametrize("ell_max", [0, 1, 5, 20])
    def test_gaussian_moments_are_exact(self, ell_max):
        # the integral of e^{-a |xi|^2} xi^j conj(xi)^k over the plane, xi = r - c,
        # is j! pi / a^{j+1} when j = k and zero otherwise; the scale of each
        # check is the integral of its absolute value, pi Gamma(n/2 + 1) / a^{n/2 + 1}
        a, centre = 2.7, (0.4, -1.3)
        rule = GaussPolarRule(a, centre, ell_max)
        assert rule.points.shape == rule.weights.shape == (rule.n_r * rule.n_phi,)
        xi = rule.points - complex(*centre)
        gauss = np.exp(-a * np.abs(xi) ** 2) * rule.weights
        for j in range(2 * ell_max + 1):
            for k in range(2 * ell_max + 1 - j):
                got = np.sum(gauss * xi**j * np.conj(xi) ** k)
                want = math.factorial(j) * math.pi / a ** (j + 1) if j == k else 0.0
                n = j + k
                scale = math.pi * math.gamma(n / 2 + 1) / a ** (n / 2 + 1)
                assert abs(got - want) <= 1e-12 * scale, (j, k)

    def test_node_counts(self):
        rule = GaussPolarRule(1.0, (0.0, 0.0), 20)
        assert (rule.n_r, rule.n_phi) == (11, 41)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GaussPolarRule(0.0, (0.0, 0.0), 2)
        with pytest.raises(ValueError):
            GaussPolarRule(1.0, (0.0, 0.0), -1)


class TestIntegratePolar:
    def test_gaussian_integral(self):
        grid = PolarGrid(r_max=6.0)
        val = integrate_polar(lambda r, phi: np.exp(-2.0 * r**2), grid)
        assert val.real == pytest.approx(np.pi / 2.0, abs=1e-6)
        assert abs(val.imag) < 1e-12

    def test_azimuthal_orthogonality(self):
        grid = PolarGrid(r_max=6.0)
        val = integrate_polar(lambda r, phi: np.exp(1j * phi) * np.exp(-(r**2)), grid)
        assert abs(val) < 1e-10

    def test_constant_gives_disc_area(self):
        grid = PolarGrid(r_max=2.0)
        val = integrate_polar(lambda r, phi: np.ones_like(r), grid)
        assert val.real == pytest.approx(4.0 * np.pi, rel=1e-10)

    def test_accepts_sample_array(self):
        grid = PolarGrid(r_max=2.0, n_r=32, n_phi=16)
        r, _ = polar_mesh(grid)
        val = integrate_polar(np.ones_like(r), grid)
        assert val.real == pytest.approx(4.0 * np.pi, rel=1e-10)

    def test_rejects_non_finite(self):
        grid = PolarGrid(r_max=1.0, n_r=8, n_phi=8)
        samples = np.ones(grid.weights.shape)
        samples[0, 0] = np.nan
        with pytest.raises(ValueError):
            integrate_polar(samples, grid)


class TestHermitianEigen:
    def test_diagonal_input(self):
        w, v = hermitian_eigen(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_two_by_two_characteristic_roots(self):
        # characteristic polynomial of [[0,1],[1,0]] is x^2 - 1
        w, _ = hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [1.0, -1.0], atol=1e-12)

    def test_random_hermitian_properties(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = a + a.conj().T
            w, v = hermitian_eigen(m)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10
            recon = (v * w) @ v.conj().T
            assert np.max(np.abs(recon - m)) < 1e-9 * np.linalg.norm(m)
            assert np.sum(w) == pytest.approx(np.trace(m).real, abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_projector_is_fixed_point(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        proj = np.outer(psi, psi.conj())
        assert np.max(np.abs(psd_sqrt(proj) - proj)) < 1e-12

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_reconstruction(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = a @ a.conj().T
        s = psd_sqrt(m)
        assert np.max(np.abs(s @ s - m)) < 1e-8 * np.linalg.norm(m)

    def test_rejects_negative_matrix(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.1]))

    def test_round_off_negative_eigenvalue_is_clamped(self):
        # -1e-8 lies inside the [-fail_tol, 0) round-off band, so its root is 0
        root = psd_sqrt(np.diag([4.0, -1e-8]))
        assert np.all(np.isfinite(root))
        assert np.array_equal(root, np.diag([2.0, 0.0]))


class TestSuBasis:
    def test_d2_is_pauli(self):
        basis = su_basis(2)
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ]
        assert len(basis) == 4
        for got, want in zip(basis, paulis):
            assert np.allclose(got, want)

    def test_d3_generator_count_and_tracelessness(self):
        basis = su_basis(3)
        assert len(basis) == 9
        for m in basis[1:]:
            assert abs(np.trace(m)) < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_trace_orthogonality(self, d):
        basis = su_basis(d)
        for m_idx in range(1, len(basis)):
            for n_idx in range(m_idx, len(basis)):
                val = np.trace(basis[m_idx] @ basis[n_idx])
                want = 2.0 if m_idx == n_idx else 0.0
                assert abs(val - want) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_spans_hermitian_matrices(self, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a + a.conj().T
        basis = su_basis(d)
        norms = [d] + [2.0] * (d * d - 1)
        coeffs = [np.trace(m @ t) / n for t, n in zip(basis, norms)]
        recon = sum(c * t for c, t in zip(coeffs, basis))
        assert np.max(np.abs(recon - m)) < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            su_basis(1)
        with pytest.raises(ValueError):
            su_basis(9)
