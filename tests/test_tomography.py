import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings
from hypothesis import strategies as st

from oamsim.cli import main
from oamsim.config import build_config, validate
from oamsim.experiments import arm_projectors, run_tomography_experiment, tomography_settings
from oamsim.spdc import DetectorConfig
from oamsim.tomography import (
    BELL_VIOLATION_THRESHOLDS,
    DensityMatrix,
    ReconstructionReport,
    born_probabilities,
    concurrence,
    fidelity,
    linear_entropy,
    load_density_matrix,
    reconstruct,
    save_density_matrix,
    threshold_fidelity,
)
from oracles import (
    bell_inequality_value,
    cross_entangled_ket,
    isotropic_state,
    max_entangled_ket,
    su_compose,
    su_expand,
    su_purity,
    tomography_probabilities,
)

QUIET_DET = DetectorConfig(singles_1=0.0, singles_2=0.0, efficiency=1.0, integration_time=1.0)
NOISY_DET = DetectorConfig(singles_1=2e4, singles_2=2e4, gate_time=12.5e-9,
                           efficiency=1.0, integration_time=1.0)

# Two-decimal reconstruction of a near-Bell two-qubit state, kept as a
# regression input for the metric functions.
ROUNDED_RECONSTRUCTION = (np.array([
    [0.011, -0.001, 0.000, -0.002],
    [-0.001, 0.480, 0.480, 0.036],
    [0.000, 0.480, 0.490, 0.036],
    [-0.002, 0.036, 0.036, 0.012],
]) + 1j * np.array([
    [0.000, 0.043, 0.048, 0.003],
    [-0.043, 0.000, -0.039, 0.042],
    [-0.048, 0.039, 0.000, 0.048],
    [-0.003, -0.042, -0.048, 0.000],
]))


def bell_density(d=2):
    return DensityMatrix.from_ket(d, cross_entangled_ket(d))


def werner(p):
    return isotropic_state(2, p)


def ideal_rates(rho, settings, flux):
    """Noiseless counts: the ideal rate of every setting of a tomography run."""
    return run_tomography_experiment(rho, settings, QUIET_DET, seed=0, flux=flux).ideal


class TestDensityMatrix:
    def test_accepts_physical_matrix(self):
        dm = DensityMatrix.from_matrix(2, np.eye(4) / 4.0)
        assert dm.dim == 4
        assert linear_entropy(dm) == pytest.approx(1.0)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(2, np.eye(4) / 3.0)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(2, m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(2, m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(2, np.eye(3) / 3.0)


class TestPredictedCounts:
    def test_bell_state_values(self):
        settings = tomography_settings(2, [1, -1])
        rho = bell_density()
        rates = ideal_rates(rho, settings, 1.0)
        # settings 0..3 are the pure-pure combinations in row-major order
        assert rates[0] == pytest.approx(0.0, abs=1e-12)
        assert rates[1] == pytest.approx(0.5, rel=1e-12)

    def test_maximally_mixed_isotropy(self):
        settings = tomography_settings(2, [1, -1])
        mixed = DensityMatrix.from_matrix(2, np.eye(4) / 4.0)
        assert all(abs(v - 0.25) < 1e-12 for v in ideal_rates(mixed, settings, 1.0))

    def test_zero_flux(self):
        settings = tomography_settings(2, [1, -1])
        assert ideal_rates(bell_density(), settings, 0.0)[5] == 0.0

    @pytest.mark.parametrize("d, ells", [(2, [1, -1]), (3, [-1, 0, 1]), (4, [-2, -1, 1, 2]),
                                         (5, [2, 1, 0, -1, -2])])
    @pytest.mark.parametrize("p", [0.0, 0.37, 0.9])
    def test_born_probabilities_match_per_setting_kron(self, d, ells, p):
        # the isotropic state, and its mixture with a random complex state, for which rho^T != rho
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        noise = a @ a.conj().T / np.trace(a @ a.conj().T).real
        arm_kets, _ = arm_projectors(d, ells)
        for rho in (isotropic_state(d, p), p * isotropic_state(d, 1.0) + (1.0 - p) * noise):
            got = born_probabilities(tomography_settings(d, ells), rho)
            assert np.max(np.abs(got - tomography_probabilities(arm_kets, rho))) < 1e-12

    def test_dimension_mismatch(self):
        settings = tomography_settings(3, [-1, 0, 1])
        with pytest.raises(ValueError):
            ideal_rates(bell_density(), settings, 1.0)


class TestReconstruct:
    def test_noiseless_round_trip(self):
        settings = tomography_settings(2, [1, -1])
        rho_true = bell_density()
        # noiseless: replace sampled counts by exact means
        counts = ideal_rates(rho_true, settings, 1e4)
        assert counts.shape == (36,)
        report = reconstruct(counts, settings, d=2)
        assert isinstance(report, ReconstructionReport)
        assert report.converged
        assert fidelity(report.rho, rho_true) > 1.0 - 1e-6
        assert report.chi_squared < 1e-10 * len(settings)
        assert report.flux == pytest.approx(1e4, rel=1e-6)

    def test_noisy_round_trip(self):
        settings = tomography_settings(2, [1, -1])
        rho_true = bell_density()
        scan = run_tomography_experiment(rho_true, settings, NOISY_DET, seed=3, flux=1e4)
        report = reconstruct(scan.counts, settings, d=2)
        assert fidelity(report.rho, rho_true) > 0.99
        assert linear_entropy(report.rho) < 0.02

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=36, max_size=36))
    def test_output_always_physical(self, counts):
        report = reconstruct(np.array(counts), tomography_settings(2, [1, -1]), d=2)
        matrix = report.rho.matrix
        assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12
        assert np.trace(matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(matrix)[0] >= -1e-10
        assert report.flux >= 0.0
        assert report.chi_squared >= 0.0

    def test_all_zero_counts_give_maximally_mixed_state(self):
        report = reconstruct(np.zeros(36), tomography_settings(2, [1, -1]), d=2)
        assert np.max(np.abs(report.rho.matrix - np.eye(4) / 4.0)) < 1e-15
        assert report.flux == 0.0
        assert report.chi_squared == 0.0
        assert report.converged

    def test_rejects_incomplete_settings(self):
        settings = tomography_settings(2, [1, -1])[:10]
        with pytest.raises(ValueError):
            reconstruct(np.ones(10), settings, d=2)

    @pytest.mark.parametrize("shape", [(35,), (37,), (6, 6), (36, 1), ()])
    def test_rejects_counts_not_one_per_setting(self, shape):
        settings = tomography_settings(2, [1, -1])
        with pytest.raises(ValueError, match="one count per setting"):
            reconstruct(np.ones(shape), settings, d=2)

    @pytest.mark.parametrize("count", [0.0, 1e12])
    def test_rank_check_is_relative_to_the_count_scale(self, count):
        # the first half of the list pairs three arm-A projectors with all six
        # of arm B, so it spans at most 3 x 4 of the 16 operator dimensions
        settings = tomography_settings(2, [1, -1])
        half = settings[:len(settings) // 2]
        with pytest.raises(ValueError, match="not informationally complete"):
            reconstruct(np.full(len(half), count), half, d=2)
        report = reconstruct(np.full(len(settings), count), settings, d=2)
        assert report.flux >= 0.0

    def test_rejects_negative_counts(self):
        settings = tomography_settings(2, [1, -1])
        with pytest.raises(ValueError):
            reconstruct(np.full(36, -1.0), settings, d=2)

    @pytest.mark.parametrize("d", [3, 4])
    def test_qutrit_round_trip(self, d):
        settings = tomography_settings(d, {3: [-1, 0, 1], 4: [-2, -1, 1, 2]}[d])
        rho_true = bell_density(d)
        counts = ideal_rates(rho_true, settings, 1e4)
        report = reconstruct(counts, settings, d=d)
        assert fidelity(report.rho, rho_true) > 1.0 - 1e-6

    # chi^2 that the Cholesky-factor least-squares solver (five restarts)
    # reached on seeded `oamsim tomo` runs; the convex solver must not do worse
    @pytest.mark.parametrize("overrides, chi2", [
        pytest.param(["seed=1"], 26.618607399831838, id="d2-seed1"),
        pytest.param(["seed=2"], 22.667346678696248, id="d2-seed2"),
        pytest.param(["seed=3"], 17.642626059456536, id="d2-seed3"),
        pytest.param(["seed=7"], 18.18489247209426, id="d2-seed7"),
        pytest.param(["seed=2024"], 24.11701771817748, id="d2-seed2024"),
        pytest.param(["seed=2024", "tomo.d=3", "tomo.ell_values=2,-2,0"], 171.71808010421083,
                     id="d3-seed2024"),
    ])
    def test_chi_squared_no_worse_than_cholesky_solver(self, tmp_path, overrides, chi2):
        args = [arg for item in overrides for arg in ("--set", item)]
        assert main(["tomo", *args, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tomo_summary.csv").read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert row["converged"] == "true"
        assert float(row["chi_squared"]) <= chi2 * (1.0 + 1e-6)


class TestFidelity:
    def test_self_fidelity(self):
        rho = werner(0.7)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = np.zeros((4, 4)); a[0, 0] = 1.0
        b = np.zeros((4, 4)); b[3, 3] = 1.0
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        rho = werner(0.6)
        sigma = werner(0.2)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        rho = werner(0.5)
        sigma = werner(0.9)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(a)
        f1 = fidelity(rho, sigma)
        f2 = fidelity(q @ rho @ q.conj().T, q @ sigma @ q.conj().T)
        assert f1 == pytest.approx(f2, abs=1e-10)

    def test_pure_target_reduction(self):
        rho = werner(0.37)
        ket = max_entangled_ket(2)
        target = np.outer(ket, ket.conj())
        direct = float(np.real(ket.conj() @ rho @ ket))
        assert fidelity(target, rho) == pytest.approx(direct, abs=1e-10)

    def test_rounded_reconstruction_against_pair_target(self):
        # slightly non-physical input (two-decimal rounding): root the pure
        # target, which is the well-conditioned order of the symmetric form
        rho = ROUNDED_RECONSTRUCTION / np.trace(ROUNDED_RECONSTRUCTION).real
        target = np.outer(cross_entangled_ket(2), cross_entangled_ket(2).conj())
        assert fidelity(target, rho) == pytest.approx(0.97, abs=0.02)


class TestLinearEntropy:
    def test_pure_state_zero(self):
        assert linear_entropy(bell_density()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_one(self):
        assert linear_entropy(np.eye(4) / 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_werner_closed_form(self):
        # Tr rho^2 = p^2 + (1 - p^2) / 4 for the isotropic qubit pair
        for p in (0.0, 0.3, 0.8, 1.0):
            want = 4.0 / 3.0 * (1.0 - (p * p + (1.0 - p * p) / 4.0))
            assert linear_entropy(werner(p)) == pytest.approx(want, abs=1e-12)

    def test_zero_entropy_implies_rank_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            ket = rng.normal(size=4) + 1j * rng.normal(size=4)
            ket /= np.linalg.norm(ket)
            rho = np.outer(ket, ket.conj())
            if linear_entropy(rho) < 1e-10:
                eigs = np.linalg.eigvalsh(rho)
                assert eigs[-1] == pytest.approx(1.0, abs=1e-8)

    def test_rounded_reconstruction_value(self):
        # pinned value of the regression input after trace normalization
        rho = ROUNDED_RECONSTRUCTION / np.trace(ROUNDED_RECONSTRUCTION).real
        assert linear_entropy(rho) == pytest.approx(0.0403, abs=5e-4)


class TestConcurrence:
    def test_bell_state_maximal(self):
        assert concurrence(bell_density()) == pytest.approx(1.0, abs=1e-10)

    def test_product_state_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
    def test_werner_closed_form(self, p):
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(werner(p)) == pytest.approx(want, abs=1e-10)

    def test_rejects_non_qubit_dimension(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(9) / 9.0)


class TestSuExpand:
    """The Bloch (generalized Gell-Mann) form of the oracle, and linear_entropy against it."""

    def test_maximally_mixed_has_only_identity_term(self):
        coeffs = su_expand(np.eye(4) / 4.0, d=2)
        assert coeffs[0, 0] == pytest.approx(0.25)
        coeffs[0, 0] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-14

    def test_coefficients_real_for_hermitian_input(self):
        coeffs = su_expand(werner(0.63), d=2)
        assert np.max(np.abs(coeffs.imag)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_round_trip(self, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        coeffs = su_expand(rho, d=d)
        recon = su_compose(coeffs, d)
        assert np.max(np.abs(recon - rho)) < 1e-10
        assert coeffs[0, 0] == pytest.approx(1.0 / d**2, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_linear_entropy_matches_bloch_purity(self, d):
        rng = np.random.default_rng(10 + d)
        a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        dim = d * d
        want = dim / (dim - 1.0) * (1.0 - su_purity(su_expand(rho, d=d), d))
        assert linear_entropy(rho) == pytest.approx(want, abs=1e-12)


class TestThresholdState:
    """threshold_fidelity against the fidelity of the isotropic state itself."""

    def test_pure_limit(self):
        assert threshold_fidelity(1.0, 3) == 1.0

    def test_mixed_limit(self):
        assert threshold_fidelity(0.0, 2) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_fidelity_closed_form(self, d, p):
        ket = max_entangled_ket(d)
        target = np.outer(ket, ket.conj())
        assert fidelity(isotropic_state(d, p), target) == pytest.approx(threshold_fidelity(p, d), abs=1e-10)

    def test_rejects_bad_fraction(self):
        problems = validate(build_config(overrides={"tomo.threshold_p": "1.5"}))
        assert any(p.startswith("tomo.threshold_p") for p in problems)


class TestBellThresholds:
    def test_qubit_threshold_is_inverse_sqrt_two(self):
        assert BELL_VIOLATION_THRESHOLDS[2] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_frozen_values_match_oracle(self, d):
        assert BELL_VIOLATION_THRESHOLDS[d] == pytest.approx(2.0 / bell_inequality_value(d), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_isotropic_value_scales_linearly(self, d):
        # mixing with white noise scales the Bell value by p, so the
        # threshold state sits exactly at the classical bound
        p = BELL_VIOLATION_THRESHOLDS[d]
        assert p * bell_inequality_value(d) == pytest.approx(2.0, abs=1e-9)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        dm = DensityMatrix.from_matrix(2, isotropic_state(2, 0.8))
        path = tmp_path / "state.csv"
        save_density_matrix(path, dm)
        loaded = load_density_matrix(path)
        assert loaded.d == 2
        assert np.max(np.abs(loaded.matrix - dm.matrix)) < 1e-15

    def test_rejects_tampered_trace(self, tmp_path):
        dm = DensityMatrix.from_matrix(2, isotropic_state(2, 0.5))
        path = tmp_path / "state.csv"
        save_density_matrix(path, dm)
        text = path.read_text().splitlines()
        # corrupt a diagonal entry well beyond the 1e-6 reader tolerance
        row = text[1].split(",")
        row[2] = repr(float(row[2]) + 0.01)
        text[1] = ",".join(row)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError):
            load_density_matrix(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text("0,0,1.0,0.0\n")
        with pytest.raises(ValueError):
            load_density_matrix(path)
