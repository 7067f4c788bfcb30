import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from oamsim.experiments import (
    BellSettings,
    FitError,
    GaussianFit,
    ScanResult,
    analyzer_kets,
    angular_scan,
    arm_projectors,
    bell_counts,
    bell_curve,
    bell_parameter,
    bell_probability,
    conditional_profile,
    epr_reid,
    fit_gaussian,
    run_tomography_experiment,
    spectrum_fwhm,
    spiral_scan,
    spiral_spectrum,
    tomography_settings,
)
from oamsim.spdc import DetectorConfig
from oracles import analyzer_ket
from oracles import bell_probability as bell_probability_oracle

QUIET_DET = DetectorConfig(singles_1=0.0, singles_2=0.0, efficiency=1.0, integration_time=1.0)
NOISY_DET = DetectorConfig(singles_1=2e4, singles_2=2e4, gate_time=12.5e-9,
                           efficiency=1.0, integration_time=1.0)


def pair_state(amps):
    """The joint matrix of the state sum_i amps[i] |ells[i]>|-ells[i]>."""
    return np.fliplr(np.diag(amps)).astype(complex)


def geometric_state(ell_max, ratio=0.9):
    amps = ratio ** np.abs(np.arange(-ell_max, ell_max + 1))
    return pair_state(amps / np.linalg.norm(amps))


def bell_pair_state(ell=1):
    amps = np.zeros(2 * ell + 1, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return pair_state(amps)


class TestFitGaussian:
    def test_exact_recovery(self):
        x = np.linspace(-5, 5, 41)
        y = 3.0 * np.exp(-((x - 0.7) ** 2) / (2 * 1.3))
        fit = fit_gaussian(x, y)
        assert fit.amplitude == pytest.approx(3.0, abs=1e-6)
        assert fit.mean == pytest.approx(0.7, abs=1e-6)
        assert fit.variance == pytest.approx(1.3, abs=1e-6)
        assert fit.residual_norm < 1e-9

    def test_symmetric_data_centers_at_zero(self):
        x = np.linspace(-4, 4, 33)
        y = np.exp(-(x**2))
        assert fit_gaussian(x, y).mean == pytest.approx(0.0, abs=1e-8)

    def test_poisson_noise_variance_recovery(self):
        x = np.arange(-10.0, 11.0)
        true_var = 4.0
        clean = 1e4 * np.exp(-(x**2) / (2 * true_var))
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            fit = fit_gaussian(x, rng.poisson(clean).astype(float))
            errors.append(abs(fit.variance - true_var) / true_var)
        assert max(errors) < 0.05

    def test_rejects_degenerate_data(self):
        with pytest.raises(FitError):
            fit_gaussian([0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(FitError):
            fit_gaussian([0, 1, 2], [1.0, 2.0, 1.0])

    def test_array_call_matches_scalar_call_bit_for_bit(self):
        # at x = -6, mean = 7.1e-10 the libm pow of (x - mean) ** 2 rounds apart from
        # the product, so the fit column of a profile must not depend on its evaluation form
        fit = GaussianFit(amplitude=1.0, mean=7.1e-10, variance=4.0, residual_norm=0.0)
        xs = np.concatenate([np.arange(-20.0, 21.0), np.linspace(-np.pi, np.pi, 64, endpoint=False)])
        assert -6.0 in xs
        values = fit(xs)
        assert all(values[i] == fit(x) for i, x in enumerate(xs))

    def test_fwhm_relation(self):
        fit = GaussianFit(amplitude=1.0, mean=0.0, variance=2.0, residual_norm=0.0)
        assert fit.fwhm == pytest.approx(math.sqrt(8.0 * math.log(2.0) * 2.0))


class TestSpiralScan:
    def test_aligned_scan_has_no_forbidden_rates(self):
        state = geometric_state(3)
        ells = np.arange(-3, 4)
        scan = spiral_scan(state, ells, ells, QUIET_DET, seed=0, pair_rate=1e4)
        ideal = scan.ideal
        anti = np.fliplr(np.eye(7, dtype=bool))
        assert np.max(ideal[~anti]) <= 1e-10 * ideal[anti].max()

    def test_symmetry_under_joint_sign_flip(self):
        state = geometric_state(3)
        ells = np.arange(-3, 4)
        ideal = spiral_scan(state, ells, ells, QUIET_DET, seed=0, pair_rate=1e4).ideal
        assert np.allclose(ideal, ideal[::-1, ::-1], rtol=1e-10)

    def test_spectrum_extraction_and_row_count(self):
        state = geometric_state(2)
        ells = np.arange(-2, 3)
        scan = spiral_scan(state, ells, ells, QUIET_DET, seed=1, pair_rate=1e4)
        s_ells, s_ideal, s_counts = spiral_spectrum(scan)
        assert np.array_equal(s_ells, ells)
        assert s_ideal[2] == s_ideal.max()
        columns = scan.columns()
        accidental = columns.pop("accidental")
        assert [len(c) for c in columns.values()] == [25] * 4
        assert np.ndim(accidental) == 0

    @pytest.mark.parametrize("ells_a, ells_b", [
        ([-2, -1, 0, 1, 2], [-2, -1, 0, 1]),  # not square
        ([-2, -1, 0, 1, 2], [2, 1, 0, -1, -2]),  # square, axis b reversed
        ([0, 1, 2], [0, 1, 2]),  # one-sided window
    ])
    def test_spectrum_rejects_non_symmetric_scan(self, ells_a, ells_b):
        scan = spiral_scan(geometric_state(2), ells_a, ells_b, QUIET_DET, seed=1, pair_rate=1e4)
        with pytest.raises(ValueError, match="ells"):
            spiral_spectrum(scan)

    def test_rejects_ells_outside_support(self):
        # without the check ell = -3 would wrap to a row of the window
        state = geometric_state(2)
        with pytest.raises(ValueError):
            spiral_scan(state, [-3, 0, 3], [0], QUIET_DET, seed=0, pair_rate=1e4)
        with pytest.raises(ValueError):
            spiral_scan(state, [0], [-3], QUIET_DET, seed=0, pair_rate=1e4)


class TestScanResultColumns:
    def test_axis_headers_come_from_axis_names(self):
        axes = (np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0]))
        ideal = np.arange(6.0).reshape(2, 3)
        scan = ScanResult(("u", "v"), axes, ideal, np.arange(6).reshape(2, 3), 0.5)
        columns = scan.columns()
        assert list(columns) == ["u", "v", "ideal_rate", "count", "accidental"]
        assert np.array_equal(columns["u"], [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        assert np.array_equal(columns["v"], [3.0, 4.0, 5.0, 3.0, 4.0, 5.0])
        assert np.array_equal(columns["ideal_rate"], np.arange(6.0))
        assert np.array_equal(columns["count"], np.arange(6))
        assert columns["accidental"] == 0.5


def geometric_counts(q, ell_max, amplitude, accidental):
    """Noiseless spiral counts A q^(2|ell|) + accidental over ell in [-ell_max, ell_max]."""
    ells = np.arange(-ell_max, ell_max + 1)
    return ells, amplitude * q ** (2.0 * np.abs(ells)) + accidental


class TestSpectrumFwhm:
    # q stays away from 0, where A q^2 + a rounds to a and no slope is left,
    # and from 1, where the slope 2 ln q drowns in the rounding of the logarithms
    @settings(max_examples=200, deadline=None)
    @given(q=st.floats(1e-3, 1.0 - 1e-5), ell_max=st.integers(1, 20),
           amplitude=st.floats(1.0, 1e9), accidental_share=st.floats(0.0, 1.0))
    def test_geometric_spectrum_gives_analytic_width(self, q, ell_max, amplitude, accidental_share):
        accidental = accidental_share * amplitude
        ells, counts = geometric_counts(q, ell_max, amplitude, accidental)
        width = spectrum_fwhm(ells, counts, accidental)
        assert width == pytest.approx(math.log(2.0) / math.log(1.0 / q), rel=1e-9)

    def test_window_limited_spectrum_uses_fit(self):
        # the half maximum lies far outside the window; the fit extrapolates to it
        x = np.arange(-10, 11)
        width = spectrum_fwhm(x, np.exp(-np.abs(x) / 200.0), 0.0)
        assert width == pytest.approx(400.0 * math.log(2.0), rel=1e-12)

    def test_monotone_in_decay_rate(self):
        x = np.arange(-10, 11)
        widths = [spectrum_fwhm(x, np.exp(-np.abs(x) * k), 0.0) for k in (0.5, 0.05, 0.005)]
        assert widths[0] < widths[1] < widths[2]

    @pytest.mark.parametrize("counts", [np.full(9, 50.0), 50.0 + np.abs(np.arange(-4, 5))],
                             ids=["flat", "rising"])
    def test_flat_or_rising_spectrum_is_infinitely_wide(self, counts):
        assert spectrum_fwhm(np.arange(-4, 5), counts, 5.0) == math.inf

    def test_only_centre_above_floor_has_no_width(self):
        counts = np.array([3.0, 2.0, 5.0, 900.0, 5.0, 1.0, 4.0])
        assert math.isnan(spectrum_fwhm(np.arange(-3, 4), counts, 5.0))

    def test_spike_beyond_first_floor_bin_is_ignored(self):
        ells, counts = geometric_counts(0.5, 8, 1e4, 3.0)
        counts[ells == 5] = 3.0  # the first floor bin, on the positive side only
        width = spectrum_fwhm(ells, counts, 3.0)
        for ell in (6, -6, -8):
            spiked = counts.copy()
            spiked[ells == ell] = 1e6
            assert spectrum_fwhm(ells, spiked, 3.0) == width
        assert width == pytest.approx(1.0, rel=1e-9)


class TestAngularScan:
    def test_peak_at_matching_orientations(self):
        state = geometric_state(6, ratio=0.95)
        betas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        scan = angular_scan(state, math.pi / 8, betas, np.array([0.0]), QUIET_DET, seed=0, pair_rate=1e4)
        ideal = scan.ideal[:, 0]
        assert betas[np.argmax(ideal)] == pytest.approx(0.0, abs=1e-12)

    def test_depends_only_on_orientation_difference(self):
        state = geometric_state(4, ratio=0.9)
        beta = np.array([0.3])
        r1 = angular_scan(state, math.pi / 6, beta + 0.5, np.array([0.5]), QUIET_DET, seed=0,
                          pair_rate=1e4).ideal
        r2 = angular_scan(state, math.pi / 6, beta + 1.7, np.array([1.7]), QUIET_DET, seed=0,
                          pair_rate=1e4).ideal
        assert r1[0, 0] == pytest.approx(r2[0, 0], rel=1e-10)

    def test_full_aperture_is_flat(self):
        state = geometric_state(3)
        betas = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        ideal = angular_scan(state, 2 * math.pi, betas, np.array([0.0]), QUIET_DET, seed=0,
                             pair_rate=1e4).ideal
        assert np.ptp(ideal) < 1e-12 * ideal.max()

    @pytest.mark.parametrize("width", [0.0, -1.0, 2.0 * math.pi + 1e-9])
    def test_rejects_bad_width(self, width):
        with pytest.raises(ValueError, match=r"sector width must lie in \(0, 2\*pi\]"):
            angular_scan(geometric_state(2), width, np.zeros(3), np.zeros(1), QUIET_DET,
                         seed=0, pair_rate=1e4)

    def test_conditional_profile_normalized(self):
        state = geometric_state(5, ratio=0.95)
        betas = np.linspace(-math.pi, math.pi, 32, endpoint=False)
        scan = angular_scan(state, math.pi / 8, betas, np.array([0.0]), NOISY_DET,
                            seed=3, pair_rate=1e4)
        xs, ps = conditional_profile(scan)
        assert ps.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(xs) == 32


class TestEprReid:
    def test_reported_width_product(self):
        # profiles built to have fitted variances 0.128 and 0.056
        ells = np.arange(-10.0, 11.0)
        p_ell = np.exp(-(ells**2) / (2 * 0.128))
        angles = np.linspace(-math.pi, math.pi, 101)
        p_phi = np.exp(-(angles**2) / (2 * 0.056))
        result = epr_reid((ells, p_ell / p_ell.sum()), (angles, p_phi / p_phi.sum()))
        assert result.product == pytest.approx(0.128 * 0.056, abs=1e-3)
        assert abs(result.product - 0.007) < 0.001
        assert result.violated

    def test_broad_profiles_do_not_violate(self):
        xs = np.linspace(-6.0, 6.0, 61)
        broad_ell = np.exp(-(xs**2) / (2 * 1.0))
        broad_phi = np.exp(-(xs**2) / (2 * 0.5))
        result = epr_reid((xs, broad_ell / broad_ell.sum()), (xs, broad_phi / broad_phi.sum()))
        assert result.product >= 0.25
        assert not result.violated

    def test_requires_normalized_profiles(self):
        xs = np.arange(-5.0, 6.0)
        ys = np.exp(-(xs**2))
        with pytest.raises(ValueError):
            epr_reid((xs, ys), (xs, ys / ys.sum()))

    def test_unfittable_profile_takes_discrete_variance(self):
        # a flat angular profile has no Gaussian to fit; its discrete variance stands in
        ells = np.arange(-10.0, 11.0)
        p_ell = np.exp(-(ells**2) / (2 * 0.128))
        angles = np.linspace(-math.pi, math.pi, 16, endpoint=False)
        flat = np.full(16, 1.0 / 16)
        result = epr_reid((ells, p_ell / p_ell.sum()), (angles, flat))
        assert result.angle_fit is None and result.ell_fit is not None
        assert result.delta_phi_sq == result.discrete_phi_var == pytest.approx(np.var(angles))
        assert result.delta_ell_sq == result.ell_fit.variance
        assert result.product == result.delta_ell_sq * result.delta_phi_sq

    def test_simulated_pipeline_violates(self):
        state = geometric_state(10, ratio=0.99)
        ells = np.arange(-10, 11)
        spiral = spiral_scan(state, ells, np.array([0]), NOISY_DET, seed=11, pair_rate=1e4)
        betas = np.linspace(-math.pi, math.pi, 128, endpoint=False)
        angular = angular_scan(state, math.pi / 8, betas, np.array([0.0]), NOISY_DET,
                               seed=12, pair_rate=1e4)
        ell_profile = conditional_profile(spiral)
        phi_profile = conditional_profile(angular)
        result = epr_reid(ell_profile, phi_profile)
        assert result.violated
        assert result.product < 0.25


class TestBell:
    def test_probability_law(self):
        state = bell_pair_state(ell=2)
        ta, tb = np.array([0.0, 0.1, 0.3]), np.array([0.0, 0.45, -0.2])
        got = bell_probability(state, 2, ta, tb)
        assert got == pytest.approx(0.5 * np.cos(2 * (ta - tb)) ** 2, abs=1e-12)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_matches_per_orientation_oracle(self, ell):
        # unequal, complex pair amplitudes, so both terms of the amplitude count
        ells = np.arange(-4, 5)
        amps = 0.8 ** np.abs(ells) * np.exp(0.7j * ells)
        state = pair_state(amps / np.linalg.norm(amps))
        thetas = np.linspace(-math.pi, math.pi, 37)
        got = bell_probability(state, ell, thetas[:, None], thetas[None, :])
        want = [[bell_probability_oracle(state, ell, ta, tb) for tb in thetas] for ta in thetas]
        assert np.max(np.abs(got - np.array(want))) < 1e-14

    def test_curve_zeros_and_visibility(self):
        state = bell_pair_state(ell=1)
        assert bell_probability(state, 1, 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert bell_probability(state, 1, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_noiseless_curve_fits_cos_squared(self):
        ell = 3
        state = bell_pair_state(ell=ell)
        thetas = np.linspace(0.0, math.pi, 64, endpoint=False)
        scan = bell_curve(state, ell, 0.0, thetas, QUIET_DET, seed=0, pair_rate=1.0)
        ideal = scan.ideal

        def model(p):
            amp, omega, phase = p
            return amp * np.cos(omega * (thetas - phase)) ** 2 - ideal

        # data-driven frequency seed: the cos^2 fringe sits at 2*omega
        spectrum = np.abs(np.fft.rfft(ideal - ideal.mean()))
        omega0 = np.argmax(spectrum) * 2.0 * np.pi / math.pi / 2.0
        fit = least_squares(model, [ideal.max(), omega0, 0.0], method="lm",
                            ftol=1e-15, xtol=1e-15)
        amp, omega, _ = fit.x
        assert np.linalg.norm(fit.fun) < 1e-9
        assert math.pi / abs(omega) == pytest.approx(math.pi / ell, abs=1e-6)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_ideal_bell_parameter(self, ell):
        state = bell_pair_state(ell=ell)
        settings = BellSettings.canonical(ell)
        _, rates = bell_counts(state, settings, QUIET_DET, seed=0, pair_rate=1e4)
        s_value, _ = bell_parameter(rates, settings)
        assert s_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    def test_scale_invariance(self):
        state = bell_pair_state(ell=2)
        settings = BellSettings.canonical(2)
        _, rates = bell_counts(state, settings, QUIET_DET, seed=0, pair_rate=1e4)
        s1, _ = bell_parameter(rates, settings)
        s2, _ = bell_parameter(7.3 * rates, settings)
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_noisy_violation_significance(self):
        state = bell_pair_state(ell=2)
        settings = BellSettings.canonical(2)
        wins = 0
        for seed in range(20):
            counts, _ = bell_counts(state, settings, NOISY_DET, seed=seed, pair_rate=1e4)
            s_value, sigma = bell_parameter(counts, settings)
            if s_value > 2.0 and (s_value - 2.0) / sigma > 20.0:
                wins += 1
        assert wins >= 19

    def test_classical_model_bounded_by_two(self):
        # local hidden orientation shared by both analyzers
        ell = 1
        settings = BellSettings.canonical(ell)
        hidden = np.linspace(0.0, math.pi, 720, endpoint=False)
        ta, tb = (theta[..., None] for theta in settings.orientations())
        counts = np.mean(np.cos(ell * (ta - hidden)) ** 2 * np.cos(ell * (tb - hidden)) ** 2, axis=-1)
        s_value, _ = bell_parameter(counts, settings)
        assert abs(s_value) <= 2.0 + 1e-9

    def test_zero_counts_rejected(self):
        settings = BellSettings.canonical(1)
        with pytest.raises(ValueError):
            bell_parameter(np.zeros((4, 4)), settings)

    def test_analyzer_rotation_phase_convention(self):
        # rotating analyzer A by theta advances its relative phase by 2 ell theta,
        # so a pair phase of 1.5 at ell = 3 moves the fringe peak to theta_a = 0.25
        amps = np.zeros(7, dtype=complex)
        amps[6], amps[0] = 1.0 / math.sqrt(2.0), np.exp(1.5j) / math.sqrt(2.0)
        state = pair_state(amps)
        assert bell_probability(state, 3, 0.25, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert bell_probability(state, 3, 0.25 + math.pi / 6, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert analyzer_kets(1.5) == pytest.approx(np.array([1.0, np.exp(1.5j)]) / math.sqrt(2.0))


class TestTomographySettings:
    def test_qubit_counts(self):
        assert tomography_settings(2, [1, -1]).shape == (36, 4)
        kets, labels = arm_projectors(2, [1, -1])
        assert kets.shape == (6, 2)
        assert labels == ["l+1", "l-1", "(l+1 + e^{i 0} l-1)", "(l+1 + e^{i pi/2} l-1)",
                          "(l+1 + e^{i pi} l-1)", "(l+1 + e^{i 3pi/2} l-1)"]

    def test_qutrit_counts(self):
        assert tomography_settings(3, [-1, 0, 1]).shape == (225, 9)
        kets, labels = arm_projectors(3, [-1, 0, 1])
        assert kets.shape == (15, 3)
        assert len(labels) == 15

    @pytest.mark.parametrize("d", [2, 3])
    def test_informationally_complete(self, d):
        ells = list(range(-(d // 2), d - d // 2))
        settings = tomography_settings(d, ells)
        vecs = [np.outer(ket, ket.conj()).reshape(-1) for ket in settings]
        rank = np.linalg.matrix_rank(np.array(vecs), tol=1e-10)
        assert rank == d**4

    def test_equator_phase_set_matches_rotated_analyzers(self):
        # the four superposition phases correspond to analyzer rotations
        # 0, pi/4, pi/2, 3pi/4 for |ell| = 1 under the 2*ell*theta convention
        kets, _ = arm_projectors(2, [1, -1])
        rotations = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        for ket, rot in zip(kets[2:], rotations):
            assert np.allclose(ket, analyzer_ket(1, rot))

    def test_rejects_duplicates_and_bad_dimension(self):
        with pytest.raises(ValueError):
            tomography_settings(2, [1, 1])
        with pytest.raises(ValueError):
            tomography_settings(6, [0, 1, 2, 3, 4, 5])


class TestRunTomographyExperiment:
    def setup_method(self):
        self.psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        self.rho = np.outer(self.psi, self.psi.conj())
        self.settings = tomography_settings(2, [1, -1])

    def test_one_axis_of_setting_positions(self):
        scan = run_tomography_experiment(self.rho, self.settings, NOISY_DET, seed=5, flux=1e4)
        assert scan.axis_names == ("setting",)
        assert np.array_equal(scan.axis_values[0], np.arange(36))
        assert len(scan) == 36
        assert scan.counts.shape == scan.ideal.shape == (36,)
        assert scan.accidental == pytest.approx(2e4 * 2e4 * 12.5e-9)

    def test_orthogonal_setting_sees_only_accidentals(self):
        # (|l>, |l>) projects onto |00>, orthogonal to the pair state
        scan = run_tomography_experiment(self.rho, self.settings, QUIET_DET, seed=5, flux=1e4)
        assert scan.ideal[0] == pytest.approx(0.0, abs=1e-12)
        assert scan.counts[0] == 0

    def test_matched_setting_rate(self):
        scan = run_tomography_experiment(self.rho, self.settings, QUIET_DET, seed=5, flux=1e4)
        # setting index 1 is (|l>, |-l>)
        assert scan.ideal[1] == pytest.approx(5e3, rel=1e-12)

    def test_seed_reproducibility(self):
        a = run_tomography_experiment(self.rho, self.settings, NOISY_DET, seed=9, flux=1e4)
        b = run_tomography_experiment(self.rho, self.settings, NOISY_DET, seed=9, flux=1e4)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.ideal, b.ideal)
