import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from oamsim import experiments
from oamsim.cli import main
from oamsim.experiments import (
    BellSettings,
    ScanResult,
    analyzer_kets,
    analyzer_rates,
    angular_scan,
    arm_projectors,
    bell_counts,
    bell_curve,
    bell_parameter,
    conditional_profile,
    conditional_variance,
    epr_reid,
    run_tomography_experiment,
    spectrum_fwhm,
    spiral_scan,
    spiral_spectrum,
)
from oamsim.spdc import CountModel, build_state, restricted_ket
from oamsim.tomography import _arm_design
from oracles import analyzer_ket, joint_design, tomography_probabilities
from oracles import bell_probability as bell_probability_oracle

# means equal the ideal rates; NOISY_DET adds the default 2e4 * 2e4 * 12.5e-9 = 5 accidentals per second
QUIET_DET = CountModel(efficiency_sq=1.0, accidental_rate=0.0, integration_s=1.0)
NOISY_DET = CountModel(efficiency_sq=1.0, accidental_rate=2e4 * 2e4 * 12.5e-9, integration_s=1.0)


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


def bell_probabilities(joint, ell, thetas_a, thetas_b):
    """The rate kernel at unit pair rate on the Bell rows: analyzers rotated to
    each of thetas_a in arm A and to each of thetas_b in arm B, on the state's
    normalized {|+ell>, |-ell>} block, shaped (len(thetas_a), len(thetas_b))."""
    rows_a, rows_b = (analyzer_kets(2 * ell * np.atleast_1d(thetas)) for thetas in (thetas_a, thetas_b))
    return analyzer_rates(restricted_ket(joint, [ell, -ell]).reshape(2, 2), rows_a, rows_b, 1.0)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestAnalyzerRates:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 6), n_b=st.integers(1, 6),
           k_a=st.integers(1, 5), k_b=st.integers(1, 5), pair_rate=st.floats(1e-3, 1e9))
    def test_matches_per_setting_kron(self, seed, n_a, n_b, k_a, k_b, pair_rate):
        # a rectangular J, so that a transposed or swapped product cannot pass
        rng = np.random.default_rng(seed)
        joint = random_complex(rng, n_a, n_b)
        rows_a, rows_b = random_complex(rng, k_a, n_a), random_complex(rng, k_b, n_b)
        got = analyzer_rates(joint, rows_a, rows_b, pair_rate)
        want = np.array([[pair_rate * abs(np.vdot(np.kron(a, b), joint.ravel())) ** 2
                          for b in rows_b] for a in rows_a])
        assert got.shape == (k_a, k_b)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())

    @pytest.mark.parametrize("gamma, offset", [(1e-300, 0.0), (0.1, 0.0), (2.0, 0.0), (1e6, 0.0),
                                               (1e-3, 10.0), (2.0, 0.1), (0.5, 3.0)])
    @pytest.mark.parametrize("ell_max", [0, 3, 20])
    def test_one_hot_rows_give_joint_probabilities_exactly(self, gamma, offset, ell_max):
        joint = build_state(gamma, ell_max, offset)
        rows = np.eye(len(joint))
        ia, ib = np.arange(len(joint)), np.arange(len(joint))[::2]
        want = 3e4 * np.abs(joint[np.ix_(ia, ib)]) ** 2
        assert np.array_equal(analyzer_rates(joint, rows[ia], rows[ib], 3e4), want)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_arm_kets_match_born_rule_on_pure_state(self, d):
        rng = np.random.default_rng(40 + d)
        ket = random_complex(rng, d * d)
        ket /= np.linalg.norm(ket)
        kets, _ = arm_projectors(d, range(d))
        got = analyzer_rates(ket.reshape(d, d), kets, kets, 1.0).ravel()
        want = tomography_probabilities(kets, np.outer(ket, ket.conj()))
        assert np.max(np.abs(got - want)) <= 1e-13 * want.max()

    def test_spiral_and_epr_reid_ell_scans_share_rates(self, tmp_path, monkeypatch):
        # at one window the (ell, 0) cells have one ideal rate in both runners; an
        # offset signal arm populates the cells ell != 0 as well
        rates = {}
        real = experiments.sample_counts

        def spy(ideal, model, seed):
            rates.setdefault(command, ideal)
            return real(ideal, model, seed)

        monkeypatch.setattr(experiments, "sample_counts", spy)
        for command, window in (("spiral", "source.ell_max"), ("epr-reid", "experiment.epr_ell_max")):
            assert main([command, "--set", f"{window}=5", "--set", "source.signal_offset_waists=0.3",
                         "--out", str(tmp_path / command)]) == 0
        assert rates["epr-reid"].shape == (11, 1)
        assert np.count_nonzero(rates["epr-reid"]) == 11
        assert np.array_equal(rates["spiral"][:, [5]], rates["epr-reid"])


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
        xs, ps, model = conditional_profile(scan)
        assert ps.sum() == pytest.approx(1.0, abs=1e-12)
        assert model.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(model, scan.ideal[:, 0] / scan.ideal[:, 0].sum())
        assert len(xs) == 32

    def test_profile_without_counts_is_nan(self):
        scan = conditional_scan([-1.0, 0.0, 1.0], [0, 0, 0], ideal=[1.0, 2.0, 1.0])
        xs, ps, model = conditional_profile(scan)
        assert np.all(np.isnan(ps))
        assert np.array_equal(model, [0.25, 0.5, 0.25])


def conditional_scan(xs, counts, accidental=0.0, ideal=None):
    """A one-column scan over xs, conditioned on the other arm at 0."""
    counts = np.asarray(counts)[:, None]
    ideal = counts.astype(float) if ideal is None else np.asarray(ideal, dtype=float)[:, None]
    return ScanResult(("x", "y"), (np.asarray(xs, dtype=float), np.array([0.0])), ideal, counts,
                      accidental)


class TestEprReid:
    def test_reported_width_product(self):
        # variances 200 / 1000 = 0.2 and 0.04 * 500 / 1000 = 0.02
        ell = conditional_scan([-1.0, 0.0, 1.0], [100, 800, 100])
        phi = conditional_scan([-0.2, 0.0, 0.2], [250, 500, 250])
        result = epr_reid(ell, phi)
        assert result.delta_ell_sq == pytest.approx(0.2, rel=1e-15)
        assert result.delta_phi_sq == pytest.approx(0.02, rel=1e-15)
        assert result.product == result.delta_ell_sq * result.delta_phi_sq
        # sigma^2 = sum(((x - mean)^2 - variance)^2 count) / N^2
        sigma_ell = math.sqrt((0.8**2 * 200 + 0.2**2 * 800)) / 1000
        sigma_phi = math.sqrt((0.02**2 * 500 + 0.02**2 * 500)) / 1000
        assert result.sigma_ell_sq == pytest.approx(sigma_ell, rel=1e-12)
        assert result.sigma_phi_sq == pytest.approx(sigma_phi, rel=1e-12)
        assert result.sigma_product == pytest.approx(math.hypot(0.02 * sigma_ell, 0.2 * sigma_phi),
                                                     rel=1e-12)
        assert result.n_sigma_below_quarter == (0.25 - result.product) / result.sigma_product
        # the counts are their own ideal rates here
        assert (result.model_ell_sq, result.model_phi_sq) == (result.delta_ell_sq, result.delta_phi_sq)
        assert result.violated

    def test_broad_profiles_do_not_violate(self):
        xs = np.linspace(-6.0, 6.0, 61)
        ell = conditional_scan(xs, np.round(1e4 * np.exp(-(xs**2) / 2.0)).astype(int))
        phi = conditional_scan(xs, np.round(1e4 * np.exp(-(xs**2) / (2 * 0.5))).astype(int))
        result = epr_reid(ell, phi)
        assert result.product == pytest.approx(0.5, rel=1e-3)
        assert result.n_sigma_below_quarter < 0
        assert not result.violated

    def test_accidentals_are_subtracted_unclipped(self):
        # 5 accidentals per bin: the wings hold less than the accidental level,
        # so they weigh negatively and the variance falls below zero
        scan = conditional_scan([-2.0, 0.0, 2.0], [3, 25, 3], accidental=5.0, ideal=[0.0, 1.0, 0.0])
        value, sigma, model = conditional_variance(scan)
        assert value == pytest.approx(-16.0 / 16.0, rel=1e-15)
        assert sigma == pytest.approx(math.sqrt(2 * (4.0 + 1.0) ** 2 * 3 + 1.0**2 * 25) / 16.0, rel=1e-15)
        assert model == 0.0

    @pytest.mark.parametrize("counts", [[0, 0, 0], [1, 0, 1]])
    def test_no_signal_gives_nan(self, counts):
        # no counts above the accidental level: N = sum(count - accidental) <= 0
        empty = conditional_scan([-1.0, 0.0, 1.0], counts, accidental=1.0, ideal=[1.0, 2.0, 1.0])
        value, sigma, model = conditional_variance(empty)
        assert math.isnan(value) and math.isnan(sigma) and model == 0.5
        result = epr_reid(empty, conditional_scan([-1.0, 0.0, 1.0], [1, 2, 1]))
        assert math.isnan(result.product) and math.isnan(result.n_sigma_below_quarter)
        assert not result.violated

    def test_sigma_matches_poisson_spread(self):
        # the first-order sigma is the spread of the estimate over Poisson redraws
        xs = np.arange(-10.0, 11.0)
        means = 20.0 + 2e3 * np.exp(-(xs**2) / (2 * 4.0))
        rng = np.random.default_rng(5)
        draws = [conditional_variance(conditional_scan(xs, rng.poisson(means), accidental=20.0,
                                                       ideal=means - 20.0)) for _ in range(2000)]
        values, sigmas, models = np.array(draws).T
        assert np.std(values) == pytest.approx(np.median(sigmas), rel=0.06)
        # the ratio estimate is biased at second order, far below one sigma
        assert abs(np.mean(values) - models[0]) < 0.1 * np.median(sigmas)

    def test_simulated_pipeline_violates(self):
        state = geometric_state(10, ratio=0.99)
        ells = np.arange(-10, 11)
        spiral = spiral_scan(state, ells, np.array([0]), NOISY_DET, seed=11, pair_rate=1e4)
        betas = np.linspace(-math.pi, math.pi, 128, endpoint=False)
        angular = angular_scan(state, math.pi / 8, betas, np.array([0.0]), NOISY_DET,
                               seed=12, pair_rate=1e4)
        result = epr_reid(spiral, angular)
        assert result.violated
        assert result.product < 0.25
        assert result.model_ell_sq == 0.0
        for value, sigma, model in ((result.delta_ell_sq, result.sigma_ell_sq, result.model_ell_sq),
                                    (result.delta_phi_sq, result.sigma_phi_sq, result.model_phi_sq)):
            assert abs(value - model) < 3 * sigma


class TestBell:
    def test_probability_law(self):
        state = bell_pair_state(ell=2)
        ta, tb = np.array([0.0, 0.1, 0.3]), np.array([0.0, 0.45, -0.2])
        got = np.diagonal(bell_probabilities(state, 2, ta, tb))
        assert got == pytest.approx(0.5 * np.cos(2 * (ta - tb)) ** 2, abs=1e-12)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_matches_per_orientation_oracle(self, ell):
        # unequal, complex pair amplitudes, so both terms of the amplitude count
        ells = np.arange(-4, 5)
        amps = 0.8 ** np.abs(ells) * np.exp(0.7j * ells)
        state = pair_state(amps / np.linalg.norm(amps))
        thetas = np.linspace(-math.pi, math.pi, 37)
        got = bell_probabilities(state, ell, thetas, thetas)
        want = [[bell_probability_oracle(state, ell, ta, tb) for tb in thetas] for ta in thetas]
        assert np.max(np.abs(got - np.array(want))) < 1e-14

    def test_curve_zeros_and_visibility(self):
        state = bell_pair_state(ell=1)
        assert bell_probabilities(state, 1, 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert bell_probabilities(state, 1, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)

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

    def test_zero_counts_give_nan(self):
        counts = np.ones((4, 4))
        counts[2] = 0.0
        s_value, sigma = bell_parameter(counts, BellSettings.canonical(1))
        assert math.isnan(s_value) and math.isnan(sigma)

    def test_analyzer_rotation_phase_convention(self):
        # rotating analyzer A by theta advances its relative phase by 2 ell theta,
        # so a pair phase of 1.5 at ell = 3 moves the fringe peak to theta_a = 0.25
        amps = np.zeros(7, dtype=complex)
        amps[6], amps[0] = 1.0 / math.sqrt(2.0), np.exp(1.5j) / math.sqrt(2.0)
        state = pair_state(amps)
        assert bell_probabilities(state, 3, 0.25, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert bell_probabilities(state, 3, 0.25 + math.pi / 6, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert analyzer_kets(1.5) == pytest.approx(np.array([1.0, np.exp(1.5j)]) / math.sqrt(2.0))


class TestTomographySettings:
    def test_qubit_counts(self):
        kets, labels = arm_projectors(2, [1, -1])
        assert kets.shape == (6, 2)
        assert labels == ["l+1", "l-1", "(l+1 + e^{i 0} l-1)", "(l+1 + e^{i pi/2} l-1)",
                          "(l+1 + e^{i pi} l-1)", "(l+1 + e^{i 3pi/2} l-1)"]

    def test_qutrit_counts(self):
        kets, labels = arm_projectors(3, [-1, 0, 1])
        assert kets.shape == (15, 3)
        assert len(labels) == 15

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_arm_shapes_and_rank(self, d):
        # m = 2d^2 - d unit kets whose projectors span the d^2 arm operators
        kets, labels = arm_projectors(d, list(range(d)))
        m = 2 * d * d - d
        assert kets.shape == (m, d) and len(labels) == m
        assert np.allclose(np.linalg.norm(kets, axis=1), 1.0)
        design = _arm_design(kets)
        assert design.shape == (m, d * d) and np.linalg.matrix_rank(design) == d * d

    @pytest.mark.parametrize("d", [2, 3])
    def test_informationally_complete(self, d):
        # the m^2 product settings, each by explicit kron, span the d^4 joint operators
        ells = list(range(-(d // 2), d - d // 2))
        kets, _ = arm_projectors(d, ells)
        design = joint_design(kets)
        assert np.linalg.matrix_rank(design, tol=1e-10) == d**4

    def test_equator_phase_set_matches_rotated_analyzers(self):
        # the four superposition phases correspond to analyzer rotations
        # 0, pi/4, pi/2, 3pi/4 for |ell| = 1 under the 2*ell*theta convention
        kets, _ = arm_projectors(2, [1, -1])
        rotations = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        for ket, rot in zip(kets[2:], rotations):
            assert np.allclose(ket, analyzer_ket(1, rot))

    def test_rejects_duplicates_and_bad_dimension(self):
        with pytest.raises(ValueError, match="distinct"):
            arm_projectors(2, [1, 1])
        with pytest.raises(ValueError, match="exactly d entries"):
            arm_projectors(3, [1, -1])


class TestRunTomographyExperiment:
    def setup_method(self):
        self.psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        self.kets, _ = arm_projectors(2, [1, -1])

    def test_one_axis_of_setting_positions(self):
        scan = run_tomography_experiment(self.psi, self.kets, NOISY_DET, seed=5, pair_rate=1e4)
        assert scan.axis_names == ("setting",)
        assert np.array_equal(scan.axis_values[0], np.arange(36))
        assert len(scan) == 36
        assert scan.counts.shape == scan.ideal.shape == (36,)
        assert scan.accidental == pytest.approx(2e4 * 2e4 * 12.5e-9)

    def test_orthogonal_setting_sees_only_accidentals(self):
        # (|l>, |l>) projects onto |00>, orthogonal to the pair state
        scan = run_tomography_experiment(self.psi, self.kets, QUIET_DET, seed=5, pair_rate=1e4)
        assert scan.ideal[0] == pytest.approx(0.0, abs=1e-12)
        assert scan.counts[0] == 0

    def test_matched_setting_rate(self):
        scan = run_tomography_experiment(self.psi, self.kets, QUIET_DET, seed=5, pair_rate=1e4)
        # setting index 1 is (|l>, |-l>)
        assert scan.ideal[1] == pytest.approx(5e3, rel=1e-12)

    def test_seed_reproducibility(self):
        a = run_tomography_experiment(self.psi, self.kets, NOISY_DET, seed=9, pair_rate=1e4)
        b = run_tomography_experiment(self.psi, self.kets, NOISY_DET, seed=9, pair_rate=1e4)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.ideal, b.ideal)
