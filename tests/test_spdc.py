import math

import numpy as np
import pytest

from oamsim.spdc import (
    CrystalConfig,
    DetectorConfig,
    PumpSpec,
    TwoPhotonState,
    accidentals,
    build_state,
    sample_counts,
    sinc_ring_profile,
    transverse_mode_count,
)
from oracles import BeamGeometry, LGMode, PolarGrid, coincidence_amplitude, default_grid, offset_joint

PUMP = PumpSpec(waist=1.0)
GRID = default_grid(1.0, 0.5, n_r=192, n_phi=128)


def meas_mode(ell, offset=(0.0, 0.0)):
    return LGMode(ell=ell, geometry=BeamGeometry(waist=0.5), offset=offset)


class TestCoincidenceAmplitude:
    def test_oam_conservation(self):
        amp = coincidence_amplitude(meas_mode(1), meas_mode(-2), PUMP, GRID)
        assert abs(amp) < 1e-10

    def test_symmetric_under_sign_flip(self):
        a = coincidence_amplitude(meas_mode(3), meas_mode(-3), PUMP, GRID)
        b = coincidence_amplitude(meas_mode(-3), meas_mode(3), PUMP, GRID)
        assert abs(a) == pytest.approx(abs(b), rel=1e-10)

    def test_fundamental_pair_dominates_at_equal_waists(self):
        pump = PumpSpec(waist=1.0)
        grid = default_grid(1.0, n_r=192, n_phi=128)
        geo = BeamGeometry(waist=1.0)
        amps = [
            abs(coincidence_amplitude(LGMode(ell=l, geometry=geo), LGMode(ell=-l, geometry=geo), pump, grid))
            for l in range(0, 4)
        ]
        assert amps[0] == max(amps)
        # adjacent ratio at gamma = 1 is sqrt(8)/3 by the closed-form recurrence
        assert amps[1] / amps[0] == pytest.approx(math.sqrt(8.0) / 3.0, abs=1e-6)

    def test_conservation_with_pump_oam(self):
        # structured pump with ell = 2: only ell_s + ell_i = 2 survives
        pump = LGMode(ell=2, geometry=BeamGeometry(waist=1.0))
        allowed = coincidence_amplitude(meas_mode(3), meas_mode(-1), pump, GRID)
        forbidden = coincidence_amplitude(meas_mode(3), meas_mode(-3), pump, GRID)
        assert abs(allowed) > 1e-3
        assert abs(forbidden) < 1e-10


class TestBuildState:
    def test_symmetric_spectrum_and_unit_norm(self):
        state = build_state(PUMP, gamma=2.0, ell_max=4)
        probs = np.abs(state.amplitudes) ** 2
        assert np.sum(probs) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(probs, probs[::-1], rtol=1e-8)

    def test_spectrum_monotone_in_abs_ell(self):
        state = build_state(PUMP, gamma=2.0, ell_max=5)
        probs = np.abs(state.amplitudes) ** 2
        center = len(probs) // 2
        upper = probs[center:]
        assert np.all(np.diff(upper) < 0)

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_matches_closed_form_geometric_ratio(self, gamma):
        # For a Gaussian pump and p = 0 modes at waist w_p / gamma the
        # amplitude ratio between adjacent |ell| is
        # sqrt(2 g^2 (2 g^2 + 2)) / (2 g^2 + 1), derived by hand from the
        # normalized Gaussian moment integrals.
        g2 = 2.0 * gamma * gamma
        want = math.sqrt(g2 * (g2 + 2.0)) / (g2 + 1.0)
        state = build_state(PumpSpec(waist=1.0), gamma=gamma, ell_max=4)
        amps = np.abs(state.amplitudes)
        center = len(amps) // 2
        ratios = amps[center + 1:] / amps[center:-1]
        assert np.max(np.abs(ratios - want)) < 1e-6

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_aligned_closed_form_matches_quadrature_oracle(self, gamma):
        w = 1.0 / gamma
        state = build_state(PUMP, gamma=gamma, ell_max=20)
        grid = default_grid(1.0, w)
        geo = BeamGeometry(waist=w)
        want = np.array([coincidence_amplitude(LGMode(ell=l, geometry=geo), LGMode(ell=-l, geometry=geo),
                                               PUMP, grid) for l in range(-20, 21)])
        assert np.max(np.abs(state.amplitudes - want / np.linalg.norm(want))) < 1e-12

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_tiny_offset_reduces_to_closed_form(self, gamma):
        # a 1e-9 waist offset takes the quadrature path, which must reproduce the closed form
        aligned = build_state(PUMP, gamma=gamma, ell_max=20)
        offset = build_state(PUMP, gamma=gamma, ell_max=20, signal_offset=(1e-9 / gamma, 0.0))
        anti = np.fliplr(np.eye(41, dtype=bool))
        assert np.max(np.abs(offset.joint[anti] - aligned.amplitudes)) < 1e-12
        assert np.max(np.abs(offset.amplitudes - aligned.amplitudes)) < 1e-12
        assert np.max(np.abs(offset.joint[~anti])) <= 1e-8

    def test_offset_matches_quadrature_oracle(self):
        # every (ell_s, ell_i) pair at a 0.1-waist signal offset, one oracle
        # integral per pair, normalized over the window like the state
        gamma, w = 2.0, 0.5
        offset = (0.1 * w, 0.0)
        state = build_state(PUMP, gamma=gamma, ell_max=3, signal_offset=offset)
        geo = BeamGeometry(waist=w)
        want = np.array([[coincidence_amplitude(LGMode(ell=ls, geometry=geo, offset=offset),
                                                LGMode(ell=li, geometry=geo), PUMP, GRID)
                          for li in range(-3, 4)] for ls in range(-3, 4)])
        want /= np.linalg.norm(want)
        anti = np.fliplr(np.eye(7, dtype=bool))
        assert np.max(np.abs(want[~anti])) > 1e-2
        assert np.max(np.abs(state.joint - want)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ell_max", [3, 10, 20])
    @pytest.mark.parametrize("offset_waists", [0.1, 0.5])
    def test_offset_matches_polar_grid_oracle(self, gamma, ell_max, offset_waists):
        # the exact Gauss rules against the same product on a 256 x 256 polar grid
        offset = (offset_waists / gamma, 0.0)
        state = build_state(PUMP, gamma=gamma, ell_max=ell_max, signal_offset=offset)
        want = offset_joint(PUMP, gamma, ell_max, offset)
        assert np.max(np.abs(state.joint - want)) < 1e-12

    def test_far_offset_matches_wide_polar_grid(self):
        # a 20-waist offset puts the signal modes beyond the default grid's
        # 6 w_pump disc; the exact rules have no such edge
        offset = (10.0, 0.0)
        state = build_state(PUMP, gamma=2.0, ell_max=3, signal_offset=offset)
        want = offset_joint(PUMP, 2.0, 3, offset, PolarGrid(r_max=16.0, n_r=256, n_phi=512))
        assert np.max(np.abs(state.joint - want)) < 1e-12

    def test_offset_populates_forbidden_pairs(self):
        ratios = []
        for delta in (0.0, 0.05, 0.1):
            state = build_state(PUMP, gamma=2.0, ell_max=2, signal_offset=(delta, 0.0))
            joint = np.abs(state.joint) ** 2
            anti = np.fliplr(np.eye(joint.shape[0], dtype=bool))
            peak = joint[anti].max()
            off = joint[~anti].max()
            ratios.append(off / peak)
        assert ratios[0] < 1e-20
        assert ratios[0] < ratios[1] < ratios[2]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_state(PUMP, gamma=-1.0, ell_max=2)
        with pytest.raises(ValueError):
            build_state(PUMP, gamma=2.0, ell_max=21)


class TestTwoPhotonState:
    def test_norm_validation(self):
        with pytest.raises(ValueError):
            TwoPhotonState(ells=np.array([-1, 0, 1]), amplitudes=np.array([1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("ells", [[0, 1, 2], [-1, 1], [1, 0, -1], [-1, 0, 0]])
    def test_rejects_ells_other_than_symmetric_range(self, ells):
        amps = np.ones(len(ells)) / math.sqrt(len(ells))
        with pytest.raises(ValueError, match="ell_max"):
            TwoPhotonState(ells=np.array(ells), amplitudes=amps)

    def test_index_of_is_range_checked(self):
        state = TwoPhotonState(ells=np.array([-1, 0, 1]), amplitudes=np.array([0.6, 0.0, 0.8]))
        assert list(state.index_of([1, -1, 0])) == [2, 0, 1]
        with pytest.raises(ValueError):
            state.index_of(2)
        with pytest.raises(ValueError):
            state.restricted_ket([1, -2])

    def test_sector_ket(self):
        # the +-ell sector the Bell analyzers see: |1,-1> and |-1,1> off the diagonal
        amps = np.array([1.0, 0.5, 1.0]) / 1.5
        state = TwoPhotonState(ells=np.array([-1, 0, 1]), amplitudes=amps)
        ket = state.restricted_ket([1, -1]).reshape(2, 2)
        assert np.allclose(ket, [[0.0, 1.0 / math.sqrt(2.0)], [1.0 / math.sqrt(2.0), 0.0]])

    def test_restricted_ket_orders_like_kron(self):
        amps = np.array([0.6, 0.0, 0.8])
        state = TwoPhotonState(ells=np.array([-1, 0, 1]), amplitudes=amps)
        ket = state.restricted_ket([1, -1])
        # |l=1>|l=-1> lands at index 0*2+1, |l=-1>|l=1> at 1*2+0
        assert ket[1] == pytest.approx(0.8)
        assert ket[2] == pytest.approx(0.6)
        assert ket[0] == ket[3] == 0.0


class TestRingProfile:
    CFG = CrystalConfig(length=3e-3, refractive_index=1.66, focal_length=0.5)

    def test_collinear_peak_on_axis(self):
        assert sinc_ring_profile(0.0, self.CFG) == pytest.approx(1.0)

    def test_first_null(self):
        a = self.CFG.ring_coefficient
        r_null = math.sqrt(math.pi * self.CFG.focal_length**2 / a)
        assert sinc_ring_profile(r_null, self.CFG) < 1e-20

    def test_negative_mismatch_opens_ring(self):
        cfg = CrystalConfig(length=3e-3, refractive_index=1.66, focal_length=0.5,
                            phase_mismatch=-2.0)
        a = cfg.ring_coefficient
        r_peak = cfg.focal_length * math.sqrt(2.0 / a)
        r = np.linspace(0.0, 3.0 * r_peak, 20001)
        profile = sinc_ring_profile(r, cfg)
        assert r[np.argmax(profile)] == pytest.approx(r_peak, rel=1e-3)
        assert profile.max() == pytest.approx(1.0, abs=1e-6)
        assert profile[0] < 0.25


class TestModeCount:
    def test_identity_case(self):
        lam = 710e-9
        assert transverse_mode_count(lam**2, 1.0, lam) == pytest.approx(1.0)

    def test_linear_in_solid_angle(self):
        n1 = transverse_mode_count(1e-6, 1e-6, 710e-9)
        n2 = transverse_mode_count(1e-6, 2e-6, 710e-9)
        assert n2 == pytest.approx(2.0 * n1)

    def test_experiment_scale_value(self):
        assert transverse_mode_count(1e-6, 1e-6, 710e-9) == pytest.approx(1.98, abs=0.01)


class TestAccidentals:
    def test_dark_rate_scale(self):
        det = DetectorConfig(singles_1=200.0, singles_2=200.0, gate_time=12.5e-9)
        assert accidentals(det) == pytest.approx(5e-4, rel=1e-12)

    def test_zero_gate_means_zero(self):
        # gate_time must stay positive; use a tiny gate and check proportionality
        det = DetectorConfig(singles_1=200.0, singles_2=200.0, gate_time=1e-15)
        assert accidentals(det) == pytest.approx(200.0 * 200.0 * 1e-15)

    def test_bilinear_in_singles(self):
        det1 = DetectorConfig(singles_1=1e3, singles_2=1e3, gate_time=1e-8)
        det2 = DetectorConfig(singles_1=2e3, singles_2=2e3, gate_time=1e-8)
        assert accidentals(det2) == pytest.approx(4.0 * accidentals(det1))


class TestSampleCounts:
    DET = DetectorConfig(singles_1=0.0, singles_2=0.0, efficiency=1.0, integration_time=1.0)

    def test_zero_mean_gives_zero(self):
        assert sample_counts(np.zeros(5), self.DET, seed=1).tolist() == [0] * 5

    def test_integer_array_shaped_like_the_rates(self):
        counts = sample_counts(np.full((3, 4), 50.0), self.DET, seed=1)
        assert counts.shape == (3, 4)
        assert counts.dtype == np.int64

    def test_poisson_tail_bound(self):
        # mean 1e4, sigma 100: |count - mean| < 500 except with prob ~6e-7
        counts = sample_counts(np.full(200, 1e4), self.DET, seed=0)
        assert np.all(np.abs(counts - 1e4) < 500)

    def test_deterministic_for_fixed_seed(self):
        rates = np.full(4, 123.0)
        a = sample_counts(rates, self.DET, seed=42)
        assert np.array_equal(a, sample_counts(rates, self.DET, seed=42))
        assert not np.array_equal(a, sample_counts(rates, self.DET, seed=43))

    def test_mean_includes_efficiency_and_accidentals(self):
        det = DetectorConfig(singles_1=1e4, singles_2=1e4, gate_time=1e-8,
                             efficiency=0.5, integration_time=2.0)
        # mean = (0.25 * rate + 1) * 2
        counts = sample_counts(np.full(3000, 2e4), det, seed=0)
        want = (0.25 * 2e4 + 1.0) * 2.0
        assert np.mean(counts) == pytest.approx(want, abs=3.0 * math.sqrt(want / len(counts)))

    def test_poisson_mean_and_variance(self):
        # over many equal-mean settings of one call the counts are Poisson: the
        # sample mean has sd sqrt(lam / n) and the sample variance about
        # sqrt((lam + 2 lam^2) / n)
        lam, n = 100.0, 10000
        counts = sample_counts(np.full(n, lam), self.DET, seed=11)
        assert abs(np.mean(counts) - lam) < 4.0 * math.sqrt(lam / n)
        assert abs(np.var(counts, ddof=1) - lam) < 4.0 * math.sqrt((lam + 2.0 * lam**2) / n)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_counts(np.array([1.0, -1e-9]), self.DET, seed=0)


class TestCountStream:
    DET = DetectorConfig(singles_1=1e4, singles_2=2e4, gate_time=1e-8,
                         efficiency=0.6, integration_time=1.5)

    def test_count_k_is_drawn_from_stream_seed_k(self):
        rates = np.array([[10.0, 50.0, 0.0], [3e3, 1.0, 7.5]])
        counts = sample_counts(rates, self.DET, seed=5).ravel()
        means = (self.DET.efficiency**2 * rates.ravel() + accidentals(self.DET)) * self.DET.integration_time
        for k, mean in enumerate(means):
            assert counts[k] == np.random.default_rng([5, k]).poisson(mean)

    def test_count_does_not_depend_on_other_settings(self):
        rates = np.full(6, 50.0)
        changed = rates.copy()
        changed[2] = 5e3
        base = sample_counts(rates, self.DET, seed=5)
        other = sample_counts(changed, self.DET, seed=5)
        assert np.array_equal(np.delete(other, 2), np.delete(base, 2))
        assert other[2] != base[2]
