import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamsim.numerics import poisson_streams
from oamsim.spdc import (
    DetectorConfig,
    accidentals,
    _normalised_laguerre,
    build_state,
    ell_index,
    restricted_ket,
    sample_counts,
    sinc_ring_profile,
    transverse_mode_count,
)
from oracles import (BeamGeometry, LGMode, PolarGrid, coincidence_amplitude, default_grid, exact_offset_joint,
                     offset_joint, per_setting_counts)

PUMP = LGMode(ell=0, geometry=BeamGeometry(waist=1.0))
GRID = default_grid(1.0, 0.5, n_r=192, n_phi=128)


def meas_mode(ell, offset=(0.0, 0.0)):
    return LGMode(ell=ell, geometry=BeamGeometry(waist=0.5), offset=offset)


def pair_state(amps):
    """The joint matrix of the state sum_i amps[i] |ells[i]>|-ells[i]>."""
    return np.fliplr(np.diag(amps)).astype(complex)


def pair_amplitudes(joint):
    """Coefficients of |ell>|-ell>, ell = -ell_max, ..., ell_max."""
    return np.fliplr(joint).diagonal()


class TestCoincidenceAmplitude:
    def test_oam_conservation(self):
        amp = coincidence_amplitude(meas_mode(1), meas_mode(-2), PUMP, GRID)
        assert abs(amp) < 1e-10

    def test_symmetric_under_sign_flip(self):
        a = coincidence_amplitude(meas_mode(3), meas_mode(-3), PUMP, GRID)
        b = coincidence_amplitude(meas_mode(-3), meas_mode(3), PUMP, GRID)
        assert abs(a) == pytest.approx(abs(b), rel=1e-10)

    def test_fundamental_pair_dominates_at_equal_waists(self):
        grid = default_grid(1.0, n_r=192, n_phi=128)
        geo = BeamGeometry(waist=1.0)
        amps = [
            abs(coincidence_amplitude(LGMode(ell=l, geometry=geo), LGMode(ell=-l, geometry=geo), PUMP, grid))
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
        state = build_state(gamma=2.0, ell_max=4)
        probs = np.abs(pair_amplitudes(state)) ** 2
        assert np.sum(probs) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(probs, probs[::-1], rtol=1e-8)

    def test_spectrum_monotone_in_abs_ell(self):
        state = build_state(gamma=2.0, ell_max=5)
        probs = np.abs(pair_amplitudes(state)) ** 2
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
        state = build_state(gamma=gamma, ell_max=4)
        amps = np.abs(pair_amplitudes(state))
        center = len(amps) // 2
        ratios = amps[center + 1:] / amps[center:-1]
        assert np.max(np.abs(ratios - want)) < 1e-6

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_aligned_closed_form_matches_quadrature_oracle(self, gamma):
        w = 1.0 / gamma
        state = build_state(gamma=gamma, ell_max=20)
        grid = default_grid(1.0, w)
        geo = BeamGeometry(waist=w)
        want = np.array([coincidence_amplitude(LGMode(ell=l, geometry=geo), LGMode(ell=-l, geometry=geo),
                                               PUMP, grid) for l in range(-20, 21)])
        assert np.max(np.abs(pair_amplitudes(state) - want / np.linalg.norm(want))) < 1e-12

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_tiny_offset_reduces_to_closed_form(self, gamma):
        # a 1e-9 waist offset must reproduce the aligned closed form
        aligned = build_state(gamma=gamma, ell_max=20)
        offset = build_state(gamma=gamma, ell_max=20, offset_waists=1e-9)
        anti = np.fliplr(np.eye(41, dtype=bool))
        assert np.max(np.abs(pair_amplitudes(offset) - pair_amplitudes(aligned))) < 1e-12
        assert np.max(np.abs(offset[~anti])) <= 1e-8

    def test_offset_matches_quadrature_oracle(self):
        # every (ell_s, ell_i) pair at a 0.1-waist signal offset, one oracle
        # integral per pair, normalized over the window like the state
        gamma, w = 2.0, 0.5
        offset = (0.1 * w, 0.0)
        state = build_state(gamma=gamma, ell_max=3, offset_waists=0.1)
        geo = BeamGeometry(waist=w)
        want = np.array([[coincidence_amplitude(LGMode(ell=ls, geometry=geo, offset=offset),
                                                LGMode(ell=li, geometry=geo), PUMP, GRID)
                          for li in range(-3, 4)] for ls in range(-3, 4)])
        want /= np.linalg.norm(want)
        anti = np.fliplr(np.eye(7, dtype=bool))
        assert np.max(np.abs(want[~anti])) > 1e-2
        assert np.max(np.abs(state - want)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ell_max", [3, 10, 20])
    @pytest.mark.parametrize("offset_waists", [0.1, 0.5])
    def test_offset_matches_polar_grid_oracle(self, gamma, ell_max, offset_waists):
        # the closed form in measurement waists against the same overlaps on a
        # 256 x 256 polar grid in metres: the state depends on the pump waist
        # only through gamma, so both pump waists give the same matrix
        state = build_state(gamma=gamma, ell_max=ell_max, offset_waists=offset_waists)
        for pump_waist in (1.0, 1e-3):
            offset = (offset_waists * pump_waist / gamma, 0.0)
            want = offset_joint(pump_waist, gamma, ell_max, offset)
            assert np.max(np.abs(state - want)) < 1e-12

    def test_far_offset_matches_wide_polar_grid(self):
        # a 20-waist offset puts the signal modes beyond the default grid's
        # 6 w_pump disc; the closed form has no such edge
        state = build_state(gamma=2.0, ell_max=3, offset_waists=20.0)
        want = offset_joint(1.0, 2.0, 3, (10.0, 0.0), PolarGrid(r_max=16.0, n_r=256, n_phi=512))
        assert np.max(np.abs(state - want)) < 1e-12

    def test_offset_populates_forbidden_pairs(self):
        ratios = []
        for offset_waists in (0.0, 0.1, 0.2):
            state = build_state(gamma=2.0, ell_max=2, offset_waists=offset_waists)
            joint = np.abs(state) ** 2
            anti = np.fliplr(np.eye(joint.shape[0], dtype=bool))
            peak = joint[anti].max()
            off = joint[~anti].max()
            ratios.append(off / peak)
        assert ratios[0] < 1e-20
        assert ratios[0] < ratios[1] < ratios[2]

    @pytest.mark.parametrize("gamma, ell_max, offset_waists", [
        (1e-3, 20, 10.0), (1e6, 20, 10.0), (2.0, 20, 10.0), (2.0, 3, 20.0),
        (1e-10, 20, 0.0), (1e-300, 20, 0.0), (0.5, 20, 0.3), (0.1, 20, 0.1),
        (1.0, 20, 0.35),
    ])
    def test_matches_exact_moments(self, gamma, ell_max, offset_waists):
        # the float closed form against the same overlaps summed in rationals at
        # the exact values of the float arguments
        state = build_state(gamma=gamma, ell_max=ell_max, offset_waists=offset_waists)
        want = exact_offset_joint(Fraction(gamma), ell_max, Fraction(offset_waists))
        large = np.abs(want) > 1e-6
        assert np.all(np.abs(state[large] - want[large]) <= 1e-13 * np.abs(want[large]))
        assert np.max(np.abs(state - want)) <= 1e-13

    # validate accepts gamma in (0, 1e6] aligned, in [1e-3, 1e6] with an offset up to 10 waists
    @pytest.mark.parametrize("gamma, offset_waists", [
        *((gamma, 0.0) for gamma in (5e-324, 1e-300, 1e-10, 1e-3, 1.0, 1e6)),
        *((gamma, d) for gamma in (1e-3, 1.0, 1e6) for d in (1e-9, 10.0)),
    ])
    def test_finite_and_quiet_wherever_validate_accepts(self, gamma, offset_waists):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            state = build_state(gamma=gamma, ell_max=20, offset_waists=offset_waists)
        assert np.all(np.isfinite(state))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_state(gamma=-1.0, ell_max=2)
        with pytest.raises(ValueError):
            build_state(gamma=2.0, ell_max=21)


class TestGenLaguerre:
    # build_state evaluates L_k^gap(x) with x = d^2 (g + 2) / (2 (g + 1)) in
    # [0, 100] and L_m^0(-y) with y = 8 d^2 / (g (g + 2)) up to 2e8 wherever
    # validate accepts a config; k + gap and m are at most 20
    XS = np.concatenate([-np.logspace(-6, 8.4, 49), [-0.0, 0.0], np.logspace(-6, 2.1, 37),
                         np.linspace(-30.0, 110.0, 71)])

    def test_matches_eval_genlaguerre(self):
        # L_k^a(x) sums terms of alternating sign for x > 0, and L_k^a(-|x|)
        # the same terms by magnitude: the round-off scale of any evaluation
        from scipy.special import binom, eval_genlaguerre

        k, a = np.array([(k, a) for k in range(21) for a in range(21 - k)]).T
        got = _normalised_laguerre(self.XS, 21)[:, k, a].T
        norm = np.sqrt(binom(k + a, k))[:, None]
        want = eval_genlaguerre(k[:, None], a[:, None], self.XS) / norm
        scale = eval_genlaguerre(k[:, None], a[:, None], -np.abs(self.XS)) / norm
        assert got.shape == (231, len(self.XS))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_low_orders(self):
        for x in (-2.0, 0.0, 0.5, 3.0):
            table = _normalised_laguerre([x], 4)[0]
            assert table[0, 3] == 1.0
            assert table[1, 3] == (4.0 - x) / 2.0
            assert table[2, 0] == pytest.approx(1.0 - 2.0 * x + x * x / 2.0, rel=1e-15)

    def test_indexes_a_table_of_every_degree_and_order(self):
        table = _normalised_laguerre([0.7, -3.0], 6)
        assert table.shape == (2, 6, 6)
        assert np.array_equal(table[1], _normalised_laguerre([-3.0], 6)[0])
        assert np.array_equal(table[0, :3, :3], _normalised_laguerre([0.7], 3)[0])
        assert np.array_equal(_normalised_laguerre([0.7], 1), [[[1.0]]])


class TestTwoPhotonState:
    """The state as a plain joint matrix over ells = -ell_max, ..., ell_max."""

    def test_norm_validation(self):
        # far outside what validate accepts the closed form overflows to NaN
        # (gamma = 1e100) or underflows to zero (a 1e6-waist offset);
        # build_state raises rather than return either
        for gamma, offset_waists in ((1e100, 0.0), (2.0, 1e6)):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="norm"):
                build_state(gamma=gamma, ell_max=20, offset_waists=offset_waists)

    def test_index_of_is_range_checked(self):
        joint = pair_state(np.array([0.6, 0.0, 0.8]))
        assert list(ell_index(joint, [1, -1, 0])) == [2, 0, 1]
        with pytest.raises(ValueError):
            ell_index(joint, 2)
        # without the check ell = -2 would wrap to the last row
        with pytest.raises(ValueError):
            restricted_ket(joint, [1, -2])

    def test_sector_ket(self):
        # the +-ell sector the Bell analyzers see: |1,-1> and |-1,1> off the diagonal
        joint = pair_state(np.array([1.0, 0.5, 1.0]) / 1.5)
        ket = restricted_ket(joint, [1, -1]).reshape(2, 2)
        assert np.allclose(ket, [[0.0, 1.0 / math.sqrt(2.0)], [1.0 / math.sqrt(2.0), 0.0]])

    def test_restricted_ket_orders_like_kron(self):
        joint = pair_state(np.array([0.6, 0.0, 0.8]))
        ket = restricted_ket(joint, [1, -1])
        # |l=1>|l=-1> lands at index 0*2+1, |l=-1>|l=1> at 1*2+0
        assert ket[1] == pytest.approx(0.8)
        assert ket[2] == pytest.approx(0.6)
        assert ket[0] == ket[3] == 0.0


# the default ring geometry in the config's units: a 500 mm lens, a 3 mm
# crystal of index 1.66 and a 355 nm pump
RING = {"focal_length_mm": 500.0, "crystal_length_mm": 3.0, "pump_wavelength_nm": 355.0,
        "refractive_index": 1.66}
# its ring coefficient a = pi 1e6 L / (2 lambda_p n^2), the ring argument a (r/f)^2 + alpha
RING_COEFFICIENT = math.pi * 1e6 * 3.0 / (2.0 * 355.0 * 1.66**2)


def si_ring_profile(r_m, focal_length_m, crystal_length_m, pump_wavelength_m, refractive_index,
                    phase_mismatch=0.0):
    """sinc^2((k_s + k_i) L r^2 / (4 n^2 f^2) + alpha) with every length in metres,
    each photon of wavenumber 2 pi / (2 lambda_p)."""
    k = 2.0 * math.pi / (2.0 * pump_wavelength_m)
    x = 2.0 * k * crystal_length_m / (4.0 * refractive_index**2) * np.asarray(r_m) ** 2 / focal_length_m**2
    x = x + phase_mismatch
    return np.where(x == 0, 1.0, np.sin(x) / np.where(x == 0, 1.0, x)) ** 2


class TestRingProfile:
    def test_collinear_peak_on_axis(self):
        assert sinc_ring_profile(0.0, **RING) == pytest.approx(1.0)

    def test_first_null(self):
        r_null = RING["focal_length_mm"] * math.sqrt(math.pi / RING_COEFFICIENT)
        assert sinc_ring_profile(r_null, **RING) < 1e-20

    def test_negative_mismatch_opens_ring(self):
        r_peak = RING["focal_length_mm"] * math.sqrt(2.0 / RING_COEFFICIENT)
        r = np.linspace(0.0, 3.0 * r_peak, 20001)
        profile = sinc_ring_profile(r, **RING, phase_mismatch=-2.0)
        assert r[np.argmax(profile)] == pytest.approx(r_peak, rel=1e-3)
        assert profile.max() == pytest.approx(1.0, abs=1e-6)
        assert profile[0] < 0.25

    @pytest.mark.parametrize("mismatch", [0.0, -2.0])
    def test_matches_si_closed_form(self, mismatch):
        # the default grid of ring_profile.csv, and the first null
        r_null = RING["focal_length_mm"] * math.sqrt(math.pi / RING_COEFFICIENT)
        r_mm = np.append(np.linspace(0.0, 30.0, 400), r_null)
        reference = si_ring_profile(r_mm * 1e-3, 0.5, 3e-3, 355e-9, 1.66, mismatch)
        assert np.max(np.abs(sinc_ring_profile(r_mm, **RING, phase_mismatch=mismatch) - reference)) <= 1e-12

    @pytest.mark.parametrize("key", [None, *RING])
    def test_rejects_non_positive_geometry(self, key):
        args = {**RING, **({key: 0.0} if key else {})}
        with pytest.raises(ValueError):
            sinc_ring_profile(-1.0 if key is None else 1.0, **args)


class TestModeCount:
    def test_identity_case(self):
        # an area of one squared wavelength, 710 nm = 7.1e-4 mm, holds one mode per steradian
        assert transverse_mode_count(7.1e-4**2, 1.0, 710.0) == pytest.approx(1.0)

    def test_linear_in_solid_angle(self):
        n1 = transverse_mode_count(1.0, 1e-6, 710.0)
        n2 = transverse_mode_count(1.0, 2e-6, 710.0)
        assert n2 == pytest.approx(2.0 * n1)

    def test_experiment_scale_value(self):
        assert transverse_mode_count(1.0, 1e-6, 710.0) == pytest.approx(1.98, abs=0.01)

    @pytest.mark.parametrize("args", [(0.0, 1e-6, 710.0), (1.0, 0.0, 710.0), (1.0, 1e-6, 0.0)])
    def test_rejects_non_positive_inputs(self, args):
        with pytest.raises(ValueError):
            transverse_mode_count(*args)


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


# means equal the ideal rates under this detector: (1 * rate + 0) * 1
UNIT_DET = DetectorConfig(singles_1=0.0, singles_2=0.0, efficiency=1.0, integration_time=1.0)
# the largest count mean config.validate accepts
MEAN_BOUND = 1e15
TEN_AND_NEIGHBOURS = [np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 20.0)]
means_st = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
    st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
    st.sampled_from(TEN_AND_NEIGHBOURS),
    st.floats(10.0, 1e3),
    st.floats(10.0, MEAN_BOUND),
)


class TestCountStreamOracle:
    """``sample_counts`` against one numpy Generator per setting, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(means_st, min_size=1, max_size=80))
    def test_matches_per_setting_generators(self, seed, means):
        means = np.array(means)
        assert np.array_equal(sample_counts(means, UNIT_DET, seed), per_setting_counts(means, UNIT_DET, seed))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32 + 5, 2**70 + 3, 2**100 + 7])
    def test_matches_over_blocks_and_seed_words(self, seed):
        # 20k settings span several internal lane blocks; seeds of one to four
        # 32-bit words, the last beyond SeedSequence's four-word pool
        rng = np.random.default_rng(seed % 2**32)
        means = np.concatenate([np.zeros(3), [5e-324, 1e-300], TEN_AND_NEIGHBOURS * 5,
                                rng.uniform(0.0, 12.0, 12000), 10.0 ** rng.uniform(1.0, 15.0, 8000)])
        assert np.array_equal(sample_counts(means, UNIT_DET, seed), per_setting_counts(means, UNIT_DET, seed))

    def test_matches_with_accidentals_and_shape(self):
        det = DetectorConfig(singles_1=2e4, singles_2=2e4, gate_time=12.5e-9, efficiency=0.6,
                             integration_time=1.0)
        rates = np.random.default_rng(3).uniform(0.0, 50.0, (16, 24))
        assert np.array_equal(sample_counts(rates, det, 671067976), per_setting_counts(rates, det, 671067976))

    @pytest.mark.parametrize("rates", [[1.0, math.nan], [math.inf], [1e19], [5.0, math.nan, math.inf],
                                       [5.0, math.inf, math.nan]],
                             ids=["nan", "inf", "too-large", "nan-first", "inf-first"])
    def test_invalid_means_raise_like_numpy(self, rates):
        with pytest.raises(ValueError) as want:
            per_setting_counts(np.array(rates), UNIT_DET, 0)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            sample_counts(np.array(rates), UNIT_DET, 0)

    def test_negative_mean_or_seed_raises_like_numpy(self):
        # a negative rate stops sample_counts first, so call the kernel
        with pytest.raises(ValueError) as want:
            np.random.default_rng(0).poisson(-1e-300)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            poisson_streams(np.array([3.0, -1e-300]), 0)
        with pytest.raises(ValueError) as want:
            np.random.default_rng([-1, 0])
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            poisson_streams(np.array([3.0]), -1)


class TestDetectorConfig:
    @pytest.mark.parametrize("kwargs", [{"singles_1": -1.0}, {"gate_time": 0.0}, {"efficiency": 0.0},
                                        {"efficiency": 1.5}, {"integration_time": 0.0},
                                        {"integration_time": -1.0}, {"integration_time": math.nan}])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)
