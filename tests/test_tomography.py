import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings
from hypothesis import strategies as st

from oamsim.cli import RunContext, main
from oamsim.config import INTERVALS, load_config, validate
from oamsim.experiments import arm_projectors, run_tomography_experiment
from oamsim.spdc import CountModel, build_state, maximally_entangled_ket, restricted_ket
from oamsim.tomography import (
    MAX_ITERATIONS,
    ReconstructionReport,
    _arm_design,
    _born,
    _factor_gradient,
    _quartic_minimum,
    _realign,
    bell_violation_threshold,
    check_density_matrix,
    concurrence,
    density_matrix_columns,
    linear_entropy,
    load_density_matrix,
    reconstruct,
    threshold_fidelity,
)
from oracles import (
    bell_inequality_value,
    cross_entangled_ket,
    fidelity,
    fista_reconstruct,
    isotropic_state,
    max_entangled_ket,
    su_compose,
    su_expand,
    su_purity,
    tomography_probabilities,
)

# means equal the ideal rates; NOISY_DET adds the default 2e4 * 2e4 * 12.5e-9 = 5 accidentals per second
QUIET_DET = CountModel(efficiency_sq=1.0, accidental_rate=0.0, integration_s=1.0)
NOISY_DET = CountModel(efficiency_sq=1.0, accidental_rate=2e4 * 2e4 * 12.5e-9, integration_s=1.0)

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
    ket = cross_entangled_ket(d)
    return np.outer(ket, ket.conj())


def werner(p):
    return isotropic_state(2, p)


def ideal_rates(rho, kets, flux):
    """Noiseless counts of every setting on a density matrix, by the mixed-state
    Born rule that ``reconstruct`` fits, one kron product per setting."""
    return flux * tomography_probabilities(kets, rho)


def pure_rates(ket, kets, pair_rate):
    """Noiseless counts of every setting of a tomography run on a pure state, the
    ideal rates the runner samples."""
    return run_tomography_experiment(ket, kets, QUIET_DET, seed=0, pair_rate=pair_rate).ideal


def manifest_steps(out) -> int:
    """The solver's step count that a `tomo` run wrote to its manifest."""
    manifest = (out / "manifest.txt").read_text().splitlines()
    return int(next(line for line in manifest
                    if line.startswith("diag.reconstruct.iterations = ")).split(" = ")[1])


def random_state(d, seed):
    """A random full-rank two-qudit state with complex coherences, so rho^T != rho."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    return a @ a.conj().T / np.trace(a @ a.conj().T).real


QUBIT_KETS, _ = arm_projectors(2, [1, -1])
ELLS = {2: [1, -1], 3: [-1, 0, 1], 4: [-2, -1, 1, 2], 5: [2, 1, 0, -1, -2],
        7: [3, 2, 1, 0, -1, -2, -3]}


class TestDensityMatrix:
    """check_density_matrix, the one test that an array is a two-qudit state."""

    def test_accepts_physical_matrix(self):
        rho = check_density_matrix(np.eye(4) / 4.0, 2)
        assert rho.dtype == complex and rho.shape == (4, 4)
        assert linear_entropy(rho) == pytest.approx(1.0)

    def test_returns_hermitian_part(self):
        m = isotropic_state(2, 0.5).astype(complex)
        m[0, 1] += 1e-12j
        rho = check_density_matrix(m, 2)
        assert np.array_equal(rho, rho.conj().T)
        assert np.max(np.abs(rho - m)) <= 1e-12

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(4) / 3.0, 2)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            check_density_matrix(m, 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            check_density_matrix(m, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(3) / 3.0, 2)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.25, math.nan)],
                             ids=["nan", "inf", "nan-imaginary"])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_rejects_non_finite_entry(self, entry, at):
        # every comparison with NaN is false, so no tolerance test alone rejects it
        m = np.eye(4, dtype=complex) / 4.0
        m[at] = entry
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_density_matrix(m, 2)


class TestPredictedCounts:
    def test_bell_state_values(self):
        rho = bell_density()
        rates = ideal_rates(rho, QUBIT_KETS, 1.0)
        # settings 0..3 are the pure-pure combinations in row-major order
        assert rates[0] == pytest.approx(0.0, abs=1e-12)
        assert rates[1] == pytest.approx(0.5, rel=1e-12)

    def test_maximally_mixed_isotropy(self):
        mixed = np.eye(4) / 4.0
        assert all(abs(v - 0.25) < 1e-12 for v in ideal_rates(mixed, QUBIT_KETS, 1.0))

    def test_zero_flux(self):
        assert ideal_rates(bell_density(), QUBIT_KETS, 0.0)[5] == 0.0

    @pytest.mark.parametrize("d, ells", [(2, [1, -1]), (3, [-1, 0, 1]), (4, [-2, -1, 1, 2]),
                                         (5, [2, 1, 0, -1, -2])])
    @pytest.mark.parametrize("p", [0.0, 0.37, 0.9])
    def test_born_probabilities_match_per_setting_kron(self, d, ells, p):
        # the isotropic state, and its mixture with a random complex state, for which rho^T != rho
        noise = random_state(d, d)
        arm_kets, _ = arm_projectors(d, ells)
        m = len(arm_kets)
        for rho in (isotropic_state(d, p), p * isotropic_state(d, 1.0) + (1.0 - p) * noise):
            got = _born(_arm_design(arm_kets), _realign(rho, d))
            assert got.shape == (m, m)
            want = tomography_probabilities(arm_kets, rho).reshape(m, m)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_dimension_mismatch(self):
        kets, _ = arm_projectors(3, [-1, 0, 1])
        with pytest.raises(ValueError, match="ket dimension does not match d"):
            reconstruct(np.zeros(len(kets) ** 2), kets, d=2)

    def test_realign_is_its_own_inverse_and_takes_kron_to_outer(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        assert np.array_equal(_realign(np.kron(a, b), 3), np.outer(a.ravel(), b.ravel()))
        x = random_state(3, 5)
        assert np.array_equal(_realign(_realign(x, 3), 3), x)


class TestReconstruct:
    def test_noiseless_round_trip(self):
        rho_true = bell_density()
        # noiseless: replace sampled counts by exact means
        counts = pure_rates(cross_entangled_ket(2), QUBIT_KETS, 1e4)
        assert counts.shape == (36,)
        report = reconstruct(counts, QUBIT_KETS, d=2)
        assert isinstance(report, ReconstructionReport)
        assert report.converged
        assert fidelity(report.rho, rho_true) > 1.0 - 1e-6
        assert report.chi_squared < 1e-10 * len(counts)
        assert report.flux == pytest.approx(1e4, rel=1e-6)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_noiseless_full_rank_state_takes_one_step(self, d):
        # the linear inversion of exact rates is the state itself, so the solve
        # starts at the optimum; a start at its transpose took 125 (d = 2) and
        # 251 (d = 3) steps for these states.  chi^2 is then round-off, which no
        # relative test resolves: the solve stops once chi^2 is at that floor
        kets, _ = arm_projectors(d, ELLS[d])
        rho_true = random_state(d, 30 + d)
        report = reconstruct(ideal_rates(rho_true, kets, 1e4), kets, d=d)
        assert report.iterations == 1 and report.converged
        assert np.max(np.abs(report.rho - rho_true)) < 1e-10
        assert report.flux == pytest.approx(1e4, rel=1e-10)

    def test_noisy_round_trip(self):
        rho_true = bell_density()
        scan = run_tomography_experiment(cross_entangled_ket(2), QUBIT_KETS, NOISY_DET, seed=3,
                                         pair_rate=1e4)
        report = reconstruct(scan.counts, QUBIT_KETS, d=2)
        assert fidelity(report.rho, rho_true) > 0.99
        assert linear_entropy(report.rho) < 0.02

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=36, max_size=36))
    def test_output_always_physical(self, counts):
        report = reconstruct(np.array(counts), QUBIT_KETS, d=2)
        matrix = report.rho
        assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12
        assert np.trace(matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(matrix)[0] >= -1e-10
        assert report.flux >= 0.0
        assert report.chi_squared >= 0.0

    def test_all_zero_counts_give_maximally_mixed_state(self):
        report = reconstruct(np.zeros(36), QUBIT_KETS, d=2)
        assert np.max(np.abs(report.rho - np.eye(4) / 4.0)) < 1e-15
        assert report.flux == 0.0
        assert report.chi_squared == 0.0
        assert report.converged

    def test_rejects_incomplete_settings(self):
        # |l>, |-l> and one superposition: their projectors span 3 of the 4 arm operators
        with pytest.raises(ValueError, match="rank 3 < 4"):
            reconstruct(np.ones(9), QUBIT_KETS[:3], d=2)

    def test_rejects_kets_of_another_dimension(self):
        kets, _ = arm_projectors(3, [-1, 0, 1])
        with pytest.raises(ValueError, match="does not match d"):
            reconstruct(np.ones(len(kets) ** 2), kets, d=2)

    @pytest.mark.parametrize("shape", [(35,), (37,), (6, 6), (36, 1), ()])
    def test_rejects_counts_not_one_per_setting(self, shape):
        with pytest.raises(ValueError, match="one count per setting"):
            reconstruct(np.ones(shape), QUBIT_KETS, d=2)

    @pytest.mark.parametrize("count", [0.0, 1e12])
    def test_rank_check_is_relative_to_the_count_scale(self, count):
        # the rank is that of the arm design, which no count scale moves:
        # four arm kets span 4 arm operators, three only 3
        for kets in (QUBIT_KETS[:4], QUBIT_KETS):
            report = reconstruct(np.full(len(kets) ** 2, count), kets, d=2)
            assert report.flux >= 0.0
        with pytest.raises(ValueError, match="not informationally complete"):
            reconstruct(np.full(9, count), QUBIT_KETS[:3], d=2)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_rejects_negative_counts(self, bad):
        counts = np.full(36, 100.0)
        counts[7] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            reconstruct(counts, QUBIT_KETS, d=2)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_qutrit_round_trip(self, d):
        kets, _ = arm_projectors(d, ELLS[d])
        rho_true = bell_density(d)
        counts = pure_rates(cross_entangled_ket(d), kets, 1e4)
        report = reconstruct(counts, kets, d=d)
        assert fidelity(report.rho, rho_true) > 1.0 - 1e-6

    def test_paper_dimension_converges(self, tmp_path):
        # d = 5: the two-qudit space of dimension 25
        assert main(["tomo", "--set", "tomo.d=5", "--set", "tomo.ell_values=2,1,0,-1,-2",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tomo_summary.csv").read_text().splitlines()
        assert dict(zip(lines[1].split(","), lines[2].split(",")))["converged"] == "true"

    def test_largest_accepted_dimension_converges(self, tmp_path):
        # d = 7, the largest tomo.d validate accepts, certifies the full Schmidt number
        assert main(["tomo", "--set", "tomo.d=7", "--set", "tomo.ell_values=3,2,1,0,-1,-2,-3",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tomo_summary.csv").read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert row["converged"] == "true"
        assert row["schmidt_number_bound"] == "7"

    # L-BFGS took 42 (d = 2), 213 (d = 5, seed 7) and 253 (d = 7) steps on these
    # runs, read from the manifest's solver diagnostics; each bound is about twice
    # that.  The same solve with no curvature pairs, steepest descent with the
    # exact quartic line search, took 845, 5,455 and 5,860, and FISTA on the
    # convex problem 333, 457 and 652
    @pytest.mark.parametrize("overrides, most", [
        pytest.param([], 80, id="d2"),
        pytest.param(["seed=7", "tomo.d=5", "tomo.ell_values=2,1,0,-1,-2"], 400, id="d5-seed7"),
        pytest.param(["tomo.d=7", "tomo.ell_values=3,2,1,0,-1,-2,-3"], 480, id="d7"),
    ])
    def test_step_count(self, tmp_path, overrides, most):
        args = [arg for item in overrides for arg in ("--set", item)]
        assert main(["tomo", *args, "--out", str(tmp_path)]) == 0
        assert manifest_steps(tmp_path) <= most

    # FISTA's steps grew with the spread of the weights 1/(C + 1): it stopped at
    # MAX_ITERATIONS at d = 2 from pair_rate 1e8 on, and at d = 3, gamma = 0.5,
    # 1e12 without accidentals, with chi^2 2.6e11 against 204 here
    @pytest.mark.parametrize("overrides", [
        *(pytest.param([f"tomo.d={d}", f"tomo.ell_values={ells}", f"experiment.pair_rate={rate}"],
                       id=f"d{d}-{rate}")
          for d, ells in ((2, "1,-1"), (5, "2,1,0,-1,-2")) for rate in ("1e4", "1e8", "1e12")),
        pytest.param(["tomo.d=3", "tomo.ell_values=-1,0,1", "source.gamma=0.5",
                      "experiment.pair_rate=1e12", "detector.singles_1=0"], id="d3-narrow-1e12-quiet"),
    ])
    def test_converges_at_every_count_scale(self, tmp_path, overrides):
        args = [arg for item in overrides for arg in ("--set", item)]
        assert main(["tomo", *args, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tomo_summary.csv").read_text().splitlines()
        assert dict(zip(lines[1].split(","), lines[2].split(",")))["converged"] == "true"
        assert manifest_steps(tmp_path) < MAX_ITERATIONS

    def test_factor_gradient_matches_finite_differences(self):
        # chi^2 along t + h s is a quartic in h, so the central difference has an
        # error c3 h^2 that Richardson's (4 D(h / 2) - D(h)) / 3 removes
        d = 3
        kets, _ = arm_projectors(d, ELLS[d])
        m = len(kets)
        rng = np.random.default_rng(11)
        counts = rng.poisson(50.0, size=(m, m)).astype(float)
        w2 = 1.0 / (counts + 1.0)
        dim = d * d

        def rates(t):
            return tomography_probabilities(kets, t @ t.conj().T).reshape(m, m)

        def chi_squared(t):
            return float(np.sum(w2 * (counts - rates(t)) ** 2))

        for seed in range(3):
            t, s = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
            residual = counts - rates(t)
            grad = _factor_gradient(_arm_design(kets).conj(), _realign(np.arange(dim**2), d),
                                    w2 * residual, t)

            def central(h):
                return (chi_squared(t + h * s) - chi_squared(t - h * s)) / (2.0 * h)

            want = (4.0 * central(5e-4) - central(1e-3)) / 3.0
            assert np.vdot(grad, s).real == pytest.approx(want, rel=1e-7)

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4), st.floats(1e-6, 1e3))
    def test_quartic_line_search_finds_a_local_minimum(self, coefficients, b3):
        b0, b1, b2 = -abs(coefficients[0]) - 1e-3, coefficients[1], coefficients[2]
        alpha = _quartic_minimum(b0, b1, b2, b3)

        def slope(x):
            return b0 + x * (b1 + x * (b2 + x * b3))

        scale = abs(b0) + abs(b1) * alpha + abs(b2) * alpha**2 + b3 * alpha**3
        assert alpha > 0.0
        assert abs(slope(alpha)) <= 1e-9 * scale
        # the quartic rises on both sides: a minimum, not a maximum or a flat point
        assert slope(alpha * (1 - 1e-6)) <= 0.0 <= slope(alpha * (1 + 1e-6))

    # the factored problem is not convex; with T square its local minima are
    # global (Burer & Monteiro, Math. Program. 95, 329, 2003).  This checks it
    # against the convex solve run until chi^2 no longer falls
    @hypothesis_settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=36, max_size=36))
    def test_no_worse_than_the_convex_oracle_on_count_tables(self, counts):
        counts = np.array(counts, dtype=float)
        report = reconstruct(counts, QUBIT_KETS, d=2)
        chi2 = fista_reconstruct(counts, QUBIT_KETS, 2, tolerance=0.0)[1]
        assert report.chi_squared <= chi2 * (1.0 + 1e-9)

    @hypothesis_settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_no_worse_than_the_convex_oracle_on_seeded_qutrit_runs(self, seed):
        kets, _ = arm_projectors(3, ELLS[3])
        scan = run_tomography_experiment(maximally_entangled_ket(ELLS[3]), kets, NOISY_DET,
                                         seed=seed, pair_rate=3e4)
        report = reconstruct(scan.counts, kets, d=3)
        chi2 = fista_reconstruct(scan.counts, kets, 3, tolerance=0.0)[1]
        assert report.chi_squared <= chi2 * (1.0 + 1e-9)

    @pytest.mark.parametrize("d", [5, 7])
    def test_paper_dimension_peak_memory(self, d):
        # below the size of one d^4 x d^4 float64 array, the A^H W A a fixed
        # step 1/L would need: 3.1 MB at d = 5 and 46 MB at d = 7
        kets, _ = arm_projectors(d, ELLS[d])
        ket = maximally_entangled_ket(ELLS[d])
        scan = run_tomography_experiment(ket, kets, NOISY_DET, seed=1, pair_rate=3e4)
        tracemalloc.start()
        try:
            reconstruct(scan.counts, kets, d=d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d**8 * 8

    # chi^2 that a Cholesky-factor least-squares solver (five restarts) reached
    # on seeded `oamsim tomo` runs, and from d3-accidentals on, that a projected
    # gradient solve of the convex problem with the fixed step 1/L,
    # L = 2 lambda_max(A^H W A), reached; the factored L-BFGS must not do worse
    @pytest.mark.parametrize("overrides, chi2", [
        pytest.param(["seed=1"], 26.618607399831838, id="d2-seed1"),
        pytest.param(["seed=2"], 22.667346678696248, id="d2-seed2"),
        pytest.param(["seed=3"], 17.642626059456536, id="d2-seed3"),
        pytest.param(["seed=7"], 18.18489247209426, id="d2-seed7"),
        pytest.param(["seed=2024"], 24.11701771817748, id="d2-seed2024"),
        pytest.param(["seed=2024", "tomo.d=3", "tomo.ell_values=2,-2,0"], 171.71808010421083,
                     id="d3-seed2024"),
        pytest.param(["seed=7", "tomo.d=3", "tomo.ell_values=2,-2,0", "detector.singles_1=2e6",
                      "detector.singles_2=2e6"], 124.03474822325506, id="d3-accidentals-seed7"),
        pytest.param(["seed=1", "tomo.d=4", "tomo.ell_values=2,1,-1,-2", "experiment.pair_rate=30"],
                     527.5217132507285, id="d4-low-rate-seed1"),
        pytest.param(["seed=7", "tomo.d=5", "tomo.ell_values=2,1,0,-1,-2"], 1654.7464212601094,
                     id="d5-seed7"),
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

    @pytest.mark.parametrize("d, ells", [(2, "1,-1"), (3, "2,-2,0"), (4, "2,1,-1,-2"),
                                         (5, "2,1,0,-1,-2")])
    def test_cli_born_rule_matches_uhlmann(self, tmp_path, d, ells):
        # the reported fidelity_vs_target is <target|rho|target>, exact for the pure target
        assert main(["tomo", "--set", f"tomo.d={d}", "--set", f"tomo.ell_values={ells}",
                     "--out", str(tmp_path)]) == 0
        config = load_config(overrides=[f"tomo.d={d}", f"tomo.ell_values={ells}"])
        joint = build_state(config["source.gamma"], ell_max=2)
        ket = restricted_ket(joint, [int(e) for e in ells.split(",")])
        want = fidelity(np.outer(ket, ket.conj()), load_density_matrix(tmp_path / "tomo_rho.csv"))
        lines = (tmp_path / "tomo_summary.csv").read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert float(row["fidelity_vs_target"]) == pytest.approx(want, rel=1e-12)

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

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 0.9, 1.0 - 1e-6, 1.0])
    def test_werner_closed_form(self, p):
        # near p = 1 three eigenvalues are tiny, where a matrix square root loses digits
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(werner(p)) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("a, b", [(0.6, 0.8), (0.8, 0.6j), (1.0 - 1e-9, None), (0.1, -0.3 + 0.2j)])
    def test_schmidt_form_closed_form(self, a, b):
        # a|00> + b|11>, normalized, has C = 2 |a b|
        b = np.sqrt(1.0 - a * a) if b is None else b
        ket = np.array([a, 0.0, 0.0, b]) / np.hypot(a, abs(b))
        want = 2.0 * abs(ket[0] * ket[3])
        assert concurrence(np.outer(ket, ket.conj())) == pytest.approx(want, abs=1e-13)

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


class TestEntanglementWitness:
    """|Phi>, its fidelity F_phi and the thresholds stated for it."""

    @pytest.mark.parametrize("ells", [(1, -1), (2, 1, 0, -1, -2), (3, 1, -1, -3)])
    def test_phi_pairs_opposite_helicities(self, ells):
        # listed as (+ell, ..., -ell), |ell_i>|-ell_i> is |i, d-1-i>
        assert np.array_equal(maximally_entangled_ket(ells), cross_entangled_ket(len(ells)))

    def test_phi_follows_the_listed_order(self):
        ket = maximally_entangled_ket([2, -2, 0]).reshape(3, 3)
        assert np.array_equal(ket * math.sqrt(3), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_phi_rejects_values_not_closed_under_negation(self):
        with pytest.raises(ValueError):
            maximally_entangled_ket([1, 2])

    @pytest.mark.parametrize("d, ells, gamma, f_target, f_phi, above, bound", [
        (2, "1,-1", "2.0", 0.9990512323180293, 0.9990512322557217, "true", 2),
        # the restricted target is nearly a product state here: the fidelity
        # with it is 0.9946, but F_phi is 0.521, below the threshold 0.730
        (3, "2,-2,0", "0.2", 0.9946439609284955, 0.52100007121031, "false", 2),
        (3, "2,-2,0", "2.0", 0.9962621403135405, 0.9962380521108638, "true", 3),
    ])
    def test_cli_threshold_and_schmidt_bound_use_phi(self, tmp_path, d, ells, gamma, f_target,
                                                     f_phi, above, bound):
        sets = {"tomo.d": str(d), "tomo.ell_values": ells, "source.gamma": gamma}
        assert main(["tomo", *(a for k, v in sets.items() for a in ("--set", f"{k}={v}")),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tomo_summary.csv").read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        reported = float(row["fidelity_vs_phi"])
        assert float(row["fidelity_vs_target"]) == pytest.approx(f_target, rel=1e-6)
        assert reported == pytest.approx(f_phi, rel=1e-6)
        phi = maximally_entangled_ket([int(e) for e in ells.split(",")])
        want = fidelity(np.outer(phi, phi.conj()), load_density_matrix(tmp_path / "tomo_rho.csv"))
        assert reported == pytest.approx(want, rel=1e-12)
        assert row["above_threshold"] == above
        assert (reported > float(row["threshold_fidelity"])) == (above == "true")
        # F_phi > k/d certifies Schmidt number k + 1, and no larger k passes
        assert int(row["schmidt_number_bound"]) == bound
        assert (bound - 1) / d < reported and (bound == d or reported <= bound / d)


# the tomo.d that validate accepts, read from its SCHEMA interval
TOMO_D = INTERVALS["tomo.d"]
DIMENSIONS = [d for d in range(int(TOMO_D.lo), int(TOMO_D.hi) + 1) if d in TOMO_D]


class TestBellThresholds:
    def test_qubit_threshold_is_inverse_sqrt_two(self):
        assert bell_violation_threshold(2) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_keys_are_two_to_seven(self):
        assert DIMENSIONS == [2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_frozen_values_match_oracle(self, d):
        # the closed form against I_d summed from the measurement probabilities
        assert bell_violation_threshold(d) == pytest.approx(2.0 / bell_inequality_value(d), abs=1e-12)

    @pytest.mark.parametrize("d, frozen", [(2, 0.7071067811865476), (3, 0.6961524227066314),
                                           (4, 0.6905497394878110), (5, 0.6871565744163153)])
    def test_closed_form_matches_the_former_table(self, d, frozen):
        # the values this table held as literals before it was derived; the
        # closed form moves them by at most two units in the last place
        assert abs(bell_violation_threshold(d) - frozen) <= 1e-15

    @pytest.mark.parametrize("d", range(1, 10))
    def test_every_dimension_validate_accepts_has_a_threshold(self, d):
        # ell values closed under negation, with 0 for odd d, leave the tomo.d
        # interval the only rule in play
        ells = [ell for k in range(1, d // 2 + 1) for ell in (k, -k)] + [0] * (d % 2)
        config = load_config(overrides=[f"tomo.d={d}", f"tomo.ell_values={','.join(map(str, ells))}"])
        assert (not validate(config)) == (d in TOMO_D)
        if d in TOMO_D:
            assert 0.0 < bell_violation_threshold(d) < 1.0

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_isotropic_value_scales_linearly(self, d):
        # mixing with white noise scales the Bell value by p, so the
        # threshold state sits exactly at the classical bound
        p = bell_violation_threshold(d)
        assert p * bell_inequality_value(d) == pytest.approx(2.0, abs=1e-9)


def write_rho(tmp_path, rho):
    """The path of ``rho`` written as the tomo runner writes tomo_rho.csv."""
    RunContext(load_config(), tmp_path, "tomo").write_table("state.csv", density_matrix_columns(rho))
    return tmp_path / "state.csv"


class TestSerialization:
    """tomo_rho.csv is an ordinary table: hash line, column header, one row per entry."""

    def test_round_trip(self, tmp_path):
        for d in (2, 3):
            rho = check_density_matrix(isotropic_state(d, 0.8), d)
            path = write_rho(tmp_path, rho)
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# config_hash=")
            assert lines[1] == "row,col,real,imag"
            assert len(lines) == 2 + d**4
            loaded = load_density_matrix(path)
            assert loaded.shape == (d * d, d * d)
            assert np.max(np.abs(loaded - rho)) < 1e-15

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_rejects_non_finite_entry(self, tmp_path, cell):
        # a NaN diagonal entry fails no tolerance comparison, so only the finiteness check catches it
        path = write_rho(tmp_path, np.eye(4) / 4.0)
        text = path.read_text().splitlines()
        text[2] = ",".join([*text[2].split(",")[:2], cell, "0.0"])
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="NaN or infinite"):
            load_density_matrix(path)

    def test_rejects_tampered_trace(self, tmp_path):
        path = write_rho(tmp_path, isotropic_state(2, 0.5))
        text = path.read_text().splitlines()
        # corrupt a diagonal entry well beyond the 1e-6 reader tolerance
        row = text[2].split(",")
        row[2] = repr(float(row[2]) + 0.01)
        text[2] = ",".join(row)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError):
            load_density_matrix(path)

    def test_rejects_missing_header(self, tmp_path):
        # a one-entry 1x1 unit matrix, physical if it were read; "d,1" is the
        # header tomo_rho.csv had before it became an ordinary table
        path = tmp_path / "state.csv"
        for text in ("0,0,1.0,0.0\n", "d,1\n0,0,1.0,0.0\n", "# config_hash=0 seed=0\n0,0,1.0,0.0\n",
                     "row,col,real,imag\n0,0,1.0,0.0\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="header"):
                load_density_matrix(path)

    @pytest.mark.parametrize("rows", [0, 15, 17, 80])
    def test_rejects_entry_count_not_a_fourth_power(self, tmp_path, rows):
        path = write_rho(tmp_path, np.eye(4) / 4.0)
        text = path.read_text().splitlines()
        extra = ["0,0,0.0,0.0"] * max(rows - 16, 0)
        path.write_text("\n".join(text[:2 + min(rows, 16)] + extra) + "\n")
        with pytest.raises(ValueError, match="d\\^4"):
            load_density_matrix(path)

    @pytest.mark.parametrize("line, entry", [(3, "0,-3"), (3, "0,4"), (6, "4,0"), (4, "0,1")],
                             ids=["negative", "column-past-end", "row-past-end", "repeated"])
    def test_rejects_malformed_index(self, tmp_path, line, entry):
        # each bad line displaces an off-diagonal zero of the maximally mixed state,
        # so the matrix read stays physical and only the index check can reject it
        path = write_rho(tmp_path, np.eye(4) / 4.0)
        text = path.read_text().splitlines()
        text[line] = ",".join([entry, *text[line].split(",")[2:]])
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="entry"):
            load_density_matrix(path)
