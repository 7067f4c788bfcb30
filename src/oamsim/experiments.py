"""The measurements: spiral bandwidth, angular correlations, EPR-Reid, Bell, tomography.

Every scan projects a pure two-photon state onto one analyzer ket per arm,
and ``analyzer_rates`` alone turns amplitudes into ideal rates:
pair_rate |A* J B*^T|^2 for the amplitude matrix J, with the analyzer kets
the rows of A and B.  A scan only builds its rows: one-hot OAM rows
(spiral), sector coefficients (angular), ``analyzer_kets`` on the ±ell block
(Bell) and the arm kets of ``arm_projectors`` on the tomography block.  One
``sample_counts`` call samples its counts; a count depends only on the seed
and its setting's position.  The statistics helpers operate on counts: the
spiral width from a closed-form fit of the geometric spectrum, the
conditional-variance product from the moments of the two conditional scans,
and the Bell parameter, the last two with their Poisson errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import sector_shape
from .spdc import CountModel, count_means, ell_index, restricted_ket, sample_counts


@dataclass(frozen=True)
class ScanResult:
    """Coincidence data over a grid of settings plus the axes that generated it.

    ``ideal`` (float rates) and ``counts`` (sampled integers) have one entry
    per setting, shaped like the axes; ``accidental`` is the accidental mean
    count of every setting, ``count_means`` at rate 0.
    """

    axis_names: tuple[str, ...]
    axis_values: tuple[np.ndarray, ...]
    ideal: np.ndarray
    counts: np.ndarray
    accidental: float

    def __post_init__(self):
        shape = tuple(len(v) for v in self.axis_values)
        if any(a.shape != shape for a in (self.ideal, self.counts)):
            raise ValueError(f"scan data shapes do not match axes {shape}")

    def __len__(self) -> int:
        """Number of settings."""
        return self.counts.size

    def columns(self) -> dict[str, np.ndarray]:
        """Table columns over the settings in C order: one per axis, headed by its
        ``axis_names`` entry, then ``ideal_rate``, ``count`` and the scalar ``accidental``."""
        coords = (c.ravel() for c in np.meshgrid(*self.axis_values, indexing="ij"))
        return dict(zip(self.axis_names, coords), ideal_rate=self.ideal.ravel(),
                    count=self.counts.ravel(), accidental=self.accidental)


def _scan(axis_names, axis_values, rates: np.ndarray, model: CountModel, seed: int) -> ScanResult:
    return ScanResult(axis_names, axis_values, rates, sample_counts(rates, model, seed),
                      count_means(model, 0.0))


def analyzer_rates(amplitudes, rows_a, rows_b, pair_rate: float) -> np.ndarray:
    """Ideal rates pair_rate |A* J B*^T|^2: entry (a, b) is pair_rate |<a b|psi>|^2.

    J = ``amplitudes``, J[s, i] the amplitude of |s>|i>; the rows of
    ``rows_a`` (A) and ``rows_b`` (B) are the analyzer kets of arms A and B.
    """
    amps = np.conj(rows_a) @ amplitudes @ np.conj(rows_b).T
    return pair_rate * np.abs(amps) ** 2


def spiral_scan(joint: np.ndarray, ells_a, ells_b, model: CountModel,
                seed: int, pair_rate: float) -> ScanResult:
    """Coincidence matrix over projector pairs (ell_A, ell_B).

    One-hot analyzer rows give pair_rate times the joint OAM probabilities of
    the state; the anti-diagonal of a square scan is the spiral spectrum.
    """
    ells_a, ells_b = (np.asarray(ells, dtype=int) for ells in (ells_a, ells_b))
    basis = np.eye(len(joint))
    rates = analyzer_rates(joint, basis[ell_index(joint, ells_a)], basis[ell_index(joint, ells_b)], pair_rate)
    return _scan(("ell_a", "ell_b"), (ells_a.astype(float), ells_b.astype(float)),
                 rates, model, seed)


def angular_scan(joint: np.ndarray, width: float, orientations_a, orientations_b,
                 model: CountModel, seed: int, pair_rate: float) -> ScanResult:
    """Coincidence map over sector-hologram orientations (beta_A, beta_B).

    Rates are computed in the OAM basis: an arm's analyzer kets are the
    conjugated azimuthal Fourier coefficients of its sector projectors,
    truncated to the state support and normalized there, one per orientation.
    Their common factor width / 2pi cancels in the normalization, so the rows
    are formed without it (``modes.sector_shape``).
    """
    orientations_a = np.asarray(orientations_a, dtype=float)
    orientations_b = np.asarray(orientations_b, dtype=float)
    ells = np.arange(len(joint)) - len(joint) // 2

    def arm_rows(betas):
        vecs = sector_shape(betas[:, None], width, ells)
        return np.conj(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))

    rates = analyzer_rates(joint, arm_rows(orientations_a), arm_rows(orientations_b), pair_rate)
    return _scan(("beta_a", "beta_b"), (orientations_a, orientations_b), rates, model, seed)


def _conditional(scan: ScanResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axis 0 values, counts and ideal rates with axis 1 held at its value nearest zero."""
    col = int(np.argmin(np.abs(scan.axis_values[1])))
    return scan.axis_values[0], scan.counts[:, col], scan.ideal[:, col]


def _unit_sum(values: np.ndarray) -> np.ndarray:
    total = values.sum()
    return values / total if total > 0 else np.full(len(values), math.nan)


def conditional_profile(scan: ScanResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts along axis 0 with axis 1 held at its value nearest zero, and their
    ideal rates, each normalized to unit sum: (values, probabilities, model).
    A profile with no counts has nan probabilities."""
    xs, counts, ideal = _conditional(scan)
    return xs, _unit_sum(counts), _unit_sum(ideal)


def spiral_spectrum(scan: ScanResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anti-diagonal (ell, -ell) slice of a square spiral scan.

    The scan's axes must be ells and -ells[::-1], so that column n - 1 - i
    holds -ells[i].  Returns (ells, ideal rates, counts).
    """
    ells_a, ells_b = scan.axis_values
    if not np.array_equal(ells_b, -ells_a[::-1]):
        raise ValueError("spiral spectrum needs a square scan with axes ells and -ells[::-1]")
    rows = np.arange(len(ells_a))
    return ells_a, scan.ideal[rows, rows[::-1]], scan.counts[rows, rows[::-1]]


def spectrum_fwhm(ells, counts, accidental: float) -> float:
    """FWHM of the spiral spectrum P(ell) ∝ q^(2|ell|) (Gaussian pump, p = 0 modes).

    ln(count - accidental) is fitted as a line in |ell| of slope 2 ln q by
    weighted least squares, each bin weighted by (count - accidental)^2 /
    count, the inverse Poisson variance of its logarithm; the width is
    ln 2 / ln(1/q) = -2 ln 2 / slope, within the ell window or beyond it.
    Only the |ell| below the first bin, on either side, with a count at or
    below the accidental level are fitted.  Returns inf when the slope is
    not negative and nan when fewer than two |ell| values are kept.
    """
    x = np.abs(np.asarray(ells, dtype=float))
    counts = np.asarray(counts, dtype=float)
    signal = counts - accidental
    keep = x < np.min(x[signal <= 0], initial=np.inf)
    x, signal, counts = x[keep], signal[keep], counts[keep]
    if len(np.unique(x)) < 2:
        return math.nan
    w = signal**2 / counts
    y = np.log(signal)
    dx = x - np.average(x, weights=w)
    slope = np.sum(w * dx * (y - np.average(y, weights=w))) / np.sum(w * dx * dx)
    return float(-2.0 * math.log(2.0) / slope) if slope < 0 else math.inf


def _variance(xs: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Second central moment of xs under weights, and the squared deviations
    from the mean; both are nan unless the weights have a positive sum."""
    total = weights.sum()
    if not total > 0:
        return math.nan, np.full(len(xs), math.nan)
    deviations = (xs - np.sum(xs * weights) / total) ** 2
    return float(np.sum(deviations * weights) / total), deviations


def conditional_variance(scan: ScanResult) -> tuple[float, float, float]:
    """Variance of the conditional profile of a scan, its Poisson sigma and its model value.

    Along axis 0, with axis 1 held at its value nearest zero, the variance is
    the second central moment of count - accidental, unclipped, so noise can
    drive it below zero.  With N the sum of count - accidental, its
    first-order Poisson sigma is sqrt(sum(((x - mean)^2 - variance)^2 count)) / N,
    the accidental level taken as exact.  The model value is the same moment
    of the ideal rates.  The variance and sigma are nan when N <= 0.
    """
    xs, counts, ideal = _conditional(scan)
    signal = counts - scan.accidental
    n = signal.sum()
    value, deviations = _variance(xs, signal)
    sigma = math.sqrt(np.sum((deviations - value) ** 2 * counts)) / n if n > 0 else math.nan
    return value, sigma, _variance(xs, ideal)[0]


@dataclass(frozen=True)
class EprReidResult:
    """Conditional-variance product for the OAM / angular-position pair, each
    variance and the product with its Poisson sigma and its model value."""

    delta_ell_sq: float
    sigma_ell_sq: float
    model_ell_sq: float
    delta_phi_sq: float
    sigma_phi_sq: float
    model_phi_sq: float
    product: float
    sigma_product: float
    model_product: float
    n_sigma_below_quarter: float
    violated: bool


def epr_reid(ell_scan: ScanResult, phi_scan: ScanResult) -> EprReidResult:
    """Reid's conditional-variance product from the two conditional scans.

    ``ell_scan`` runs over ell_A with ell_B held at 0 and ``phi_scan`` over
    the sector orientation of arm A with arm B's held at 0; each variance is
    :func:`conditional_variance`, the moment of the accidental-subtracted
    counts, as measured by Leach et al., Science 329, 662 (2010).  The two
    scans are independent, so the product's sigma adds their relative
    errors in quadrature.  The correlations are nonclassical when the
    product falls below Reid's bound 1/4; ``n_sigma_below_quarter`` is
    (1/4 - product) / sigma, as ``n_sigma_above_2`` is for the Bell
    parameter.  With no signal counts in a scan its estimates are nan and
    the bound is not violated.
    """
    (ell, ell_sigma, ell_model), (phi, phi_sigma, phi_model) = map(conditional_variance,
                                                                   (ell_scan, phi_scan))
    product = ell * phi
    sigma = math.hypot(phi * ell_sigma, ell * phi_sigma)
    return EprReidResult(
        delta_ell_sq=ell, sigma_ell_sq=ell_sigma, model_ell_sq=ell_model,
        delta_phi_sq=phi, sigma_phi_sq=phi_sigma, model_phi_sq=phi_model,
        product=product, sigma_product=sigma, model_product=ell_model * phi_model,
        n_sigma_below_quarter=(0.25 - product) / sigma if sigma != 0 else math.inf,
        violated=bool(product < 0.25))


@dataclass(frozen=True)
class BellSettings:
    """The ell-scaled analyzer orientations of the four-correlation Bell parameter.

    theta_a = 0, theta_a' = pi / (4 ell), theta_b = pi / (8 ell) and
    theta_b' = 3 pi / (8 ell), which give S = 2 sqrt(2) ideally.
    """

    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be a positive integer")

    # an alias of the constructor, kept only because bench/checks.py calls it
    @classmethod
    def canonical(cls, ell: int) -> "BellSettings":
        return cls(ell)

    @property
    def shift(self) -> float:
        """Orientation shift that flips a correlation: pi / (2 ell)."""
        return math.pi / (2 * self.ell)

    def orientations(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta_a, theta_b) of the 16 settings, each shaped (4, 4): entry (k, c)
        is base pair k, one of (a, b), (a, b'), (a', b), (a', b'), shifted by
        offset c, one of (0, 0), (shift, shift), (shift, 0), (0, shift)."""
        a, a_prime = 0.0, math.pi / (4 * self.ell)
        b, b_prime = math.pi / (8 * self.ell), 3 * math.pi / (8 * self.ell)
        s = self.shift
        offsets = np.array(((0.0, 0.0), (s, s), (s, 0.0), (0.0, s)))
        angles = np.array(((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)))[:, None, :] + offsets
        return angles[..., 0], angles[..., 1]


def analyzer_kets(phases) -> np.ndarray:
    """Equal-weight kets (|0> + e^{i phi} |1>) / sqrt(2), shaped phases.shape + (2,).

    Over {|+ell>, |-ell>} the analyzer hologram rotated by theta is the row at
    phi = 2 ell theta; the tomography superpositions take phi = 0, pi/2, pi, 3pi/2.
    """
    phases = np.asarray(phases, dtype=float)
    return np.stack([np.ones_like(phases), np.exp(1j * phases)], axis=-1) / math.sqrt(2.0)


def _bell_rates(joint: np.ndarray, ell: int, thetas_a, thetas_b, pair_rate: float) -> np.ndarray:
    """Rates of analyzer A at each of thetas_a with B at each of thetas_b, on the normalized ±ell block."""
    if ell == 0:
        raise ValueError("the Bell sector requires ell != 0")
    rows_a, rows_b = (analyzer_kets(2 * ell * np.ravel(thetas)) for thetas in (thetas_a, thetas_b))
    return analyzer_rates(restricted_ket(joint, [ell, -ell]).reshape(2, 2), rows_a, rows_b, pair_rate)


def bell_curve(joint: np.ndarray, ell: int, theta_a: float, thetas_b,
               model: CountModel, seed: int, pair_rate: float) -> ScanResult:
    """Coincidence fringe: analyzer A fixed at theta_a, analyzer B swept."""
    thetas_b = np.asarray(thetas_b, dtype=float)
    rates = _bell_rates(joint, ell, theta_a, thetas_b, pair_rate)[0]
    return _scan(("theta_b",), (thetas_b,), rates, model, seed)


def bell_counts(joint: np.ndarray, settings: BellSettings, model: CountModel,
                seed: int, pair_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize the 16 coincidence counts of the four-orientation pattern.

    Entry (k, c) is setting (k, c) of :meth:`BellSettings.orientations`.
    Returns (counts, ideal rates), both shaped (4, 4).
    """
    rates = _bell_rates(joint, settings.ell, *settings.orientations(), pair_rate)
    rates = np.diagonal(rates).reshape(4, 4).copy()
    return sample_counts(rates, model, seed), rates


def bell_parameter(counts, settings: BellSettings) -> tuple[float, float]:
    """Bell parameter S and its first-order Poisson uncertainty.

    ``counts`` is the (4, 4) array produced by :func:`bell_counts`: one row
    per base orientation pair, columns ordered (0,0), (+,+), (+,0), (0,+)
    where + is the pi/(2 ell) shift.  Each correlation is
    E = (C1 + C2 - C3 - C4) / (C1 + C2 + C3 + C4) and
    S = E(a,b) - E(a,b') + E(a',b) + E(a',b').  The uncertainty propagates
    independent Poisson errors sigma_C = sqrt(C) to first order.  Both are
    nan when a correlation has no counts.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (4, 4):
        raise ValueError("expected a (4, 4) array of coincidence counts")
    signs = (1.0, -1.0, 1.0, 1.0)
    s_value = 0.0
    s_var = 0.0
    for k in range(4):
        c = counts[k]
        total = c.sum()
        if total <= 0:
            return math.nan, math.nan
        e = (c[0] + c[1] - c[2] - c[3]) / total
        s_value += signs[k] * e
        s_var += ((1.0 - e) ** 2 * (c[0] + c[1]) + (1.0 + e) ** 2 * (c[2] + c[3])) / total**2
    return float(s_value), float(math.sqrt(s_var))


_PHASE_LABELS = {0.0: "0", math.pi / 2: "pi/2", math.pi: "pi", 3 * math.pi / 2: "3pi/2"}


def arm_projectors(d: int, ell_values) -> tuple[np.ndarray, list[str]]:
    """Per-arm tomography states: d pure kets plus pairwise superpositions.

    For every unordered pair (i, j) the four relative phases 0, pi/2, pi,
    3pi/2 are included: m = 2d^2 - d states, whose projectors span the d x d
    operators, so the m^2 settings a * m + b pairing kets a and b are
    informationally complete.  Returns the kets as rows of an (m, d) array,
    and their labels.
    """
    ell_values = [int(v) for v in ell_values]
    if len(ell_values) != d:
        raise ValueError("ell_values must contain exactly d entries")
    if len(set(ell_values)) != d:
        raise ValueError("ell_values must be distinct")
    # superposition (p, k) is analyzer ket k placed in columns (i[p], j[p])
    i, j = np.triu_indices(d, 1)
    pairs = np.arange(len(i))
    superpositions = np.zeros((len(i), len(_PHASE_LABELS), d), dtype=complex)
    superpositions[pairs, :, i], superpositions[pairs, :, j] = analyzer_kets(list(_PHASE_LABELS)).T
    kets = np.concatenate([np.eye(d, dtype=complex), superpositions.reshape(-1, d)])
    names = [f"l{ell:+d}" for ell in ell_values]
    labels = names + [f"({names[a]} + e^{{i {phase}}} {names[b]})"
                      for a, b in zip(i, j) for phase in _PHASE_LABELS.values()]
    return kets, labels


def run_tomography_experiment(ket, kets, model: CountModel, seed: int,
                              pair_rate: float) -> ScanResult:
    """Sampled coincidence counts of a tomography campaign, one per setting.

    Setting a * m + b pairs rows a and b of the m arm kets ``kets``, at ideal
    rate pair_rate |<ab|ket>|^2 for the pure state's d^2 amplitudes ``ket`` in kron
    order, and the scan's one axis, ``setting``, is its index; counts are
    Poisson samples with detector efficiency and accidentals, and a count
    depends only on the seed and that index."""
    d = np.shape(kets)[-1]
    rates = analyzer_rates(np.reshape(ket, (d, d)), kets, kets, pair_rate).ravel()
    return _scan(("setting",), (np.arange(len(rates)),), rates, model, seed)
