"""The measurements: spiral bandwidth, angular correlations, EPR-Reid, Bell, tomography.

Each scan forms the ideal rates of its whole grid of settings as one array
and samples every count with one ``sample_counts`` call; a count depends only
on the seed and its setting's position.  Bell analyzers and tomography
superpositions are rows of ``analyzer_kets``; the tomography settings are an
array of joint kets, with rates from ``tomography.born_probabilities``.  The
statistics helpers (Gaussian fitting, conditional-variance products, Bell
parameter with error propagation) operate on counts and are reused by the
command-line runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .modes import sector_coefficients
from .spdc import DetectorConfig, TwoPhotonState, accidentals, sample_counts
from .tomography import born_probabilities


class FitError(RuntimeError):
    """Raised when a least-squares fit cannot be performed or fails to converge."""


@dataclass(frozen=True)
class GaussianFit:
    """Parameters of A exp(-(x - mean)^2 / (2 variance))."""

    amplitude: float
    mean: float
    variance: float
    residual_norm: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("fitted variance must be positive")

    @property
    def fwhm(self) -> float:
        return math.sqrt(8.0 * math.log(2.0) * self.variance)

    def __call__(self, x):
        return self.amplitude * np.exp(-((np.asarray(x) - self.mean) ** 2) / (2.0 * self.variance))


def fit_gaussian(xs, ys) -> GaussianFit:
    """Least-squares Gaussian fit A exp(-(x-mu)^2 / (2 s^2)) to (xs, ys).

    Needs at least four points that are not all equal.  Raises FitError on
    degenerate data or non-convergence.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise FitError("xs and ys must be 1-D arrays of equal length")
    if len(xs) < 4:
        raise FitError("need at least 4 points to fit a Gaussian")
    if np.ptp(ys) == 0:
        raise FitError("degenerate data: all values equal")

    peak = float(np.max(ys))
    mu0 = float(xs[np.argmax(ys)])
    weights = np.clip(ys, 0.0, None)
    spacing = np.min(np.diff(np.sort(xs)))
    if weights.sum() > 0:
        var0 = float(np.sum((xs - mu0) ** 2 * weights) / np.sum(weights))
    else:
        var0 = float(np.var(xs))
    s0 = math.sqrt(max(var0, (0.05 * spacing) ** 2))

    def residuals(p):
        a, mu, s = p
        return a * np.exp(-((xs - mu) ** 2) / (2.0 * s * s)) - ys

    result = least_squares(residuals, [peak, mu0, s0], method="lm",
                           ftol=1e-12, xtol=1e-12, gtol=1e-12, max_nfev=20000)
    if not result.success:
        raise FitError(f"gaussian fit did not converge: {result.message}")
    a, mu, s = result.x
    return GaussianFit(amplitude=float(a), mean=float(mu), variance=float(s * s),
                       residual_norm=float(np.linalg.norm(result.fun)))


@dataclass(frozen=True)
class ScanResult:
    """Coincidence data over a grid of settings plus the axes that generated it.

    ``ideal`` (float rates), ``counts`` (sampled integers) and ``accidental``
    (float estimates) each have one entry per setting, shaped like the axes.
    """

    axis_names: tuple[str, ...]
    axis_values: tuple[np.ndarray, ...]
    ideal: np.ndarray
    counts: np.ndarray
    accidental: np.ndarray

    def __post_init__(self):
        shape = tuple(len(v) for v in self.axis_values)
        if any(a.shape != shape for a in (self.ideal, self.counts, self.accidental)):
            raise ValueError(f"scan data shapes do not match axes {shape}")

    def __len__(self) -> int:
        """Number of settings."""
        return self.counts.size

    def columns(self) -> dict[str, np.ndarray]:
        """Table columns over the settings in C order: one per axis, headed by its
        ``axis_names`` entry, then ``ideal_rate``, ``count`` and ``accidental``."""
        coords = (c.ravel() for c in np.meshgrid(*self.axis_values, indexing="ij"))
        return dict(zip(self.axis_names, coords), ideal_rate=self.ideal.ravel(),
                    count=self.counts.ravel(), accidental=self.accidental.ravel())


def _scan(axis_names, axis_values, rates: np.ndarray, det: DetectorConfig, seed: int) -> ScanResult:
    accidental = np.full(rates.shape, accidentals(det) * det.integration_time)
    return ScanResult(axis_names, axis_values, rates, sample_counts(rates, det, seed), accidental)


def spiral_scan(state: TwoPhotonState, ells_a, ells_b, det: DetectorConfig,
                seed: int, pair_rate: float = 1e4) -> ScanResult:
    """Coincidence matrix over projector pairs (ell_A, ell_B).

    Ideal rates are pair_rate times the joint OAM probabilities of the state;
    the anti-diagonal of a square scan is the spiral spectrum.
    """
    ells_a = np.asarray(ells_a, dtype=int)
    ells_b = np.asarray(ells_b, dtype=int)
    probs = np.abs(state.joint[np.ix_(state.index_of(ells_a), state.index_of(ells_b))]) ** 2
    return _scan(("ell_a", "ell_b"), (ells_a.astype(float), ells_b.astype(float)),
                 pair_rate * probs, det, seed)


def angular_scan(state: TwoPhotonState, width: float, orientations_a, orientations_b,
                 det: DetectorConfig, seed: int, pair_rate: float = 1e4) -> ScanResult:
    """Coincidence map over sector-hologram orientations (beta_A, beta_B).

    Rates are computed in the OAM basis: the two sector projectors enter
    through their azimuthal Fourier coefficients, truncated to the state
    support and normalized to unit vectors there, one row per orientation.
    """
    if not 0.0 < width <= 2.0 * math.pi:
        raise ValueError("sector width must lie in (0, 2*pi]")
    orientations_a = np.asarray(orientations_a, dtype=float)
    orientations_b = np.asarray(orientations_b, dtype=float)
    ells = state.ells

    def arm_coeffs(betas):
        vecs = sector_coefficients(betas[:, None], width, ells)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        return vecs / norms

    ca = arm_coeffs(orientations_a)
    cb = arm_coeffs(orientations_b)
    # amplitude(beta_a, beta_b) = sum_{ls, li} joint[ls, li] c_ls(beta_a) c_li(beta_b)
    amps = ca @ state.joint @ cb.T
    return _scan(("beta_a", "beta_b"), (orientations_a, orientations_b),
                 pair_rate * np.abs(amps) ** 2, det, seed)


def conditional_profile(scan: ScanResult) -> tuple[np.ndarray, np.ndarray]:
    """Counts along axis 0 with axis 1 held at its value nearest zero, normalized to unit sum."""
    col = int(np.argmin(np.abs(scan.axis_values[1])))
    counts = scan.counts[:, col]
    total = counts.sum()
    if total <= 0:
        raise ValueError("conditional profile has no counts")
    return scan.axis_values[0], counts / total


def spiral_spectrum(scan: ScanResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anti-diagonal (ell, -ell) slice of a square spiral scan.

    Returns (ells, ideal rates, counts).
    """
    ells_a, ells_b = scan.axis_values
    rows, cols = [], []
    for i, ell in enumerate(ells_a):
        j = np.nonzero(ells_b == -ell)[0]
        if len(j):
            rows.append(i)
            cols.append(int(j[0]))
    if not rows:
        raise ValueError("scan has no (ell, -ell) pairs")
    return ells_a[rows], scan.ideal[rows, cols], scan.counts[rows, cols]


def spectrum_fwhm(xs, ys) -> float:
    """Full width at half maximum of a sampled peak.

    Uses linear interpolation of the half-maximum crossings when both lie
    inside the sampled window; otherwise falls back to the width of a fitted
    Gaussian, which extrapolates sensibly for spectra wider than the window.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.max(ys) <= 0:
        raise ValueError("spectrum must have positive values")
    y = ys / np.max(ys)
    peak = int(np.argmax(y))
    above = y >= 0.5
    if not above[0] and not above[-1]:
        left = np.nonzero(~above[:peak])[0]
        right = np.nonzero(~above[peak:])[0]
        if len(left) and len(right):
            li = left[-1]
            ri = peak + right[0]
            xl = xs[li] + (0.5 - y[li]) / (y[li + 1] - y[li]) * (xs[li + 1] - xs[li])
            xr = xs[ri - 1] + (0.5 - y[ri - 1]) / (y[ri] - y[ri - 1]) * (xs[ri] - xs[ri - 1])
            return float(xr - xl)
    return fit_gaussian(xs, ys).fwhm


@dataclass(frozen=True)
class EprReidResult:
    """Conditional-variance product for the OAM / angular-position pair."""

    delta_ell_sq: float
    delta_phi_sq: float
    product: float
    violated: bool
    ell_fit: GaussianFit
    angle_fit: GaussianFit
    discrete_ell_var: float
    discrete_phi_var: float


def epr_reid(ell_profile, angle_profile) -> EprReidResult:
    """Conditional-variance product from fitted profile widths.

    Both profiles are (values, probabilities) pairs normalized to unit sum;
    the widths are the variances of fitted Gaussians, following the
    profile-fitting analysis of the measured spectra.  The correlations are
    nonclassical when the product falls below Reid's bound 1/4.  The raw discrete
    variances are reported alongside for comparison.
    """
    results = []
    for xs, ps in (ell_profile, angle_profile):
        xs = np.asarray(xs, dtype=float)
        ps = np.asarray(ps, dtype=float)
        if abs(ps.sum() - 1.0) > 1e-6:
            raise ValueError("profiles must be normalized to unit sum")
        fit = fit_gaussian(xs, ps)
        mean = np.sum(xs * ps)
        results.append((fit, float(np.sum((xs - mean) ** 2 * ps))))
    (ell_fit, ell_disc), (angle_fit, angle_disc) = results
    product = ell_fit.variance * angle_fit.variance
    return EprReidResult(
        delta_ell_sq=ell_fit.variance,
        delta_phi_sq=angle_fit.variance,
        product=product,
        violated=bool(product < 0.25),
        ell_fit=ell_fit,
        angle_fit=angle_fit,
        discrete_ell_var=ell_disc,
        discrete_phi_var=angle_disc,
    )


@dataclass(frozen=True)
class BellSettings:
    """Analyzer orientations for the four-correlation Bell parameter.

    Orientations are taken modulo pi/ell, the period of the two-photon
    fringe in either analyzer angle.
    """

    ell: int
    theta_a: float
    theta_a_prime: float
    theta_b: float
    theta_b_prime: float

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be a positive integer")
        period = math.pi / self.ell
        for name in ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime"):
            object.__setattr__(self, name, getattr(self, name) % period)

    @classmethod
    def canonical(cls, ell: int) -> "BellSettings":
        """The ell-scaled optimal orientations, giving S = 2 sqrt(2) ideally."""
        return cls(ell=ell, theta_a=0.0, theta_a_prime=math.pi / (4 * ell),
                   theta_b=math.pi / (8 * ell), theta_b_prime=3 * math.pi / (8 * ell))

    @property
    def shift(self) -> float:
        """Orientation shift that flips a correlation: pi / (2 ell)."""
        return math.pi / (2 * self.ell)

    def base_pairs(self):
        return ((self.theta_a, self.theta_b), (self.theta_a, self.theta_b_prime),
                (self.theta_a_prime, self.theta_b), (self.theta_a_prime, self.theta_b_prime))

    def orientations(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta_a, theta_b) of the 16 settings, each shaped (4, 4): entry (k, c)
        is base pair k shifted by offset c, one of (0, 0), (shift, shift),
        (shift, 0), (0, shift)."""
        s = self.shift
        offsets = np.array(((0.0, 0.0), (s, s), (s, 0.0), (0.0, s)))
        angles = np.array(self.base_pairs())[:, None, :] + offsets
        return angles[..., 0], angles[..., 1]


def analyzer_kets(phases) -> np.ndarray:
    """Equal-weight kets (|0> + e^{i phi} |1>) / sqrt(2), shaped phases.shape + (2,).

    Over {|+ell>, |-ell>} the analyzer hologram rotated by theta is the row at
    phi = 2 ell theta; the tomography superpositions take phi = 0, pi/2, pi, 3pi/2.
    """
    phases = np.asarray(phases, dtype=float)
    return np.stack([np.ones_like(phases), np.exp(1j * phases)], axis=-1) / math.sqrt(2.0)


def bell_probability(state: TwoPhotonState, ell: int, theta_a, theta_b) -> np.ndarray:
    """Joint projection probabilities onto analyzers rotated to theta_a and theta_b.

    The state enters as its normalized ket over {|+ell>, |-ell>} in each arm;
    theta_a and theta_b broadcast against each other, and the result has
    their broadcast shape.
    """
    if ell == 0:
        raise ValueError("the Bell sector requires ell != 0")
    psi = state.restricted_ket([ell, -ell]).reshape(2, 2)
    va = analyzer_kets(2 * ell * np.asarray(theta_a, dtype=float))
    vb = analyzer_kets(2 * ell * np.asarray(theta_b, dtype=float))
    amps = np.sum((va.conj() @ psi) * vb.conj(), axis=-1)
    return np.abs(amps) ** 2


def bell_curve(state: TwoPhotonState, ell: int, theta_a: float, thetas_b,
               det: DetectorConfig, seed: int, pair_rate: float = 1e4) -> ScanResult:
    """Coincidence fringe: analyzer A fixed at theta_a, analyzer B swept."""
    thetas_b = np.asarray(thetas_b, dtype=float)
    rates = pair_rate * bell_probability(state, ell, theta_a, thetas_b)
    return _scan(("theta_b",), (thetas_b,), rates, det, seed)


def bell_counts(state: TwoPhotonState, settings: BellSettings, det: DetectorConfig,
                seed: int, pair_rate: float = 1e4) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize the 16 coincidence counts of the four-orientation pattern.

    Entry (k, c) is setting (k, c) of :meth:`BellSettings.orientations`.
    Returns (counts, ideal rates), both shaped (4, 4).
    """
    rates = pair_rate * bell_probability(state, settings.ell, *settings.orientations())
    return sample_counts(rates, det, seed), rates


def bell_parameter(counts, settings: BellSettings) -> tuple[float, float]:
    """Bell parameter S and its first-order Poisson uncertainty.

    ``counts`` is the (4, 4) array produced by :func:`bell_counts`: one row
    per base orientation pair, columns ordered (0,0), (+,+), (+,0), (0,+)
    where + is the pi/(2 ell) shift.  Each correlation is
    E = (C1 + C2 - C3 - C4) / (C1 + C2 + C3 + C4) and
    S = E(a,b) - E(a,b') + E(a',b) + E(a',b').  The uncertainty propagates
    independent Poisson errors sigma_C = sqrt(C) to first order.
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
            raise ValueError(f"correlation {k} has zero total counts")
        e = (c[0] + c[1] - c[2] - c[3]) / total
        s_value += signs[k] * e
        s_var += ((1.0 - e) ** 2 * (c[0] + c[1]) + (1.0 + e) ** 2 * (c[2] + c[3])) / total**2
    return float(s_value), float(math.sqrt(s_var))


_PHASE_LABELS = {0.0: "0", math.pi / 2: "pi/2", math.pi: "pi", 3 * math.pi / 2: "3pi/2"}


def arm_projectors(d: int, ell_values) -> tuple[np.ndarray, list[str]]:
    """Per-arm tomography states: d pure kets plus pairwise superpositions.

    For every unordered pair (i, j) the four relative phases 0, pi/2, pi,
    3pi/2 are included, giving the overcomplete set of 2d^2 - d states.
    Returns the kets as the rows of a (2d^2 - d, d) array, and their labels.
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


def tomography_settings(d: int, ell_values) -> np.ndarray:
    """Joint kets for two-arm state tomography in a d-dimensional basis.

    Row a * m + b is the kron product of arm kets a and b of
    :func:`arm_projectors`, m = 2d^2 - d of them per arm.  The per-arm set is
    informationally (over-)complete, so the m^2 joint projectors span the
    full operator space of d^2 x d^2 density matrices.
    """
    if not 2 <= d <= 5:
        raise ValueError("local dimension d must lie in [2, 5]")
    kets, _ = arm_projectors(d, ell_values)
    return (kets[:, None, :, None] * kets[None, :, None, :]).reshape(-1, d * d)


def run_tomography_experiment(rho, settings, det: DetectorConfig, seed: int,
                              flux: float = 1e4) -> ScanResult:
    """Sampled coincidence counts of a tomography campaign, one per setting.

    Row k of ``settings`` is a joint ket of ideal rate flux * <k| rho |k>;
    counts are Poisson samples including detector efficiency and
    accidentals.  The scan's one axis, ``setting``, is the row index, and a
    count depends only on the seed and that index.
    """
    # round-off can leave <k|rho|k> a hair below zero for a setting orthogonal to rho
    rates = flux * np.clip(born_probabilities(settings, rho), 0.0, None)
    return _scan(("setting",), (np.arange(len(rates)),), rates, det, seed)
