import math

import numpy as np
import pytest

from oamsim.modes import TransverseMode
from oracles import (
    BeamGeometry,
    LGMode,
    PolarGrid,
    SectorMode,
    SuperpositionMode,
    default_grid,
    integrate_polar,
    mode_overlap,
    polar_mesh,
    sector_coefficients,
)

GEO = BeamGeometry(waist=1.0)
GRID = default_grid(1.0)


class TestBeamGeometry:
    def test_derived_quantities(self):
        geo = BeamGeometry(wavelength=710e-9, waist=1e-3, z=0.0)
        assert geo.rayleigh_range == pytest.approx(math.pi * 1e-6 / 710e-9)
        assert geo.spot_size == geo.waist

    def test_spot_size_grows_with_z(self):
        geo = BeamGeometry(wavelength=710e-9, waist=1e-3, z=1.0)
        assert geo.spot_size > geo.waist

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BeamGeometry(waist=0.0)
        with pytest.raises(ValueError):
            BeamGeometry(wavelength=-1.0)


class TestLGMode:
    def test_zero_on_axis_for_nonzero_ell(self):
        mode = LGMode(ell=2, geometry=GEO)
        assert abs(mode.field(0.0, 0.0)) == 0.0

    def test_intensity_peak_radius(self):
        # for p = 0 the intensity r^{2|ell|} e^{-2r^2/w^2} peaks at w sqrt(|ell|/2)
        mode = LGMode(ell=4, geometry=GEO)
        r = np.linspace(0.01, 4.0, 4000)
        intensity = np.abs(mode.field(r, 0.0)) ** 2
        assert r[np.argmax(intensity)] == pytest.approx(math.sqrt(2.0), abs=2e-3)

    def test_unit_power(self):
        mode = LGMode(ell=3, p=0, geometry=GEO)
        power = integrate_polar(np.abs(mode.sample(GRID)) ** 2, GRID).real
        assert power == pytest.approx(1.0, abs=1e-6)

    def test_unit_power_with_radial_index(self):
        mode = LGMode(ell=1, p=2, geometry=GEO)
        power = integrate_polar(np.abs(mode.sample(GRID)) ** 2, GRID).real
        assert power == pytest.approx(1.0, abs=1e-6)

    def test_orthonormal_family(self):
        ells = range(-5, 6)
        fields = [LGMode(ell=l, geometry=GEO).sample(GRID) for l in ells]
        gram = np.array([[integrate_polar(np.conj(fa) * fb, GRID) for fb in fields] for fa in fields])
        assert np.max(np.abs(gram - np.eye(len(fields)))) < 1e-6

    def test_curvature_and_gouy_leave_power_unchanged(self):
        geo = BeamGeometry(wavelength=710e-9, waist=1e-3, z=2.0)
        mode = LGMode(ell=1, geometry=geo)
        grid = default_grid(geo.spot_size)
        power = integrate_polar(np.abs(mode.sample(grid)) ** 2, grid).real
        assert power == pytest.approx(1.0, abs=1e-6)


class TestTransverseMode:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("offset_waists", [(0.0, 0.0), (0.1, 0.0), (0.3, -0.2)])
    def test_matches_general_lg_oracle(self, gamma, offset_waists):
        w = 1.0 / gamma
        offset = (offset_waists[0] * w, offset_waists[1] * w)
        grid = default_grid(1.0, w)
        rows = TransverseMode(w, 20, offset).sample(grid)
        geo = BeamGeometry(waist=w)
        want = np.array([LGMode(ell=l, geometry=geo, offset=offset).sample(grid).ravel()
                         for l in range(-20, 21)])
        assert rows.shape == want.shape == (41, grid.n_r * grid.n_phi)
        assert np.max(np.abs(rows - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("offset", [(0.0, 0.0), (0.3, -0.2)])
    def test_negative_ell_is_exact_conjugate(self, offset):
        rows = TransverseMode(0.5, 20, offset).sample(GRID)
        assert np.array_equal(rows[:20], np.conj(rows[:20:-1]))

    def test_rejects_nonpositive_waist(self):
        with pytest.raises(ValueError):
            TransverseMode(0.0, 2)


class TestSuperpositionMode:
    def test_pole_is_pure_mode(self):
        sup = SuperpositionMode(ell=3, theta=0.0, geometry=GEO)
        pure = LGMode(ell=3, geometry=GEO)
        r, phi = polar_mesh(GRID)
        assert np.max(np.abs(sup.field(r, phi) - pure.field(r, phi))) < 1e-12

    def test_equator_petal_count(self):
        # equal-weight superposition of +-3 has intensity ~ cos^2(3 phi): six petals
        sup = SuperpositionMode(ell=3, theta=math.pi / 2.0, geometry=GEO)
        phi = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        intensity = np.abs(sup.field(1.2, phi)) ** 2
        maxima = 0
        for i in range(len(phi)):
            if intensity[i] > intensity[i - 1] and intensity[i] > intensity[(i + 1) % len(phi)]:
                maxima += 1
        assert maxima == 6

    def test_equator_intensity_follows_cos_squared(self):
        sup = SuperpositionMode(ell=3, theta=math.pi / 2.0, phase=0.4, geometry=GEO)
        phi = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        intensity = np.abs(sup.field(1.0, phi)) ** 2
        model = np.cos(3.0 * phi - 0.2) ** 2
        scale = np.sum(intensity * model) / np.sum(model**2)
        assert np.max(np.abs(intensity - scale * model)) < 1e-10 * scale

    def test_unit_power_on_equator(self):
        sup = SuperpositionMode(ell=2, theta=math.pi / 2.0, phase=1.0, geometry=GEO)
        power = integrate_polar(np.abs(sup.sample(GRID)) ** 2, GRID).real
        assert power == pytest.approx(1.0, abs=1e-6)


class TestSectorCoefficients:
    def test_full_aperture_has_only_dc(self):
        ells = np.arange(-6, 7)
        c = sector_coefficients(0.3, 2.0 * math.pi, ells)
        want = (ells == 0).astype(float)
        assert np.max(np.abs(c - want)) < 1e-12

    def test_symmetric_wedge_is_real_and_even(self):
        ells = np.arange(-6, 7)
        c = sector_coefficients(0.0, math.pi / 4.0, ells)
        assert np.max(np.abs(c.imag)) < 1e-14
        assert np.allclose(c, c[::-1])

    def test_dc_magnitude_independent_of_orientation(self):
        for beta in (0.0, 0.7, 2.1, -1.3):
            c0 = sector_coefficients(beta, math.pi / 8.0, [0])[0]
            assert abs(c0) == pytest.approx(math.pi / 8.0 / (2.0 * math.pi), rel=1e-12)

    def test_rotation_multiplies_by_phase(self):
        ells = np.arange(-5, 6)
        base = sector_coefficients(0.0, math.pi / 6.0, ells)
        delta = 0.9
        rotated = sector_coefficients(delta, math.pi / 6.0, ells)
        assert np.max(np.abs(rotated - base * np.exp(-1j * ells * delta))) < 1e-12

    def test_matches_quadrature_of_sector_mode(self):
        # cross-check against a direct overlap of the wedge field with an LG
        # mode: <LG_l | sector> = 2*pi * c_l * (radial integral), where the
        # radial part is evaluated here with an independent 1-D quadrature
        from scipy.integrate import quad

        width, beta, ell = math.pi / 3.0, 0.5, 2
        sector = SectorMode(beta=beta, width=width, geometry=GEO)
        lg = LGMode(ell=ell, geometry=GEO)
        got = mode_overlap(lg, sector, PolarGrid(r_max=6.0, n_r=256, n_phi=4096))

        c = sector_coefficients(beta, width, [ell])[0]
        lg_norm = math.sqrt(2.0 / (math.pi * math.factorial(ell)))
        env_norm = 1.0 / math.sqrt(width / 4.0)
        radial, _ = quad(
            lambda r: lg_norm * (math.sqrt(2.0) * r) ** ell * math.exp(-2.0 * r**2) * env_norm * r,
            0.0, 6.0)
        want = 2.0 * math.pi * c * radial
        assert got == pytest.approx(want, abs=2e-3 * abs(want))

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            sector_coefficients(0.0, 0.0, [0])


class TestModeOverlap:
    def test_normalization(self):
        a = LGMode(ell=1, geometry=GEO)
        assert mode_overlap(a, a, GRID).real == pytest.approx(1.0, abs=1e-6)

    def test_orthogonality(self):
        a = LGMode(ell=1, geometry=GEO)
        b = LGMode(ell=2, geometry=GEO)
        assert abs(mode_overlap(a, b, GRID)) < 1e-10

    def test_offset_breaks_orthogonality(self):
        a = LGMode(ell=0, geometry=GEO, offset=(0.3, 0.0))
        b = LGMode(ell=1, geometry=GEO)
        assert abs(mode_overlap(a, b, GRID)) > 1e-3

    def test_offset_preserves_power(self):
        a = LGMode(ell=1, geometry=GEO, offset=(0.2, -0.1))
        grid = PolarGrid(r_max=8.0, n_r=384, n_phi=256)
        assert mode_overlap(a, a, grid).real == pytest.approx(1.0, abs=1e-6)

    def test_rejects_mismatched_wavelengths(self):
        a = LGMode(ell=0, geometry=BeamGeometry(wavelength=710e-9))
        b = LGMode(ell=0, geometry=BeamGeometry(wavelength=355e-9))
        with pytest.raises(ValueError):
            mode_overlap(a, b, GRID)

    def test_fundamental_mode_matches_explicit_gaussian(self):
        w = 1.0
        lg = LGMode(ell=0, geometry=GEO)
        overlap = integrate_polar(
            lambda r, phi: np.conj(lg.field(r, phi)) * math.sqrt(2.0 / math.pi) / w * np.exp(-(r**2) / w**2),
            GRID)
        assert overlap.real == pytest.approx(1.0, abs=1e-6)


class TestSectorMode:
    def test_unit_power(self):
        sector = SectorMode(beta=1.0, width=math.pi / 8.0, geometry=GEO)
        power = integrate_polar(np.abs(sector.sample(PolarGrid(r_max=6.0, n_r=256, n_phi=4096))) ** 2,
                                PolarGrid(r_max=6.0, n_r=256, n_phi=4096)).real
        assert power == pytest.approx(1.0, abs=1e-3)

    def test_vanishes_outside_wedge(self):
        sector = SectorMode(beta=0.0, width=math.pi / 4.0, geometry=GEO)
        assert sector.field(1.0, math.pi) == 0.0
        assert abs(sector.field(1.0, 0.0)) > 0.0

    def test_wedge_wraps_around(self):
        sector = SectorMode(beta=math.pi, width=math.pi / 4.0, geometry=GEO)
        assert abs(sector.field(1.0, -math.pi + 0.05)) > 0.0
