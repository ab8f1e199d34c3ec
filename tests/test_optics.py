import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpol.constants import free_space_k
from hyperpol.errors import ConeSingularityError, NonHyperbolicError, SingularMediumError
from hyperpol.material import UniaxialPermittivity, permittivity_at
from hyperpol.optics import (
    DipoleSource,
    FieldGrid,
    dipole_field,
    emission_angle,
    field_map,
    tm_kperp,
    waveguide_foci,
)


def uniaxial(epar, eperp, omega=1500.0):
    return UniaxialPermittivity(omega=omega, eps_parallel=complex(epar),
                                eps_perp=complex(eperp))


# --- TM dispersion -------------------------------------------------------------

def test_kperp_isotropic_normal_incidence():
    eps = uniaxial(2.25, 2.25)
    k = tm_kperp(eps, 0.0, 1500.0)
    assert k == pytest.approx(1.5 * free_space_k(1500.0), rel=1e-14)


def test_kperp_hyperbolic_asymptote():
    eps = uniaxial(-3.0, 1.2)
    k0 = free_space_k(1500.0)
    kpar = 1000.0 * k0
    k = tm_kperp(eps, kpar, 1500.0)
    assert k.imag == 0.0
    assert k.real / kpar == pytest.approx(math.sqrt(3.0 / 1.2), rel=1e-4)


def test_kperp_residual_example():
    eps = uniaxial(-3.0, 1.2)
    omega = 1500.0
    k0 = free_space_k(omega)
    kpar = 10.0 * k0
    k = tm_kperp(eps, kpar, omega)
    lhs = eps.eps_parallel * kpar**2 + eps.eps_perp * k**2
    rhs = eps.eps_parallel * eps.eps_perp * k0**2
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


@settings(max_examples=60, deadline=None)
@given(epar_re=st.floats(-8.0, 8.0), eperp_re=st.floats(-8.0, 8.0),
       epar_im=st.floats(0.0, 0.5), eperp_im=st.floats(0.0, 0.5),
       kfac=st.floats(0.0, 50.0))
def test_kperp_residual_property(epar_re, eperp_re, epar_im, eperp_im, kfac):
    if abs(eperp_re) < 1e-3 or abs(epar_re) < 1e-3:
        return
    eps = uniaxial(complex(epar_re, epar_im), complex(eperp_re, eperp_im))
    omega = 1500.0
    k0 = free_space_k(omega)
    kpar = kfac * k0
    k = tm_kperp(eps, kpar, omega)
    assert k.imag >= 0.0 or k.imag == pytest.approx(0.0, abs=1e-18)
    lhs = eps.eps_parallel * kpar**2 + eps.eps_perp * k**2
    rhs = eps.eps_parallel * eps.eps_perp * k0**2
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_kperp_singular_medium():
    with pytest.raises(SingularMediumError):
        tm_kperp(uniaxial(1.0, 0.0), 0.01, 1500.0)


# --- emission cone --------------------------------------------------------------

def test_emission_angle_symmetric_is_45deg():
    assert emission_angle(uniaxial(-2.0, 2.0)) == pytest.approx(math.pi / 4, rel=1e-14)


def test_emission_angle_closes_as_epar_vanishes():
    assert emission_angle(uniaxial(-1e-8, 2.0)) < 1e-4


def test_emission_angle_example():
    assert emission_angle(uniaxial(-3.0, 1.2)) == pytest.approx(
        math.atan(math.sqrt(2.5)), rel=1e-12)
    assert emission_angle(uniaxial(-3.0, 1.2)) == pytest.approx(1.0069, abs=1e-4)


def test_emission_angle_requires_hyperbolic():
    with pytest.raises(NonHyperbolicError):
        emission_angle(uniaxial(2.0, 3.0))


# --- dipole field ----------------------------------------------------------------

Z_DIPOLE = DipoleSource(moment=(0.0, 0.0, 1.0))


def test_isotropic_on_axis_static_dipole():
    eps = uniaxial(1.0, 1.0)
    for z in (1.0, 2.5, 7.0):
        s = dipole_field(eps, Z_DIPOLE, (0.0, 0.0, z))
        assert s.e_field[2].real == pytest.approx(2.0 / z**3, rel=1e-14)
        assert abs(s.e_field[0]) < 1e-15 and abs(s.e_field[1]) < 1e-15


def test_field_linear_in_moment(hbn):
    eps = permittivity_at(hbn, 1500.0)
    r = (13.0, 4.0, 9.0)
    one = dipole_field(eps, Z_DIPOLE, r)
    two = dipole_field(eps, DipoleSource(moment=(0.0, 0.0, 2.0)), r)
    assert np.allclose(two.e_field, 2.0 * one.e_field, rtol=1e-14)


def test_reflection_symmetry(hbn):
    eps = permittivity_at(hbn, 1500.0)
    for rho, z in [(5.0, 3.0), (11.0, 19.0), (2.0, 40.0)]:
        up = dipole_field(eps, Z_DIPOLE, (rho, 0.0, z))
        dn = dipole_field(eps, Z_DIPOLE, (rho, 0.0, -z))
        assert dn.e_field[2] == pytest.approx(up.e_field[2], rel=1e-14)
        assert dn.e_field[0] == pytest.approx(-up.e_field[0], rel=1e-14)


def test_analytic_gradient_matches_finite_differences(hbn):
    # E = -grad phi with phi = -(p . grad f)/sqrt(epar*eperp); differentiate
    # phi numerically (central differences) and compare away from the cone
    eps = permittivity_at(hbn, 1500.0)
    a = eps.eps_perp / eps.eps_parallel
    norm = np.sqrt(eps.eps_parallel * eps.eps_perp)

    def phi(x, y, z):
        s = x * x + y * y + a * z * z
        # p = z-hat: p . grad f = -s^{-3/2} * a * z
        return -(-(s ** -1.5) * a * z) / norm

    h = 1e-5
    for point in [(6.0, 2.0, 3.0), (10.0, -4.0, 25.0), (3.0, 0.5, -12.0)]:
        x, y, z = point
        grad = np.array([
            (phi(x + h, y, z) - phi(x - h, y, z)) / (2 * h),
            (phi(x, y + h, z) - phi(x, y - h, z)) / (2 * h),
            (phi(x, y, z + h) - phi(x, y, z - h)) / (2 * h),
        ])
        sample = dipole_field(eps, Z_DIPOLE, point)
        assert np.allclose(sample.e_field, -grad, rtol=1e-6)


def test_cone_enhancement(hbn):
    # field on the cone direction beats the same radius 20 degrees off by >10x
    eps = permittivity_at(hbn, 1500.0)
    slope = math.sqrt(-eps.eps_parallel.real / eps.eps_perp.real)
    ang = math.atan(slope)
    r = 50.0
    on = dipole_field(eps, Z_DIPOLE, (r * math.cos(ang), 0.0, r * math.sin(ang)))
    off_ang = ang - math.radians(20.0)
    off = dipole_field(eps, Z_DIPOLE, (r * math.cos(off_ang), 0.0, r * math.sin(off_ang)))
    assert on.intensity > 10.0 * off.intensity


def test_cone_singularity_raises(hbn_lossless):
    eps = permittivity_at(hbn_lossless, 1500.0)
    slope = math.sqrt(-eps.eps_parallel.real / eps.eps_perp.real)
    with pytest.raises(ConeSingularityError):
        dipole_field(eps, Z_DIPOLE, (10.0, 0.0, 10.0 * slope))


def test_source_point_rejected():
    with pytest.raises(ValueError):
        dipole_field(uniaxial(1.0, 1.0), Z_DIPOLE, (0.0, 0.0, 0.0))


def test_translated_source():
    eps = uniaxial(1.0, 1.0)
    shifted = DipoleSource(moment=(0.0, 0.0, 1.0), position=(2.0, -1.0, 5.0))
    a = dipole_field(eps, Z_DIPOLE, (1.0, 3.0, 4.0))
    b = dipole_field(eps, shifted, (3.0, 2.0, 9.0))
    assert np.allclose(a.e_field, b.e_field, rtol=1e-14)


# --- waveguide foci ---------------------------------------------------------------

def test_foci_symmetric_lossless_spacing():
    fs = waveguide_foci(uniaxial(2.0, -2.0), R=100.0)
    assert fs.delta_z == pytest.approx(200.0, rel=1e-12)


def test_foci_lossless_widths_hit_cutoff():
    fs = waveguide_foci(uniaxial(2.0, -2.0), R=100.0, a0=0.3, m_max=4)
    assert fs.widths == [0.3, 0.3, 0.3, 0.3]


def test_foci_widths_grow_linearly(hbn):
    eps = permittivity_at(hbn, 1500.0)
    fs = waveguide_foci(eps, R=100.0, a0=0.3, m_max=5)
    diffs = np.diff(fs.widths)
    assert np.all(np.asarray(fs.widths) >= 0.3)
    assert np.allclose(diffs, diffs[0], rtol=1e-9)
    assert diffs[0] > 0


def test_foci_requires_hyperbolic():
    with pytest.raises(NonHyperbolicError):
        waveguide_foci(uniaxial(2.0, 3.0), R=50.0)


# --- field map --------------------------------------------------------------------

def test_field_map_isotropic_max_on_axis():
    eps = uniaxial(1.0, 1.0)
    grid = FieldGrid(rho=(0.5, 20.0, 40), z=(0.5, 20.0, 40))
    intensity = field_map(eps, Z_DIPOLE, grid)
    # normalized by the 1/r^6 envelope, cells closest to the axis win
    rho = grid.rho_axis()
    z = grid.z_axis()
    rr, zz = np.meshgrid(rho, z)
    radius = np.hypot(rr, zz)
    shell = (radius > 9.5) & (radius < 10.5)
    vals = (intensity * radius**6)[shell]
    angles = np.arctan2(zz, rr)[shell]
    order = np.argsort(angles)
    assert vals[order[-1]] == pytest.approx(vals.max(), rel=1e-3)


def ridge_angle(intensity, grid):
    rho = grid.rho_axis()
    z = grid.z_axis()
    i, j = np.unravel_index(np.nanargmax(intensity), intensity.shape)
    return math.atan2(z[i], rho[j]), i, j


def test_field_map_ridge_matches_emission_angle(hbn):
    eps = permittivity_at(hbn, 1500.0)
    grid = FieldGrid(rho=(1.0, 80.0, 120), z=(1.0, 80.0, 120))
    intensity = field_map(eps, Z_DIPOLE, grid)
    ang, i, j = ridge_angle(intensity, grid)
    target = emission_angle(eps)
    # one-cell angular resolution at the ridge location
    cell = (grid.rho[1] - grid.rho[0]) / (grid.rho[2] - 1)
    r = math.hypot(grid.rho_axis()[j], grid.z_axis()[i])
    assert abs(ang - target) <= cell / r * 1.5


def test_field_map_ridge_grid_converges(hbn):
    eps = permittivity_at(hbn, 1500.0)
    coarse = FieldGrid(rho=(1.0, 80.0, 60), z=(1.0, 80.0, 60))
    fine = FieldGrid(rho=(1.0, 80.0, 120), z=(1.0, 80.0, 120))
    a1, i1, j1 = ridge_angle(field_map(eps, Z_DIPOLE, coarse), coarse)
    a2, i2, j2 = ridge_angle(field_map(eps, Z_DIPOLE, fine), fine)
    cell = (coarse.rho[1] - coarse.rho[0]) / (coarse.rho[2] - 1)
    r = math.hypot(coarse.rho_axis()[j1], coarse.z_axis()[i1])
    assert abs(a1 - a2) <= 0.5 * cell / r


def test_field_map_masks_cone_singularities(hbn_lossless):
    eps = permittivity_at(hbn_lossless, 1500.0)
    slope = math.sqrt(-eps.eps_parallel.real / eps.eps_perp.real)
    # grid with one node exactly on the cone
    rho0 = 10.0
    grid = FieldGrid(rho=(rho0, rho0 + 1.0, 2), z=(rho0 * slope, rho0 * slope + 1.0, 2))
    intensity = field_map(eps, Z_DIPOLE, grid)
    assert np.isnan(intensity[0, 0])
    assert np.isfinite(intensity[1, 1])


def field_loop(eps, src, grid):
    """The field map rebuilt point by point from dipole_field."""
    out = np.empty((grid.z[2], grid.rho[2]))
    for i, zz in enumerate(grid.z_axis()):
        for j, rr in enumerate(grid.rho_axis()):
            try:
                out[i, j] = dipole_field(eps, src, (rr, 0.0, zz)).intensity
            except (ConeSingularityError, ValueError):
                out[i, j] = np.nan
    return out


def assert_same_map(got, ref):
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0, equal_nan=True)


def test_field_map_matches_dipole_field_on_lossless_cone(hbn_lossless):
    eps = permittivity_at(hbn_lossless, 1500.0)
    slope = math.sqrt(-eps.eps_parallel.real / eps.eps_perp.real)
    # rho steps of 2 and z steps of 2*slope put the diagonal nodes on the cone
    grid = FieldGrid(rho=(2.0, 20.0, 10), z=(2.0 * slope, 20.0 * slope, 10))
    got = field_map(eps, Z_DIPOLE, grid)
    ref = field_loop(eps, Z_DIPOLE, grid)
    assert np.isnan(np.diag(got)).sum() >= 5
    assert_same_map(got, ref)


def test_field_map_matches_dipole_field_at_source():
    eps = uniaxial(2.0, 3.0)
    grid = FieldGrid(rho=(0.0, 4.0, 5), z=(-2.0, 2.0, 5))
    got = field_map(eps, Z_DIPOLE, grid)
    assert np.isnan(got[2, 0]) and np.isnan(got).sum() == 1
    assert_same_map(got, field_loop(eps, Z_DIPOLE, grid))


def test_field_map_matches_dipole_field_off_origin_complex_moment(hbn):
    eps = permittivity_at(hbn, 1480.0)
    src = DipoleSource(moment=(0.3 + 0.2j, 0.0, 1.0 - 0.5j), position=(3.0, 0.0, 5.0))
    grid = FieldGrid(rho=(-9.0, 31.0, 21), z=(-5.0, 35.0, 17))
    got = field_map(eps, src, grid)
    assert np.isnan(got[4, 6]) and np.isnan(got).sum() == 1   # the source node (3, 0, 5)
    assert_same_map(got, field_loop(eps, src, grid))


@pytest.mark.parametrize("epar, eperp, name", [(0.0, 2.0, "eps_parallel"),
                                               (2.0, 0.0, "eps_perp")])
def test_singular_medium_raises(epar, eperp, name):
    eps = uniaxial(epar, eperp)
    with pytest.raises(SingularMediumError, match=f"{name} = 0"):
        field_map(eps, Z_DIPOLE, FieldGrid(rho=(1.0, 3.0, 3), z=(1.0, 3.0, 3)))
    with pytest.raises(SingularMediumError, match=f"{name} = 0"):
        dipole_field(eps, Z_DIPOLE, (1.0, 0.0, 2.0))
