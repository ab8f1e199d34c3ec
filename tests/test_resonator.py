import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from hyperpol.constants import E2_PER_NM_MEV, omega_to_mev
from hyperpol.errors import DivergenceError, NoResonanceError, NonHyperbolicError
from hyperpol.material import loss_scaled, permittivity_at, upper_band
from hyperpol.optics import sqrt_ratio
from hyperpol.resonator import (
    ResonatorGeometry,
    _inv_D_resummed,
    _rho_cav,
    bessel_j0_zeros,
    bulk_axis_J12,
    coupling_J12_hsr,
    design_window,
    effective_reflection,
    elliptic_correction,
    gamma_self,
    hsr_aspect,
    hsr_frequency,
    hsr_locus_aspect,
    jc_coupling_g,
    pair_response,
    resonance_map,
)


def on_resonance_geometry(model, omega, R, h, m=1):
    eps = permittivity_at(model, omega)
    d = 4.0 * R * m / sqrt_ratio(eps).real
    return ResonatorGeometry(R=R, d=d, h=h)


# --- bessel zeros ----------------------------------------------------------------

def test_bessel_zero_values():
    x = bessel_j0_zeros(3)
    assert x[0] == pytest.approx(2.404825557695773, rel=1e-12)
    assert x[1] == pytest.approx(5.520078110286311, rel=1e-12)
    # asymptote pi(n - 1/4) deviates by 2% at n=1, much less later
    assert abs(x[0] - np.pi * 0.75) > 0.04
    assert abs(x[2] - np.pi * 2.75) < 0.02


# --- resonance condition ----------------------------------------------------------

def test_hsr_direct_inversion(hbn, band):
    omega_star = 1500.0
    req = sqrt_ratio(permittivity_at(hbn, omega_star)).real
    R = 50.0
    d = 4.0 * R / req
    assert hsr_frequency(hbn, R, d, 1, band) == pytest.approx(omega_star, rel=1e-8)


def test_hsr_synthetic_full_ratio_sweep(hbn_lossless):
    # without damping the ratio sweeps 0 -> infinity across the band, so any
    # positive target has exactly one root
    from hyperpol.material import upper_band
    band0 = upper_band(hbn_lossless)
    for target in (0.05, 0.5, 5.0, 50.0):
        d = 4.0 * 100.0 / target
        w = hsr_frequency(hbn_lossless, 100.0, d, 1, band0)
        req = sqrt_ratio(permittivity_at(hbn_lossless, w)).real
        assert abs(req - target) / target < 1e-9


def test_hsr_monotone_bracket_unique(hbn, band, rng):
    # ratio targets across the attainable range each give exactly one root
    for target in rng.uniform(0.3, 6.0, size=20):
        d = 4.0 * 100.0 / target
        w = hsr_frequency(hbn, 100.0, d, 1, band)
        req = sqrt_ratio(permittivity_at(hbn, w)).real
        assert abs(req - target) / target < 1e-9


def test_hsr_r100_d50_in_band(hbn, band):
    w = hsr_frequency(hbn, 100.0, 50.0, 1, band)
    assert band.omega_low < w < band.omega_high
    assert 1360.0 < w < 1640.0


def test_hsr_unattainable_reports_range(hbn, band):
    with pytest.raises(NoResonanceError, match="attainable ratio range"):
        hsr_frequency(hbn, 1000.0, 1.0, 3, band)


def test_hsr_aspect_formula(hbn):
    omega = 1500.0
    req = sqrt_ratio(permittivity_at(hbn, omega)).real
    assert hsr_aspect(hbn, omega, 1) == pytest.approx(4.0 / req, rel=1e-14)
    assert hsr_aspect(hbn, omega, 2) == pytest.approx(2 * hsr_aspect(hbn, omega, 1))


def test_hsr_aspect_requires_hyperbolic(hbn):
    with pytest.raises(NonHyperbolicError):
        hsr_aspect(hbn, 1000.0, 1)


def test_hsr_roundtrip(hbn, band):
    omega = 1480.0
    for m in (1, 2):
        d = hsr_aspect(hbn, omega, m) * 80.0
        assert hsr_frequency(hbn, 80.0, d, m, band) == pytest.approx(omega, rel=1e-8)


def scalar_hsr_roots(model, band, targets):
    """hsr_frequency's root for each target 4Rm/d, its 257-point scan made one
    scalar omega at a time (None where the scan finds no sign change)."""
    def req(w):
        return sqrt_ratio(permittivity_at(model, w)).real

    grid = np.linspace(band.omega_low * (1 + 1e-9) + 1e-9, band.omega_high * (1 - 1e-9), 257)
    scan = np.array([req(w) for w in grid])
    roots = []
    for target in targets:
        idx = np.flatnonzero(np.diff(np.sign(scan - target)) != 0)
        roots.append(None if idx.size == 0 else brentq(
            lambda w: req(w) - target, grid[idx[0]], grid[idx[0] + 1], xtol=1e-12,
            rtol=8.9e-16, maxiter=200))
    return roots


def test_hsr_frequency_array_scan_matches_scalar_scan(hbn):
    R, found = 100.0, 0
    cases = [(aspect * R, m) for aspect in np.linspace(2.0, 8.0, 120) for m in (1, 2)]
    for scale in (1.0, 1.0 / 3.0, 0.1):
        model = loss_scaled(hbn, scale)
        band = upper_band(model)
        refs = scalar_hsr_roots(model, band, [4.0 * R * m / d for d, m in cases])
        for (d, m), ref in zip(cases, refs):
            if ref is None:
                with pytest.raises(NoResonanceError):
                    hsr_frequency(model, R, d, m, band)
                continue
            assert hsr_frequency(model, R, d, m, band) == ref
            found += 1
    assert found > 300


def test_hsr_locus_aspect_broadcasts(hbn):
    omegas = np.linspace(1300.0, 1700.0, 81)
    loci = hsr_locus_aspect(hbn, omegas, m=2)
    scalar = [hsr_locus_aspect(hbn, float(w), m=2) for w in omegas]
    np.testing.assert_allclose(loci, [np.nan if a is None else a for a in scalar],
                               rtol=1e-15, atol=0)
    inside = ~np.isnan(loci)
    assert 0 < inside.sum() < len(omegas)
    np.testing.assert_allclose(loci[inside], [hsr_aspect(hbn, w, 2) for w in omegas[inside]],
                               rtol=1e-15, atol=0)


# --- single-emitter coupling -------------------------------------------------------

def test_jc_vanishes_at_m4():
    with pytest.warns(UserWarning):
        assert jc_coupling_g(1.0, 1500.0, 50.0, 3.0, 4) == 0.0


def test_jc_scaling():
    base = jc_coupling_g(1.0, 1500.0, 50.0, 3.0, 1)
    assert jc_coupling_g(2.0, 1500.0, 50.0, 3.0, 1) == pytest.approx(2 * base)
    assert jc_coupling_g(1.0, 1500.0, 50.0, 6.0, 1) == pytest.approx(base / 2)


def test_jc_hand_value():
    # p=e*1nm, h=3nm, d=50nm, photon 100 meV, m=1:
    # 0.5*sqrt(1439.96*100/(3*50*9)) = 5.164 meV
    omega = 100.0 / 0.1239842
    expected = 0.5 * np.sqrt(E2_PER_NM_MEV * 100.0 / (3.0 * 50.0 * 9.0))
    assert jc_coupling_g(1.0, omega, 50.0, 3.0, 1) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(5.164, abs=2e-3)


# --- pair response -----------------------------------------------------------------

def test_pair_response_zero_moment(hbn):
    geom = ResonatorGeometry(R=50.0, d=150.0, h=5.0)
    pr = pair_response(hbn, geom, 1500.0, 0.0, 1.0)
    assert pr.J == 0.0 and pr.Gamma == 0.0


def test_lossless_off_resonance_gamma_vanishes(hbn_lossless):
    geom = ResonatorGeometry(R=50.0, d=140.0, h=5.0)
    direct = pair_response(hbn_lossless, geom, 1500.0, 1.0, 1.0,
                           formulation="direct", n_terms=800)
    assert direct.Gamma == 0.0
    resummed = pair_response(hbn_lossless, geom, 1500.0, 1.0, 1.0,
                             formulation="resummed", n_terms=800)
    assert abs(resummed.Gamma) < 1e-10 * max(abs(resummed.J), 1.0)


def test_direct_equals_resummed(hbn_enriched):
    geom = on_resonance_geometry(hbn_enriched, 1500.0, 100.0, 5.0)
    for n in (100, 400):
        a = pair_response(hbn_enriched, geom, 1500.0, 1.0, 1.0,
                          formulation="direct", n_terms=n)
        b = pair_response(hbn_enriched, geom, 1500.0, 1.0, 1.0,
                          formulation="resummed", n_terms=n)
        va, vb = complex(a.J, a.Gamma), complex(b.J, b.Gamma)
        assert abs(va - vb) / abs(va) < 1e-10


def test_series_within_factor2_of_closed_form(hbn):
    # small radius keeps the loss length below the spacer, the regime where
    # the closed forms are tight
    omega = 1500.0
    geom = on_resonance_geometry(hbn, omega, 10.0, 5.0)
    pr = pair_response(hbn, geom, omega, 1.0, 1.0)
    forms = coupling_J12_hsr(hbn, geom, omega, 1.0)
    assert forms.j_bounce / 2.0 <= pr.J <= forms.j_bounce * 2.0


def test_lossless_series_matches_closed_form(hbn_lossless):
    omega = 1500.0
    geom = on_resonance_geometry(hbn_lossless, omega, 100.0, 5.0)
    pr = pair_response(hbn_lossless, geom, omega, 1.0, 1.0, n_terms=4000)
    assert pr.J == pytest.approx(4.0 * E2_PER_NM_MEV / 125.0, rel=0.05)


def test_reciprocity_exact(hbn_enriched):
    geom = on_resonance_geometry(hbn_enriched, 1500.0, 60.0, 5.0)
    ab = pair_response(hbn_enriched, geom, 1500.0, 0.7, 1.3)
    ba = pair_response(hbn_enriched, geom, 1500.0, 1.3, 0.7)
    assert ab.J == ba.J
    assert ab.Gamma == ba.Gamma


@pytest.mark.parametrize("R,h", [(30.0, 4.0), (100.0, 5.0), (60.0, 10.0)])
def test_truncation_estimate_bounds_tail(hbn, R, h):
    geom = on_resonance_geometry(hbn, 1500.0, R, h)
    short = pair_response(hbn, geom, 1500.0, 1.0, 1.0, n_terms=60)
    long = pair_response(hbn, geom, 1500.0, 1.0, 1.0, n_terms=120)
    change = abs(complex(long.J, long.Gamma) - complex(short.J, short.Gamma))
    assert change <= short.truncation_estimate


def test_adaptive_truncation_converged(hbn_enriched):
    geom = on_resonance_geometry(hbn_enriched, 1500.0, 100.0, 5.0)
    pr = pair_response(hbn_enriched, geom, 1500.0, 1.0, 1.0)
    assert pr.truncation_estimate < 1e-6 * max(abs(pr.J), abs(pr.Gamma))


def test_effective_reflection_passive(hbn):
    for w in np.linspace(1375.0, 1605.0, 24):
        r = effective_reflection(permittivity_at(hbn, w), 11.7 + 0.0j)
        assert abs(r) <= 1.0 + 1e-12


def test_self_response_requires_spacer(hbn):
    geom = ResonatorGeometry(R=50.0, d=150.0, h=0.0)
    with pytest.raises(DivergenceError):
        pair_response(hbn, geom, 1500.0, 1.0, 1.0, placement="self")


def test_self_response_lossless_real(hbn_lossless):
    geom = ResonatorGeometry(R=50.0, d=140.0, h=5.0)
    pr = pair_response(hbn_lossless, geom, 1500.0, 1.0, 1.0, placement="self",
                       formulation="direct", n_terms=2000)
    assert abs(pr.Gamma) < 1e-9 * max(abs(pr.J), 1.0)


def test_self_response_gamma_positive_in_band(hbn):
    for w in (1420.0, 1500.0, 1570.0):
        for h in (3.0, 8.0):
            geom = ResonatorGeometry(R=50.0, d=150.0, h=h)
            pr = pair_response(hbn, geom, w, 1.0, 1.0, placement="self")
            assert pr.Gamma >= 0.0


def test_self_response_grows_as_h_shrinks(hbn):
    geoms = [ResonatorGeometry(R=50.0, d=150.0, h=h) for h in (4.0, 1.0, 0.25)]
    gammas = [pair_response(hbn, g, 1500.0, 1.0, 1.0, placement="self").Gamma
              for g in geoms]
    assert gammas[0] < gammas[1] < gammas[2]


def test_perpendicular_orientation_rejected(hbn):
    geom = ResonatorGeometry(R=50.0, d=150.0, h=5.0)
    with pytest.raises(NotImplementedError):
        pair_response(hbn, geom, 1500.0, 1.0, 1.0, orientation="x")


def test_cross_decay_below_self_decay(hbn_enriched):
    # |Im pair response| stays well under the self-decoherence rate
    omega = 1500.0
    geom = on_resonance_geometry(hbn_enriched, omega, 100.0, 5.0)
    g12 = pair_response(hbn_enriched, geom, omega, 1.0, 1.0).Gamma
    g11 = gamma_self(hbn_enriched, geom, omega, 1.0)
    assert abs(g12) < g11 / 3.0


# --- closed forms -------------------------------------------------------------------

def test_closed_form_lossless_limit(hbn_lossless):
    geom = on_resonance_geometry(hbn_lossless, 1500.0, 100.0, 5.0)
    forms = coupling_J12_hsr(hbn_lossless, geom, 1500.0, 1.0)
    # h* = 0: 8 p^2 / (2 h^3) = 4*1439.96/125
    assert forms.j_loss_length == pytest.approx(4.0 * E2_PER_NM_MEV / 125.0, rel=1e-12)
    assert forms.j_bounce == pytest.approx(forms.j_loss_length, rel=1e-12)


def test_closed_form_quadratic_in_p(hbn_enriched):
    geom = on_resonance_geometry(hbn_enriched, 1500.0, 100.0, 5.0)
    one = coupling_J12_hsr(hbn_enriched, geom, 1500.0, 1.0)
    two = coupling_J12_hsr(hbn_enriched, geom, 1500.0, 2.0)
    assert two.j_loss_length == pytest.approx(4 * one.j_loss_length)
    assert two.j_bounce == pytest.approx(4 * one.j_bounce)


def test_closed_forms_agree_on_resonance(hbn_enriched):
    geom = on_resonance_geometry(hbn_enriched, 1500.0, 100.0, 5.0)
    forms = coupling_J12_hsr(hbn_enriched, geom, 1500.0, 1.0)
    assert forms.ratio == pytest.approx(1.0, rel=1e-12)


def test_enriched_coupling_near_photon_energy(hbn_enriched):
    # strong-coupling headline: J12 within a factor 3 of 100 meV
    geom = on_resonance_geometry(hbn_enriched, 1500.0, 100.0, 5.0)
    forms = coupling_J12_hsr(hbn_enriched, geom, 1500.0, 1.0)
    for j in (forms.j_loss_length, forms.j_bounce):
        assert 100.0 / 3.0 <= j <= 100.0 * 3.0


# --- elliptic correction -------------------------------------------------------------

def test_elliptic_fixed_point():
    e = np.sqrt(2.0) - 1.0
    assert elliptic_correction(10.0, e) == pytest.approx(10.0, rel=1e-12)


def test_elliptic_half():
    assert elliptic_correction(8.0, 0.5) == pytest.approx(6.0, rel=1e-14)


def test_elliptic_zero_coupling():
    assert elliptic_correction(0.0, 0.3) == 0.0


def test_elliptic_rejects_circular_limit():
    with pytest.raises(DivergenceError):
        elliptic_correction(1.0, 0.0)
    with pytest.raises(DivergenceError):
        elliptic_correction(1.0, 1.0)


# --- gamma_self -----------------------------------------------------------------------

def test_gamma_lossless_vanishes(hbn_lossless):
    geom = ResonatorGeometry(R=100.0, d=50.0, h=5.0)
    for method in ("closed_form", "closed_form_alt", "quadrature"):
        assert gamma_self(hbn_lossless, geom, 1500.0, 1.0, method=method) == 0.0


def test_gamma_saturates_for_thick_resonator(hbn):
    # d |Im q| >> h: the integral tends to Int t^2 e^-t = 2
    eps = permittivity_at(hbn, 1500.0)
    q = sqrt_ratio(eps)
    h = 1.0
    d = 5000.0 / abs(q.imag)
    geom = ResonatorGeometry(R=100.0, d=d, h=h)
    pref = abs((11.7 * (eps.eps_perp - eps.eps_parallel) * q / eps.eps_parallel**2).real)
    expected = E2_PER_NM_MEV / (2.0 * h**3) * pref * 2.0
    assert gamma_self(hbn, geom, 1500.0, 1.0, method="quadrature") == pytest.approx(
        expected, rel=1e-6)
    assert gamma_self(hbn, geom, 1500.0, 1.0, method="closed_form") == pytest.approx(
        expected, rel=1e-6)


def test_gamma_closed_vs_quadrature(hbn):
    geom = ResonatorGeometry(R=100.0, d=50.0, h=5.0)
    gc = gamma_self(hbn, geom, 1500.0, 1.0, method="closed_form")
    gq = gamma_self(hbn, geom, 1500.0, 1.0, method="quadrature")
    assert abs(gc - gq) / gq < 0.15


def test_gamma_quadrature_against_external_quad(hbn):
    # independent evaluation of the same integral with scipy.quad directly
    eps = permittivity_at(hbn, 1500.0)
    q = sqrt_ratio(eps)
    h, d = 5.0, 50.0
    b = abs(q.imag) * d / h
    val, _ = quad(lambda t: t * t * np.exp(-t) * np.tanh(b * t), 0.0, np.inf)
    pref = abs((11.7 * (eps.eps_perp - eps.eps_parallel) * q / eps.eps_parallel**2).real)
    expected = E2_PER_NM_MEV / (2.0 * h**3) * pref * val
    geom = ResonatorGeometry(R=100.0, d=d, h=h)
    assert gamma_self(hbn, geom, 1500.0, 1.0, method="quadrature") == pytest.approx(
        expected, rel=1e-7)


def test_gamma_monotone_in_h(hbn):
    for method in ("closed_form", "quadrature"):
        vals = [gamma_self(hbn, ResonatorGeometry(R=100.0, d=50.0, h=h), 1500.0, 1.0,
                           method=method)
                for h in np.linspace(2.0, 40.0, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gamma_positive_over_grid(hbn):
    for w in (1400.0, 1500.0, 1590.0):
        for h in (2.0, 10.0):
            for d in (30.0, 200.0):
                geom = ResonatorGeometry(R=100.0, d=d, h=h)
                assert gamma_self(hbn, geom, w, 1.0) >= 0.0
                assert gamma_self(hbn, geom, w, 1.0, method="closed_form_alt") >= 0.0


def test_gamma_requires_spacer(hbn):
    geom = ResonatorGeometry(R=100.0, d=50.0, h=0.0)
    with pytest.raises(DivergenceError):
        gamma_self(hbn, geom, 1500.0, 1.0)


# --- bulk coupling ----------------------------------------------------------------------

def test_bulk_scalings(hbn_enriched):
    eps = permittivity_at(hbn_enriched, 1500.0)
    base = bulk_axis_J12(eps, 1.0, 100.0)
    assert bulk_axis_J12(eps, 2.0, 100.0) == pytest.approx(4 * base)
    assert bulk_axis_J12(eps, 1.0, 200.0) == pytest.approx(base / 8)


def test_bulk_magnitude(hbn_enriched):
    eps = permittivity_at(hbn_enriched, 1500.0)
    j = bulk_axis_J12(eps, 1.0, 100.0)
    assert 100.0 / 3.0 <= j <= 100.0 * 3.0


def test_bulk_pole():
    from hyperpol.material import UniaxialPermittivity
    eps = UniaxialPermittivity(1500.0, complex(2.0), complex(0.5))
    with pytest.raises(ZeroDivisionError):
        bulk_axis_J12(eps, 1.0, 100.0)


# --- design window ----------------------------------------------------------------------

def test_design_window_hand_formula(hbn_enriched):
    omega = 1490.0
    geom = ResonatorGeometry(R=100.0, d=50.0, h=5.0)
    q = sqrt_ratio(permittivity_at(hbn_enriched, omega))
    win = design_window(hbn_enriched, geom, omega, r_eg=2.0)
    assert win.h_star == pytest.approx(50.0 * abs(q.imag), rel=1e-14)
    assert win.h_c == pytest.approx(
        40.0 * (E2_PER_NM_MEV * 4.0 / omega_to_mev(omega)) ** (1 / 3), rel=1e-14)
    assert win.ratio == pytest.approx(win.h_c / win.h_star, rel=1e-14)


def test_design_window_scaling_with_im():
    # h* = d |Im sqrt(-eps_perp/eps_par)|: 0.03 at d = 50 gives 1.5 nm
    assert 50.0 * 0.03 == pytest.approx(1.5)


def test_design_window_lossless(hbn_lossless):
    geom = ResonatorGeometry(R=100.0, d=50.0, h=5.0)
    win = design_window(hbn_lossless, geom, 1500.0, r_eg=2.0)
    assert win.h_star == 0.0
    assert win.feasible
    assert win.ratio == np.inf


def test_design_window_h_above_hc_infeasible(hbn_lossless):
    geom = ResonatorGeometry(R=100.0, d=50.0, h=500.0)
    win = design_window(hbn_lossless, geom, 1500.0, r_eg=2.0)
    assert not win.feasible


# --- resonance map ------------------------------------------------------------------------

def test_resonance_map_shapes_and_locus(hbn):
    geom = ResonatorGeometry(R=100.0, d=300.0, h=5.0)
    rm = resonance_map(hbn, geom, omega_range=(1450.0, 1550.0),
                       aspect_range=(2.9, 3.9), shape=(12, 16))
    assert rm.log10_magnitude.shape == (12, 16)
    assert np.all(np.isfinite(rm.log10_magnitude))
    a = hsr_locus_aspect(hbn, 1500.0)
    assert a == pytest.approx(hsr_aspect(hbn, 1500.0, 1))
    assert hsr_locus_aspect(hbn, 1000.0) is None


def test_resonance_map_row_peak_on_locus(hbn):
    # fixed frequency row: the aspect maximizing the response is the
    # super-resonance aspect (window ratio < 1.5 keeps other families out)
    geom = ResonatorGeometry(R=100.0, d=300.0, h=5.0)
    rm = resonance_map(hbn, geom, omega_range=(1498.0, 1502.0),
                       aspect_range=(2.8, 4.1), shape=(3, 64))
    a_loc = hsr_locus_aspect(hbn, 1500.0)
    row = rm.log10_magnitude[1]
    j = int(np.argmax(row))
    cell = rm.aspects[1] - rm.aspects[0]
    assert abs(rm.aspects[j] - a_loc) <= cell


def scalar_map(model, geom, rm, tol=1e-8):
    """The resonance map rebuilt cell by cell from pair_response, with term counts."""
    cells = [[pair_response(model, ResonatorGeometry(R=geom.R, d=a * geom.R, h=geom.h,
                                                     eps_spacer=geom.eps_spacer),
                            float(w), 1.0, 1.0, tol=tol) for a in rm.aspects]
             for w in rm.omegas]
    log10_m = np.array([[np.log10(max(r.magnitude, 1e-300)) for r in row] for row in cells])
    return log10_m, np.array([[r.n_terms for r in row] for row in cells])


# |delta log10 m| <= 1e-13 / ln 10  <=>  magnitudes agree within 1e-13 relative
LOG10_REL_1E13 = 1e-13 / np.log(10.0)


def test_resonance_map_matches_pair_response_across_band_edge(hbn, band):
    # the window straddles the lower edge of the upper band, and the low loss
    # makes cells of one row stop after different numbers of terms
    model = loss_scaled(hbn, 0.05)
    geom = ResonatorGeometry(R=100.0, d=300.0, h=2.0)
    rm = resonance_map(model, geom, omega_range=(band.omega_low - 40.0, band.omega_low + 40.0),
                       aspect_range=(2.8, 4.1), shape=(9, 13))
    assert rm.omegas[0] < band.omega_low < rm.omegas[-1]
    ref, terms = scalar_map(model, geom, rm)
    assert any(len(set(row)) > 1 for row in terms)
    assert np.all(np.isfinite(rm.log10_magnitude))
    np.testing.assert_allclose(rm.log10_magnitude, ref, rtol=0, atol=LOG10_REL_1E13)


def test_resonance_map_matches_pair_response_lossless(hbn_lossless):
    # lossless with a spacer: |r_eff| = 1 and the tail decays through h alone
    geom = ResonatorGeometry(R=60.0, d=200.0, h=2.0, eps_spacer=4.0 + 0.0j)
    rm = resonance_map(hbn_lossless, geom, omega_range=(1420.0, 1580.0),
                       aspect_range=(2.6, 4.4), shape=(7, 11), tol=1e-10)
    ref, _ = scalar_map(hbn_lossless, geom, rm, tol=1e-10)
    np.testing.assert_allclose(rm.log10_magnitude, ref, rtol=0, atol=LOG10_REL_1E13)


def test_resonance_map_warns_once_at_term_limit(hbn_lossless):
    # h = 0 and no loss: the tail bound never falls, every cell hits the limit
    geom = ResonatorGeometry(R=100.0, d=300.0, h=0.0)
    with pytest.warns(UserWarning, match="stopped at .* in 3 of 3 cells") as rec:
        resonance_map(hbn_lossless, geom, omega_range=(1500.0, 1500.0),
                      aspect_range=(2.9, 3.1), shape=(1, 3))
    assert len(rec) == 1
    with pytest.warns(UserWarning, match=r"stopped at \d+ terms with tail bound inf meV$"):
        r = pair_response(hbn_lossless, geom, 1500.0, 1.0, 1.0)
    assert r.n_terms >= 32768


def test_resonance_map_rejects_nonpositive_aspect(hbn):
    geom = ResonatorGeometry(R=100.0, d=300.0, h=5.0)
    with pytest.raises(ValueError, match="d/R > 0"):
        resonance_map(hbn, geom, omega_range=(1450.0, 1550.0),
                      aspect_range=(0.0, 3.0), shape=(2, 4))


# --- the one-exponential kernel ------------------------------------------------------

def inv_D_two_branch(theta, A, r_eff):
    """2A e^{i th}/(1 - r e^{2 i th}) from four exponentials: both branches, one kept."""
    with np.errstate(over="ignore", invalid="ignore"):
        up = 2.0 * A * np.exp(1j * theta) / (1.0 - r_eff * np.exp(2j * theta))
        dn = 2.0 * A * np.exp(-1j * theta) / (np.exp(-2j * theta) - r_eff)
    return np.where(theta.imag < 0, dn, up)


def rho_cav_two_branch(theta, r1):
    """r1 (1 - e^{2 i th})/(1 - r1^2 e^{2 i th}) from both branches, one kept."""
    with np.errstate(over="ignore", invalid="ignore"):
        e2 = np.exp(2j * theta)
        up = r1 * (1.0 - e2) / (1.0 - r1 * r1 * e2)
        e2i = np.exp(-2j * theta)
        dn = r1 * (e2i - 1.0) / (e2i - r1 * r1)
    return np.where(theta.imag < 0, dn, up)


def kernel_inputs(n=20000):
    rng = np.random.default_rng(20240811)
    theta = rng.uniform(-1000.0, 1000.0, n) + 1j * rng.uniform(-40.0, 40.0, n)
    r1 = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    A = 1.0 / (1.0 + 1j * complex(0.3, 0.05))
    return theta, r1, A


def test_one_exponential_cross_kernel_matches_two_branch_form():
    theta, r1, A = kernel_inputs()
    r_eff = r1 * r1
    assert (theta.imag < 0).any() and (theta.imag > 0).any() and np.abs(r1).max() < 1
    new, ref = _inv_D_resummed(theta, A, r_eff), inv_D_two_branch(theta, A, r_eff)
    # the two forms round e^{2 i th} differently (w*w against one exponential),
    # and the denominator amplifies that by 1 + |its e^{+-2 i th} term| / |itself|
    grow = theta.imag < 0
    e2 = np.exp(2j * np.where(grow, -theta, theta))
    term = np.where(grow, e2, r_eff * e2)
    cond = 1.0 + np.abs(term) / np.abs(np.where(grow, e2 - r_eff, 1.0 - term))
    assert np.all(np.abs(new - ref) <= 2e-15 * cond * np.abs(ref))


def test_one_exponential_self_kernel_matches_two_branch_form():
    theta, r1, _ = kernel_inputs()
    new, ref = _rho_cav(theta, r1), rho_cav_two_branch(theta, r1)
    assert np.all(np.abs(new - ref) <= 2e-15 * np.abs(ref))


@settings(max_examples=50, deadline=None)
@given(log_loss=st.floats(-6.0, math.log10(2.0)), h=st.floats(0.1, 30.0),
       R=st.floats(10.0, 300.0), aspect=st.floats(0.5, 8.0), omega=st.floats(1400.0, 1600.0),
       n_terms=st.integers(4, 256), placement=st.sampled_from(["opposite_sides", "self"]))
def test_truncation_estimate_bounds_exact_tail(hbn, log_loss, h, R, aspect, omega, n_terms,
                                               placement):
    model = loss_scaled(hbn, 10.0 ** log_loss)
    geom = ResonatorGeometry(R=R, d=aspect * R, h=h)
    pr = pair_response(model, geom, omega, 1.0, 1.0, placement=placement, n_terms=n_terms)
    # the omitted terms, from the module docstring's ingredients and the two-branch forms
    eps = permittivity_at(model, omega)
    eps0 = complex(geom.eps_spacer)
    q = cmath.sqrt(-eps.eps_perp / eps.eps_parallel)
    beta = 0.5 * (eps0 * q / eps.eps_perp - eps.eps_perp / (eps0 * q))
    s = (1.0 + 1j * (eps0 / eps.eps_parallel) * cmath.sqrt(-eps.eps_parallel / eps.eps_perp))
    r1 = s / (2.0 - s)   # (1 + i v)/(1 - i v)
    cross = placement == "opposite_sides"
    kappa = h / R + (abs(q.imag) * aspect if cross else h / R)
    x_last = bessel_j0_zeros(n_terms)[-1]
    x_end = max(x_last, 2.0 / kappa) + 60.0 / kappa   # the terms beyond are below e^-60
    x = bessel_j0_zeros(int(x_end / np.pi) + 2)[n_terms:]
    theta = q * x * aspect
    prefac = 2.0 * np.pi / R**3 * E2_PER_NM_MEV
    if cross:
        terms = -prefac * x**2 * np.exp(-x * h / R) * inv_D_two_branch(
            theta, 1.0 / (1.0 + 1j * beta), r1 * r1)
    else:
        terms = prefac * x**2 * np.exp(-2.0 * x * h / R) * rho_cav_two_branch(theta, -r1)
    tail = abs(complex(math.fsum(terms.real), math.fsum(terms.imag)))
    assert tail <= pr.truncation_estimate


@pytest.mark.parametrize("placement,rtol", [("opposite_sides", 1e-9), ("self", 1e-12)])
def test_pair_response_scale_covariance(hbn, placement, rtol):
    # (R, d, h) -> s (R, d, h) leaves every term's phase and decay and scales 1/R^3
    ref = pair_response(hbn, ResonatorGeometry(R=80.0, d=250.0, h=4.0), 1500.0, 1.0, 1.0,
                        placement=placement)
    for s in (0.3, 2.7, 11.0):
        pr = pair_response(hbn, ResonatorGeometry(R=80.0 * s, d=250.0 * s, h=4.0 * s), 1500.0,
                           1.0, 1.0, placement=placement)
        assert pr.n_terms == ref.n_terms
        scaled = complex(pr.J, pr.Gamma) * s**3
        assert abs(scaled - complex(ref.J, ref.Gamma)) <= rtol * abs(complex(ref.J, ref.Gamma))
