import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpol.constants import omega_to_mev
from hyperpol.errors import MaterialFileError, SingularMediumError
from hyperpol.material import (
    BandType,
    LorentzAxis,
    LorentzOscillator,
    MaterialModel,
    _axis_eps,
    default_hbn,
    hyperbolic_bands,
    load_material,
    loss_scaled,
    permittivity_at,
)
from hyperpol.optics import sqrt_ratio

VACUUM = MaterialModel(LorentzAxis(1.0, ()), LorentzAxis(1.0, ()))


def test_high_frequency_limit_is_eps_inf(hbn):
    eps = permittivity_at(hbn, 1e7)
    assert eps.eps_parallel.real == pytest.approx(hbn.axis_parallel.eps_inf, rel=1e-6)
    assert eps.eps_perp.real == pytest.approx(hbn.axis_perp.eps_inf, rel=1e-6)
    assert abs(eps.eps_parallel.imag) < 1e-6


def test_zero_damping_lo_condition_exact():
    axis = LorentzAxis(3.0, (LorentzOscillator(1000.0, 1200.0, 0.0),))
    model = MaterialModel(axis, axis)
    eps = permittivity_at(model, 1200.0)
    assert eps.eps_parallel.real == 0.0
    assert eps.eps_parallel.imag == 0.0


def test_hbn_band_signs_at_1500(hbn):
    # inside the higher hyperbolic band: in-plane metallic, axial dielectric
    eps = permittivity_at(hbn, 1500.0)
    assert eps.eps_perp.real < 0
    assert eps.eps_parallel.real > 0
    assert eps.is_hyperbolic


def test_omega_must_be_positive(hbn):
    with pytest.raises(ValueError):
        permittivity_at(hbn, 0.0)
    with pytest.raises(ValueError):
        permittivity_at(hbn, -100.0)


def test_permittivity_broadcasts_bitwise(hbn, hbn_lossless):
    grid = np.linspace(600.0, 1800.0, 601)
    for model in (hbn, hbn_lossless):
        eps = permittivity_at(model, grid.reshape(601, 1))
        assert eps.eps_parallel.shape == eps.eps_perp.shape == (601, 1)
        scalar = [permittivity_at(model, float(w)) for w in grid]
        assert np.array_equal(eps.eps_parallel[:, 0], [e.eps_parallel for e in scalar],
                              equal_nan=True)
        assert np.array_equal(eps.eps_perp[:, 0], [e.eps_perp for e in scalar], equal_nan=True)
    # NumPy's complex division may round one ulp away from Python's
    q = sqrt_ratio(permittivity_at(hbn, grid))
    np.testing.assert_allclose(q, [sqrt_ratio(permittivity_at(hbn, w)) for w in grid],
                               rtol=1e-15, atol=0)
    one = permittivity_at(hbn, 1500.0)
    assert type(one.omega) is float and type(one.eps_parallel) is complex
    assert type(sqrt_ratio(one)) is complex
    with pytest.raises(ValueError):
        permittivity_at(hbn, np.array([1500.0, 0.0]))


def test_sqrt_ratio_rejects_any_zero_eps_parallel():
    axis = LorentzAxis(3.0, (LorentzOscillator(1000.0, 1200.0, 0.0),))
    model = MaterialModel(axis, axis)
    with pytest.raises(SingularMediumError):
        sqrt_ratio(permittivity_at(model, np.array([1100.0, 1200.0, 1300.0])))


def test_vacuum_has_no_bands():
    assert hyperbolic_bands(VACUUM, (600.0, 1800.0)) == []


def test_hbn_two_bands_with_expected_edges(hbn):
    bands = hyperbolic_bands(hbn, (600.0, 1800.0))
    assert len(bands) == 2
    lower, upper = bands
    assert lower.band_type is BandType.TYPE_I
    assert upper.band_type is BandType.TYPE_II
    assert abs(upper.omega_low - 1380.0) <= 20.0
    assert abs(upper.omega_high - 1620.0) <= 20.0


def test_band_centers_photon_energies(hbn):
    bands = hyperbolic_bands(hbn, (600.0, 1800.0))
    lower_mev = omega_to_mev(bands[0].center)
    upper_mev = omega_to_mev(bands[1].center)
    assert abs(lower_mev - 100.0) / 100.0 < 0.15
    assert abs(upper_mev - 180.0) / 180.0 < 0.15


def test_band_consistency_on_grid(hbn):
    bands = hyperbolic_bands(hbn, (600.0, 1800.0))
    grid = np.linspace(600.0, 1800.0, 2000)
    for w in grid:
        eps = permittivity_at(hbn, w)
        indicator = (eps.eps_parallel * eps.eps_perp).real
        inside = any(b.omega_low + 0.5 < w < b.omega_high - 0.5 for b in bands)
        outside = all(w < b.omega_low - 0.5 or w > b.omega_high + 0.5 for b in bands)
        if inside:
            assert indicator < 0
        elif outside:
            assert indicator >= 0


def test_loss_scaled_identity(hbn):
    same = loss_scaled(hbn, 1.0)
    for w in (700.0, 805.0, 1500.0, 1700.0):
        a = permittivity_at(hbn, w)
        b = permittivity_at(same, w)
        assert a.eps_parallel == b.eps_parallel
        assert a.eps_perp == b.eps_perp


def test_enrichment_reduces_im_sqrt_ratio(hbn):
    # mid-band loss figure drops from ~0.03 toward ~0.01 at a third of the damping
    natural = abs(sqrt_ratio(permittivity_at(hbn, 1500.0)).imag)
    enriched = abs(sqrt_ratio(permittivity_at(loss_scaled(hbn, 1.0 / 3.0), 1500.0)).imag)
    assert 0.02 < natural < 0.04
    assert 0.007 < enriched < 0.013


def test_loss_increase_raises_im_eps(hbn):
    doubled = loss_scaled(hbn, 2.0)
    for w in np.linspace(1380.0, 1600.0, 40):
        before = permittivity_at(hbn, w)
        after = permittivity_at(doubled, w)
        assert after.eps_perp.imag > before.eps_perp.imag
        assert after.eps_parallel.imag >= before.eps_parallel.imag


def test_loss_scale_rejects_nonpositive(hbn):
    with pytest.raises(ValueError):
        loss_scaled(hbn, 0.0)
    with pytest.raises(ValueError):
        loss_scaled(hbn, -2.0)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0),
       w=st.floats(650.0, 1750.0))
def test_loss_scaling_composes(a, b, w):
    model = default_hbn()
    once = loss_scaled(model, a * b)
    twice = loss_scaled(loss_scaled(model, a), b)
    ea = permittivity_at(once, w)
    eb = permittivity_at(twice, w)
    assert ea.eps_parallel == pytest.approx(eb.eps_parallel, rel=1e-12)
    assert ea.eps_perp == pytest.approx(eb.eps_perp, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(w=st.floats(1.0, 1e5))
def test_passivity(w):
    eps = permittivity_at(default_hbn(), w)
    assert eps.eps_parallel.imag >= 0
    assert eps.eps_perp.imag >= 0


def test_conjugate_frequency_symmetry(hbn):
    # eps(omega)* = eps(-omega*) for the oscillator form, sampled on the real axis
    for w in (700.0, 1000.0, 1500.0):
        for axis in (hbn.axis_parallel, hbn.axis_perp):
            plus = _axis_eps(axis, w, hbn.loss_scale)
            minus = _axis_eps(axis, -w, hbn.loss_scale)
            assert np.conj(plus) == pytest.approx(minus, rel=1e-14)


# --- parameter files ----------------------------------------------------------

GOOD = """
loss_scale = 1.0
[parallel]
eps_inf = 2.95
oscillator = 780.0 830.0 4.0
[perp]
eps_inf = 4.90
oscillator = 1370.0 1610.0 5.0
"""


def test_load_material_roundtrip(tmp_path, hbn):
    path = tmp_path / "mat.txt"
    path.write_text(GOOD)
    model = load_material(path)
    for w in (805.0, 1500.0):
        a = permittivity_at(model, w)
        b = permittivity_at(hbn, w)
        assert a.eps_parallel == pytest.approx(b.eps_parallel)
        assert a.eps_perp == pytest.approx(b.eps_perp)


@pytest.mark.parametrize("text,lineno", [
    ("[parallel]\neps_inf = -1\noscillator = 780 830 4\n[perp]\neps_inf = 1\n", 2),
    ("[parallel]\neps_inf = 2.9\noscillator = 830 780 4\n[perp]\neps_inf = 1\n", 3),
    ("[parallel]\neps_inf = 2.9\noscillator = 780 830 -4\n[perp]\neps_inf = 1\n", 3),
    ("[parallel]\neps_inf = 2.9\noscillator = 780 830\n[perp]\neps_inf = 1\n", 3),
    ("[parallel]\neps_inf = abc\n[perp]\neps_inf = 1\n", 2),
    ("[weird]\neps_inf = 1\n", 1),
])
def test_loader_rejects_with_line_number(tmp_path, text, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MaterialFileError) as exc:
        load_material(path)
    assert f":{lineno}:" in str(exc.value)


def test_loader_requires_both_sections(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[parallel]\neps_inf = 2.9\n")
    with pytest.raises(MaterialFileError, match=r"\[perp\]"):
        load_material(path)


def test_default_hbn_validates():
    model = default_hbn()
    assert model.loss_scale == 1.0
    assert len(model.axis_parallel.oscillators) == 1


def test_default_hbn_built_once_and_shared():
    assert default_hbn() is default_hbn()
    scaled = loss_scaled(default_hbn(), 0.5)
    assert scaled.loss_scale == 0.5
    assert default_hbn().loss_scale == 1.0
