"""Excitation families and the image-mode amplitude assembly."""

import cmath
import math

import numpy as np
import pytest

from carsfisher import (
    EmitterScene,
    GaussianPsf,
    ImageAmplitudes,
    PlaneWaveExcitation,
    VortexExcitation,
    amplitude_derivative_check,
    emission_amplitude,
    image_amplitudes,
)

SQ2I = math.sqrt(2.0) / 2.0


def test_plane_wave_ktilde_from_components():
    exc = PlaneWaveExcitation(k_pu_x=0.5, k_St_x=3.0)
    assert exc.ktilde == pytest.approx(2.0)
    assert exc.ktilde_y == 0.0


def test_plane_wave_ktilde_alone_is_absorbed_into_stokes():
    exc = PlaneWaveExcitation(ktilde=1.7)
    assert exc.k_St_x == 1.7
    assert exc.ktilde == 1.7


def test_plane_wave_inconsistent_ktilde_rejected():
    with pytest.raises(ValueError, match="inconsistent"):
        PlaneWaveExcitation(k_pu_x=0.5, k_St_x=3.0, ktilde=1.0)
    # consistent redundancy is fine
    PlaneWaveExcitation(k_pu_x=0.5, k_St_x=3.0, ktilde=2.0)


def test_vortex_waist_must_be_positive():
    with pytest.raises(ValueError):
        VortexExcitation(a=0.0)
    with pytest.raises(ValueError):
        VortexExcitation(a=-1.0)


def test_scene_validation():
    with pytest.raises(ValueError):
        EmitterScene(s=-0.1)
    with pytest.raises(ValueError):
        EmitterScene(s=1.0, g=0.0)
    with pytest.raises(ValueError):
        EmitterScene(s=1.0, kappa=0.0)
    with pytest.raises(ValueError):
        EmitterScene(s=1.0, kappa=1.5)
    EmitterScene(s=0.0)  # coincident emitters are a valid limit


@pytest.mark.parametrize("field", ["s", "x0", "g", "kappa"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scene_rejects_non_finite_fields(field, value):
    fields = {"s": 1.0, field: value}
    with pytest.raises(ValueError, match=f"finite: {field}="):
        EmitterScene(**fields)


@pytest.mark.parametrize("fields", [
    {"ktilde": math.nan}, {"ktilde": math.inf}, {"k_pu_x": math.nan},
    {"k_pu_y": math.inf}, {"k_St_x": -math.inf}, {"k_St_y": math.nan},
], ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()))
def test_plane_wave_rejects_non_finite_fields(fields):
    with pytest.raises(ValueError, match="finite"):
        PlaneWaveExcitation(**fields)


@pytest.mark.parametrize("fields", [
    {"a": math.inf}, {"a": math.nan}, {"a": 1.0, "psi": math.nan},
    {"a": 1.0, "psi": -math.inf},
], ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()))
def test_vortex_rejects_non_finite_fields(fields):
    with pytest.raises(ValueError, match="finite"):
        VortexExcitation(**fields)


def test_plane_emission_at_origin():
    scene = EmitterScene(s=1.0, g=2.5)
    val = emission_amplitude(PlaneWaveExcitation(ktilde=2.0), scene, (0.0, 0.0))
    assert val == pytest.approx(-2.5j)


def test_vortex_emission_ring():
    # intensity ring: |alpha| peaks at r = a/sqrt(2) with value g, and the
    # core is dark
    a = 0.8
    scene = EmitterScene(s=1.0, g=1.3)
    exc = VortexExcitation(a=a)
    peak = emission_amplitude(exc, scene, (a / math.sqrt(2.0), 0.0))
    assert abs(peak) == pytest.approx(scene.g, rel=1e-12)
    assert emission_amplitude(exc, scene, (0.0, 0.0)) == 0.0
    # slightly off the ring the amplitude is smaller
    off = emission_amplitude(exc, scene, (a / math.sqrt(2.0) + 0.1, 0.0))
    assert abs(off) < scene.g


def test_plane_coincident_emitters_fill_symmetric_mode():
    scene = EmitterScene(s=0.0, g=1.0, kappa=0.81)
    amps = image_amplitudes(PlaneWaveExcitation(ktilde=2.0), scene)
    assert amps.alpha_plus == pytest.approx(-2.0j * 0.9, rel=1e-12)
    assert amps.alpha_minus == 0.0


def test_vortex_on_axis_is_purely_antisymmetric():
    scene = EmitterScene(s=1.2)
    amps = image_amplitudes(VortexExcitation(a=SQ2I, psi=0.0), scene)
    assert abs(amps.alpha_plus) < 1e-15
    assert abs(amps.alpha_minus) > 0.1


@pytest.mark.parametrize("ktilde,s", [(0.0, 1.0), (2.0, 0.7), (4.0, 2.0)])
def test_plane_total_photon_number(ktilde, s):
    scene = EmitterScene(s=s, g=1.4, kappa=0.6)
    amps = image_amplitudes(PlaneWaveExcitation(ktilde=ktilde), scene)
    expected = 2.0 * scene.kappa * scene.g**2 * (
        1.0 + math.exp(-s * s / 2.0) * math.cos(ktilde * s))
    assert amps.n_total == pytest.approx(expected, rel=1e-12)


def test_plane_total_photon_number_frozen_point():
    amps = image_amplitudes(PlaneWaveExcitation(ktilde=0.0), EmitterScene(s=1.0))
    assert amps.n_total == pytest.approx(3.2130613194252673, rel=1e-15)


def test_global_phase_covariance():
    # multiplying the excitation profile by a constant phase rotates the
    # mode amplitudes and changes nothing observable
    theta = 0.7

    def beam(x, y):
        return np.ones_like(np.asarray(x, dtype=float))

    def rotated(x, y):
        return cmath.exp(1j * theta) * beam(x, y)

    scene = EmitterScene(s=0.9)
    base = image_amplitudes(beam, scene)
    spun = image_amplitudes(rotated, scene)
    assert spun.alpha_plus == pytest.approx(base.alpha_plus * cmath.exp(1j * theta), rel=1e-12)
    assert spun.alpha_minus == pytest.approx(base.alpha_minus * cmath.exp(1j * theta), abs=1e-12)
    assert spun.n_total == pytest.approx(base.n_total, rel=1e-12)


def test_vortex_mirror_symmetry_in_offset():
    scene = EmitterScene(s=0.8)
    up = image_amplitudes(VortexExcitation(a=1.0, psi=0.4), scene)
    down = image_amplitudes(VortexExcitation(a=1.0, psi=-0.4), scene)
    assert abs(up.alpha_plus) == pytest.approx(abs(down.alpha_plus), rel=1e-12)
    assert abs(up.alpha_minus) == pytest.approx(abs(down.alpha_minus), rel=1e-12)
    assert abs(up.d_d_alpha_plus) == pytest.approx(abs(down.d_d_alpha_plus), rel=1e-11, abs=1e-13)
    assert abs(up.d_d_alpha_minus) == pytest.approx(abs(down.d_d_alpha_minus), rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("exc", [
    PlaneWaveExcitation(ktilde=0.0),
    PlaneWaveExcitation(ktilde=2.0),
    VortexExcitation(a=SQ2I, psi=0.0),
    VortexExcitation(a=SQ2I, psi=0.3),
], ids=["plane-k0", "plane-k2", "vortex-axis", "vortex-offset"])
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
def test_analytic_derivatives_match_finite_differences(exc, s):
    scene = EmitterScene(s=s, x0=0.1)
    assert amplitude_derivative_check(exc, scene) < 1e-6


def test_callable_excitation_matches_analytic_vortex():
    a, psi = SQ2I, 0.2
    norm = math.sqrt(2.0 * math.e) / a

    def beam(x, y):
        yy = np.asarray(y, dtype=float) + psi
        xx = np.asarray(x, dtype=float)
        return norm * (xx + 1j * yy) * np.exp(-(xx**2 + yy**2) / a**2)

    scene = EmitterScene(s=1.1, kappa=0.9)
    analytic = image_amplitudes(VortexExcitation(a=a, psi=psi), scene)
    numeric = image_amplitudes(beam, scene)
    assert analytic.provenance == "analytic"
    assert numeric.provenance == "finite_difference"
    assert numeric.alpha_plus == pytest.approx(analytic.alpha_plus, rel=1e-10)
    assert numeric.alpha_minus == pytest.approx(analytic.alpha_minus, rel=1e-10)
    # derivative routes differ (analytic vs central difference): ~h^2 error
    assert numeric.d_d_alpha_plus == pytest.approx(analytic.d_d_alpha_plus, rel=1e-7)
    assert numeric.d_d_alpha_minus == pytest.approx(analytic.d_d_alpha_minus, rel=1e-7)


def test_image_amplitudes_carries_scene_metadata():
    scene = EmitterScene(s=0.6, x0=0.2, g=1.5, kappa=0.7)
    amps = image_amplitudes(PlaneWaveExcitation(ktilde=1.0), scene)
    assert isinstance(amps, ImageAmplitudes)
    assert (amps.s, amps.x0, amps.kappa, amps.g) == (0.6, 0.2, 0.7, 1.5)
    assert len(amps.site_amplitudes) == 2
    assert len(amps.site_gradients) == 2


def test_unsupported_excitation_type_rejected():
    with pytest.raises(TypeError):
        image_amplitudes(object(), EmitterScene(s=1.0))
