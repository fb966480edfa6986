"""Excitation families and the image-mode amplitude assembly."""

import dataclasses
import math

import numpy as np
import pytest

from carsfisher import (
    EmitterScene,
    ImageAmplitudes,
    PlaneWaveExcitation,
    VortexExcitation,
    image_amplitudes,
    qfi_separation,
)
from carsfisher.fisher import _spade_table

SQ2I = math.sqrt(2.0) / 2.0


def test_plane_wave_is_ktilde_alone():
    # the emitters sit on y = 0, so only the mismatch along x can matter
    assert [f.name for f in dataclasses.fields(PlaneWaveExcitation)] == ["ktilde"]
    assert PlaneWaveExcitation(ktilde=1.7).ktilde == 1.7
    with pytest.raises(TypeError):
        PlaneWaveExcitation(ktilde=1.0, k_St_y=0.5)


def test_vortex_waist_must_be_positive():
    with pytest.raises(ValueError):
        VortexExcitation(a=0.0)
    with pytest.raises(ValueError):
        VortexExcitation(a=-1.0)


def test_scene_validation():
    # one separation check, and one message, for scenes and the mode overlaps
    with pytest.raises(ValueError, match="separation must be finite and nonnegative, got -0.1"):
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
    {"ktilde": math.nan}, {"ktilde": math.inf}, {"ktilde": -math.inf},
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


def _emission(exc, x, g):
    # alpha(x, 0): the site amplitude of coincident emitters at x
    return image_amplitudes(exc, EmitterScene(s=0.0, x0=x, g=g)).site_amplitudes[0]


def test_plane_emission_at_origin():
    assert _emission(PlaneWaveExcitation(ktilde=2.0), 0.0, 2.5) == pytest.approx(-2.5j)


def test_vortex_emission_ring():
    # intensity ring: |alpha| peaks at r = a/sqrt(2) with value g, and the
    # core is dark
    a, g = 0.8, 1.3
    exc = VortexExcitation(a=a)
    assert abs(_emission(exc, a / math.sqrt(2.0), g)) == pytest.approx(g, rel=1e-12)
    assert _emission(exc, 0.0, g) == 0.0
    # slightly off the ring the amplitude is smaller
    assert abs(_emission(exc, a / math.sqrt(2.0) + 0.1, g)) < g


def test_plane_coincident_emitters_fill_symmetric_mode():
    # the symmetric mode of coincident copies is the PSF itself, HG mode 0
    scene = EmitterScene(s=0.0, g=1.0, kappa=0.81)
    amps = image_amplitudes(PlaneWaveExcitation(ktilde=2.0), scene)
    assert amps.n_total == pytest.approx(4.0 * 0.81, rel=1e-15)
    n = _spade_table(amps, 5)[0][0]
    assert n[0] == amps.n_total
    assert n[1:].tolist() == [0.0] * 5


def test_vortex_on_axis_is_purely_antisymmetric():
    # the ring's field is odd in x on axis, so a1 = -a2 and the light
    # fills only the odd (antisymmetric) HG modes
    scene = EmitterScene(s=1.2)
    amps = image_amplitudes(VortexExcitation(a=SQ2I, psi=0.0), scene)
    n, dn = _spade_table(amps, 12)
    assert n[0, ::2].tolist() == [0.0] * 7
    assert dn[0, ::2].tolist() == [0.0] * 7
    assert n[0, 1::2].sum() > 0.1


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


def test_vortex_mirror_symmetry_in_offset():
    # psi -> -psi conjugates the site amplitudes up to a global sign, which
    # no photon number or Fisher information can see
    scene = EmitterScene(s=0.8, x0=0.3)
    up = image_amplitudes(VortexExcitation(a=1.0, psi=0.4), scene)
    down = image_amplitudes(VortexExcitation(a=1.0, psi=-0.4), scene)
    assert up.n_total == pytest.approx(down.n_total, rel=1e-14)
    assert qfi_separation(up).value == pytest.approx(qfi_separation(down).value,
                                                     rel=1e-14)
    for got, want in zip(_spade_table(up, 20), _spade_table(down, 20)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("exc", [
    PlaneWaveExcitation(ktilde=0.0),
    PlaneWaveExcitation(ktilde=2.0),
    VortexExcitation(a=SQ2I, psi=0.0),
    VortexExcitation(a=SQ2I, psi=0.3),
], ids=["plane-k0", "plane-k2", "vortex-axis", "vortex-offset"])
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
def test_analytic_derivatives_match_finite_differences(exc, s):
    # the analytic site gradients against central differences of the site
    # amplitudes in x0: moving the centroid by h moves both sites by h
    h = 1e-5
    kw = dict(s=s, g=1.3, kappa=0.7)
    amps = image_amplitudes(exc, EmitterScene(x0=0.1, **kw))
    up = image_amplitudes(exc, EmitterScene(x0=0.1 + h, **kw)).site_amplitudes
    down = image_amplitudes(exc, EmitterScene(x0=0.1 - h, **kw)).site_amplitudes
    numeric = (np.array(up) - np.array(down)) / (2.0 * h)
    analytic = np.array(amps.site_gradients)
    # one scale for both sites, so a site on the vortex core is not held to
    # a relative bound on roundoff
    scale = max(np.abs(analytic).max(), np.abs(amps.site_amplitudes).max())
    assert np.abs(analytic - numeric).max() < 1e-6 * scale


def test_image_amplitudes_carries_scene_metadata():
    scene = EmitterScene(s=0.6, x0=0.2, g=1.5, kappa=0.7)
    amps = image_amplitudes(PlaneWaveExcitation(ktilde=1.0), scene)
    assert isinstance(amps, ImageAmplitudes)
    assert (amps.s, amps.x0, amps.kappa, amps.g) == (0.6, 0.2, 0.7, 1.5)
    assert len(amps.site_amplitudes) == 2
    assert len(amps.site_gradients) == 2


@pytest.mark.parametrize("exc", [
    PlaneWaveExcitation(ktilde=2.0),
    VortexExcitation(a=1.2, psi=0.3),
], ids=["plane", "vortex"])
def test_array_record_equals_the_one_scene_records(exc):
    s_values = [0.0, 1e-12, 1e-8, 0.5, 1.0, 4.0]
    kw = dict(x0=0.7, g=1.3, kappa=0.8)
    curve = image_amplitudes(exc, EmitterScene(s=np.array(s_values), **kw))
    for i, s in enumerate(s_values):
        one = image_amplitudes(exc, EmitterScene(s=s, **kw))
        for field in dataclasses.fields(ImageAmplitudes):
            got, want = getattr(curve, field.name), getattr(one, field.name)
            if field.name in ("site_amplitudes", "site_gradients"):
                assert [v[i] for v in got] == list(want), field.name
            elif field.name in ("x0", "kappa", "g"):
                assert got == want, field.name
            else:
                assert got[i] == want, field.name


def test_array_scene_checks_every_separation():
    with pytest.raises(ValueError, match="finite: s=nan"):
        EmitterScene(s=np.array([0.5, math.nan, 1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        EmitterScene(s=np.array([0.5, -0.1]))
    with pytest.raises(ValueError, match="1D array"):
        EmitterScene(s=np.ones((2, 2)))


def test_unsupported_excitation_type_rejected():
    with pytest.raises(TypeError):
        image_amplitudes(object(), EmitterScene(s=1.0))
    # a beam profile given as a callable is not an excitation family
    with pytest.raises(TypeError):
        image_amplitudes(lambda x, y: 1.0 + 0j, EmitterScene(s=1.0))
