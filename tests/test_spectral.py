"""Pulsed-excitation spectral response: profiles, weights, normalization."""

import math

import numpy as np
import pytest

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from carsfisher import (
    PulseSpectrum,
    RamanResonance,
    normalize_phi,
    numerics,
    spectral,
    spectral_weight,
)

from oracles import (
    _inner_convolution_closed,
    faddeeva_imaginary_axis,
    faddeeva_trapezoid,
    inner_convolution_quadrature,
    spectral_g_reference,
    spectral_gphi_mpmath,
    spectral_gphi_reference,
)

RES = RamanResonance(omega_vib=10.0, gamma_vib=0.5)
PUMP = PulseSpectrum(center=100.0, bandwidth=1.0)
STOKES = PulseSpectrum(center=90.0, bandwidth=1.0)
# unequal bandwidths expose a pump/Stokes mix-up that b_pu = b_St would hide
NARROW_STOKES = PulseSpectrum(center=90.0, bandwidth=0.4)

# extracted signal strength for the default configuration, frozen
G_DEFAULT = 0.43267600106726345
G_NARROW = 0.5737046385017655  # gamma_vib = 0.01


def _oracle_kwargs(res=RES, pump=PUMP, stokes=STOKES):
    return dict(omega_vib=res.omega_vib, gamma_vib=res.gamma_vib,
                weight=res.polarizability_weight,
                pump_center=pump.center, pump_bw=pump.bandwidth,
                pump_amp=pump.amplitude,
                stokes_center=stokes.center, stokes_bw=stokes.bandwidth,
                stokes_amp=stokes.amplitude)


def test_resonance_validation():
    with pytest.raises(ValueError):
        RamanResonance(omega_vib=10.0, gamma_vib=0.0)
    with pytest.raises(ValueError):
        RamanResonance(omega_vib=10.0, gamma_vib=0.5, polarizability_weight=0.0)


@pytest.mark.parametrize("field", ["omega_vib", "gamma_vib", "polarizability_weight"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_resonance_rejects_non_finite_fields(field, value):
    fields = {"omega_vib": 10.0, "gamma_vib": 0.5, field: value}
    with pytest.raises(ValueError, match=f"finite: {field}="):
        RamanResonance(**fields)


@pytest.mark.parametrize("field,value", [
    ("center", math.nan), ("center", math.inf), ("center", -math.inf),
    ("bandwidth", math.inf), ("amplitude", complex(math.nan, 0.0)),
    ("amplitude", complex(1.0, math.inf)), ("amplitude", math.inf),
])
def test_pulse_rejects_non_finite_fields(field, value):
    fields = {"center": 100.0, "bandwidth": 2.0, field: value}
    with pytest.raises(ValueError, match=f"finite: {field}="):
        PulseSpectrum(**fields)


def test_pulse_validation_and_norm():
    # the profile's norm enters through spectral_weight's closed form,
    # which the oracle tests pin
    with pytest.raises(ValueError):
        PulseSpectrum(center=100.0, bandwidth=0.0)


@pytest.mark.parametrize("omega", [104.0, 108.0, 110.0, 112.0, 116.0])
def test_spectral_weight_against_oracle(omega):
    got = spectral_weight(RES, PUMP, STOKES, omega)
    want = spectral_gphi_reference(omega=omega, **_oracle_kwargs())
    assert got.real == pytest.approx(want.real, rel=1e-10, abs=1e-13)
    assert got.imag == pytest.approx(want.imag, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("stokes", [STOKES, NARROW_STOKES],
                         ids=["equal_bw", "unequal_bw"])
@pytest.mark.parametrize("offset", [-3.0, -1.0, 0.0, 0.5, 3.0])
def test_inner_convolution_against_quadrature(stokes, offset):
    # offsets in standard deviations of K, whose variance is 2(b_pu^2 + b_St^2)
    sigma = math.sqrt(2.0 * (PUMP.bandwidth**2 + stokes.bandwidth**2))
    omega_minus = PUMP.center - stokes.center + offset * sigma
    # the closed form the dense-quadrature oracles of g Phi are built on
    got = _inner_convolution_closed(omega_minus, PUMP.center, PUMP.bandwidth,
                                    stokes.center, stokes.bandwidth)
    want = inner_convolution_quadrature(omega_minus, PUMP.center,
                                        PUMP.bandwidth, stokes.center,
                                        stokes.bandwidth)
    assert got == pytest.approx(want, rel=1e-12)


def test_spectral_layer_quadrature_count(monkeypatch):
    # g Phi is a closed form: neither the grid nor a single frequency runs
    # any adaptive quadrature
    calls = []
    integrate_1d_many = numerics.integrate_1d_many

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate_1d_many(*args, **kwargs)

    monkeypatch.setattr(numerics, "integrate_1d_many", counting)
    normalize_phi(RES, PUMP, STOKES)
    assert len(calls) == 0
    spectral_weight(RES, PUMP, STOKES, 110.0)
    assert len(calls) == 0


def test_normalize_phi_unit_norm():
    g, phi = normalize_phi(RES, PUMP, STOKES)
    om = np.linspace(86.0, 134.0, 48_001)
    vals = np.abs(phi(om)) ** 2
    dw = om[1] - om[0]
    norm = (vals.sum() - 0.5 * (vals[0] + vals[-1])) * dw / (2.0 * math.pi)
    assert norm == pytest.approx(1.0, abs=1e-6)
    assert g == pytest.approx(G_DEFAULT, rel=1e-9)


def test_normalize_phi_against_oracle():
    g, _ = normalize_phi(RES, PUMP, STOKES)
    assert g == pytest.approx(spectral_g_reference(**_oracle_kwargs()), rel=1e-9)


def test_normalize_phi_unequal_bandwidths_against_oracle():
    g, _ = normalize_phi(RES, PUMP, NARROW_STOKES)
    want = spectral_g_reference(**_oracle_kwargs(stokes=NARROW_STOKES))
    assert g == pytest.approx(want, rel=1e-8)


def test_g_phi_routes_agree():
    # Phi is the closed-form weight divided by the extracted g
    g, phi = normalize_phi(RES, PUMP, STOKES)
    for omega in (106.0, 110.0, 113.5):
        assert g * phi(omega) == pytest.approx(
            spectral_weight(RES, PUMP, STOKES, omega), rel=1e-14)


def test_signal_strength_scaling_law():
    g0, phi0 = normalize_phi(RES, PUMP, STOKES)
    pump2 = PulseSpectrum(center=100.0, bandwidth=1.0, amplitude=2.0)
    stokes3 = PulseSpectrum(center=90.0, bandwidth=1.0, amplitude=3.0)
    g, phi = normalize_phi(RES, pump2, stokes3)
    assert g == pytest.approx(12.0 * g0, rel=1e-12)
    # the normalized line shape is amplitude-independent
    om = np.array([105.0, 110.0, 115.0])
    np.testing.assert_allclose(phi(om), phi0(om), rtol=1e-12)


def test_signal_strength_weight_scaling():
    scaled = RamanResonance(omega_vib=10.0, gamma_vib=0.5,
                            polarizability_weight=2.5)
    g0, _ = normalize_phi(RES, PUMP, STOKES)
    g, _ = normalize_phi(scaled, PUMP, STOKES)
    assert g == pytest.approx(2.5 * g0, rel=1e-12)


def test_narrow_resonance_matches_oracle():
    res = RamanResonance(omega_vib=10.0, gamma_vib=0.01)
    g, _ = normalize_phi(res, PUMP, STOKES)
    assert g == pytest.approx(G_NARROW, rel=1e-9)
    want = spectral_g_reference(**_oracle_kwargs(res=res))
    assert g == pytest.approx(want, rel=1e-6)


def test_broad_resonance_gives_gaussian_line():
    # when the resonance is much flatter than the pulse bandwidths the line
    # shape collapses to the bare three-photon convolution: a Gaussian of
    # variance 2 b_pu^2 + b_St^2 in amplitude
    res = RamanResonance(omega_vib=10.0, gamma_vib=20.0)
    _, phi = normalize_phi(res, PUMP, STOKES)
    center = 2.0 * PUMP.center - STOKES.center
    peak = abs(phi(center))
    for x in (0.5, 1.0, 2.0):
        predicted = peak * math.exp(-x * x / (4.0 * 3.0))
        assert abs(phi(center + x)) == pytest.approx(predicted, rel=1e-2)


def test_zero_signal_rejected():
    dark = PulseSpectrum(center=100.0, bandwidth=1.0, amplitude=0.0)
    with pytest.raises(ValueError, match="zero-signal"):
        normalize_phi(RES, dark, STOKES)


def test_line_peaks_near_resonance_condition():
    # the output spectrum peaks where the vibrational filter and the
    # three-photon convolution overlap: omega ~ 2 w_pu - w_St (= 110) for
    # a resonance at w_pu - w_St (= 10)
    g, phi = normalize_phi(RES, PUMP, STOKES)
    om = np.linspace(100.0, 120.0, 2001)
    peak_omega = om[int(np.argmax(np.abs(phi(om))))]
    assert abs(peak_omega - 110.0) < 0.5


def test_faddeeva_against_trapezoid_oracle():
    rng = np.random.default_rng(8)
    z = rng.uniform(-6.0, 6.0, 100) + 1j * rng.uniform(0.05, 6.0, 100)
    got = spectral._faddeeva(z)
    want = np.array([faddeeva_trapezoid(complex(v)) for v in z])
    assert np.max(np.abs(got - want) / np.abs(want)) <= spectral._FADDEEVA_REL_BOUND


def test_faddeeva_on_the_imaginary_axis():
    assert spectral._faddeeva(0.0) == pytest.approx(
        1.0, rel=spectral._FADDEEVA_REL_BOUND)
    y = np.array([1e-6, 0.01, 0.5, 1.0, 3.0, 10.0, 25.0])
    want = np.array([faddeeva_imaginary_axis(v) for v in y])
    got = spectral._faddeeva(1j * y)
    assert np.max(np.abs(got - want) / want) <= spectral._FADDEEVA_REL_BOUND


def test_faddeeva_against_mpmath_far_from_the_origin():
    # Im z down to 1e-6 and |z| up to 1e8, where w(z) ~ i / (sqrt(pi) z)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(9)
    radius = 10.0 ** rng.uniform(-2.0, 8.0, 200)
    imag = 10.0 ** rng.uniform(-6.0, np.log10(radius))
    real = rng.choice([-1.0, 1.0], 200) * np.sqrt(radius**2 - imag**2)
    z = real + 1j * imag
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.exp(-mpmath.mpc(v) ** 2)
                                 * mpmath.erfc(-1j * mpmath.mpc(v))) for v in z])
    got = spectral._faddeeva(z)
    assert np.max(np.abs(got - want) / np.abs(want)) <= spectral._FADDEEVA_REL_BOUND


_pulses = st.tuples(
    st.floats(0.3, 3.0),                    # bandwidth
    st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                       allow_nan=False, allow_infinity=False))
_spectral_cases = st.tuples(
    st.floats(5.0, 15.0),                   # omega_vib
    st.floats(-3.0, math.log10(5.0)),       # log10 gamma_vib: near-singular to broad
    st.floats(95.0, 105.0), _pulses,        # pump center, (bandwidth, amplitude)
    st.floats(85.0, 95.0), _pulses,         # Stokes center, (bandwidth, amplitude)
    st.lists(st.integers(0, spectral._GRID_POINTS - 1), min_size=1, max_size=4))


def _spectral_case(omega_vib, log_gamma, pump_center, pump, stokes_center,
                   stokes, indices):
    res = RamanResonance(omega_vib=omega_vib, gamma_vib=10.0**log_gamma)
    pulse_pu = PulseSpectrum(center=pump_center, bandwidth=pump[0],
                             amplitude=pump[1])
    pulse_st = PulseSpectrum(center=stokes_center, bandwidth=stokes[0],
                             amplitude=stokes[1])
    return res, pulse_pu, pulse_st, spectral.phi_grid(pulse_pu, pulse_st)[indices]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_spectral_cases)
def test_spectral_weight_array_call_is_its_scalar_calls(case):
    res, pump, stokes, omegas = _spectral_case(*case)
    values = spectral_weight(res, pump, stokes, omegas)
    assert values.shape == omegas.shape
    scalars = [spectral_weight(res, pump, stokes, float(w)) for w in omegas]
    assert all(type(v) is complex for v in scalars)
    assert values.tolist() == scalars  # bit for bit


def test_spectral_weight_near_singular_resonances_against_mpmath():
    pytest.importorskip("mpmath")

    # no shrink phase: shrinking would rerun the ~0.2 s oracle hundreds of
    # times, so a failure reports the first failing case instead
    @settings(max_examples=20, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(_spectral_cases)
    def check(case):
        res, pump, stokes, omegas = _spectral_case(*case)
        omega = float(omegas[0])
        got = spectral_weight(res, pump, stokes, omega)
        want = spectral_gphi_mpmath(omega=omega, **_oracle_kwargs(res, pump, stokes))
        assert abs(got - want) <= 1e-10 * abs(want)

    check()
