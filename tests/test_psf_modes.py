"""Displaced-PSF overlap geometry and the Hermite-Gauss sorting basis."""

import math
import signal
from decimal import Decimal, localcontext

import numpy as np
import pytest

from carsfisher import (
    GaussianPsf,
    HermiteGaussBasis,
    centroid_mode_coupling,
    gamma_k,
    hg_mode_value,
    overlap_beta,
    overlap_delta,
    psf_geometry,
    psf_value,
)
from carsfisher.psf_modes import _sinh_minus_arg, gamma_k_dd

import oracles
from oracles import gamma_overlap, hg_1d

PSF = GaussianPsf()
BASIS = HermiteGaussBasis(truncation_M=30)


def test_psf_value_origin_normalization():
    assert psf_value(PSF, 0.0, 0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    # unit norm: int |u|^2 = 1
    xs = np.linspace(-8.0, 8.0, 4001)
    xx, yy = np.meshgrid(xs, xs)
    vals = psf_value(PSF, xx, yy) ** 2
    h = xs[1] - xs[0]
    norm = np.sum(vals) * h * h
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_overlap_delta_gaussian():
    for s in (0.0, 0.3, 1.0, 2.5):
        assert overlap_delta(PSF, s) == pytest.approx(math.exp(-s * s / 2.0), rel=1e-15)
    with pytest.raises(ValueError):
        overlap_delta(PSF, -0.1)


def test_overlap_beta_sign_and_zero():
    assert overlap_beta(PSF, 0.0) == pytest.approx(1.0, rel=1e-15)  # = dk2 at s=0
    assert overlap_beta(PSF, 1.0) == 0.0  # gradient overlaps cancel exactly
    assert overlap_beta(PSF, 2.0) < 0.0
    with pytest.raises(ValueError):
        overlap_beta(PSF, -1.0)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.0, 3.0])
def test_geometry_mode_norm_identities(s):
    # eta/xi fields must agree with their definitions in terms of the
    # primitive overlaps (delta, delta', beta, dk2).  Below s ~ 0.1 the
    # naive expressions cancel catastrophically (that is why the library
    # uses sinh series there); the small-s regime is pinned separately.
    g = psf_geometry(PSF, s)
    one_p = 1.0 + g.delta
    one_m = 1.0 - g.delta
    eta_p = (g.dk2 - g.beta) / (4.0 * one_p) - g.delta_prime**2 / (4.0 * one_p**2)
    eta_m = (g.dk2 + g.beta) / (4.0 * one_m) - g.delta_prime**2 / (4.0 * one_m**2)
    w2 = g.delta_prime**2 / (one_p * one_m)
    xi_p = (g.dk2 + g.beta) / one_p - w2
    xi_m = (g.dk2 - g.beta) / one_m - w2
    assert g.eta_plus2 == pytest.approx(eta_p, abs=1e-13)
    assert g.eta_minus2 == pytest.approx(eta_m, rel=1e-10, abs=1e-13)
    assert g.xi_plus2 == pytest.approx(xi_p, rel=1e-10, abs=1e-13)
    assert g.xi_minus2 == pytest.approx(xi_m, rel=1e-10)


def test_geometry_small_s_limits():
    g = psf_geometry(PSF, 1e-8)
    x = 0.5e-16
    assert g.eta_plus2 == pytest.approx(x / 4.0, rel=1e-12, abs=0.0)
    assert g.eta_minus2 == pytest.approx(x / 12.0, rel=1e-12, abs=0.0)
    assert g.xi_plus2 == pytest.approx(x * x / 6.0, rel=1e-12, abs=0.0)
    assert g.xi_minus2 == pytest.approx(2.0, rel=1e-12)


def test_centroid_mode_coupling_limit_and_value():
    assert centroid_mode_coupling(PSF, 0.0) == pytest.approx(-1.0, rel=1e-15)
    assert centroid_mode_coupling(PSF, 1e-9) == pytest.approx(-1.0, rel=1e-10)
    s = 1.3
    expected = -s * math.exp(-s * s / 2.0) / math.sqrt(1.0 - math.exp(-s * s))
    assert centroid_mode_coupling(PSF, s) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.0])
def test_geometry_matches_independent_oracle(s):
    closed = psf_geometry(PSF, s)
    oracle = oracles.psf_geometry_fd(s)
    for field in ("delta", "delta_prime", "beta", "dk2",
                  "eta_plus2", "eta_minus2", "xi_plus2", "xi_minus2"):
        assert getattr(closed, field) == pytest.approx(
            oracle[field], rel=1e-6, abs=1e-8), field


def test_hg_modes_orthonormal():
    xs = np.linspace(-9.0, 9.0, 6001)
    h = xs[1] - xs[0]
    ys = xs
    # separability: check the x-factor on a line, weighting out the y-factor
    modes = [hg_mode_value(BASIS, m, xs, 0.0) for m in range(6)]
    y_norm = np.sum(np.exp(-2.0 * ys**2)) * h
    for m in range(6):
        for n in range(m, 6):
            overlap = np.sum(modes[m] * modes[n]) * h * y_norm
            expected = 1.0 if m == n else 0.0
            assert overlap == pytest.approx(expected, abs=1e-12)


def test_hg_mode_value_matches_reference_polynomials():
    xs = np.linspace(-3.0, 3.0, 41)
    for m in (0, 1, 4, 9, 17):
        got = hg_mode_value(BASIS, m, xs, 0.7)
        want = hg_1d(m, xs) * (2.0 / math.pi) ** 0.25 * np.exp(-0.49)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


def test_hg_mode_index_bounds():
    with pytest.raises(ValueError):
        hg_mode_value(BASIS, -1, 0.0, 0.0)
    with pytest.raises(ValueError):
        hg_mode_value(BASIS, 31, 0.0, 0.0)


def test_gamma_k_against_overlap_integral():
    for s in (0.2, 1.0, 2.7):
        for k in (0, 1, 2, 5, 12):
            assert gamma_k(BASIS, k, s) == pytest.approx(
                gamma_overlap(k, s), abs=1e-10)


def test_gamma_k_completeness():
    # the displaced PSF lies entirely inside the first ~30 modes for s <= 3
    for s in (0.5, 1.5, 3.0):
        total = sum(gamma_k(BASIS, k, s) ** 2 for k in range(31))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_gamma_k_boundary_cases():
    assert gamma_k(BASIS, 0, 0.0) == 1.0
    assert gamma_k(BASIS, 3, 0.0) == 0.0
    with pytest.raises(ValueError):
        gamma_k(BASIS, 31, 1.0)
    with pytest.raises(ValueError):
        gamma_k(BASIS, 2, -0.5)


def test_gamma_k_dd_matches_finite_difference():
    h = 1e-6
    for s in (0.4, 1.0, 2.0):
        for k in (0, 1, 2, 6):
            fd = (gamma_k(BASIS, k, s + h) - gamma_k(BASIS, k, s - h)) / (2.0 * h)
            assert gamma_k_dd(BASIS, k, s) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_gamma_k_dd_at_zero_separation():
    assert gamma_k_dd(BASIS, 1, 0.0) == pytest.approx(0.5)
    assert gamma_k_dd(BASIS, 0, 0.0) == 0.0
    assert gamma_k_dd(BASIS, 2, 0.0) == 0.0


def test_oracle_helpers_sanity():
    # the oracle helpers are dumb on purpose; pin their normalization once
    norm = oracles.inner(oracles.psf_1d(oracles._X), oracles.psf_1d(oracles._X))
    assert norm.real == pytest.approx(1.0, abs=1e-11)
    assert norm.imag == 0.0


def _sinh_minus_arg_decimal(x: float) -> float:
    # the Taylor series of sinh(x) - x in 50-digit decimal arithmetic
    with localcontext() as ctx:
        ctx.prec = 50
        xd = Decimal(x)
        term = xd**3 / 6
        acc = term
        k = 1
        while abs(term) > Decimal(10) ** -45 * acc:
            k += 1
            term *= xd * xd / ((2 * k) * (2 * k + 1))
            acc += term
        return float(acc)


@pytest.mark.parametrize("x", [1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.4999999999])
def test_sinh_minus_arg_series_against_decimal(x):
    assert _sinh_minus_arg(x) == pytest.approx(_sinh_minus_arg_decimal(x),
                                               rel=4e-16)


def _raise_timeout(signum, frame):
    raise TimeoutError("no result within 2 s")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs setitimer")
def test_nan_separation_returns_promptly():
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        smx = _sinh_minus_arg(float("nan"))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            psf_geometry(PSF, float("nan"))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert math.isnan(smx)


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
def test_psf_width_must_be_finite(width):
    with pytest.raises(ValueError, match="finite"):
        GaussianPsf(width_w=width)


@pytest.mark.parametrize("s", [math.nan, math.inf, -0.25])
def test_psf_geometry_rejects_bad_separation(s):
    with pytest.raises(ValueError, match="separation must be finite and nonnegative"):
        psf_geometry(PSF, s)


@pytest.mark.parametrize("s", [1e-9, 1e-7, 1.4e-6, 1.5e-6, 1e-3])
def test_derivative_mode_norms_against_decimal(s):
    # eta_+-^2 and xi_+^2 from their defining sinh/cosh expressions at 80
    # digits, on both sides of the small-x branch (x = s^2/2 < 1e-12)
    def sinh(v):
        return (v.exp() - (-v).exp()) / 2

    def cosh(v):
        return (v.exp() + (-v).exp()) / 2

    with localcontext() as ctx:
        ctx.prec = 80
        x = Decimal(s) * Decimal(s) / 2
        want = {
            "eta_plus2": (sinh(x) + x) / (8 * cosh(x / 2) ** 2),
            "eta_minus2": (sinh(x) - x) / (8 * sinh(x / 2) ** 2),
            "xi_plus2": (sinh(x) - x) / sinh(x),
        }
    geom = psf_geometry(PSF, s)
    for name, value in want.items():
        assert getattr(geom, name) == pytest.approx(float(value), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("fields", [
    {"width_w": math.nan}, {"width_w": math.inf}, {"width_w": -math.inf},
    {"width_w": 0.0}, {"width_w": -1.0},
    {"truncation_M": -1}, {"truncation_M": 2.5}, {"truncation_M": 30.0},
    {"truncation_M": "30"}, {"truncation_M": True},
])
def test_basis_rejects_bad_fields(fields):
    with pytest.raises(ValueError, match=next(iter(fields))[:5]):
        HermiteGaussBasis(**fields)
