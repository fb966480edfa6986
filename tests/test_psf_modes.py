"""Displaced-PSF overlap geometry and the Hermite-Gauss mode overlaps."""

import math
import signal
from decimal import Decimal, localcontext

import numpy as np
import pytest

from carsfisher.psf_modes import psf_geometry
from carsfisher.fisher import _centroid_coupling_from_geometry
from carsfisher.psf_modes import _gamma_table, _sinh_minus_arg

import oracles
from oracles import gamma_overlap, hg_1d

def test_overlap_delta_gaussian():
    for s in (0.0, 0.3, 1.0, 2.5):
        assert psf_geometry(s).delta == pytest.approx(math.exp(-s * s / 2.0), rel=1e-15)
    with pytest.raises(ValueError):
        psf_geometry(-0.1)


def test_overlap_beta_sign_and_zero():
    assert psf_geometry(0.0).beta == pytest.approx(1.0, rel=1e-15)  # = dk2 at s=0
    assert psf_geometry(1.0).beta == 0.0  # gradient overlaps cancel exactly
    assert psf_geometry(2.0).beta < 0.0


@pytest.mark.parametrize("s", [0.3, 1.0, 2.0, 3.0])
def test_geometry_mode_norm_identities(s):
    # eta/xi fields must agree with their definitions in terms of the
    # primitive overlaps (delta, delta', beta, dk2).  Below s ~ 0.1 the
    # naive expressions cancel catastrophically (that is why the library
    # uses sinh series there); the small-s regime is pinned separately.
    g = psf_geometry(s)
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
    g = psf_geometry(1e-8)
    x = 0.5e-16
    assert g.eta_plus2 == pytest.approx(x / 4.0, rel=1e-12, abs=0.0)
    assert g.eta_minus2 == pytest.approx(x / 12.0, rel=1e-12, abs=0.0)
    assert g.xi_plus2 == pytest.approx(x * x / 6.0, rel=1e-12, abs=0.0)
    assert g.xi_minus2 == pytest.approx(2.0, rel=1e-12)


def _centroid_coupling(s):
    return _centroid_coupling_from_geometry(psf_geometry(s))


def test_centroid_mode_coupling_limit_and_value():
    # W = delta' / sqrt(1 - delta^2) tends to -1/w as s -> 0
    assert _centroid_coupling(0.0) == pytest.approx(-1.0, rel=1e-15)
    assert _centroid_coupling(1e-9) == pytest.approx(-1.0, rel=1e-10)
    s = 1.3
    expected = -s * math.exp(-s * s / 2.0) / math.sqrt(1.0 - math.exp(-s * s))
    assert _centroid_coupling(s) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.0])
def test_geometry_matches_independent_oracle(s):
    closed = psf_geometry(s)
    oracle = oracles.psf_geometry_fd(s)
    for field in ("delta", "delta_prime", "beta", "dk2",
                  "eta_plus2", "eta_minus2", "xi_plus2", "xi_minus2"):
        assert getattr(closed, field) == pytest.approx(
            oracle[field], rel=1e-6, abs=1e-8), field


def test_hg_modes_orthonormal():
    # the oracle's HG factors, against which every gamma_k is pinned; the
    # 40,001-term trapezoid sums carry ~2e-12 of roundoff
    modes = [hg_1d(m, oracles._X) for m in range(6)]
    for m in range(6):
        for n in range(m, 6):
            overlap = oracles.inner(modes[m], modes[n]).real
            expected = 1.0 if m == n else 0.0
            assert overlap == pytest.approx(expected, abs=1e-11)


def test_gamma_k_against_overlap_integral():
    s_values = (0.2, 1.0, 2.7)
    gam, _ = _gamma_table(s_values, 12)
    for row, s in zip(gam, s_values):
        for k in (0, 1, 2, 5, 12):
            assert row[k] == pytest.approx(gamma_overlap(k, s), abs=1e-10)


def test_gamma_k_completeness():
    # the displaced PSF lies entirely inside the first ~30 modes for s <= 3
    gam, _ = _gamma_table((0.5, 1.5, 3.0), 30)
    np.testing.assert_allclose(np.sum(gam**2, axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_gamma_k_boundary_cases():
    gam, _ = _gamma_table([0.0], 3)
    assert gam[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        _gamma_table([1.0, -0.5], 3)


def test_gamma_k_dd_matches_finite_difference():
    h = 1e-6
    s_values = np.array([0.4, 1.0, 2.0])
    _, gam_d = _gamma_table(s_values, 6)
    fd = (_gamma_table(s_values + h, 6)[0] - _gamma_table(s_values - h, 6)[0]) / (2.0 * h)
    for k in (0, 1, 2, 6):
        np.testing.assert_allclose(gam_d[:, k], fd[:, k], rtol=1e-7, atol=1e-9)


def test_gamma_k_dd_at_zero_separation():
    _, gam_d = _gamma_table([0.0], 2)
    assert gam_d[0].tolist() == [0.0, 0.5, 0.0]


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
            psf_geometry(float("nan"))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert math.isnan(smx)


@pytest.mark.parametrize("s", [math.nan, math.inf, -0.25])
def test_psf_geometry_rejects_bad_separation(s):
    with pytest.raises(ValueError, match="separation must be finite and nonnegative"):
        psf_geometry(s)


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
    geom = psf_geometry(s)
    for name, value in want.items():
        assert getattr(geom, name) == pytest.approx(float(value), rel=1e-12, abs=0.0)

