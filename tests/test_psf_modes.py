"""Displaced-PSF Gram form, point and Hermite-Gauss mode evaluations."""

import math
import signal
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carsfisher.psf_modes import _gamma_table, _mode_overlaps, _psf_gram, _psf_points

import oracles
from oracles import gamma_overlap, hg_1d

# unit coefficient vectors over (u1, u1', u2, u2')
U1, U1P, U2, U2P = np.eye(4)


def test_overlap_delta_gaussian():
    for s in (0.0, 0.3, 1.0, 2.5):
        assert _psf_gram(s, U1, U2) == pytest.approx(math.exp(-s * s / 2.0), rel=1e-15)
        assert _psf_gram(s, U1, U1) == 1.0 == _psf_gram(s, U2P, U2P)
        assert _psf_gram(s, U1, U1P) == 0.0 == _psf_gram(s, U2, U2P)


def test_overlap_beta_sign_and_zero():
    assert _psf_gram(0.0, U1P, U2P) == pytest.approx(1.0, rel=1e-15)  # = dk2 at s=0
    assert _psf_gram(1.0, U1P, U2P) == 0.0  # gradient overlaps cancel exactly
    assert _psf_gram(2.0, U1P, U2P) < 0.0
    # <u1|u2'> = s delta = -<u2|u1'>: u1 sits on the rising flank of u2
    for s in (0.5, 2.0):
        assert _psf_gram(s, U1, U2P) == pytest.approx(s * math.exp(-s * s / 2.0),
                                                      rel=1e-15)
        assert _psf_gram(s, U2, U1P) == -_psf_gram(s, U1, U2P)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.0, 3.0])
def test_geometry_mode_norm_identities(s):
    # the site sums and differences diagonalize each block: the norms of
    # u1 +/- u2 and u1' +/- u2' are 2(1 +/- delta) and 2(1 +/- beta), and
    # the two blocks couple only through s delta
    delta = math.exp(-s * s / 2.0)
    beta = (1.0 - s * s) * delta
    for sign in (1.0, -1.0):
        mode, grad = U1 + sign * U2, U1P + sign * U2P
        assert _psf_gram(s, mode, mode) == pytest.approx(2.0 * (1.0 + sign * delta),
                                                         rel=1e-14)
        assert _psf_gram(s, grad, grad) == pytest.approx(2.0 * (1.0 + sign * beta),
                                                         rel=1e-14)
        assert _psf_gram(s, mode, grad) == 0.0
        assert _psf_gram(s, mode, U1P - sign * U2P) == pytest.approx(
            -sign * 2.0 * s * delta, rel=1e-14)


def test_geometry_small_s_limits():
    # no cancellation as the copies merge: |u1 - u2|^2 = 2(1 - delta) ~ s^2
    # and |u1' - u2'|^2 = 2(1 - beta) ~ 3 s^2
    s = 1e-8
    x = s * s / 2.0
    assert _psf_gram(s, U1 - U2, U1 - U2) == pytest.approx(2.0 * x, rel=1e-12, abs=0.0)
    assert _psf_gram(s, U1P - U2P, U1P - U2P) == pytest.approx(6.0 * x, rel=1e-12,
                                                               abs=0.0)
    assert _psf_gram(0.0, U1 - U2, U1 - U2) == 0.0


def test_centroid_mode_coupling_limit_and_value():
    # W = <m_-|d_x0 m_+> for the normalized modes m_+- = (u1 +/- u2)/N_+-,
    # with d_x0 u_k = -u_k': W = delta' / sqrt(1 - delta^2), -1/w as s -> 0
    def coupling(s):
        eps = math.expm1(-s * s / 2.0)
        n_p, n_m = math.sqrt(2.0 * (2.0 + eps)), math.sqrt(-2.0 * eps)
        return _psf_gram(s, (U1 - U2) / n_m, -(U1P + U2P) / n_p)

    assert coupling(1e-9) == pytest.approx(-1.0, rel=1e-10)
    s = 1.3
    expected = -s * math.exp(-s * s / 2.0) / math.sqrt(1.0 - math.exp(-s * s))
    assert coupling(s) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.0])
def test_geometry_matches_independent_oracle(s):
    oracle = oracles.psf_geometry_fd(s)
    for name, c, d in (("delta", U1, U2), ("sigma", U1, U2P), ("beta", U1P, U2P),
                       ("dk2", U1P, U1P)):
        assert _psf_gram(s, c, d) == pytest.approx(oracle[name], rel=1e-6,
                                                   abs=1e-8), name


@pytest.mark.parametrize("s", [0.0, 1e-3, 0.3, 1.0, 2.5, 6.0])
def test_psf_gram_against_sampled_copies(s):
    # Re <c|d> of random complex combinations of the sampled copies and
    # their central-difference gradients, on the oracle grid
    rng = np.random.default_rng(int(s * 1000) + 7)
    h = oracles.FD_STEP
    basis = []
    for center in (-s / 2.0, s / 2.0):
        basis.append(oracles.psf_1d(oracles._X - center))
        basis.append((oracles.psf_1d(oracles._X - center + h)
                      - oracles.psf_1d(oracles._X - center - h)) / (2.0 * h))
    for _ in range(4):
        c, d = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        want = oracles.inner(np.tensordot(c, basis, 1), np.tensordot(d, basis, 1)).real
        scale = np.linalg.norm(c) * np.linalg.norm(d)
        assert abs(_psf_gram(s, c, d) - want) < 1e-9 * scale


_COEFFS = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).map(
    lambda v: np.array(v[:4]) + 1j * np.array(v[4:]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 4.0), _COEFFS, _COEFFS)
def test_points_modes_and_gram_give_one_overlap(s, c, d):
    # Re <c|d> three ways: the Gram form; the x-integral on y = 0 of the
    # fields at image points, times the PSF prefactor 2/pi and the
    # y-integral sqrt(pi/2) (a trapezoid sum on a 0.05 grid, exact to
    # roundoff for these Gaussians); and Parseval over the HG modes m <= 60
    x = np.arange(-12.0, 12.0 + 0.025, 0.05)
    d1, d2 = x + s / 2.0, x - s / 2.0
    points = (d1, d2, np.exp(-d1 ** 2), np.exp(-d2 ** 2))
    on_points = (np.conj(_psf_points(c, *points)) * _psf_points(d, *points)).real
    by_points = on_points.sum() * 0.05 * (2.0 / math.pi) * math.sqrt(math.pi / 2.0)
    gam, gam_d = _gamma_table([s], 60)
    sign = (-1.0) ** np.arange(61)
    c_m, d_m = (_mode_overlaps(v, gam, gam_d, sign)[0] for v in (c, d))
    by_modes = (np.conj(c_m) * d_m).real.sum()
    scale = np.linalg.norm(c) * np.linalg.norm(d)
    gram = _psf_gram(s, c, d)
    assert abs(by_points - gram) <= 1e-12 * scale
    assert abs(by_modes - gram) <= 1e-12 * scale


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


def _raise_timeout(signum, frame):
    raise TimeoutError("no result within 2 s")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs setitimer")
def test_nan_separation_returns_promptly():
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _gamma_table([float("nan")], 30)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("s", [math.nan, math.inf, -0.25])
def test_gamma_table_rejects_bad_separation(s):
    with pytest.raises(ValueError, match="separation must be finite and nonnegative"):
        _gamma_table([0.5, s], 4)


@pytest.mark.parametrize("s", [1e-9, 1e-7, 1.4e-6, 1.5e-6, 1e-3])
def test_derivative_mode_norms_against_decimal(s):
    # the squared norms of the separation and centroid derivatives of the
    # unnormalized modes u1 +/- u2 (u1 at -s/2 moves as -u1'/2 per unit s,
    # u2 as +u2'/2; both move as -u_k' per unit x0), against 80 digits
    with localcontext() as ctx:
        ctx.prec = 80
        sd = Decimal(s)
        beta = (1 - sd * sd) * (-(sd * sd) / 2).exp()
        want = {"d_s plus": (1 - beta) / 2, "d_s minus": (1 + beta) / 2,
                "d_x0 plus": 2 * (1 + beta), "d_x0 minus": 2 * (1 - beta)}
    got = {"d_s plus": (U1P - U2P) / 2.0, "d_s minus": (U1P + U2P) / 2.0,
           "d_x0 plus": -(U1P + U2P), "d_x0 minus": -(U1P - U2P)}
    for name, c in got.items():
        assert _psf_gram(s, c, c) == pytest.approx(float(want[name]), rel=1e-14,
                                                   abs=0.0), name
