"""The displaced PSF pair and the evaluations of a field over it.

The imaging model is a diffraction-limited Gaussian amplitude PSF of 1/e
half-width w.  Every length in the package is in units of w, so the PSF is

    u0(r) = sqrt(2/pi) * exp(-r^2),

normalized so that the integral of u0^2 over the image plane is one.  Two
emitters a separation s apart produce the copies u1, u2 of u0 centred at
x0 -/+ s/2; with their x-gradients u1', u2' they span every image-plane
field and field derivative downstream.  Their Gram matrix depends on s
alone, through delta = exp(-s^2/2) = <u1|u2>, <u1|u2'> = s delta and
<u1'|u2'> = (1 - s^2) delta (each copy is unit-norm, its gradient has unit
norm in 1/w, and the two are orthogonal).

A field is a coefficient 4-tuple over (u1, u1', u2, u2'), and only this
module knows those four functions.  It evaluates a 4-tuple as an overlap
of two fields (``_psf_gram``) and on the Hermite-Gauss demultiplexing
modes of the same width (``_mode_overlaps``), and gives its site sums
(``_site_sums``), over which the Gram matrix is nearly diagonal and from
which ``fisher`` writes the DI profile as real forms on either side of
the centroid.  The field at image points (``_psf_points``) no longer
serves DI; it remains for ``adjudicate``'s quadrature of the Gram form,
which shares nothing with ``_psf_gram``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def _require_finite(owner: str, **fields):
    """Raise ValueError naming every non-finite field of ``owner`` (an
    array field by its first non-finite entry)."""
    bad = []
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            if np.isfinite(value).all():
                continue
            value = next(v for v in value.ravel().tolist() if not cmath.isfinite(v))
        if not cmath.isfinite(value):
            bad.append(f"{name}={value}")
    if bad:
        raise ValueError(f"{owner} fields must be finite: {', '.join(bad)}")


def _require_separation(s):
    """Raise ValueError unless the separation ``s`` (a number, or every
    entry of an array) is finite and nonnegative."""
    values = np.asarray(s, dtype=float)
    bad = values[~(np.isfinite(values) & (values >= 0.0))]
    if bad.size:
        raise ValueError(f"separation must be finite and nonnegative, got {bad[0]}")


def _psf_gram(s, c, d):
    """Re <c|d> of two image-plane fields at separation s, each given by its
    coefficients (c1, c2, c3, c4) over (u1, u1', u2, u2'); s is a number or
    an array, and the coefficients broadcast with it.

    In the site sums and differences P = c1 + c3, M = c1 - c3,
    P' = c2 + c4, M' = c2 - c4 the Gram matrix is nearly diagonal.  With
    eps = delta - 1 (through expm1, exact at small s),

        2 <c|d> = (2 + eps) P~P + (-eps) M~M + (2 + eps - s^2 delta) P'~P'
                  + (s^2 delta - eps) M'~M' + s delta (M~P' + P'~M - P~M' - M'~P),

    where X~Y is conj(X of c) times (Y of d).  Every weight is a sum of
    like-signed terms, so nothing cancels as s -> 0, and nothing overflows
    at large s.  Evaluated on 1D arrays even for one scene, because numpy
    rounds a complex product of two numbers differently from one of two
    array entries; a number s gives a number.
    """
    s1 = np.atleast_1d(np.asarray(s, dtype=float))
    x = -s1 * s1 / 2.0
    delta, eps = np.exp(x), np.expm1(x)
    s2d = s1 * s1 * delta
    cp, cm, cpd, cmd = _site_sums(c)
    dp, dm, dpd, dmd = _site_sums(d)
    out = 0.5 * ((2.0 + eps) * (np.conj(cp) * dp).real - eps * (np.conj(cm) * dm).real
                 + (2.0 + eps - s2d) * (np.conj(cpd) * dpd).real
                 + (s2d - eps) * (np.conj(cmd) * dmd).real
                 + s1 * delta * (np.conj(cm) * dpd + np.conj(cpd) * dm
                                 - np.conj(cp) * dmd - np.conj(cmd) * dp).real)
    return out if np.ndim(s) else out[0]


def _psf_points(c, d1, d2, e1, e2):
    """The field of coefficients c over (u1, u1', u2, u2') on y = 0, in units
    of the PSF prefactor sqrt(2/pi), at points with offsets d_k from the
    copies and Gaussians e_k = exp(-d_k^2), so u_k' = -2 d_k e_k (all
    broadcast together): (c1 - 2 c2 d1) e1 + (c3 - 2 c4 d2) e2."""
    c1, c2, c3, c4 = c
    return (c1 - 2.0 * c2 * d1) * e1 + (c3 - 2.0 * c4 * d2) * e2


def _mode_overlaps(c, gam, gam_d, sign):
    """<phi_m|c> of the field of coefficients c over (u1, u1', u2, u2') with
    the HG modes centred on x0, from the ``_gamma_table`` rows (gam, gam_d)
    of its separations (c broadcast as columns) and the mode parities
    ``sign`` = (-1)^m.  The copy u2 at x0 + s/2 overlaps mode m by gamma_m
    and its mirror image u1 by (-1)^m gamma_m; u2 moves by s/2 when s
    does, and moving it by dx adds -u2' dx, so <phi_m|u2'> = -2 gamma_m'
    and <phi_m|u1'> = 2 (-1)^m gamma_m'."""
    c1, c2, c3, c4 = c
    return gam * (sign * c1 + c3) + gam_d * (2.0 * (sign * c2 - c4))


def _site_sums(coeffs):
    # (c1 + c3, c1 - c3, c2 + c4, c2 - c4) as 1D arrays
    c1, c2, c3, c4 = (np.atleast_1d(z) for z in coeffs)
    return c1 + c3, c1 - c3, c2 + c4, c2 - c4


def _gamma_table(s_values, k_max: int):
    """gamma_k and d(gamma_k)/ds for every separation (rows) and k = 0..k_max.

    gamma_k = exp(-s^2/8) (s/2)^k / sqrt(k!) is the overlap of a PSF
    displaced by s/2 with the k-th basis mode, computed in the log domain
    so large k and small s underflow gracefully instead of overflowing
    (k log(s/2) is 0 for k = 0, so s = 0 gives gamma_0 = 1).  Its slope
    d(gamma_k)/ds = (sqrt(k)/2) gamma_{k-1} - (s/4) gamma_k divides by
    nothing, so it holds at s = 0 and at subnormal s alike.
    """
    s = np.asarray(s_values, dtype=float)
    _require_separation(s)
    s = s[:, None]  # one row per separation
    k = np.arange(k_max + 1, dtype=float)
    half_lgamma = np.array([math.lgamma(j + 1.0) for j in range(k_max + 1)]) * 0.5
    power = np.zeros((s.size, k.size))
    with np.errstate(divide="ignore"):  # log(0) = -inf gives gamma_k = 0
        power[:, 1:] = k[1:] * np.log(s / 2.0)
    gam = np.exp(-s * s / 8.0 + power - half_lgamma)
    gam_d = -(s / 4.0) * gam
    gam_d[:, 1:] += (0.5 * np.sqrt(k[1:])) * gam[:, :-1]
    return gam, gam_d
