"""Displaced-PSF Gram form and the Hermite-Gauss mode overlaps.

The imaging model is a diffraction-limited Gaussian amplitude PSF of 1/e
half-width w.  Every length in the package is in units of w, so the PSF is

    u0(r) = sqrt(2/pi) * exp(-r^2),

normalized so that the integral of u0^2 over the image plane is one.  Two
emitters a separation s apart produce the copies u1, u2 of u0 centred at
x0 -/+ s/2; with their x-gradients u1', u2' they span every image-plane
field and field derivative downstream.  Their Gram matrix depends on s
alone, through delta = exp(-s^2/2) = <u1|u2>, <u1|u2'> = s delta and
<u1'|u2'> = (1 - s^2) delta (each copy is unit-norm, its gradient has unit
norm in 1/w, and the two are orthogonal).  The Hermite-Gauss
demultiplexing basis is matched to the same width.  Every function takes
a separation or a 1D array of separations.
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
            value = next((v for v in value.ravel().tolist()
                          if not cmath.isfinite(v)), 0.0)
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


def _site_sums(coeffs):
    # (c1 + c3, c1 - c3, c2 + c4, c2 - c4) as 1D arrays
    c1, c2, c3, c4 = (np.atleast_1d(z) for z in coeffs)
    return c1 + c3, c1 - c3, c2 + c4, c2 - c4


def _gamma_table(s_values, k_max: int):
    """gamma_k and d(gamma_k)/ds for every separation (rows) and k = 0..k_max.

    gamma_k = exp(-s^2/8) (s/2)^k / sqrt(k!) is the overlap of a PSF
    displaced by s/2 with the k-th basis mode, computed in the log domain
    so large k and small s underflow gracefully instead of overflowing;
    d(gamma_k)/ds = gamma_k (k/s - s/4).  At s = 0 only gamma_0 = 1 and
    the slope 1/2 of gamma_1 ~ s/2 survive.
    """
    s = np.asarray(s_values, dtype=float)
    _require_separation(s)
    k = np.arange(k_max + 1, dtype=float)
    gam = np.zeros((s.size, k.size))
    gam_d = np.zeros_like(gam)
    lit = s > 0.0
    s_lit = s[lit][:, None]
    half_lgamma = np.array([math.lgamma(j + 1.0) for j in range(k_max + 1)]) * 0.5
    gam[lit] = np.exp(-s_lit * s_lit / 8.0 + k * np.log(s_lit / 2.0) - half_lgamma)
    gam_d[lit] = gam[lit] * (k / s_lit - s_lit / 4.0)
    gam[~lit, 0] = 1.0
    if k_max >= 1:
        gam_d[~lit, 1] = 0.5
    return gam, gam_d
