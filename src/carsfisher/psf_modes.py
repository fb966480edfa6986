"""Displaced-PSF overlap geometry and the Hermite-Gauss mode overlaps.

The imaging model is a diffraction-limited Gaussian amplitude PSF of 1/e
half-width w.  Every length in the package is in units of w, so the PSF is

    u0(r) = sqrt(2/pi) * exp(-r^2),

normalized so that the integral of u0^2 over the image plane is one.  Two
emitters a separation s apart produce the two displaced copies of u0 whose
overlap scalars (delta, beta, derivative-mode norms eta, xi) drive every
Fisher-information expression downstream; the derivative scalars are in
units of 1/w and 1/w^2.  The Hermite-Gauss demultiplexing basis is matched
to the same width.  Every function takes a separation or a 1D array of
separations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Below this separation the symmetric/antisymmetric mode pair degenerates
# numerically; closed forms switch to their exact limits.
S_TINY = 1e-12
# Above this x = s^2/2, sinh(x) overflows and the closed forms switch to
# their ratios in exp(-x).
_X_HUGE = math.log(np.finfo(float).max)


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


@dataclass(frozen=True)
class PsfGeometry:
    """Overlap scalars of the two displaced PSF copies at separation s
    (each field an array of the shape of s when s is an array).

    delta        overlap of the two copies
    delta_prime  d(delta)/ds
    dk2          squared width of the PSF gradient, int (dx u0)^2
    beta         gradient cross-overlap int dx u0(r-r1) dx u0(r-r2)
    eta_plus2/eta_minus2   squared norms of the separation-derivatives of the
                 normalized symmetric/antisymmetric modes
    xi_plus2/xi_minus2     squared norms of the centroid-derivatives of those
                 modes, projected out of the mode span
    """

    s: float
    delta: float
    delta_prime: float
    dk2: float
    beta: float
    eta_plus2: float
    eta_minus2: float
    xi_plus2: float
    xi_minus2: float


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


def _sinh_minus_arg(x):
    """sinh(x) - x without cancellation (series below x = 0.5), elementwise.

    The nine series terms x^3/3! ... x^19/19! reach 1e-18 relative accuracy
    everywhere below x = 0.5; the fixed count also ends on NaN input.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        term = x**3 / 6.0
        acc = term
        for k in range(2, 10):
            term = term * (x * x / ((2.0 * k) * (2.0 * k + 1.0)))
            acc = acc + term
        return np.where(x >= 0.5, np.sinh(x) - x, acc)[()]


def psf_geometry(s) -> PsfGeometry:
    """All overlap scalars of the displaced-PSF pair at separation s (a
    number, or an array of separations)."""
    _require_separation(s)
    s = np.asarray(s, dtype=float)
    x = s * s / 2.0
    delta = np.exp(-x)
    tiny = x < S_TINY
    huge = x > _X_HUGE
    smx = _sinh_minus_arg(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sinh = np.sinh(x)
        # below x = S_TINY the leading terms of the derivative-mode norms
        # as s -> 0 (relative corrections O(x^2) ~ 1e-24 at most)
        eta_p2 = np.where(tiny, x / 4.0, (sinh + x) / (8.0 * np.cosh(x / 2.0) ** 2))
        eta_m2 = np.where(tiny, x / 12.0, smx / (8.0 * np.sinh(x / 2.0) ** 2))
        xi_p2 = np.where(tiny, x * x / 6.0, smx / sinh)
        xi_m2 = np.where(tiny, 2.0, 1.0 + x / sinh)
    if np.any(huge):
        # above x = _X_HUGE sinh(x) and cosh(x/2)^2 overflow: the same
        # ratios with e^x divided out, in e = exp(-x) and r = x / sinh(x)
        e = delta
        r = 2.0 * x * e / (1.0 - e * e)
        eta_p2 = np.where(huge, (0.5 * (1.0 - e * e) + x * e)
                          / (2.0 * (1.0 + e) ** 2), eta_p2)
        eta_m2 = np.where(huge, (0.5 * (1.0 - e * e) - x * e)
                          / (2.0 * (1.0 - e) ** 2), eta_m2)
        xi_p2 = np.where(huge, 1.0 - r, xi_p2)
        xi_m2 = np.where(huge, 1.0 + r, xi_m2)

    return PsfGeometry(s=s[()], delta=delta[()], delta_prime=(-s * delta)[()],
                       dk2=1.0, beta=((1.0 - s * s) * delta)[()],
                       eta_plus2=eta_p2[()], eta_minus2=eta_m2[()],
                       xi_plus2=xi_p2[()], xi_minus2=xi_m2[()])
