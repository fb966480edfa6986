"""Displaced-PSF overlap geometry and the Hermite-Gauss mode overlaps.

The imaging model is a diffraction-limited Gaussian amplitude PSF of 1/e
half-width w.  Every length in the package is in units of w, so the PSF is

    u0(r) = sqrt(2/pi) * exp(-r^2),

normalized so that the integral of u0^2 over the image plane is one.  Two
emitters a separation s apart produce the two displaced copies of u0 whose
overlap scalars (delta, beta, derivative-mode norms eta, xi) drive every
Fisher-information expression downstream; the derivative scalars are in
units of 1/w and 1/w^2.  The Hermite-Gauss demultiplexing basis is matched
to the same width.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import _scalar_map

# Below this separation the symmetric/antisymmetric mode pair degenerates
# numerically; closed forms switch to their exact limits.
S_TINY = 1e-12


def _require_finite(owner: str, **fields):
    """Raise ValueError naming every non-finite field of ``owner``."""
    bad = [f"{name}={value}" for name, value in fields.items()
           if not cmath.isfinite(value)]
    if bad:
        raise ValueError(f"{owner} fields must be finite: {', '.join(bad)}")


def _require_separation(s):
    """Raise ValueError unless the separation ``s`` (a number, or every
    entry of an array) is finite and nonnegative."""
    for value in s.ravel().tolist() if isinstance(s, np.ndarray) else (s,):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"separation must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class PsfGeometry:
    """Overlap scalars of the two displaced PSF copies at separation s.

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
    # math.log per separation and math.exp per entry: numpy's SIMD log and
    # exp differ from libm in the last bit, and every caller's numbers
    # were frozen from libm values
    log_half = _scalar_map(math.log, s_lit / 2.0)
    half_lgamma = _scalar_map(math.lgamma, k + 1.0) * 0.5
    gam[lit] = _scalar_map(math.exp, -s_lit * s_lit / 8.0 + k * log_half - half_lgamma)
    gam_d[lit] = gam[lit] * (k / s_lit - s_lit / 4.0)
    gam[~lit, 0] = 1.0
    if k_max >= 1:
        gam_d[~lit, 1] = 0.5
    return gam, gam_d


def _sinh_minus_arg(x: float) -> float:
    """sinh(x) - x without cancellation (series below x = 0.5).

    The nine series terms x^3/3! ... x^19/19! reach 1e-18 relative accuracy
    everywhere below x = 0.5; the fixed count also ends on NaN input.
    """
    if x >= 0.5:
        return math.sinh(x) - x
    term = x**3 / 6.0
    acc = term
    for k in range(2, 10):
        term *= x * x / ((2.0 * k) * (2.0 * k + 1.0))
        acc += term
    return acc


def psf_geometry(s: float) -> PsfGeometry:
    """All overlap scalars of the displaced-PSF pair at separation s."""
    _require_separation(s)
    x = s * s / 2.0
    delta = math.exp(-x)
    delta_prime = -s * delta
    dk2 = 1.0
    beta = (1.0 - s * s) * delta

    if x < S_TINY:
        # Leading terms of the derivative-mode norms as s -> 0 (relative
        # corrections O(x^2) ~ 1e-24 at most)
        eta_p2 = x / 4.0
        eta_m2 = x / 12.0
        xi_p2 = x * x / 6.0
        xi_m2 = 2.0
    else:
        smx = _sinh_minus_arg(x)
        eta_p2 = (math.sinh(x) + x) / (8.0 * math.cosh(x / 2.0) ** 2)
        eta_m2 = smx / (8.0 * math.sinh(x / 2.0) ** 2)
        xi_p2 = smx / math.sinh(x)
        xi_m2 = 1.0 + x / math.sinh(x)

    return PsfGeometry(s=s, delta=delta, delta_prime=delta_prime, dk2=dk2,
                       beta=beta, eta_plus2=eta_p2, eta_minus2=eta_m2,
                       xi_plus2=xi_p2, xi_minus2=xi_m2)
