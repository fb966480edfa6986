"""Excitation fields and image-plane coherent amplitudes.

Two emitters sit on the x-axis at (x0 -/+ s/2, 0).  Every length is in
units of the PSF width w, and the ImageAmplitudes record carries the whole
scene to the estimators, which take no separation, width or PSF of their
own.  Each emitter emits with a coherent amplitude proportional to the
local Stokes field times the squared conjugate pump field,

    alpha(r) = -i g u_St(r) (u_pu*(r))^2,

and the image-plane signal is a two-mode coherent state in the symmetric /
antisymmetric superpositions of the displaced PSF copies:

    alpha_pm = sqrt(kappa (1 +/- delta) / 2) [alpha(r1) +/- alpha(r2)].

Supported excitation families:

* plane-wave pump and Stokes — the phase difference between the emitters is
  controlled by the effective transverse wavevector ktilde;
* a first-order vortex (ring-shaped, spiral-phase) Stokes beam with a plane
  pump, optionally shifted vertically by psi relative to the emitters.

Both families have analytic derivatives of alpha_pm with respect to the
separation (the ``d_d_*`` fields) and the centroid x0.  The emitters sit
on y = 0, so only the excitation's profile along that line enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .psf_modes import _require_finite, _require_separation


@dataclass(frozen=True)
class PlaneWaveExcitation:
    """Plane-wave pump and Stokes beams.

    ktilde, the Stokes wavevector's component along the emitter axis minus
    twice the pump's (in units of 1/w), is the effective transverse
    wavevector; it sets the emitted phase difference.
    """

    ktilde: float

    def __post_init__(self):
        _require_finite("PlaneWaveExcitation", ktilde=self.ktilde)


@dataclass(frozen=True)
class VortexExcitation:
    """First-order vortex Stokes beam, plane-wave pump.

    a is the beam-to-PSF waist ratio w_St/w, psi the vertical offset y0/w of
    the emitters from the beam axis.  The beam amplitude is normalized so
    the intensity ring peaks at one.
    """

    a: float
    psi: float = 0.0

    def __post_init__(self):
        _require_finite("VortexExcitation", a=self.a, psi=self.psi)
        if not self.a > 0.0:
            raise ValueError("waist ratio a must be positive")


@dataclass(frozen=True)
class EmitterScene:
    """Two-emitter configuration: separation s, centroid x0 (units of w),
    coupling amplitude g, and transmission kappa.

    s may be a 1D array of separations: the scene then stands for one
    scene per entry, all sharing x0, g and kappa."""

    s: float | np.ndarray
    x0: float = 0.0
    g: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if np.ndim(self.s) > 1:
            raise ValueError("separation must be a number or a 1D array")
        _require_finite("EmitterScene", s=np.asarray(self.s, dtype=float),
                        x0=self.x0, g=self.g, kappa=self.kappa)
        _require_separation(self.s)
        if not self.g > 0.0:
            raise ValueError("coupling g must be positive")
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("transmission kappa must lie in (0, 1]")


@dataclass(frozen=True)
class ImageAmplitudes:
    """Amplitudes of the symmetric/antisymmetric image modes of a scene.

    ``d_d_*`` are derivatives with respect to the separation s,
    ``d_x0_*`` with respect to the centroid x0 (both in units of 1/w).
    Site-level values are kept so downstream code can rebuild the full
    image-plane field (direct imaging and its camera model).  For a scene
    whose s is an array, s and every amplitude field are arrays with one
    entry per separation; x0, kappa and g stay numbers.
    """

    alpha_plus: complex
    alpha_minus: complex
    d_d_alpha_plus: complex
    d_d_alpha_minus: complex
    d_x0_alpha_plus: complex
    d_x0_alpha_minus: complex
    # site amplitudes alpha(r1), alpha(r2) and their in-plane x-gradients
    site_amplitudes: tuple = (0j, 0j)
    site_gradients: tuple = (0j, 0j)
    s: float = 0.0
    x0: float = 0.0
    kappa: float = 1.0
    g: float = 1.0

    @property
    def n_total(self) -> float:
        """Total mean photon number |alpha+|^2 + |alpha-|^2."""
        return abs(self.alpha_plus) ** 2 + abs(self.alpha_minus) ** 2


class _SiteField(NamedTuple):
    value: np.ndarray
    grad_x: np.ndarray


def _vortex_norm(a: float) -> float:
    # sqrt(2e)/w_St makes the ring intensity max equal one.
    return math.sqrt(2.0 * math.e) / a


def _site_field(exc, g: float, x) -> _SiteField:
    """alpha at (x, 0) and its analytic x-gradient."""
    if isinstance(exc, PlaneWaveExcitation):
        kx = exc.ktilde
        val = -1j * g * np.exp(1j * (kx * x))
        return _SiteField(val, 1j * kx * val)
    if isinstance(exc, VortexExcitation):
        a, psi = exc.a, exc.psi
        envelope = np.exp(-(x**2 + psi**2) / a**2)
        core = x + 1j * psi
        val = -1j * g * _vortex_norm(a) * core * envelope
        grad = -1j * g * _vortex_norm(a) * envelope * (1.0 - 2.0 * x * core / a**2)
        return _SiteField(val, grad)
    raise TypeError(f"unsupported excitation {type(exc).__name__}")


def image_amplitudes(exc, scene: EmitterScene) -> ImageAmplitudes:
    """Image-mode amplitudes alpha_pm with analytic derivatives in s and x0,
    elementwise over the scene's separations."""
    s = np.asarray(scene.s, dtype=float)
    x = s * s / 2.0
    delta = np.exp(-x)  # overlap of the two PSF copies
    # 1 - delta, exact at small s, where the subtraction would cancel
    one_minus_delta = -np.expm1(-x)
    x1 = scene.x0 - s / 2.0
    x2 = scene.x0 + s / 2.0

    a1, g1 = _site_field(exc, scene.g, x1)
    a2, g2 = _site_field(exc, scene.g, x2)

    kappa = scene.kappa
    np_half = np.sqrt(kappa * (1.0 + delta) / 2.0)
    nm_half = np.sqrt(kappa * one_minus_delta / 2.0)
    alpha_p = np_half * (a1 + a2)
    alpha_m = nm_half * (a1 - a2)

    # d/ds of the normalization factors sqrt((1 +/- delta)/2) is
    # +/- delta' / (2 sqrt(2(1 +/- delta))), delta' = -s delta; the
    # antisymmetric one tends to 1/2 as s -> 0
    root_m = np.sqrt(2.0 * one_minus_delta)
    ratio_m = np.divide(s * delta, 2.0 * root_m, out=np.full_like(s, 0.5),
                        where=root_m > 0.0)
    ratio_p = -s * delta / (2.0 * np.sqrt(2.0 * (1.0 + delta)))

    sk = math.sqrt(kappa)
    d_d_sum = 0.5 * (g2 - g1)        # d/ds (a1 + a2)
    d_d_diff = -0.5 * (g1 + g2)      # d/ds (a1 - a2)
    d_d_alpha_p = sk * (ratio_p * (a1 + a2) + np.sqrt((1.0 + delta) / 2.0) * d_d_sum)
    d_d_alpha_m = sk * (ratio_m * (a1 - a2) + np.sqrt(one_minus_delta / 2.0) * d_d_diff)

    d_x0_alpha_p = np_half * (g1 + g2)
    d_x0_alpha_m = nm_half * (g1 - g2)

    return ImageAmplitudes(
        alpha_plus=alpha_p[()], alpha_minus=alpha_m[()],
        d_d_alpha_plus=d_d_alpha_p[()], d_d_alpha_minus=d_d_alpha_m[()],
        d_x0_alpha_plus=d_x0_alpha_p[()], d_x0_alpha_minus=d_x0_alpha_m[()],
        site_amplitudes=(a1[()], a2[()]), site_gradients=(g1[()], g2[()]),
        s=s[()], x0=scene.x0, kappa=kappa, g=scene.g)
