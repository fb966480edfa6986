"""Excitation fields and image-plane coherent amplitudes.

Two emitters sit on the x-axis at (x0 -/+ s/2, 0).  Every length is in
units of the PSF width w, and the ImageAmplitudes record carries the whole
scene to the estimators, which take no separation, width or PSF of their
own.  Each emitter emits with a coherent amplitude proportional to the
local Stokes field times the squared conjugate pump field,

    alpha(r) = -i g u_St(r) (u_pu*(r))^2,

and the image-plane signal is the coherent field

    A = sqrt(kappa) [alpha(r1) u1 + alpha(r2) u2]

in the displaced PSF copies u1, u2 (see psf_modes).  The record keeps the
site amplitudes alpha(r_k) and their analytic x-gradients: since
r_k = x0 -/+ s/2, those give every derivative of A in s and x0.

Supported excitation families:

* plane-wave pump and Stokes — the phase difference between the emitters is
  controlled by the effective transverse wavevector ktilde;
* a first-order vortex (ring-shaped, spiral-phase) Stokes beam with a plane
  pump, optionally shifted vertically by psi relative to the emitters.

The emitters sit on y = 0, so only the excitation's profile along that
line enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .psf_modes import _psf_gram, _require_finite, _require_separation


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
    """The site amplitudes alpha(r1), alpha(r2) of a scene and their in-plane
    x-gradients (units of 1/w), with the scene itself.

    For a scene whose s is an array, s and every site entry are arrays with
    one entry per separation; x0, kappa and g stay numbers.
    """

    site_amplitudes: tuple
    site_gradients: tuple
    s: float = 0.0
    x0: float = 0.0
    kappa: float = 1.0
    g: float = 1.0

    @property
    def n_total(self) -> float:
        """Total mean photon number <A|A>."""
        a1, a2 = self.site_amplitudes
        return self.kappa * _psf_gram(self.s, (a1, 0.0, a2, 0.0), (a1, 0.0, a2, 0.0))


def _vortex_norm(a: float) -> float:
    # sqrt(2e)/w_St makes the ring intensity max equal one.
    return math.sqrt(2.0 * math.e) / a


def _site_field(exc, g: float, x) -> tuple:
    """alpha at (x, 0) and its analytic x-gradient, as a pair."""
    if isinstance(exc, PlaneWaveExcitation):
        kx = exc.ktilde
        val = -1j * g * np.exp(1j * (kx * x))
        return val, 1j * kx * val
    if isinstance(exc, VortexExcitation):
        a, psi = exc.a, exc.psi
        envelope = np.exp(-(x**2 + psi**2) / a**2)
        core = x + 1j * psi
        val = -1j * g * _vortex_norm(a) * core * envelope
        grad = -1j * g * _vortex_norm(a) * envelope * (1.0 - 2.0 * x * core / a**2)
        return val, grad
    raise TypeError(f"unsupported excitation {type(exc).__name__}")


def image_amplitudes(exc, scene: EmitterScene) -> ImageAmplitudes:
    """Site amplitudes and their analytic x-gradients, elementwise over the
    scene's separations."""
    s = np.asarray(scene.s, dtype=float)
    a1, g1 = _site_field(exc, scene.g, scene.x0 - s / 2.0)
    a2, g2 = _site_field(exc, scene.g, scene.x0 + s / 2.0)
    return ImageAmplitudes(
        site_amplitudes=(a1[()], a2[()]), site_gradients=(g1[()], g2[()]),
        s=s[()], x0=scene.x0, kappa=scene.kappa, g=scene.g)
