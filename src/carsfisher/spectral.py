"""Spectral response of the anti-Stokes signal for pulsed excitation.

The emitted spectral mode is the two-pump/one-Stokes convolution filtered
by a vibrational resonance:

    g Phi(w) = weight * a_pu^2 * a_St
               * Int dw-/2pi  psi_pu(w - w-) K(w-) / (w- - w_vib + i gamma_vib),

    K(w-) = Int dw'/2pi  psi_pu(w' + w-) psi_St(w'),

with Gaussian pulse profiles psi normalized to Int |psi|^2 dw/2pi = 1 (the
profiles are real, so conjugation is a no-op; the coherent amplitudes are
carried separately).  For Gaussian pulses the inner convolution K is itself
a Gaussian in w- of variance 2 (b_pu^2 + b_St^2), so it is evaluated in
closed form; only the outer Gaussian x Lorentzian integral is numeric.  The
+i gamma regularization keeps that integrand smooth, so no principal-value
machinery is needed.

``spectral_weight`` evaluates g Phi at a single frequency by adaptive
quadrature of the outer integral.  ``normalize_phi`` needs g Phi on a dense
frequency grid, so it builds one composite Gauss-Kronrod rule in the w-
variable — refined against the pooled error over a sample of output
frequencies, with extra knots around the resonance pole — with K and the
Lorentzian precomputed on the rule nodes, and evaluates the whole grid as a
weighted sum.  The returned Phi callable reuses the same rule, so its shape
is exactly amplitude-independent and the extracted g obeys the
g ~ a_pu^2 a_St scaling law by construction.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .numerics import _GAUSS_IDX, _WG, _WK, _XK, ConvergenceError, integrate_1d
from .psf_modes import _require_finite

_GRID_POINTS = 4096
_GRID_HALFWIDTH_BW = 12.0   # grid span, units of the combined bandwidth
_SUPPORT_BW = 8.0           # spectral_weight span around stationary points
_MAX_RULE_CELLS = 4096


@dataclass(frozen=True)
class RamanResonance:
    """Single vibrational resonance: frequency, linewidth, and the
    polarizability/field-strength prefactor folded into one weight."""

    omega_vib: float
    gamma_vib: float
    polarizability_weight: float = 1.0

    def __post_init__(self):
        _require_finite("RamanResonance", omega_vib=self.omega_vib,
                        gamma_vib=self.gamma_vib,
                        polarizability_weight=self.polarizability_weight)
        if not self.gamma_vib > 0.0:
            raise ValueError("resonance linewidth must be positive")
        if not self.polarizability_weight > 0.0:
            raise ValueError("polarizability weight must be positive")


@dataclass(frozen=True)
class PulseSpectrum:
    """Gaussian pulse spectrum with coherent amplitude.

    profile(w) = (2 pi)^{1/4} bandwidth^{-1/2} exp(-(w - center)^2 /
    (4 bandwidth^2)), normalized so Int |profile|^2 dw/2pi = 1.
    """

    center: float
    bandwidth: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        _require_finite("PulseSpectrum", center=self.center,
                        bandwidth=self.bandwidth, amplitude=self.amplitude)
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")

    def profile(self, omega):
        arg = (np.asarray(omega, dtype=float) - self.center) / self.bandwidth
        return ((2.0 * math.pi) ** 0.25 / math.sqrt(self.bandwidth)
                * np.exp(-0.25 * arg * arg))


def _pole_knots(res: RamanResonance, lo: float, hi: float) -> tuple[float, ...]:
    knots = [res.omega_vib + k * res.gamma_vib
             for k in (-100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0)]
    return tuple(k for k in knots if lo < k < hi)


def _anti_stokes_center(pump: PulseSpectrum, stokes: PulseSpectrum) -> float:
    return 2.0 * pump.center - stokes.center


def _combined_bandwidth(pump: PulseSpectrum, stokes: PulseSpectrum) -> float:
    # two pump factors and one Stokes factor convolve in the output frequency
    return math.sqrt(2.0 * pump.bandwidth**2 + stokes.bandwidth**2)


def phi_grid(pump: PulseSpectrum, stokes: PulseSpectrum) -> np.ndarray:
    """The output-frequency grid on which ``normalize_phi`` normalizes Phi."""
    center = _anti_stokes_center(pump, stokes)
    span = _GRID_HALFWIDTH_BW * _combined_bandwidth(pump, stokes)
    return np.linspace(center - span, center + span, _GRID_POINTS)


def _inner_convolution(pump: PulseSpectrum, stokes: PulseSpectrum,
                       omega_minus) -> np.ndarray:
    """K(w-) = Int dw'/2pi psi_pu(w' + w-) psi_St(w'), in closed form.

    The product of the two Gaussian profiles integrates to a Gaussian in w-
    centred on c_pu - c_St with variance 2 (b_pu^2 + b_St^2); the prefactor
    already includes the 1/2pi.  Vectorized over ``omega_minus``.
    """
    var = pump.bandwidth**2 + stokes.bandwidth**2
    gap = np.asarray(omega_minus, dtype=float) - (pump.center - stokes.center)
    return (math.sqrt(2.0 * pump.bandwidth * stokes.bandwidth / var)
            * np.exp(-gap * gap / (4.0 * var)))


def _prefactor(res: RamanResonance, pump: PulseSpectrum,
               stokes: PulseSpectrum) -> complex:
    return res.polarizability_weight * pump.amplitude**2 * stokes.amplitude


def spectral_weight(res: RamanResonance, pump: PulseSpectrum,
                    stokes: PulseSpectrum, omega: float) -> complex:
    """g Phi at a single frequency: adaptive quadrature of the outer w-
    integral of the complex integrand, with K in closed form."""
    c_filter = omega - pump.center          # peak of psi_pu(w - w-) in w-
    c_conv = pump.center - stokes.center    # peak of the inner convolution
    sigma_k = math.hypot(pump.bandwidth, stokes.bandwidth)
    spread = _SUPPORT_BW * max(pump.bandwidth, sigma_k)
    lo = min(c_filter, c_conv) - spread
    hi = max(c_filter, c_conv) + spread
    knots = _pole_knots(res, lo, hi)

    k_peak = float(_inner_convolution(pump, stokes, c_conv))
    p_peak = float(pump.profile(pump.center))
    # on-resonance pole contributes ~ pi * K * psi; off-resonance ~ sigma/gamma
    scale = k_peak * p_peak * min(math.pi, sigma_k / res.gamma_vib)

    def integrand(wm):
        return (pump.profile(omega - wm) * _inner_convolution(pump, stokes, wm)
                / (wm - res.omega_vib + 1j * res.gamma_vib))

    value, _ = integrate_1d(integrand, lo, hi, abs_tol=1e-10 * scale,
                            max_depth=48, breakpoints=knots)
    return _prefactor(res, pump, stokes) * complex(value) / (2.0 * math.pi)


class _CompositeRule:
    """Composite Gauss-Kronrod rule over w- with the inner convolution and
    Lorentzian precomputed on its nodes.

    The only omega-dependence of the outer integrand is the pump filter
    psi_pu(omega - w-), so one node set refined against a pooled error over
    sample output frequencies serves every omega.
    """

    def __init__(self, res: RamanResonance, pump: PulseSpectrum,
                 stokes: PulseSpectrum):
        self.pump = pump
        c_conv = pump.center - stokes.center
        sigma_k = math.hypot(pump.bandwidth, stokes.bandwidth)
        lo = c_conv - _GRID_HALFWIDTH_BW * sigma_k
        hi = c_conv + _GRID_HALFWIDTH_BW * sigma_k
        edges = sorted({lo, hi, *_pole_knots(res, lo, hi)})

        grid = phi_grid(pump, stokes)
        pooled = np.linspace(grid[0], grid[-1], 17)

        def make_cell(a: float, b: float):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            nodes = mid + half * _XK
            core = (_inner_convolution(pump, stokes, nodes)
                    / (nodes - res.omega_vib + 1j * res.gamma_vib))
            return (a, b, nodes, core)

        def cell_values(cell):
            a, b, nodes, core = cell
            half = 0.5 * (b - a)
            vals = pump.profile(pooled[:, None] - nodes[None, :]) * core[None, :]
            vk = vals @ _WK * half
            vg = vals[:, _GAUSS_IDX] @ _WG * half
            return vk, float(np.max(np.abs(vk - vg)))

        def cell_error(cell) -> float:
            return cell_values(cell)[1]

        cells = [make_cell(a, b) for a, b in zip(edges[:-1], edges[1:])]
        coarse = [cell_values(c) for c in cells]
        errors = [e for _, e in coarse]
        # refine to ~1e-9 of the coarse integral magnitude at the strongest
        # sampled output frequency
        magnitude = float(np.max(np.abs(sum(vk for vk, _ in coarse))))
        tol = 1e-9 * max(magnitude, 1e-300)

        heap: list[tuple[float, int, tuple]] = []
        counter = 0
        for c, e in zip(cells, errors):
            heapq.heappush(heap, (-e, counter, c))
            counter += 1
        total_err = sum(errors)
        while total_err > tol and len(heap) < _MAX_RULE_CELLS:
            neg_err, _, cell = heapq.heappop(heap)
            total_err += neg_err  # remove the split cell's error
            a, b = cell[0], cell[1]
            mid = 0.5 * (a + b)
            for child in (make_cell(a, mid), make_cell(mid, b)):
                err = cell_error(child)
                total_err += err
                heapq.heappush(heap, (-err, counter, child))
                counter += 1

        final = sorted((item[2] for item in heap), key=lambda c: c[0])
        if total_err > tol:
            pooled_estimate = sum(cell_values(c)[0] for c in final) / (2.0 * math.pi)
            raise ConvergenceError(
                f"spectral composite rule exhausted its {_MAX_RULE_CELLS}-cell "
                f"budget (error {total_err:.3e} > tol {tol:.3e})",
                pooled_estimate, total_err)
        self.nodes = np.concatenate([c[2] for c in final])
        self.coeffs = np.concatenate([0.5 * (c[1] - c[0]) * _WK * c[3]
                                      for c in final])

    def evaluate(self, omega) -> np.ndarray:
        """g Phi(omega) / prefactor, vectorized over omega."""
        om = np.atleast_1d(np.asarray(omega, dtype=float)).ravel()
        out = np.empty(om.shape, dtype=complex)
        step = 256
        cr, ci = self.coeffs.real.copy(), self.coeffs.imag.copy()
        for i in range(0, om.size, step):
            prof = self.pump.profile(om[i:i + step, None] - self.nodes[None, :])
            out[i:i + step] = prof @ cr + 1j * (prof @ ci)
        # the second 1/(2pi) of the double integral lives in the inner
        # convolution already baked into self.coeffs
        return out / (2.0 * math.pi)


def normalize_phi(res: RamanResonance, pump: PulseSpectrum,
                  stokes: PulseSpectrum):
    """Extract (g, Phi): g = sqrt(Int |g Phi|^2 dw/2pi), Phi normalized so
    Int |Phi|^2 dw/2pi = 1.

    Raises ValueError on zero-signal input (g underflows).
    """
    grid = phi_grid(pump, stokes)
    rule = _CompositeRule(res, pump, stokes)
    pref = _prefactor(res, pump, stokes)
    g_phi = pref * rule.evaluate(grid)
    power = np.abs(g_phi) ** 2
    dw = grid[1] - grid[0]
    # trapezoid on the uniform grid (spectrally accurate for these tails)
    norm_sq = dw * (power.sum() - 0.5 * (power[0] + power[-1])) / (2.0 * math.pi)
    g = math.sqrt(norm_sq)
    if g < 1e-300:
        raise ValueError("zero-signal input: spectral weight underflows")

    phi_scale = pref / g

    def phi(omega):
        vals = phi_scale * rule.evaluate(omega)
        if np.ndim(omega) == 0:
            return complex(vals[0])
        return vals.reshape(np.shape(omega))

    return g, phi
