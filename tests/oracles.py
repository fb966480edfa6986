"""Independent reference implementations used to pin expected values.

Everything here is rebuilt from first principles on dense grids with plain
numpy — no imports from the package under test.  Fields are sampled
directly from their defining expressions, derivatives are central finite
differences (one DI oracle takes the field's exact s-derivative instead,
to resolve the quadrature tolerance), and inner products are trapezoid
sums wide enough that the Gaussian tails are below double precision.
Agreement between these oracles and the analytic package paths is what
the frozen constants in the test modules encode.  One spectral oracle
integrates at 30 digits with mpmath instead, one QFI oracle evaluates
the Gram form of the field derivatives at 50 digits, and one camera
oracle sums the DI intensity and its s-derivative over the camera's own
nodes at 40 digits; the tests that use them skip when mpmath is missing.
The adaptive-quadrature reference restates the package's algorithm in
its plain one-at-a-time form, to pin its batched version bit for bit;
the maximum-likelihood references refine each batch alone, one by
golden-section search on the likelihood and one by bisection on a
finite-difference score.  The optimal-waist reference maximizes its own
transcription of the vortex closed form on a dense grid.

The image plane separates: every mode involved (displaced PSFs, their
derivatives, Hermite-Gauss analysis modes) shares the same unit-norm
Gaussian factor in y, so all the inner products reduce to one-dimensional
x-space integrals.  The oracles work on that 1D reduction throughout;
direct imaging reduces the same way because the intensity carries the
common y-factor squared, which integrates to one.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from numpy.polynomial import hermite as np_hermite

# Dense grid for the 1D reduction: Gaussian tails at |x| = 18 are ~1e-140,
# and the trapezoid rule is superalgebraically accurate for these smooth
# decaying integrands, so the grid resolution is nowhere near the limit.
GRID_HALF = 18.0
GRID_N = 40_001
FD_STEP = 1e-5

_X = np.linspace(-GRID_HALF, GRID_HALF, GRID_N)
_DX = _X[1] - _X[0]


def trapezoid(values: np.ndarray) -> complex:
    total = values.sum() - 0.5 * (values[0] + values[-1])
    return complex(total * _DX)


def inner(f: np.ndarray, g: np.ndarray) -> complex:
    return trapezoid(np.conj(f) * g)


def psf_1d(x: np.ndarray) -> np.ndarray:
    """Unit-norm 1D factor of the Gaussian amplitude PSF (w = 1)."""
    return (2.0 / math.pi) ** 0.25 * np.exp(-x * x)


def psf_geometry_fd(s: float, h: float = FD_STEP) -> dict:
    """Gram entries of the PSF pair at x = -/+ s/2 from their definitions:
    the copies u1, u2 and their gradients, central differences of the
    sampled copies, are sampled on the grid and overlapped."""

    def copy(center: float) -> np.ndarray:
        return psf_1d(_X - center)

    def grad(center: float) -> np.ndarray:
        return (psf_1d(_X - center + h) - psf_1d(_X - center - h)) / (2.0 * h)

    return {
        "delta": inner(copy(-s / 2.0), copy(s / 2.0)).real,
        "sigma": inner(copy(-s / 2.0), grad(s / 2.0)).real,
        "beta": inner(grad(-s / 2.0), grad(s / 2.0)).real,
        "dk2": inner(grad(0.0), grad(0.0)).real,
    }


# --------------------------------------------------------------------------
# site emission amplitudes for the two excitation families (w = 1)
# --------------------------------------------------------------------------

def plane_sites(ktilde: float, g: float = 1.0):
    """Site amplitudes (a1, a2) at emitter positions x0 -/+ s/2."""

    def amps(s: float, x0: float) -> tuple[complex, complex]:
        x1, x2 = x0 - s / 2.0, x0 + s / 2.0
        return (-1j * g * np.exp(1j * ktilde * x1),
                -1j * g * np.exp(1j * ktilde * x2))

    return amps


def vortex_sites(a: float, psi: float, g: float = 1.0):
    """Site amplitudes for the ring beam shifted by psi, evaluated at y=0."""
    norm = math.sqrt(2.0 * math.e) / a

    def amps(s: float, x0: float) -> tuple[complex, complex]:
        out = []
        for x in (x0 - s / 2.0, x0 + s / 2.0):
            envelope = math.exp(-(x * x + psi * psi) / (a * a))
            out.append(-1j * g * norm * (x + 1j * psi) * envelope)
        return out[0], out[1]

    return amps


def plane_slopes(ktilde: float, g: float = 1.0):
    """x-derivatives (g1, g2) of the plane-wave site amplitudes."""
    sites = plane_sites(ktilde, g)

    def slopes(s: float, x0: float) -> tuple[complex, complex]:
        a1, a2 = sites(s, x0)
        return 1j * ktilde * a1, 1j * ktilde * a2

    return slopes


def vortex_slopes(a: float, psi: float, g: float = 1.0):
    """x-derivatives (g1, g2) of the ring-beam site amplitudes at y=0."""
    norm = math.sqrt(2.0 * math.e) / a

    def slopes(s: float, x0: float) -> tuple[complex, complex]:
        out = []
        for x in (x0 - s / 2.0, x0 + s / 2.0):
            envelope = math.exp(-(x * x + psi * psi) / (a * a))
            out.append(-1j * g * norm * envelope
                       * (1.0 - 2.0 * x * (x + 1j * psi) / (a * a)))
        return out[0], out[1]

    return slopes


def field_1d(amps, s: float, x0: float, kappa: float = 1.0) -> np.ndarray:
    """Full image-plane field (1D reduction) on the oracle grid."""
    a1, a2 = amps(s, x0)
    return math.sqrt(kappa) * (a1 * psf_1d(_X - (x0 - s / 2.0))
                               + a2 * psf_1d(_X - (x0 + s / 2.0)))


# --------------------------------------------------------------------------
# QFI from the field alone: for a multimode coherent state the metric is
# the Gram matrix of parameter derivatives, Q_ij = 4 Re <d_i A, d_j A>.
# --------------------------------------------------------------------------

def qfi_matrix_fd(amps, s: float, x0: float = 0.0, kappa: float = 1.0,
                  h: float = FD_STEP) -> tuple[float, float, float]:
    """(q_dd, q_dx0, q_x0x0) by central differences on the dense field."""
    d_d = (field_1d(amps, s + h, x0, kappa)
           - field_1d(amps, s - h, x0, kappa)) / (2.0 * h)
    d_x = (field_1d(amps, s, x0 + h, kappa)
           - field_1d(amps, s, x0 - h, kappa)) / (2.0 * h)
    q_dd = 4.0 * inner(d_d, d_d).real
    q_dx = 4.0 * inner(d_d, d_x).real
    q_xx = 4.0 * inner(d_x, d_x).real
    return q_dd, q_dx, q_xx


def qfi_matrix_mpmath(a1, a2, g1, g2, s: float, kappa: float = 1.0,
                      dps: int = 50) -> tuple[float, float, float]:
    """(q_dd, q_dx0, q_x0x0) at ``dps`` digits for given site amplitudes a_k
    and site x-gradients g_k, taken as exact.  Needs mpmath.

    The field is sqrt(kappa) (a1 u1 + a2 u2) with unit-norm copies u_k
    centred at x_k = x0 -/+ s/2, so d_s a_k = -/+ g_k / 2, d_x0 a_k = g_k and
    d u_k / d x_k = -u_k'.  The Gram matrix of (u1, u1', u2, u2') follows
    from int u(x) u(x - t) dx = exp(-t^2/2) and its t-derivatives.
    """
    import mpmath

    with mpmath.workdps(dps):
        s = mpmath.mpf(s)
        a1, a2, g1, g2 = (mpmath.mpc(complex(z).real, complex(z).imag)
                          for z in (a1, a2, g1, g2))
        delta = mpmath.exp(-s * s / 2)
        sigma, beta = s * delta, (1 - s * s) * delta
        gram = mpmath.matrix([[1, 0, delta, sigma], [0, 1, -sigma, beta],
                              [delta, -sigma, 1, 0], [sigma, beta, 0, 1]])
        root = mpmath.sqrt(mpmath.mpf(kappa))
        d_s = [root * c for c in (-g1 / 2, a1 / 2, g2 / 2, -a2 / 2)]
        d_x0 = [root * c for c in (g1, -a1, g2, -a2)]

        def metric(f, g):
            return float(4 * mpmath.re(sum(mpmath.conj(f[i]) * gram[i, j] * g[j]
                                           for i in range(4) for j in range(4))))

        return metric(d_s, d_s), metric(d_s, d_x0), metric(d_x0, d_x0)


# --------------------------------------------------------------------------
# direct imaging: F = int (d_d I)^2 / I on the same 1D reduction
# --------------------------------------------------------------------------

def di_fisher_fd(amps, s: float, x0: float = 0.0, kappa: float = 1.0,
                 h: float = FD_STEP) -> float:
    mid = np.abs(field_1d(amps, s, x0, kappa)) ** 2
    up = np.abs(field_1d(amps, s + h, x0, kappa)) ** 2
    dn = np.abs(field_1d(amps, s - h, x0, kappa)) ** 2
    d_i = (up - dn) / (2.0 * h)
    ratio = np.zeros_like(mid)
    keep = mid > 1e-14 * mid.max()
    ratio[keep] = d_i[keep] ** 2 / mid[keep]
    return trapezoid(ratio).real


def di_fisher_analytic(amps, slopes, s: float, x0: float = 0.0,
                       kappa: float = 1.0) -> float:
    """F = int (d_d I)^2 / I with d_d I from the field's exact s-derivative:
    the sites sit at x_k = x0 -/+ s/2, so d/ds of a_k psf(x - x_k) is
    -/+ (1/2) (g_k psf(x - x_k) - a_k psf'(x - x_k)), psf'(z) = -2 z psf(z).
    No finite-difference step, so the result is limited only by the
    trapezoid sum; points where I is exactly zero count zero."""
    a1, a2 = amps(s, x0)
    g1, g2 = slopes(s, x0)
    z1, z2 = _X - (x0 - s / 2.0), _X - (x0 + s / 2.0)
    p1, p2 = psf_1d(z1), psf_1d(z2)
    field = a1 * p1 + a2 * p2
    d_field = (-0.5 * g1 - a1 * z1) * p1 + (0.5 * g2 + a2 * z2) * p2
    inten = np.abs(field) ** 2
    d_inten = 2.0 * (np.conj(field) * d_field).real
    ratio = np.zeros_like(inten)
    keep = inten > 0.0
    ratio[keep] = d_inten[keep] ** 2 / inten[keep]
    return kappa * trapezoid(ratio).real


# --------------------------------------------------------------------------
# the binned camera at high precision: the site fields written out in
# mpmath, the intensity |A|^2 and its s-derivative 2 Re(conj(A) d_s A)
# evaluated node by node in complex arithmetic, and the column sums taken
# on a given node grid and weight vector (the camera's own rule), so the
# comparison sees the camera's arithmetic and nothing of its quadrature.
# --------------------------------------------------------------------------

def plane_field_mpmath(ktilde: float, g: float = 1.0):
    """x -> (alpha(x), alpha'(x)) of the plane wave on y = 0, in mpmath."""
    import mpmath

    def field(x):
        value = -1j * mpmath.mpf(g) * mpmath.expj(ktilde * x)
        return value, 1j * ktilde * value

    return field


def vortex_field_mpmath(a: float, psi: float, g: float = 1.0):
    """x -> (alpha(x), alpha'(x)) of the ring beam on y = 0, in mpmath."""
    import mpmath

    def field(x):
        a_sq = mpmath.mpf(a) ** 2
        norm = mpmath.sqrt(2 * mpmath.e) / mpmath.mpf(a)
        envelope = mpmath.exp(-(x * x + mpmath.mpf(psi) ** 2) / a_sq)
        value = -1j * g * norm * (x + 1j * psi) * envelope
        slope = -1j * g * norm * envelope * (1 - 2 * x * (x + 1j * psi) / a_sq)
        return value, slope

    return field


def camera_columns_mpmath(field, s: float, x0: float, nodes_x, weights,
                          dps: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """(N, dN/ds) per column at ``dps`` digits: N_i = sum_k w_k I(x_ik) over
    the nodes x_ik of row i of ``nodes_x`` and the weights w_k, with
    I = |a1 e1 + a2 e2|^2, e_j = exp(-(x - x_j)^2) and sites x_j = x0 -/+ s/2
    whose fields (a_j, a_j') come from ``field``.  Moving a site by
    dx_j = -/+ ds/2 changes a_j by a_j' dx_j and e_j by 2 (x - x_j) e_j dx_j.
    Every float input is taken as exact."""
    import mpmath

    with mpmath.workdps(dps):
        s, x0 = mpmath.mpf(s), mpmath.mpf(x0)
        sites = [(x0 - s / 2, -mpmath.mpf(1) / 2), (x0 + s / 2, mpmath.mpf(1) / 2)]
        fields = [field(x) for x, _ in sites]
        weights = [mpmath.mpf(w) for w in np.asarray(weights).tolist()]
        n_cols, dn_cols = [], []
        for row in np.asarray(nodes_x).tolist():
            n_sum = dn_sum = mpmath.mpf(0)
            for x, w in zip(row, weights):
                x = mpmath.mpf(x)
                amp = d_amp = mpmath.mpc(0)
                for (x_j, move), (a_j, slope_j) in zip(sites, fields):
                    e_j = mpmath.exp(-(x - x_j) ** 2)
                    amp += a_j * e_j
                    d_amp += move * (slope_j + 2 * (x - x_j) * a_j) * e_j
                n_sum += w * abs(amp) ** 2
                dn_sum += w * 2 * mpmath.re(mpmath.conj(amp) * d_amp)
            n_cols.append(float(n_sum))
            dn_cols.append(float(dn_sum))
    return np.array(n_cols), np.array(dn_cols)


# --------------------------------------------------------------------------
# SPADE: Hermite-Gauss analysis modes built from numpy's Hermite module,
# photon numbers by literal projection, FI by finite differences.
# --------------------------------------------------------------------------

def hg_1d(m: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal 1D factor of the m-th PSF-matched Hermite-Gauss mode."""
    coeffs = np.zeros(m + 1)
    coeffs[m] = 1.0
    herm = np_hermite.hermval(math.sqrt(2.0) * x, coeffs)
    norm = (2.0 / math.pi) ** 0.25 / math.sqrt(2.0**m * math.factorial(m))
    return norm * herm * np.exp(-x * x)


def gamma_overlap(m: int, s: float) -> float:
    """<HG_m | PSF displaced by s/2>, by quadrature."""
    return inner(hg_1d(m, _X), psf_1d(_X - s / 2.0)).real


def spade_photons(amps, s: float, modes: int, x0: float = 0.0,
                  kappa: float = 1.0) -> np.ndarray:
    field = field_1d(amps, s, x0, kappa)
    return np.array([abs(inner(hg_1d(m, _X), field)) ** 2
                     for m in range(modes + 1)])


def spade_fisher_fd(amps, s: float, modes: int, x0: float = 0.0,
                    kappa: float = 1.0, h: float = FD_STEP) -> float:
    mid = spade_photons(amps, s, modes, x0, kappa)
    up = spade_photons(amps, s + h, modes, x0, kappa)
    dn = spade_photons(amps, s - h, modes, x0, kappa)
    d_n = (up - dn) / (2.0 * h)
    keep = mid > 1e-14 * mid.max()
    return float(np.sum(d_n[keep] ** 2 / mid[keep]))


# --------------------------------------------------------------------------
# SPADE in closed form, as literal scalar code: the PSF copy displaced by
# -/+ s/2 from the centroid overlaps HG mode m by (-1)^m gamma_m / gamma_m,
# so mode m collects sqrt(kappa) gamma_m (a2 + (-1)^m a1), and the site
# amplitudes move with s through their x-slopes (d a_{1,2}/ds = -/+ g/2).
# --------------------------------------------------------------------------

def spade_gamma(m: int, s: float) -> float:
    """gamma_m = e^{-s^2/8} (s/2)^m / sqrt(m!), term by term."""
    root_factorial = 1.0
    for j in range(2, m + 1):
        root_factorial *= math.sqrt(j)
    return math.exp(-s * s / 8.0) * (s / 2.0) ** m / root_factorial


def spade_closed(sites, slopes, s: float, x0: float, modes: int,
                 kappa: float = 1.0, g: float = 1.0) -> tuple[list, float]:
    """(N_m for m = 0..modes, normalized FI w^2 F / (2 kappa g^2)), w = 1."""
    a1, a2 = sites(s, x0)
    g1, g2 = slopes(s, x0)
    photons, fisher = [], 0.0
    for m in range(modes + 1):
        parity = (-1) ** m
        gam = spade_gamma(m, s)
        d_gam = gam * (m / s - s / 4.0)
        c = a2 + parity * a1
        d_c = 0.5 * g2 - parity * 0.5 * g1
        n = kappa * gam * gam * abs(c) ** 2
        d_n = kappa * (2.0 * gam * d_gam * abs(c) ** 2
                       + gam * gam * 2.0 * (c.conjugate() * d_c).real)
        photons.append(n)
        if n > 1e-300:
            fisher += d_n * d_n / n
    return photons, fisher / (2.0 * kappa * g * g)


# --------------------------------------------------------------------------
# spectral response: the two-pump/one-Stokes double convolution with the
# inner frequency integral done in closed form (Gaussian x Gaussian), the
# outer one by dense trapezoid, not through the package's Faddeeva closed
# form.  The inner convolution also has a literal dense-trapezoid version
# that pins the closed form these oracles use.
# --------------------------------------------------------------------------

def faddeeva_trapezoid(z: complex, half_width: float = 10.0,
                       step: float = 0.002) -> complex:
    """w(z) = (i/pi) Int e^{-t^2} / (z - t) dt for Im z >= 0.05 by a dense
    trapezoid.  The integrand is analytic in the strip |Im t| < Im z, so
    the rule's error is ~exp(-2 pi Im z / step) (< 1e-60 here); the sum is
    taken with math.fsum so roundoff stays at the level of single terms."""
    if not z.imag >= 0.05:
        raise ValueError("the trapezoid oracle needs Im z >= 0.05")
    # integer multiples of the step: np.arange(-10, 10, step) would space
    # the nodes by (-10 + step) - (-10), ~1e-12 off the weight step
    n = round(half_width / step)
    t = step * np.arange(-n, n + 1)
    vals = np.exp(-t * t) / (z - t)
    total = complex(math.fsum(vals.real), math.fsum(vals.imag))
    return 1j * total * step / math.pi


def faddeeva_imaginary_axis(y: float) -> float:
    """w(iy) = e^{y^2} erfc(y), real on the imaginary axis."""
    return math.exp(y * y) * math.erfc(y)


def spectral_gphi_mpmath(omega: float, omega_vib: float, gamma_vib: float,
                         weight: float, pump_center: float, pump_bw: float,
                         pump_amp: complex, stokes_center: float,
                         stokes_bw: float, stokes_amp: complex) -> complex:
    """g Phi(omega) by mpmath.quad of the outer w- integral at 30 digits,
    split at the resonance (w_vib, w_vib +- gamma, +- 10 gamma) and across
    the span of both Gaussian factors.  Needs mpmath."""
    import mpmath

    with mpmath.workdps(30):
        c_pump, c_conv = omega - pump_center, pump_center - stokes_center
        var = pump_bw**2 + stokes_bw**2
        amp_k = mpmath.sqrt(2 * mpmath.mpf(pump_bw) * stokes_bw / var)
        amp_p = mpmath.root(2 * mpmath.pi, 4) / mpmath.sqrt(pump_bw)

        def integrand(wm):
            return (amp_p * mpmath.exp(-(wm - c_pump) ** 2 / (4 * pump_bw**2))
                    * amp_k * mpmath.exp(-(wm - c_conv) ** 2 / (4 * var))
                    / (wm - omega_vib + 1j * gamma_vib))

        spread = 8.0 * max(pump_bw, math.sqrt(2.0 * var))
        span = np.linspace(min(c_pump, c_conv) - spread,
                           max(c_pump, c_conv) + spread, 9)
        pole = [omega_vib + k * gamma_vib for k in (-10, -1, 0, 1, 10)]
        knots = sorted({*span.tolist(), *pole})
        total = mpmath.quad(integrand, [-mpmath.inf, *knots, mpmath.inf])
        pref = weight * pump_amp**2 * stokes_amp
        return pref * complex(total) / (2.0 * math.pi)


def _pulse_profile(omega, center: float, bandwidth: float) -> np.ndarray:
    arg = (np.asarray(omega, dtype=float) - center) / bandwidth
    return ((2.0 * math.pi) ** 0.25 / math.sqrt(bandwidth)
            * np.exp(-0.25 * arg * arg))


def _inner_convolution_closed(omega_minus, pump_center: float, pump_bw: float,
                              stokes_center: float, stokes_bw: float):
    """K(w-) = (1/2pi) Int dw' psi_pu(w' + w-) psi_St(w'), exactly."""
    a = 1.0 / (4.0 * pump_bw**2)
    b = 1.0 / (4.0 * stokes_bw**2)
    gap = pump_center - np.asarray(omega_minus, dtype=float) - stokes_center
    amp = math.sqrt(2.0 * math.pi / (pump_bw * stokes_bw))
    gauss = math.sqrt(math.pi / (a + b)) * np.exp(-a * b * gap**2 / (a + b))
    return amp * gauss / (2.0 * math.pi)


def inner_convolution_quadrature(omega_minus: float, pump_center: float,
                                 pump_bw: float, stokes_center: float,
                                 stokes_bw: float) -> float:
    """K(w-) = (1/2pi) Int dw' psi_pu(w' + w-) psi_St(w') by a literal dense
    trapezoid over w', wide enough that both profiles' tails vanish."""
    c_pump = pump_center - omega_minus
    spread = 16.0 * max(pump_bw, stokes_bw)
    # the exact step, not wp[1] - wp[0]: differencing nodes near w' ~ 100
    # loses ~1e-11 of a step this small
    wp, step = np.linspace(min(c_pump, stokes_center) - spread,
                           max(c_pump, stokes_center) + spread, 40_001,
                           retstep=True)
    vals = (_pulse_profile(wp + omega_minus, pump_center, pump_bw)
            * _pulse_profile(wp, stokes_center, stokes_bw))
    total = vals.sum() - 0.5 * (vals[0] + vals[-1])
    return float(total * step / (2.0 * math.pi))


def spectral_gphi_reference(omega: float, omega_vib: float, gamma_vib: float,
                            weight: float, pump_center: float, pump_bw: float,
                            pump_amp: complex, stokes_center: float,
                            stokes_bw: float, stokes_amp: complex,
                            n_points: int = 200_001) -> complex:
    """g Phi(omega): closed-form inner convolution, dense outer trapezoid."""
    c_conv = pump_center - stokes_center
    c_filter = omega - pump_center
    sigma = math.hypot(pump_bw, stokes_bw)
    lo = min(c_conv, c_filter) - 14.0 * max(pump_bw, sigma)
    hi = max(c_conv, c_filter) + 14.0 * max(pump_bw, sigma)
    wm = np.linspace(lo, hi, n_points)
    dwm = wm[1] - wm[0]
    integrand = (_pulse_profile(omega - wm, pump_center, pump_bw)
                 * _inner_convolution_closed(wm, pump_center, pump_bw,
                                             stokes_center, stokes_bw)
                 / (wm - omega_vib + 1j * gamma_vib))
    total = integrand.sum() - 0.5 * (integrand[0] + integrand[-1])
    pref = weight * pump_amp**2 * stokes_amp
    return pref * complex(total) * dwm / (2.0 * math.pi)


def spectral_g_reference(omega_vib: float, gamma_vib: float, weight: float,
                         pump_center: float, pump_bw: float,
                         pump_amp: complex, stokes_center: float,
                         stokes_bw: float, stokes_amp: complex,
                         n_grid: int = 1024) -> float:
    """g = sqrt(Int |g Phi|^2 dw / 2pi) on a wide output-frequency grid."""
    center = 2.0 * pump_center - stokes_center
    span = 12.0 * math.sqrt(2.0 * pump_bw**2 + stokes_bw**2)
    grid = np.linspace(center - span, center + span, n_grid)
    power = np.array([
        abs(spectral_gphi_reference(float(w), omega_vib, gamma_vib, weight,
                                    pump_center, pump_bw, pump_amp,
                                    stokes_center, stokes_bw, stokes_amp,
                                    n_points=20_001)) ** 2
        for w in grid])
    dw = grid[1] - grid[0]
    total = power.sum() - 0.5 * (power[0] + power[-1])
    return math.sqrt(total * dw / (2.0 * math.pi))


# --------------------------------------------------------------------------
# optimal vortex waist: the shipped vortex QFI closed form written out in
# the waist ratio a, Q = (e/2) a^-6 exp(-(s^2/2 + 2 psi^2)/a^2) B(a), with
# B = poly - e^{-s^2/2} sub regrouped as (poly - sub) - expm1(-s^2/2) sub
# so that nothing cancels at small s; its maximum over a dense log grid of
# a, refined by bisection on the sign of the analytic dQ/da.
# --------------------------------------------------------------------------

def _vortex_parts(a, psi: float, s: float):
    """(prefactor, B, dB/da) of the normalized vortex closed form at a."""
    a2, s2, p2 = a * a, s * s, psi * psi
    em1 = math.expm1(-s2 / 2.0)
    diff = -s2 * s2 * a2 * (a2 + 2.0) + s2 * (6.0 * a2 * a2 + 4.0 * p2 * (1.0 + (a2 + 1.0) ** 2))
    sub = (s2 * s2 * (a2 + 1.0) ** 2 - s2 * (a2 * (5.0 * a2 + 4.0) + 4.0 * (a2 + 1.0) ** 2 * p2)
           + 4.0 * a2 * a2 * (p2 + 1.0))
    d_diff = -s2 * s2 * (4.0 * a2 * a + 4.0 * a) + s2 * (24.0 * a2 * a + 16.0 * p2 * a * (a2 + 1.0))
    d_sub = (4.0 * s2 * s2 * a * (a2 + 1.0) - s2 * (20.0 * a2 * a + 8.0 * a + 16.0 * p2 * a * (a2 + 1.0))
             + 16.0 * a2 * a * (p2 + 1.0))
    pref = math.e / 2.0 / a2 ** 3 * np.exp(-(s2 / 2.0 + 2.0 * p2) / a2)
    return pref, diff - em1 * sub, d_diff - em1 * d_sub


def optimal_waist(psi: float, s: float, a_bounds=(0.05, 5.0),
                  grid_points: int = 4096, x_tol: float = 1e-13):
    """(a*, grid values): the first maximum of the normalized closed form
    over a log-spaced grid of ``grid_points`` waists in ``a_bounds``,
    refined by bisection on the sign of dQ/da between its grid neighbours
    (a bound when Q falls from it), and the grid values themselves."""
    lo, hi = a_bounds
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), grid_points))
    grid[0], grid[-1] = lo, hi
    pref, bracket, _ = _vortex_parts(grid, psi, s)
    values = pref * bracket

    def rising(a):
        # dQ/da = pref (B (2c/a^3 - 6/a) + dB/da); pref > 0
        _, bracket, slope = _vortex_parts(a, psi, s)
        c = s * s / 2.0 + 2.0 * psi * psi
        return bracket * (2.0 * c / a ** 3 - 6.0 / a) + slope > 0.0

    i = int(np.argmax(values))
    left, right = grid[max(i - 1, 0)], grid[min(i + 1, grid_points - 1)]
    if i == 0 and not rising(lo):
        a_star = lo
    elif i == grid_points - 1 and rising(hi):
        a_star = hi
    else:
        while right - left > x_tol:
            mid = 0.5 * (left + right)
            if rising(mid):
                left = mid
            else:
                right = mid
        a_star = 0.5 * (left + right)
    return a_star, values


# --------------------------------------------------------------------------
# Monte Carlo: the per-batch scalar maximum-likelihood procedure written out
# literally — one Philox stream per campaign, from which each batch draws
# its Poisson counts after the batch before it, a Python log-likelihood per
# abscissa and a 256-point scan per batch — then two refinements of each
# scan bracket: a plain golden-section loop on the log-likelihood, and
# bisection on its derivative, the Poisson score, built from a
# Richardson-extrapolated central difference of the model's count rows (no
# derivative from the package).
# --------------------------------------------------------------------------

def _ml_brackets(model, true_s: float, mu: float, batches: int, seed: int,
                 search_interval, scan_points: int):
    """(counts, loglike, lo, hi) of every batch: its counts, its Poisson
    log-likelihood, and the neighbours of its scan maximum."""
    memo = {}

    def expected(s):
        # the model is deterministic, so repeated abscissae reuse its value
        if s not in memo:
            memo[s] = mu * np.asarray(model([s]), dtype=float)[0]
        return memo[s]

    lo, hi = float(search_interval[0]), float(search_interval[1])
    scan = np.linspace(lo, hi, scan_points)
    out = []
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(batches):
        counts = rng.poisson(expected(float(true_s))).astype(float)

        def loglike(s, counts=counts):
            n = expected(float(s))
            return float(counts @ np.log(np.maximum(n, 1e-300)) - n.sum())

        values = np.array([loglike(s) for s in scan])
        peaks = np.flatnonzero(values == values.max())
        best = int(peaks[np.argmin(np.abs(scan[peaks] - 0.5 * (lo + hi)))])
        a = float(scan[best - 1]) if best > 0 else lo
        z = float(scan[best + 1]) if best < scan_points - 1 else hi
        out.append((counts, loglike, a, z))
    return out


def ml_reference(model, true_s: float, mu: float, batches: int, seed: int,
                 search_interval, scan_points: int = 256,
                 x_tol: float = 1e-6) -> list:
    """Golden-section ML separation of each batch, one batch at a time."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    estimates = []
    for _, loglike, a, z in _ml_brackets(model, true_s, mu, batches, seed,
                                         search_interval, scan_points):
        c, d = z - invphi * (z - a), a + invphi * (z - a)
        fc, fd = loglike(c), loglike(d)
        while (z - a) > x_tol:
            if fc >= fd:
                z, d, fd = d, c, fc
                c = z - invphi * (z - a)
                fc = loglike(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (z - a)
                fd = loglike(d)
        estimates.append(0.5 * (a + z))
    return estimates


def ml_score_roots(model, true_s: float, mu: float, batches: int, seed: int,
                   search_interval, scan_points: int = 256, h: float = 1e-3,
                   x_tol: float = 1e-12) -> list:
    """Root of each batch's Poisson score S(s) = sum n_c N'_c / N_c -
    sum N'_c in the bracket of its scan maximum, by bisection to ``x_tol``.

    N' is the Richardson extrapolation (4 D(h/2) - D(h)) / 3 of the central
    differences D of the model's rows (error O(h^4)); the counts are even
    in s, so a difference that reaches below zero takes the model at |s|.
    Channels with N < 1e-300, whose logarithm is floored, contribute only
    -N'.  A batch whose score does not change sign on its bracket gets the
    end its likelihood rises toward (the lower end unless S > 0 there).  A
    zero score at the lower end, as at s = 0 where every score vanishes,
    counts as positive: bisection then keeps the lower end unless the score
    rises above it.
    """
    def score(counts, s):
        n, up, down, up_half, down_half = mu * np.asarray(
            model(np.abs([s, s + h, s - h, s + 0.5 * h, s - 0.5 * h])),
            dtype=float)
        slope = (4.0 * (up_half - down_half) / h - (up - down) / (2.0 * h)) / 3.0
        lit = n >= 1e-300
        return float(counts[lit] @ (slope[lit] / n[lit]) - slope.sum())

    roots = []
    for counts, _, a, z in _ml_brackets(model, true_s, mu, batches, seed,
                                        search_interval, scan_points):
        s_a, s_z = score(counts, a), score(counts, z)
        if not (s_a >= 0.0 > s_z):
            roots.append(z if s_a > 0.0 else a)
            continue
        while z - a > x_tol:
            mid = 0.5 * (a + z)
            if score(counts, mid) > 0.0:
                a = mid
            else:
                z = mid
        roots.append(0.5 * (a + z))
    return roots


# --------------------------------------------------------------------------
# Adaptive quadrature: the classic worst-error heap with an insertion
# counter, one integral at a time.  Each cell gets the 15-point Kronrod and
# embedded 7-point Gauss rules (QUADPACK's qk15 table); the cell of largest
# |K15 - G7| is bisected, the oldest on ties.  Cells at double-precision
# roundoff (error <= 1e-16 |value|) keep their error but are never split.
# Equality with the package's padded-array batch shows that neither the
# arrays nor the batching change any split of any member.
# --------------------------------------------------------------------------

_QK15_NODES = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144838258730, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_QK15_KRONROD = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# the Gauss-7 nodes are the odd-numbered Kronrod nodes
_QK15_GAUSS_AT = np.array([1, 3, 5, 7, 9, 11, 13])
_QK15_GAUSS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def adaptive_gk_heap(f, member: int, a: float, b: float, abs_tol: float,
                     max_depth: int, max_cells: int = 1_000):
    """Adaptive Gauss-Kronrod quadrature of member ``member`` of the batch
    integrand ``f(rows, x)`` over [a, b], alone.

    Returns ("ok", value, error, evaluations) or ("fail", reason, estimate,
    error, evaluations), where evaluations counts the integrand calls made
    up to the result.  After each call the error is the sum of the leaf
    cells' errors and the value (or estimate) the sum of their values, both
    in cell creation order; the quadrature stops once that error is at
    most ``abs_tol``.
    """
    # value and error of each leaf cell by creation index
    heap, values, errors, counter, calls = [], {}, {}, 0, 0
    pending = [(a, b, 0)]
    while True:
        calls += 1
        lo = np.array([c[0] for c in pending], dtype=float)
        hi = np.array([c[1] for c in pending], dtype=float)
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        y = f(np.full(len(pending), member),
              mid[:, None] + half[:, None] * _QK15_NODES)
        kronrod = half * np.add.reduce(_QK15_KRONROD * y, axis=1)
        gauss = half * np.add.reduce(
            _QK15_GAUSS * np.take(y, _QK15_GAUSS_AT, axis=1), axis=1)
        for (lo_c, hi_c, depth), value, err in zip(pending, kronrod,
                                                   np.abs(kronrod - gauss)):
            values[counter], errors[counter] = value, err
            if err > 1e-16 * abs(value):
                heapq.heappush(heap, (-err, counter, lo_c, hi_c, depth))
            counter += 1
        total = sum(errors.values())
        if total <= abs_tol:
            return "ok", sum(values.values()), total, calls
        fail = None
        if not heap:
            fail = "at the roundoff floor"
        elif counter >= max_cells:
            fail = f"exhausted its {max_cells}-cell budget"
        else:
            _, index, lo_c, hi_c, depth = heapq.heappop(heap)
            if depth >= max_depth:
                fail = f"stalled at depth {max_depth}"
        if fail:
            return "fail", fail, sum(values.values()), total, calls
        del values[index], errors[index]
        mid_c = 0.5 * (lo_c + hi_c)
        pending = [(lo_c, mid_c, depth + 1), (mid_c, hi_c, depth + 1)]
