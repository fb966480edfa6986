"""Independent reference implementations used to pin expected values.

Everything here is rebuilt from first principles on dense grids with plain
numpy — no imports from the package under test.  Fields are sampled
directly from their defining expressions, derivatives are central finite
differences, and inner products are trapezoid sums wide enough that the
Gaussian tails are below double precision.  Agreement between these
oracles and the analytic package paths is what the frozen constants in
the test modules encode.  One spectral oracle integrates at 30 digits
with mpmath instead; the tests that use it skip when mpmath is missing.
The adaptive-quadrature and maximum-likelihood references restate the
package's algorithms in their plain one-at-a-time form, to pin its
batched versions bit for bit.

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
    """Overlap scalars of the PSF pair at x = -/+ s/2 from their definitions.

    The copies' overlap, gradient overlaps and the normalized symmetric /
    antisymmetric modes are sampled on the grid; separation and centroid
    derivatives are central differences of the sampled fields.  The xi
    norms drop the centroid derivative's component along the partner mode.
    """

    def copies(sep: float, x0: float = 0.0):
        return psf_1d(_X - (x0 - sep / 2.0)), psf_1d(_X - (x0 + sep / 2.0))

    def overlap(sep: float) -> float:
        return inner(*copies(sep)).real

    def mode(sign: float, sep: float, x0: float = 0.0) -> np.ndarray:
        u1, u2 = copies(sep, x0)
        v = u1 + sign * u2
        return v / math.sqrt(inner(v, v).real)

    def grad(center: float) -> np.ndarray:
        return (psf_1d(_X - center + h) - psf_1d(_X - center - h)) / (2.0 * h)

    out = {
        "delta": overlap(s),
        "delta_prime": (overlap(s + h) - overlap(s - h)) / (2.0 * h),
        "dk2": inner(grad(0.0), grad(0.0)).real,
        "beta": inner(grad(-s / 2.0), grad(s / 2.0)).real,
    }
    for sign, tag in ((1.0, "plus2"), (-1.0, "minus2")):
        d_sep = (mode(sign, s + h) - mode(sign, s - h)) / (2.0 * h)
        d_cen = (mode(sign, s, h) - mode(sign, s, -h)) / (2.0 * h)
        out[f"eta_{tag}"] = inner(d_sep, d_sep).real
        out[f"xi_{tag}"] = (inner(d_cen, d_cen).real
                            - inner(mode(-sign, s), d_cen).real ** 2)
    return out


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


def qfi_fd(amps, s: float, x0: float = 0.0, kappa: float = 1.0) -> float:
    return qfi_matrix_fd(amps, s, x0, kappa)[0]


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
# Monte Carlo: the per-batch scalar maximum-likelihood procedure written out
# literally — one Poisson draw per batch from its own Philox stream, a
# Python log-likelihood per abscissa, a 256-point scan and a plain
# golden-section loop per batch.  Equality with the package's lockstep
# search shows the batching changes no step of any batch.
# --------------------------------------------------------------------------

def ml_reference(model, true_s: float, mu: float, batches: int, seed: int,
                 search_interval, scan_points: int = 256,
                 x_tol: float = 1e-6) -> list:
    """ML separation of each batch, one batch at a time."""
    memo = {}

    def expected(s):
        # the model is deterministic, so repeated abscissae reuse its value
        if s not in memo:
            memo[s] = mu * np.asarray(model([s]), dtype=float)[0]
        return memo[s]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = float(search_interval[0]), float(search_interval[1])
    scan = np.linspace(lo, hi, scan_points)
    estimates = []
    for b in range(batches):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((seed, b))))
        counts = rng.poisson(expected(float(true_s))).astype(float)

        def loglike(s):
            n = expected(float(s))
            return float(counts @ np.log(np.maximum(n, 1e-300)) - n.sum())

        values = np.array([loglike(s) for s in scan])
        peaks = np.flatnonzero(values == values.max())
        best = int(peaks[np.argmin(np.abs(scan[peaks] - 0.5 * (lo + hi)))])
        a = float(scan[best - 1]) if best > 0 else lo
        z = float(scan[best + 1]) if best < scan_points - 1 else hi
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
                     max_depth: int, max_cells: int = 10_000):
    """Adaptive Gauss-Kronrod quadrature of member ``member`` of the batch
    integrand ``f(rows, x)`` over [a, b], alone.

    Returns ("ok", value, error, evaluations) or ("fail", reason, estimate,
    error, evaluations), where evaluations counts the integrand calls made
    up to the result.  The tolerance test uses a running error total that
    is re-summed exactly once it drops below ``abs_tol``; sums run in cell
    creation order.
    """
    heap, cells, counter, total, calls = [], {}, 0, 0.0, 0
    pending = [(a, b, 0)]
    while True:
        calls += 1
        lo = np.array([c[0] for c in pending], dtype=float)
        hi = np.array([c[1] for c in pending], dtype=float)
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        y = f(np.full(len(pending), member),
              mid[:, None] + half[:, None] * _QK15_NODES)
        kronrod = half * np.add.reduce(_QK15_KRONROD * y, axis=1)
        # a C-ordered copy: numpy adds the complex rows of other layouts
        # in an order that depends on the row count
        gauss = half * np.add.reduce(
            _QK15_GAUSS * np.take(y, _QK15_GAUSS_AT, axis=1), axis=1)
        for (lo_c, hi_c, depth), value, err in zip(pending, kronrod,
                                                   np.abs(kronrod - gauss)):
            cells[counter] = (value, err)
            total += err
            if err > 1e-16 * abs(value):
                heapq.heappush(heap, (-err, counter, lo_c, hi_c, depth))
            counter += 1
        if total <= abs_tol:
            total = sum(err for _, err in cells.values())
            if total <= abs_tol:
                return "ok", sum(v for v, _ in cells.values()), total, calls
        fail = None
        if not heap:
            fail = "at the roundoff floor", sum(e for _, e in cells.values())
        elif counter >= max_cells:
            fail = (f"exhausted its {max_cells}-cell budget",
                    sum(e for _, e in cells.values()))
        else:
            _, index, lo_c, hi_c, depth = heapq.heappop(heap)
            if depth >= max_depth:
                fail = f"stalled at depth {max_depth}", total
        if fail:
            estimate = sum(v for v, _ in cells.values())
            return "fail", fail[0], estimate, fail[1], calls
        total -= cells.pop(index)[1]
        mid_c = 0.5 * (lo_c + hi_c)
        pending = [(lo_c, mid_c, depth + 1), (mid_c, hi_c, depth + 1)]
