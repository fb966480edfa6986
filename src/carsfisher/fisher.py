"""Information limits for two-emitter separation estimation.

Quantum Fisher information (QFI) for the separation d and the 2x2 QFI
matrix for joint (d, x0) estimation, plus classical Fisher information for
the two measurements of interest:

* direct imaging (DI): spatially resolved intensity, FI by 1D quadrature
  of the x-profile (the Gaussian image factorizes exactly in y); every DI
  report carries its Gauss-Kronrod error estimate, which the sweep
  commands write as the ``fi_di_err`` column;
* spatial-mode demultiplexing (SPADE): photon counting in Hermite-Gauss
  modes, FI by summing per-mode contributions of one (scenes x modes)
  table of the mode photon numbers and their separation derivatives.

Both are one Poisson channel law, F = sum (dN/ds)^2 / N over image points
or modes, whose terms ``_channel_terms`` forms for every user.

Lengths are in units of the PSF width w, and everything an estimator needs
comes from the scene's ImageAmplitudes record: the site amplitudes a1, a2
and their x-gradients g1, g2.  Every estimator takes a record of one scene
or of an array of separations (one sweep curve, evaluated as arrays: the
DI integrals of a curve refine as one lockstep batch) and returns one
report: numbers for one scene, else arrays with one entry per separation
(so do the closed forms for an array s).  All reports carry both the raw
value (units 1/w^2) and the dimensionless normalization
w^2 F / (2 kappa g^2) used throughout for plotting and comparisons.

The image-plane signal is a coherent state, so its QFI matrix is the Gram
matrix of the field derivatives, Q_ij = 4 Re <d_i A|d_j A>, positive
semidefinite by construction.  Both derivatives are combinations of the
PSF copies and their gradients with site coefficients, written once
(``_derivative_coefficients``).  Every estimator reads d_s A from those
coefficients through psf_modes: the QFI as their Gram form, SPADE on the
Hermite-Gauss modes, and DI through their site sums, which give the
intensity and its s-derivative on either side of the centroid as real
quadratic forms over the far and the mirror-odd Gaussian of the PSF pair
(``_di_coefficients``); DI and the camera do not evaluate fields at image
points (``psf_modes._psf_points``).  Closed forms for
the plane-wave and vortex excitation families are provided separately and
are cross-checked against this general path (see vortex_closed_variants
for the two published vortex candidates the adjudication command
arbitrates).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .excitation import ImageAmplitudes
from .numerics import integrate_1d_many
from .psf_modes import (_gamma_table, _mode_overlaps, _psf_gram, _require_finite,
                        _require_separation, _site_sums)


def _require_entries(ok, message: str, **shown):
    """Raise ValueError(message) unless ``ok`` (a bool, or one per scene) holds
    everywhere; name the first failing entry's ``shown`` values and (flat) index."""
    if not np.all(ok):
        i = int(np.argmin(ok))
        where = f" at entry {i}" if np.ndim(ok) else ""
        details = ", ".join(f"{name}={np.ravel(v)[i]}" for name, v in shown.items())
        raise ValueError(f"{message}{where} ({details})")


@dataclass(frozen=True)
class FisherReport:
    """A Fisher-information value with its dimensionless normalization.

    value is in 1/w^2; normalized_value = value * w^2 / (2 kappa g^2).
    Each numeric field is a float for one scene, or an array for a curve.
    """

    value: float | np.ndarray
    normalized_value: float | np.ndarray
    error_estimate: float | np.ndarray = 0.0

    def __post_init__(self):
        _require_finite("FisherReport", value=self.value,
                        normalized_value=self.normalized_value,
                        error_estimate=self.error_estimate)
        _require_entries(self.value >= 0.0, "Fisher information must be nonnegative",
                         value=self.value)


@dataclass(frozen=True)
class QfiMatrix:
    """QFI matrix for joint (separation, centroid) estimation: each entry a
    float for one scene, or an array for a curve.

    The determinant test is relative to the two products it subtracts,
    because every entry scales with g^2 and the determinant with g^4.
    """

    q_dd: float | np.ndarray
    q_dx0: float | np.ndarray
    q_x0x0: float | np.ndarray

    def __post_init__(self):
        q_dd, q_dx0, q_x0x0 = self.q_dd, self.q_dx0, self.q_x0x0
        _require_finite("QfiMatrix", q_dd=q_dd, q_dx0=q_dx0, q_x0x0=q_x0x0)
        _require_entries((q_dd >= 0.0) & (q_x0x0 >= 0.0),
                         "diagonal QFI entries must be nonnegative",
                         q_dd=q_dd, q_x0x0=q_x0x0)
        det = q_dd * q_x0x0 - q_dx0**2
        _require_entries(det >= -1e-9 * (q_dd * q_x0x0 + q_dx0**2),
                         "QFI matrix not positive semidefinite", det=det)


def _scale(amps: ImageAmplitudes) -> float:
    # raw value / normalized value
    return 2.0 * amps.kappa * amps.g**2


def _fields(curve, *columns):
    """Columns broadcast together: the arrays for a curve, else numbers (a
    report's error 0.0 becomes one zero per scene)."""
    columns = np.broadcast_arrays(*columns)
    return columns if curve else [c.item() for c in columns]


def _derivative_coefficients(amps: ImageAmplitudes):
    """Coefficients over (u1, u1', u2, u2') of 2 d_s A / sqrt(kappa) and of
    d_x0 A / sqrt(kappa): the sites move as x0 -/+ s/2, and moving a copy
    by dx adds -u' dx to it."""
    (a1, a2), (g1, g2) = amps.site_amplitudes, amps.site_gradients
    return (-g1, a1, g2, -a2), (g1, -a1, g2, -a2)


def qfi_separation(amps: ImageAmplitudes):
    """QFI for the separation, Q_d = 4 Re <d_s A|d_s A>, at each scene of
    ``amps``."""
    u, _ = _derivative_coefficients(amps)
    q = amps.kappa * _psf_gram(amps.s, u, u)
    return FisherReport(*_fields(np.ndim(amps.s), q, q / _scale(amps), 0.0))


def qfi_matrix(amps: ImageAmplitudes):
    """Full 2x2 QFI matrix for joint (d, x0) estimation,
    Q_ij = 4 Re <d_i A|d_j A>, at each scene of ``amps``."""
    u, w = _derivative_coefficients(amps)
    kappa = amps.kappa
    q_dd = kappa * _psf_gram(amps.s, u, u)
    q_dx0 = 2.0 * kappa * _psf_gram(amps.s, u, w)
    q_x0x0 = 4.0 * kappa * _psf_gram(amps.s, w, w)
    return QfiMatrix(*_fields(np.ndim(amps.s), q_dd, q_dx0, q_x0x0))


def _closed_report(norm, kappa: float, g: float) -> FisherReport:
    """The report of a closed form's normalized values, floored at zero as
    max() floors them, keeping a -0.0 (np.maximum would not).  The closed
    forms work elementwise on numbers or arrays; squares and cubes are
    products, so a number and an array entry round alike."""
    norm = np.where(0.0 > norm, 0.0, norm)
    return FisherReport(*_fields(np.ndim(norm), norm * (2.0 * kappa * g**2), norm, 0.0))


def qfi_plane_closed(ktilde: float, s, kappa: float = 1.0, g: float = 1.0) -> FisherReport:
    """Closed-form separation QFI for plane-wave excitation.

    Normalized value: 1 + kt^2 + e^{-s^2/2}[(s^2 - 1 - kt^2) cos(kt s)
    + 2 kt s sin(kt s)].
    """
    _require_separation(s)
    kt = ktilde
    norm = (1.0 + kt**2 + np.exp(-s * s / 2.0) * ((s * s - 1.0 - kt**2) * np.cos(kt * s)
                                                 + 2.0 * kt * s * np.sin(kt * s)))
    return _closed_report(norm, kappa, g)


def _vortex_pref(a, psi, s):
    a2 = a * a
    return (math.e / (2.0 * (a2 * a2 * a2))
            * np.exp(-s * s / (2.0 * a2)) * np.exp(-2.0 * (psi * psi) / a2))


def _vortex_coefficients(psi, s):
    """(B2, B1, B0): the bracket B(u) = (B2 u + B1) u + B0 of the shipped
    vortex closed form (the candidate consistent with the general path; it
    vanishes at s = 0) as a quadratic in u = a^2.  Every difference with
    e^{-s^2/2} goes through expm1, so B keeps its digits at small s."""
    t = s * s
    p = psi * psi
    e = np.exp(-t / 2.0)
    em1 = np.expm1(-t / 2.0)
    b2 = t * (1.0 + e * (5.0 + 4.0 * p - t)) - 4.0 * (1.0 + p) * em1
    b1 = 4.0 * t * em1 - e * (2.0 * t * t - 8.0 * p * t)
    b0 = 4.0 * p * t * (1.0 + e) - t * t * em1
    return b2, b1, b0


def _vortex_closed(a, psi, s):
    """Normalized value of the shipped vortex closed form, after checking
    that a is positive and s a separation."""
    if not np.all(np.asarray(a) > 0.0):
        raise ValueError("waist ratio a must be positive")
    _require_separation(s)
    b2, b1, b0 = _vortex_coefficients(psi, s)
    u = a * a
    return _vortex_pref(a, psi, s) * ((b2 * u + b1) * u + b0)


def _vortex_bracket_b(a, psi, s):
    # alternative published variant (psi-independent; kept for adjudication)
    a2 = a * a
    s2 = s * s
    poly = s2 * s2 + a2 * s2 * (a2 - 4.0) + 4.0 * a2
    add = (a2 - 1.0) ** 2 * s2 * s2 + a2 * (5.0 * a2 - 4.0) * s2 + 4.0 * a2 * a2
    return poly + np.exp(-s2 / 2.0) * add


def vortex_closed_variants(a: float, psi: float, s) -> dict[str, float]:
    """Normalized values of both published vortex-QFI closed-form candidates
    (arrays for an array of separations s).

    Exposed so the adjudication command (and tests) can compare each against
    the general-path oracle and certify which one is shipped.  Checks a and
    s as ``qfi_vortex_closed`` does.
    """
    return {
        "psi_dependent": _vortex_closed(a, psi, s),
        "psi_independent": _vortex_pref(a, psi, s) * _vortex_bracket_b(a, psi, s),
    }


def qfi_vortex_closed(a, psi: float, s, kappa: float = 1.0, g: float = 1.0) -> FisherReport:
    """Closed-form separation QFI for the shifted vortex excitation.

    Ships the candidate certified against the general-path computation
    (see vortex_closed_variants); it vanishes at s = 0 for every psi.
    """
    return _closed_report(_vortex_closed(a, psi, s), kappa, g)


def spade_collinear_closed(s, kappa: float = 1.0, g: float = 1.0) -> FisherReport:
    """Closed-form SPADE FI for collinear plane-wave excitation (kt = 0),
    full mode sum: normalized 1 + e^{-s^2/2} (s^2 - 1)."""
    _require_separation(s)
    norm = 1.0 + np.exp(-s * s / 2.0) * (s * s - 1.0)
    return _closed_report(norm, kappa, g)


def _channel_terms(n, dn):
    """Fisher-information terms (dN/sqrt(N))^2 of Poisson channels with
    means ``n`` and s-derivatives ``dn`` (arrays of one shape): the law
    F = sum (dN/ds)^2 / N of every classical measurement here.  Dividing
    before squaring keeps a term whose dN^2 would underflow.  A channel
    whose N is below the smallest normal double (zero, subnormal with its
    digits gone, or negative by roundoff next to a dark point) counts
    zero."""
    terms = np.zeros(np.shape(dn))
    normal = n >= np.finfo(float).tiny
    np.sqrt(n, out=terms, where=normal)
    np.divide(dn, terms, out=terms, where=normal)
    return np.square(terms, out=terms)


def _di_products(u, s, moments: bool = False):
    """The products (F^2, D^2, FD) of the far and the odd Gaussian of the
    PSF pair on y = 0, at offsets u >= 0 from the centroid (u and s
    broadcast together), stacked on a new first axis; with ``moments``,
    their moments (d F^2, d D^2, d FD) in the offset d = u - s/2 from the
    near copy after them.

    At x0 + u the far copy is u1, and at x0 - u it is u2; either way its
    Gaussian is F = exp(-(u + s/2)^2), and the near copy's is
    N = exp(-d^2) >= F.  D = F - N (e1 - e2 at x0 + u) comes from
    N expm1(-2 u s), so it keeps its digits as s -> 0."""
    near = u - s / 2.0
    far = np.exp(-(u + s / 2.0) ** 2)
    odd = np.exp(-near ** 2)
    odd *= np.expm1(-2.0 * u * s)
    out = np.empty((6 if moments else 3, *far.shape))
    np.multiply(far, far, out=out[0])
    np.multiply(odd, odd, out=out[1])
    np.multiply(far, odd, out=out[2])
    if moments:
        np.multiply(near, out[:3], out=out[3:])
    return out


def _di_coefficients(amps: ImageAmplitudes, slope: bool = True):
    """Real coefficients of the DI profile I = |A|^2 over (F^2, D^2, FD)
    (``_di_products``), and with ``slope`` those of its s-derivative over
    (F^2, D^2, FD, d F^2, d D^2, d FD) after them: an array (3 or 9,
    sides, scenes) for the sides x0 + u and x0 - u of every scene of
    ``amps``, in units of kappa times the PSF prefactor squared.

    On a side whose near copy holds a_n, the field is A = Sigma F - a_n D
    with Sigma = a1 + a2.  With (c_f, c_f') and (c_n, c_n') the far and
    the near copy's coefficients in 2 d_s A (``_derivative_coefficients``),
    (P, M, P', M') their site sums (``_site_sums``), sigma = +1 on the
    right and -1 on the left, and d = u - s/2 the offset from the near
    copy,

        2 d_s A = (P - 2 sigma s c_f' - 2 sigma d P') F
                  - (c_n - 2 sigma d c_n') D,

    and dI/ds = Re(conj(A) 2 d_s A).  So I and dI/ds are real quadratic
    forms in (F, D) whose terms are no larger than those of the two
    copies' own fields and slopes: nothing cancels on the dim side of a
    lopsided profile, nor where e1 - e2 would at small s, nor where a
    copy's slope term vanishes next to it.
    """
    a1, a2 = (np.atleast_1d(z) for z in amps.site_amplitudes)
    sig = a1 + a2
    # A = Sigma F + y D, and 2 d_s A = (q0 + d q1) F + (r0 + d r1) D
    factors = [np.array((sig, sig)), -np.array((a2, a1))]
    if slope:
        c1, c2, c3, c4 = (np.atleast_1d(z) for z in _derivative_coefficients(amps)[0])
        p, _, p_d, _ = _site_sums((c1, c2, c3, c4))
        s = np.atleast_1d(amps.s)
        sign = np.array([[1.0], [-1.0]])  # the right side, then the left
        far_d, near, near_d = np.array((c2, c4)), np.array((c3, c1)), np.array((c4, c2))
        factors += [p - (2.0 * sign) * s * far_d, -near,
                    (-2.0 * sign) * p_d, (2.0 * sign) * near_d]
    factors = np.array(factors)
    # Re(conj(x) z) for x = Sigma, y and every factor z
    (ss, sy, *s_by), (_, yy, *y_by) = (np.conj(factors[:2, None]) * factors).real
    rows = [ss, yy, 2.0 * sy]
    if slope:
        (sq0, sr0, sq1, sr1), (yq0, yr0, yq1, yr1) = s_by, y_by
        rows += [sq0, yr0, sr0 + yq0, sq1, yr1, sr1 + yq1]
    return np.array(rows)


def _di_sides(coeffs, products):
    """I on the right and the left side (a first axis of two), from the
    ``_di_coefficients`` and the products of ``_di_products`` or their bin
    sums, (products, points, scenes); given slope coefficients and the
    moments, the pair (I, dI/ds).  Linear in the products, so it serves
    image points and bin integrals alike."""
    inten = np.einsum("ksn,kmn->smn", coeffs[:3], products[:3])
    if len(coeffs) == 3:
        return inten
    return inten, np.einsum("ksn,kmn->smn", coeffs[3:], products)


def fi_direct(amps: ImageAmplitudes, abs_tol: float = 1e-8):
    """Direct-imaging FI for the separation, F = int (d_d I)^2 / I, at
    each scene of ``amps``.

    Both emitters sit on y = 0, so I and d_d I share the y-factor
    exp(-2 y^2) and the plane integral is sqrt(pi/2) times an x-integral
    (the window |y| <= 8 makes erf exactly 1 at double precision); with the
    PSF prefactor 2/pi the x-integrand carries sqrt(2/pi).  The x-window
    x0 -/+ h, h = max(8, s/2 + 8), is folded about the centroid: the
    integral over u in [0, h] of f(x0 + u) + f(x0 - u) equals it exactly
    for any scene, and the offsets from the emitters at x0 - u are those
    at x0 + u negated and swapped.  So both points take I and d_d I as
    real quadratic forms, with their own coefficients, over the same
    products of the far and the odd Gaussian (``_di_coefficients``,
    ``_di_products``): two exp and one expm1 per pair of points.
    Integrates with the coefficients divided by 2 g^2, so the quadrature
    tolerance applies to the normalized value; the reported error is the
    Gauss-Kronrod error estimate, not a bound.  Points where the x-profile
    is not a normal double (nodes and far tails, where it underflows)
    contribute zero, as every dark channel does (``_channel_terms``).
    The x-integrals of all scenes form one lockstep batch
    (``integrate_1d_many``, one integrand call per round), in which each
    refines as it would alone.  Raises ConvergenceError naming the first
    scene whose quadrature stalls, with its estimate.
    """
    s = np.atleast_1d(amps.s)
    coeffs = _di_coefficients(amps) / (2.0 * amps.g**2)
    weight = math.sqrt(2.0 / math.pi)

    def integrand(rows, uu):
        # the scenes on the last axis of C-ordered arrays, the layout in
        # which the products combine fastest
        products = _di_products(np.ascontiguousarray(uu.T), s.take(rows), moments=True)
        right, left = _channel_terms(*_di_sides(coeffs.take(rows, axis=2), products))
        # back to one row per cell, in C order: the quadrature's row sums
        # of a transposed array would depend on the number of rows
        return np.ascontiguousarray((weight * (right + left)).T)

    norm, err = integrate_1d_many(integrand, np.zeros(s.size),
                                  np.maximum(8.0, s / 2.0 + 8.0), abs_tol)
    norm = np.maximum(norm, 0.0)
    scale = _scale(amps)
    return FisherReport(*_fields(np.ndim(amps.s), norm * scale, norm, err * scale))


def _spade_table(amps: ImageAmplitudes, modes: int):
    """Mean photon numbers N_m in HG modes m = 0..modes and their
    s-derivatives, as two arrays with one row per scene.

    Mode m holds b_m = <phi_m|A>, and dN_m/ds = 2 Re(conj(b_m) d_s b_m):
    the field, b_m = gamma_m ((-1)^m a1 + a2), and 2 d_s A
    (``_derivative_coefficients``) projected onto the modes by
    ``psf_modes._mode_overlaps``.  Raises ValueError unless
    ``modes`` is a nonnegative integer (a bool is not one).
    """
    if not isinstance(modes, numbers.Integral) or isinstance(modes, bool) or modes < 0:
        raise ValueError(f"mode cutoff must be a nonnegative integer, got {modes!r}")
    gam, gam_d = _gamma_table(np.atleast_1d(amps.s), modes)
    sign = np.where(np.arange(modes + 1) % 2, -1.0, 1.0)  # (-1)^m
    a1, a2, *slope = (np.atleast_1d(z)[:, None] for z in (
        *amps.site_amplitudes, *_derivative_coefficients(amps)[0]))
    root = math.sqrt(amps.kappa)
    # the field a1 u1 + a2 u2 has no gradient terms
    b = root * (gam * (sign * a1 + a2))
    d_b = root * _mode_overlaps(slope, gam, gam_d, sign)
    return np.abs(b) ** 2, (np.conj(b) * d_b).real


def _spade_running_fi(amps: ImageAmplitudes, M: int) -> np.ndarray:
    """Normalized SPADE FI from modes 0..m for every cutoff m = 0..M: the
    running sums over modes of each scene's channel terms (dN_m)^2 / N_m,
    one row per scene.

    A mode whose N_m is not a normal double counts zero.  For plane
    k~ = 0.5 and 2 at M = 30 the sum stays within 1.5e-14 of the QFI down
    to s = 1e-75; below about s = 1e-77, N_1 ~ s^4 leaves the normal range
    and its term drops out.
    """
    return np.cumsum(_channel_terms(*_spade_table(amps, M)), axis=1) / _scale(amps)


def fi_spade(amps: ImageAmplitudes, M: int):
    """SPADE FI from modes 0..M, F = sum (d_d N_m)^2 / N_m, at each scene
    of ``amps``.

    Monotone nondecreasing in M by construction.  M must be a nonnegative
    integer.
    """
    fi = _spade_running_fi(amps, M)[:, -1]
    return FisherReport(*_fields(np.ndim(amps.s), fi * _scale(amps), fi, 0.0))


def optimize_waist(psi: float, s_grid, a_bounds=(0.05, 5.0),
                   kappa: float = 1.0, g: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-separation optimal vortex waist ratio: the arrays (a*, Q_d*),
    one entry per separation of ``s_grid``.

    Maximizes the (adjudicated) closed-form vortex QFI
    Q = (e/2) u^-3 exp(-c/u) B(u) over a in ``a_bounds``, with u = a^2,
    c = s^2/2 + 2 psi^2 and B(u) = B2 u^2 + B1 u + B0.  Its stationary
    points are the roots of the cubic (c - 3u) B + u^2 B' =
    -B2 u^3 + (c B2 - 2 B1) u^2 + (c B1 - 3 B0) u + c B0: eigenvalues of
    3x3 companion matrices for all s at once, each polished by one Newton
    step.  One array evaluation of Q at a_min, the real roots inside the
    bounds and a_max picks the first maximum (at s = 0, where Q vanishes,
    a_min).  Q_d* is reported in raw units (1/w^2).
    """
    lo, hi = a_bounds
    if not (0.0 < lo < hi):
        raise ValueError("a_bounds must be a positive increasing interval")
    s = np.array([float(v) for v in s_grid])
    _require_separation(s)
    b2, b1, b0 = _vortex_coefficients(psi, s)
    c = s * s / 2.0 + 2.0 * (psi * psi)
    companion = np.zeros((s.size, 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # the monic cubic u^3 + k2 u^2 + k1 u + k0, one row per separation;
        # at s = 0 it is 0/0, and its stand-in u^3 has no root in the bounds
        k2, k1, k0 = (np.stack((c * b2 - 2.0 * b1, c * b1 - 3.0 * b0, c * b0))
                      / -b2)[:, :, None]
        companion[:, 0] = np.nan_to_num(-np.concatenate((k2, k1, k0), axis=1),
                                        nan=0.0, posinf=0.0, neginf=0.0)
        roots = np.linalg.eigvals(companion)
        u = roots.real
        u = u - (((u + k2) * u + k1) * u + k0) / ((3.0 * u + 2.0 * k2) * u + k1)
        inside = (roots.imag == 0.0) & (u >= lo * lo) & (u <= hi * hi)
        a = np.where(inside, np.sqrt(u), lo)
    ends = np.ones((s.size, 1))
    a = np.concatenate((lo * ends, a, hi * ends), axis=1)
    q = qfi_vortex_closed(a, psi, s[:, None], kappa, g).value
    best = np.argmax(q, axis=1)[:, None]
    return (np.take_along_axis(a, best, axis=1)[:, 0],
            np.take_along_axis(q, best, axis=1)[:, 0])
