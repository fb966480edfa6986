"""Information limits for two-emitter separation estimation.

Quantum Fisher information (QFI) for the separation d and the 2x2 QFI
matrix for joint (d, x0) estimation, plus classical Fisher information for
the two measurements of interest:

* direct imaging (DI): spatially resolved intensity, FI by 1D quadrature
  of the x-profile (the Gaussian image factorizes exactly in y);
  ``fi_direct_many`` integrates a whole list of scenes (one sweep curve) as
  one lockstep quadrature batch, bit-identical to ``fi_direct`` per scene,
  and every DI report carries its quadrature error bound, which the sweep
  commands write as the ``fi_di_err`` column;
* spatial-mode demultiplexing (SPADE): photon counting in Hermite-Gauss
  modes, FI by summing per-mode contributions; ``fi_spade_many`` computes
  one (scenes x modes) table of the mode photon numbers and their
  separation derivatives for a whole list of scenes, with the scalar
  formula's operations per entry, so every value (``fi_spade``,
  ``mean_photons_spade``) equals the one-scene result bit for bit.

Lengths are in units of the PSF width w, and everything an estimator needs
comes from the scene's ImageAmplitudes record (and, for the QFI, the
PsfGeometry at the same separation).  All reports carry both the raw value
(units 1/w^2) and the dimensionless normalization w^2 F / (2 kappa g^2)
used throughout for plotting and comparisons.

The general QFI path expands the image-plane field in the symmetric /
antisymmetric PSF modes and their derivative complements; for a coherent
state the QFI reduces to a Gram matrix of field derivatives, which keeps
the matrix positive semidefinite by construction.  Closed forms for the
plane-wave and vortex excitation families are provided separately and are
cross-checked against the general path (see vortex_closed_variants for the
two published vortex candidates the adjudication command arbitrates).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .excitation import EmitterScene, ImageAmplitudes, PlaneWaveExcitation, image_amplitudes
from .numerics import _scalar_map, golden_section_max_many, integrate_1d_many
from .psf_modes import PsfGeometry, _gamma_table, _require_finite, psf_geometry

_VALID_METHODS = frozenset({
    "qfi_general", "qfi_closed", "di_quadrature",
    "spade_series", "spade_closed",
})


@dataclass(frozen=True)
class FisherReport:
    """A Fisher-information value with its dimensionless normalization.

    value is in 1/w^2; normalized_value = value * w^2 / (2 kappa g^2).
    """

    value: float
    normalized_value: float
    method: str
    error_estimate: float = 0.0

    def __post_init__(self):
        if self.method not in _VALID_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        _require_finite("FisherReport", value=self.value,
                        normalized_value=self.normalized_value,
                        error_estimate=self.error_estimate)
        if self.value < 0.0:
            raise ValueError("Fisher information must be nonnegative")


@dataclass(frozen=True)
class QfiMatrix:
    """QFI matrix for joint (separation, centroid) estimation.

    The determinant test is relative to the two products it subtracts,
    because every entry scales with g^2 and the determinant with g^4.
    """

    q_dd: float
    q_dx0: float
    q_x0x0: float

    def __post_init__(self):
        if self.q_dd < 0.0 or self.q_x0x0 < 0.0:
            raise ValueError("diagonal QFI entries must be nonnegative")
        det = self.q_dd * self.q_x0x0 - self.q_dx0**2
        if det < -1e-9 * (self.q_dd * self.q_x0x0 + self.q_dx0**2):
            raise ValueError(f"QFI matrix not positive semidefinite (det={det})")


def _report(normalized: float, amps: ImageAmplitudes, method: str,
            error_norm: float = 0.0) -> FisherReport:
    scale = 2.0 * amps.kappa * amps.g**2
    return FisherReport(value=normalized * scale, normalized_value=normalized,
                        method=method, error_estimate=error_norm * scale)


def qfi_separation(amps: ImageAmplitudes, geom: PsfGeometry) -> FisherReport:
    """QFI for the separation from mode amplitudes and PSF geometry.

    Q_d = 4 [ |d_d alpha_+|^2 + |d_d alpha_-|^2
              + eta_+^2 |alpha_+|^2 + eta_-^2 |alpha_-|^2 ].
    """
    q = 4.0 * (abs(amps.d_d_alpha_plus) ** 2 + abs(amps.d_d_alpha_minus) ** 2
               + geom.eta_plus2 * abs(amps.alpha_plus) ** 2
               + geom.eta_minus2 * abs(amps.alpha_minus) ** 2)
    scale = 2.0 * amps.kappa * amps.g**2
    return FisherReport(value=q, normalized_value=q / scale, method="qfi_general")


def _centroid_coupling_from_geometry(geom: PsfGeometry) -> float:
    # |W| via the exact decomposition identity
    #   W^2 = (dk2 + beta)/(1 + delta) - xi_+^2,
    # which stays accurate at small s where 1 - delta^2 cancels badly.
    w2 = (geom.dk2 + geom.beta) / (1.0 + geom.delta) - geom.xi_plus2
    mag = math.sqrt(max(w2, 0.0))
    # the overlap delta decreases with separation for the PSFs in scope
    return -mag if geom.delta_prime <= 0.0 else mag


def qfi_matrix(amps: ImageAmplitudes, geom: PsfGeometry) -> QfiMatrix:
    """Full 2x2 QFI matrix for joint (d, x0) estimation.

    The centroid derivative mixes the +/- modes (coupling W) and leaks into
    their orthogonal complements (xi_+-^2); the off-diagonal entry also
    picks up the overlap between the d- and x0-derivatives of the modes.
    """
    ap, am = amps.alpha_plus, amps.alpha_minus
    dd_p, dd_m = amps.d_d_alpha_plus, amps.d_d_alpha_minus
    w_coup = _centroid_coupling_from_geometry(geom)
    cx_p = amps.d_x0_alpha_plus - w_coup * am
    cx_m = amps.d_x0_alpha_minus + w_coup * ap

    q_dd = 4.0 * (abs(dd_p) ** 2 + abs(dd_m) ** 2
                  + geom.eta_plus2 * abs(ap) ** 2 + geom.eta_minus2 * abs(am) ** 2)
    q_x0x0 = 4.0 * (abs(cx_p) ** 2 + abs(cx_m) ** 2
                    + geom.xi_plus2 * abs(ap) ** 2 + geom.xi_minus2 * abs(am) ** 2)

    if geom.s == 0.0 or geom.delta >= 1.0:
        cross = 0.0  # eta_+-^2 vanish faster than the mode-ratio diverges
    else:
        ratio = (1.0 + geom.delta) / (1.0 - geom.delta)
        cross = (geom.eta_plus2 * math.sqrt(ratio)
                 + geom.eta_minus2 / math.sqrt(ratio))
    q_dx0 = (4.0 * (dd_p.conjugate() * cx_p + dd_m.conjugate() * cx_m).real
             - 8.0 * (ap.conjugate() * am).real * cross)
    return QfiMatrix(q_dd=q_dd, q_dx0=q_dx0, q_x0x0=q_x0x0)


def qfi_plane_closed(ktilde: float, s: float, kappa: float = 1.0,
                     g: float = 1.0) -> FisherReport:
    """Closed-form separation QFI for plane-wave excitation.

    Normalized value: 1 + kt^2 + e^{-s^2/2}[(s^2 - 1 - kt^2) cos(kt s)
    + 2 kt s sin(kt s)].
    """
    if s < 0.0:
        raise ValueError("separation must be nonnegative")
    kt = ktilde
    norm = (1.0 + kt**2 + math.exp(-s * s / 2.0)
            * ((s * s - 1.0 - kt**2) * math.cos(kt * s)
               + 2.0 * kt * s * math.sin(kt * s)))
    norm = max(norm, 0.0)
    scale = 2.0 * kappa * g**2
    return FisherReport(value=norm * scale, normalized_value=norm, method="qfi_closed")


# The vortex closed forms below take the elementwise exp and power as
# arguments: the scalar path passes math.exp and pow, and the waist scan
# passes their elementwise maps (numpy's own exp and pow differ in the last
# bit), so a scan over arrays of a and s reproduces every scalar value.

def _vortex_pref(a, psi, s, exp=math.exp, power=pow):
    return (math.e / (2.0 * power(a, 6))
            * exp(-s * s / (2.0 * a * a)) * exp(-2.0 * power(psi, 2) / (a * a)))


def _vortex_bracket_a(a, psi, s, exp=math.exp, power=pow):
    # candidate consistent with the general path (vanishes at s = 0)
    a2 = a * a
    s2 = s * s
    psi2 = power(psi, 2)
    poly = s2 * s2 + s2 * (4.0 * psi2 + a2 * (a2 - 4.0)) + 4.0 * a2 * a2 * (1.0 + psi2)
    sub = (s2 * s2 * power(a2 + 1.0, 2)
           - s2 * (a2 * (5.0 * a2 + 4.0) + 4.0 * power(a2 + 1.0, 2) * psi2)
           + 4.0 * a2 * a2 * (psi2 + 1.0))
    return poly - exp(-s2 / 2.0) * sub


def _vortex_bracket_b(a: float, psi: float, s: float) -> float:
    # alternative published variant (psi-independent; kept for adjudication)
    a2 = a * a
    s2 = s * s
    poly = s2 * s2 + a2 * s2 * (a2 - 4.0) + 4.0 * a2
    add = (a2 - 1.0) ** 2 * s2 * s2 + a2 * (5.0 * a2 - 4.0) * s2 + 4.0 * a2 * a2
    return poly + math.exp(-s2 / 2.0) * add


def vortex_closed_variants(a: float, psi: float, s: float) -> dict[str, float]:
    """Normalized values of both published vortex-QFI closed-form candidates.

    Exposed so the adjudication command (and tests) can compare each against
    the general-path oracle and certify which one is shipped.
    """
    pref = _vortex_pref(a, psi, s)
    return {
        "psi_dependent": pref * _vortex_bracket_a(a, psi, s),
        "psi_independent": pref * _vortex_bracket_b(a, psi, s),
    }


def qfi_vortex_closed(a: float, psi: float, s: float, kappa: float = 1.0,
                      g: float = 1.0) -> FisherReport:
    """Closed-form separation QFI for the shifted vortex excitation.

    Ships the candidate certified against the general-path computation
    (see vortex_closed_variants); it vanishes at s = 0 for every psi.
    """
    if not a > 0.0:
        raise ValueError("waist ratio a must be positive")
    norm = vortex_closed_variants(a, psi, s)["psi_dependent"]
    norm = max(norm, 0.0)
    scale = 2.0 * kappa * g**2
    return FisherReport(value=norm * scale, normalized_value=norm, method="qfi_closed")


def spade_collinear_closed(s: float, kappa: float = 1.0,
                           g: float = 1.0) -> FisherReport:
    """Closed-form SPADE FI for collinear plane-wave excitation (kt = 0),
    full mode sum: normalized 1 + e^{-s^2/2} (s^2 - 1)."""
    norm = 1.0 + math.exp(-s * s / 2.0) * (s * s - 1.0)
    scale = 2.0 * kappa * g**2
    return FisherReport(value=norm * scale, normalized_value=norm, method="spade_closed")


_DI_GUARD = 1e-15       # x-profile floor, relative to the profile maximum
_DI_COARSE_N = 41       # coarse sampling used to locate that maximum


def fi_direct(amps: ImageAmplitudes, abs_tol: float = 1e-8) -> FisherReport:
    """Direct-imaging FI for the separation, F = int (d_d I)^2 / I.

    The one-member case of :func:`fi_direct_many`.
    """
    return fi_direct_many([amps], abs_tol)[0]


def fi_direct_many(amps_seq, abs_tol: float = 1e-8) -> list[FisherReport]:
    """Direct-imaging FI for the separation, F = int (d_d I)^2 / I, for
    each scene in ``amps_seq``.

    Both emitters sit on y = 0, so I and d_d I share the y-factor
    exp(-2 y^2) and the plane integral is sqrt(pi/2) times an x-integral
    (the window |y| <= 8 makes erf exactly 1 at double precision); with the
    PSF prefactor 2/pi the x-integrand carries sqrt(2/pi).  Integrates with
    amplitudes scaled by sqrt(2) g, so the quadrature tolerance applies to
    the normalized value.  Points where the x-profile
    |a_1 e_1 + a_2 e_2|^2 falls below 1e-15 of its maximum, or underflows
    to zero, contribute zero (nodes and far tails; the removable-singularity
    limit is zero there).  The x-integrals form one lockstep batch
    (``integrate_1d_many``): each is refined exactly as it would be alone,
    so every report equals the one-scene value bit for bit.  Raises
    ConvergenceError naming the first scene whose quadrature stalls, with
    its estimate.
    """
    amps_seq = list(amps_seq)
    if not amps_seq:
        return []
    params = []
    for amps in amps_seq:
        root2g = math.sqrt(2.0) * amps.g
        a1, a2 = (c / root2g for c in amps.site_amplitudes)
        g1, g2 = (c / root2g for c in amps.site_gradients)
        half = max(8.0, amps.s / 2.0 + 8.0)
        params.append((a1, a2, g1, g2, amps.x0 - amps.s / 2.0,
                       amps.x0 + amps.s / 2.0, amps.x0 - half, amps.x0 + half))
    a1, a2, g1, g2, x1, x2, lo_x, hi_x = (np.array(col) for col in zip(*params))

    def profiles(rows, xx):
        r = rows[:, None]
        e1 = np.exp(-(xx - x1[r]) ** 2)
        e2 = np.exp(-(xx - x2[r]) ** 2)
        amp = a1[r] * e1 + a2[r] * e2
        damp = (0.5 * (g2[r] * e2 - g1[r] * e1)
                - (a1[r] * (xx - x1[r]) * e1 - a2[r] * (xx - x2[r]) * e2))
        return np.abs(amp) ** 2, 2.0 * (np.conj(amp) * damp).real

    members = np.arange(len(amps_seq))
    coarse_x = np.linspace(lo_x, hi_x, _DI_COARSE_N, axis=1)
    floor = _DI_GUARD * profiles(members, coarse_x)[0].max(axis=1)
    weight = math.sqrt(2.0 / math.pi)

    def integrand(rows, xx):
        inten, d_inten = profiles(rows, xx)
        out = np.zeros_like(inten)
        # the second test matters only when the whole profile underflows
        # (floor 0): a zero intensity then contributes zero, not 0/0
        np.divide(d_inten * d_inten, inten, out=out,
                  where=(inten >= floor[rows][:, None]) & (inten > 0.0))
        return weight * out

    results = integrate_1d_many(integrand, lo_x, hi_x, abs_tol=abs_tol,
                                max_depth=44)
    return [_report(max(norm, 0.0), amps, "di_quadrature", error_norm=err)
            for amps, (norm, err) in zip(amps_seq, results)]


def _basis_overlaps(s: float) -> tuple[float, float, float]:
    # delta, delta', and 1 - delta of the Gaussian image modes; expm1 keeps
    # 1 - delta exact at small s.
    x = s * s / 2.0
    delta = math.exp(-x)
    return delta, -s * delta, -math.expm1(-x)


def _spade_table(amps_seq, modes: int):
    """Mean photon numbers N_m in HG modes m = 0..modes and their
    s-derivatives, as two arrays with one row per scene.

    The image field couples to mode m through f_{m,+-} gamma_m: even modes
    see only alpha_+, odd modes only alpha_-.  Each entry is computed with
    the operations, in the order, of the one-mode scalar formula, so a row
    does not depend on the other rows of the batch.  Raises ValueError
    unless ``modes`` is a nonnegative integer (a bool is not one).
    """
    if not isinstance(modes, numbers.Integral) or isinstance(modes, bool) or modes < 0:
        raise ValueError(f"mode cutoff must be a nonnegative integer, got {modes!r}")
    s = np.array([amps.s for amps in amps_seq], dtype=float)
    gam, gam_d = _gamma_table(s, modes)
    # per-scene normalizations of the +/- image modes; ** is the scalar pow
    # (numpy's differs in the last bit)
    norms = []
    for s_i in s.tolist():
        delta, delta_prime, omd = _basis_overlaps(s_i)
        np2 = 2.0 * (1.0 + delta)
        nm2 = 2.0 * omd
        norms.append((math.sqrt(np2), np2**1.5, math.sqrt(nm2), nm2**1.5,
                      delta_prime))
    root_p, pow_p, root_m, pow_m, delta_prime = \
        np.array(norms).reshape(s.size, 5).T[:, :, None]
    # s = 0, and s < ~1e-108 where (2(1 - delta))^1.5 underflows: the s -> 0
    # limit, all light in mode 0 and no N_m moving (every F term is O(s^2))
    dark = pow_m[:, 0] == 0.0
    root_m[dark] = pow_m[dark] = 1.0

    sign = np.where(np.arange(modes + 1) % 2, -1.0, 1.0)
    c_p = sign + 1.0
    c_m = sign - 1.0
    f_p = c_p * gam / root_p
    f_m = c_m * gam / root_m
    df_p = c_p * (gam_d / root_p - gam * delta_prime / pow_p)
    df_m = c_m * (gam_d / root_m + gam * delta_prime / pow_m)

    def parts(name):
        z = np.array([getattr(amps, name) for amps in amps_seq], dtype=complex)
        return z.real[:, None], z.imag[:, None]

    # beta_m = f_p alpha_+ + f_m alpha_- and its d-derivative, split into
    # real and imaginary parts (numpy's complex product rounds differently
    # from Python's; a real factor times a complex number is exact per part)
    ap_r, ap_i = parts("alpha_plus")
    am_r, am_i = parts("alpha_minus")
    dp_r, dp_i = parts("d_d_alpha_plus")
    dm_r, dm_i = parts("d_d_alpha_minus")
    beta_r = f_p * ap_r + f_m * am_r
    beta_i = f_p * ap_i + f_m * am_i
    dbeta_r = df_p * ap_r + f_p * dp_r + df_m * am_r + f_m * dm_r
    dbeta_i = df_p * ap_i + f_p * dp_i + df_m * am_i + f_m * dm_i
    # |beta|^2: np.hypot is Python's abs of a complex; the square is pow
    n = _scalar_map(pow, np.hypot(beta_r, beta_i), 2.0)
    dn = 2.0 * (beta_r * dbeta_r + beta_i * dbeta_i)
    n[dark] = 0.0
    dn[dark] = 0.0
    n[dark, 0] = _scalar_map(pow, np.hypot(ap_r[dark, 0], ap_i[dark, 0]), 2.0)
    return n, dn


def mean_photons_spade(amps: ImageAmplitudes, m: int) -> float:
    """Mean photon number in Hermite-Gauss mode m for the given amplitudes
    (one entry of the batched SPADE table)."""
    n, _ = _spade_table([amps], m)
    return float(n[0, m])


_SPADE_N_FLOOR = 1e-300
_SPADE_DN_FLOOR = 1e-150


def fi_spade(amps: ImageAmplitudes, M: int) -> FisherReport:
    """SPADE FI from modes 0..M: F = sum (d_d N_m)^2 / N_m.

    The one-member case of :func:`fi_spade_many`.
    """
    return fi_spade_many([amps], M)[0]


def fi_spade_many(amps_seq, M: int) -> list[FisherReport]:
    """SPADE FI from modes 0..M, F = sum (d_d N_m)^2 / N_m, for each scene
    in ``amps_seq``.

    One (scenes x modes) table of N_m and d_d N_m serves the whole batch,
    and each row is summed in mode order, so every report equals the
    one-scene value bit for bit.  Terms where both N_m and its derivative
    underflow contribute zero (they vanish at the same order; the limiting
    term is zero or unresolvable at double precision).  Monotone
    nondecreasing in M by construction.  M must be a nonnegative integer.
    """
    amps_seq = list(amps_seq)
    n, dn = _spade_table(amps_seq, M)
    skip = ((n < _SPADE_N_FLOOR) & (np.abs(dn) < _SPADE_DN_FLOOR)) | (n <= 0.0)
    terms = np.zeros_like(n)
    np.divide(dn * dn, n, out=terms, where=~skip)
    # accumulate, not sum: the running total adds the modes in order
    totals = np.add.accumulate(terms, axis=1)[:, -1]
    return [_report(total / (2.0 * amps.kappa * amps.g**2),
                    amps, "spade_series", error_norm=0.0)
            for amps, total in zip(amps_seq, totals.tolist())]


def small_s_coefficients(family: str, params: dict | None = None,
                         modes: int = 30) -> tuple[float, float, float]:
    """Leading quadratic coefficients of DI, QFI, and SPADE at small s.

    Fits F_normalized ~ c s^2/2 over s in [0.01, 0.05] for the plane-wave
    family and returns (c_di, c_qfi, c_spade).
    """
    if family != "plane":
        raise ValueError("small-s coefficient extraction supports the "
                         "plane-wave family only")
    ktilde = float((params or {}).get("ktilde", 0.0))
    exc = PlaneWaveExcitation(ktilde=ktilde)
    s_pts = np.linspace(0.01, 0.05, 9)
    scenes = [image_amplitudes(exc, EmitterScene(s=float(s))) for s in s_pts]
    f_di = np.array([r.normalized_value for r in fi_direct_many(scenes)])
    f_qfi = np.array([qfi_separation(amps, psf_geometry(amps.s)).normalized_value
                      for amps in scenes])
    f_spade = np.array([r.normalized_value for r in fi_spade_many(scenes, modes)])

    basis_fn = s_pts**2 / 2.0
    denom = float(basis_fn @ basis_fn)

    def fit(vals):
        return float(vals @ basis_fn) / denom

    return fit(f_di), fit(f_qfi), fit(f_spade)


def optimize_waist(psi: float, s_grid, a_bounds=(0.05, 5.0),
                   kappa: float = 1.0, g: float = 1.0) -> list[tuple[float, float]]:
    """Per-separation optimal vortex waist ratio: [(a*, Q_d*), ...].

    Maximizes the (adjudicated) closed-form vortex QFI over a at each s:
    coarse 64-point log-spaced scan, then golden-section refinement of the
    bracketing interval to |delta a| < 1e-6; grid ties resolve to the
    smaller a.  The scan evaluates the closed form for every (s, a) pair as
    one array, with the scalar path's exp and pow per element, so it ranks
    the grid exactly as scalar calls would.  The refinements of all
    separations run in lockstep, each making the steps it would make alone,
    with scalar calls.  Q_d* is reported in raw units (1/w^2).
    """
    lo, hi = a_bounds
    if not (0.0 < lo < hi):
        raise ValueError("a_bounds must be a positive increasing interval")
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), 64))
    s_values = [float(s) for s in s_grid]

    def q(s, a):
        return qfi_vortex_closed(float(a), psi, s, kappa, g).value

    def exp(x):
        return _scalar_map(math.exp, x)

    def power(x, p):
        return _scalar_map(pow, x, p)

    a_col, s_row = grid[None, :], np.array(s_values)[:, None]
    norm = (_vortex_pref(a_col, psi, s_row, exp, power)
            * _vortex_bracket_a(a_col, psi, s_row, exp, power))
    values = np.maximum(norm, 0.0) * (2.0 * kappa * g**2)
    best = np.argmax(values, axis=1)  # first max -> smaller a on ties
    b_lo = [grid[i - 1] if i > 0 else lo for i in best.tolist()]
    b_hi = [grid[i + 1] if i < len(grid) - 1 else hi for i in best.tolist()]
    a_star = golden_section_max_many(
        lambda rows, x: [q(s_values[r], a) for r, a in zip(rows, x)],
        b_lo, b_hi, x_tol=1e-6)
    return [(a, q(s, a)) for s, a in zip(s_values, a_star)]
