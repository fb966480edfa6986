"""Monte Carlo verification of the Cramer-Rao chain.

Photon counts in each measured channel (a Hermite-Gauss mode for SPADE, a
camera bin for direct imaging) are independent Poisson variables, so the
total over mu repetitions is itself Poisson with mean mu * N_c(s) and is a
sufficient statistic for s.  Each simulated batch therefore draws one
aggregate count per channel, runs maximum-likelihood estimation of the
separation, and the spread of the per-batch estimates is compared against
the Cramer-Rao bound 1/(mu F).

RNG is counter-based (Philox) with the seed recorded in every report; a
fixed seed reproduces counts, estimates, and ratios bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .excitation import EmitterScene, image_amplitudes
from .fisher import fi_direct, mean_photons_spade
from .numerics import _WK, _XK, golden_section_max
from .psf_modes import GaussianPsf, HermiteGaussBasis

_LOG_FLOOR = 1e-300
_SCAN_POINTS = 256
_BIN_FI_REL_TOL = 0.02


@dataclass(frozen=True)
class CountRecord:
    """Observed photon count in one measurement channel."""

    channel_id: int
    count: int
    expected: float = 0.0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("photon count must be nonnegative")
        if self.expected < 0.0:
            raise ValueError("expected count must be nonnegative")


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of a Monte Carlo estimation campaign.

    crb = 1/(mu F) for the measurement's continuum Fisher information;
    n_total is the mean photon number per shot, so the photon budget behind
    the bound is self-documenting.
    """

    true_s: float
    estimates: list[float]
    empirical_variance: float
    crb: float
    ratio: float
    mu: float
    seed: int
    n_total: float = 0.0
    method: str = "spade"


def sample_counts(expected_per_channel, rng_seed) -> list[CountRecord]:
    """Independent Poisson draws per channel; reproducible for a seed."""
    expected = np.asarray(expected_per_channel, dtype=float)
    if np.any(expected < 0.0):
        raise ValueError("negative expected count")
    rng = np.random.Generator(np.random.Philox(rng_seed))
    counts = rng.poisson(expected)
    return [CountRecord(channel_id=i, count=int(c), expected=float(e))
            for i, (c, e) in enumerate(zip(counts, expected))]


def ml_estimate(records, model, search_interval) -> float:
    """Maximum-likelihood separation from Poisson counts.

    model(s) must return the expected count per channel in record order
    (including any repetition factor).  Maximizes the Poisson log-likelihood
    sum(n_c ln N_c - N_c) with a 256-point scan and golden-section
    refinement of the bracketing interval; exact scan ties resolve toward
    the interval midpoint.
    """
    counts = np.asarray([r.count for r in records], dtype=float)
    if not np.any(counts > 0):
        raise ValueError("all counts are zero: separation not identifiable")
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not hi > lo:
        raise ValueError("search interval must be increasing")

    def loglike(s):
        n = np.asarray(model(float(s)), dtype=float)
        return float(counts @ np.log(np.maximum(n, _LOG_FLOOR)) - n.sum())

    scan = np.linspace(lo, hi, _SCAN_POINTS)
    values = np.array([loglike(s) for s in scan])
    peaks = np.flatnonzero(values == values.max())
    mid = 0.5 * (lo + hi)
    best = int(peaks[np.argmin(np.abs(scan[peaks] - mid))])
    b_lo = scan[best - 1] if best > 0 else lo
    b_hi = scan[best + 1] if best < len(scan) - 1 else hi
    return golden_section_max(loglike, float(b_lo), float(b_hi), x_tol=1e-6)


def spade_count_model(exc, basis: HermiteGaussBasis, modes: int,
                      x0: float = 0.0, g: float = 1.0, kappa: float = 1.0,
                      psf=GaussianPsf()):
    """Per-shot SPADE expectations as a function of s: [N_0, ..., N_modes]."""

    def model(s: float) -> np.ndarray:
        scene = EmitterScene(s=max(float(s), 0.0), x0=x0, g=g, kappa=kappa)
        amps = image_amplitudes(exc, scene, psf)
        return np.array([mean_photons_spade(amps, basis, m, scene.s)
                         for m in range(modes + 1)])

    return model


class BinnedImager:
    """Fixed 32x32 (by default) camera grid over the informative image region.

    The field of view spans 2.5 PSF widths beyond each emitter (the excluded
    tails carry < 1e-6 of the photons), keeping the bins fine enough that the
    discretized Fisher information stays within 2% of the continuum value —
    a wider view at the same bin count coarsens the bins and fails that
    contract.  Bin expectations are exact Gauss-Kronrod integrals of the
    intensity on a per-bin 15-node tensor rule.  Both emitters sit on y = 0,
    so the intensity is an x-profile times exp(-2 y^2 / w^2) and the tensor
    rule factorizes: each model call integrates the x-profile over the x-bins
    and takes the outer product with y-bin weights computed once at
    construction.  With check_discretization (the default), construction
    verifies the 2% bound at domain_s.
    """

    _FOV_MARGIN = 2.5  # PSF widths beyond each emitter

    def __init__(self, exc, domain_s: float, nbins: int = 32, x0: float = 0.0,
                 g: float = 1.0, kappa: float = 1.0, psf=GaussianPsf(),
                 check_discretization: bool = True):
        self.exc = exc
        self.x0 = x0
        self.g = g
        self.kappa = kappa
        self.psf = psf
        self.width_w = psf.width_w
        half = (domain_s / 2.0 + self._FOV_MARGIN) * self.width_w
        center = x0 * self.width_w
        edges_x = np.linspace(center - half, center + half, nbins + 1)
        edges_y = np.linspace(-half, half, nbins + 1)
        half_x = 0.5 * (edges_x[1] - edges_x[0])
        half_y = 0.5 * (edges_y[1] - edges_y[0])
        mids_x = 0.5 * (edges_x[:-1] + edges_x[1:])
        mids_y = 0.5 * (edges_y[:-1] + edges_y[1:])
        self._nodes_x = mids_x[:, None] + half_x * _XK[None, :]
        self._weights_x = _WK * half_x
        nodes_y = mids_y[:, None] + half_y * _XK[None, :]
        # y-bin integrals of kappa * pref^2 * exp(-2 y^2 / w^2)
        pref_sq = 2.0 / (math.pi * self.width_w**2)
        self._weights_y = (kappa * pref_sq
                           * np.exp(-2.0 * nodes_y**2 / self.width_w**2)
                           @ (_WK * half_y))
        if check_discretization:
            scene = EmitterScene(s=domain_s, x0=x0, g=g, kappa=kappa)
            amps = image_amplitudes(exc, scene, psf)
            continuum = fi_direct(amps, psf, domain_s).value
            binned = self.fisher_information(domain_s)
            if abs(binned - continuum) > _BIN_FI_REL_TOL * continuum:
                raise RuntimeError(
                    f"binned DI Fisher information deviates "
                    f"{abs(binned - continuum) / continuum:.3%} from the "
                    f"continuum value (limit {_BIN_FI_REL_TOL:.0%}); "
                    f"increase the bin count")

    def expectations(self, s: float) -> np.ndarray:
        """Per-shot expected photon count in each bin (row-major)."""
        scene = EmitterScene(s=max(float(s), 0.0), x0=self.x0, g=self.g,
                             kappa=self.kappa)
        amps = image_amplitudes(self.exc, scene, self.psf)
        a1, a2 = amps.site_amplitudes
        x1 = (self.x0 - scene.s / 2.0) * self.width_w
        x2 = (self.x0 + scene.s / 2.0) * self.width_w
        xx = self._nodes_x
        e1 = np.exp(-((xx - x1) / self.width_w) ** 2)
        e2 = np.exp(-((xx - x2) / self.width_w) ** 2)
        profile = np.abs(a1 * e1 + a2 * e2) ** 2 @ self._weights_x
        return np.outer(profile, self._weights_y).ravel()

    def fisher_information(self, s: float, h: float = 1e-4) -> float:
        """Discretized DI Fisher information at s via central differences."""
        e_mid = self.expectations(s)
        d_e = (self.expectations(s + h) - self.expectations(max(s - h, 0.0))) \
            / (h + min(h, s))
        mask = e_mid > 1e-15 * e_mid.max()
        return float(np.sum(d_e[mask] ** 2 / e_mid[mask]))


def run_experiment(model, true_s: float, mu: float, batches: int, seed: int,
                   search_interval, fisher_per_shot: float,
                   n_total: float = 0.0, method: str = "spade") -> EstimationReport:
    """Simulate `batches` campaigns of mu shots each and compare the spread
    of the ML estimates against the Cramer-Rao bound 1/(mu F)."""
    if batches < 2:
        raise ValueError("need at least two batches for a variance")
    if not fisher_per_shot > 0.0:
        raise ValueError("Fisher information must be positive for a CRB")

    cache: dict[float, np.ndarray] = {}

    def cached(s: float) -> np.ndarray:
        key = float(s)
        out = cache.get(key)
        if out is None:
            out = np.asarray(model(key), dtype=float)
            cache[key] = out
        return out

    base = cached(true_s)
    estimates: list[float] = []
    for b in range(batches):
        records = sample_counts(mu * base, np.random.SeedSequence((seed, b)))
        estimates.append(ml_estimate(records, lambda s: mu * cached(s),
                                     search_interval))

    variance = float(np.var(np.asarray(estimates), ddof=1))
    crb = 1.0 / (mu * fisher_per_shot)
    return EstimationReport(
        true_s=true_s, estimates=estimates, empirical_variance=variance,
        crb=crb, ratio=variance / crb, mu=mu, seed=seed,
        n_total=n_total, method=method)
