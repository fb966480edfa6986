"""Monte Carlo verification of the Cramer-Rao chain.

Photon counts in each measured channel (a Hermite-Gauss mode for SPADE, a
camera bin for direct imaging) are independent Poisson variables, so the
total over mu repetitions is itself Poisson with mean mu * N_c(s) and is a
sufficient statistic for s.  Each simulated batch therefore draws one
aggregate count per channel, runs maximum-likelihood estimation of the
separation, and the spread of the per-batch estimates is compared against
the Cramer-Rao bound 1/(mu F).

Both count models (``spade_count_model`` and
``BinnedImager.expectations``) take a vector of separations and return
one row of per-channel expectations per separation, from one amplitude
record for the whole vector.

All batches of a campaign are estimated in lockstep: their counts form one
batches x channels array, the model and its logarithm are evaluated once
per scan point for every batch, and the golden-section refinement makes
one model pass per round for all batches still refining.  The model sees
at most 16 separations per call, which bounds the size of its work arrays.
The scan scores every batch at a scan point with one matrix-vector
product, and each golden round scores the batches still refining with one
row-wise product; each batch makes the search steps it would make alone.

``run_experiment`` can search on a sufficient statistic of the counts
instead of the counts themselves.  Direct imaging does: the camera's bin
expectations are N_ij(s) = P_i(s) W_j with y-bin weights W_j free of s,
so the log-likelihood of the bins is that of the x-bin column totals
(``BinnedImager.sum_over_y``, with expectations
``BinnedImager.x_marginals``) plus a term that does not depend on s.  The
search scores 32 x-bin totals per batch instead of 1,024 bins and finds
the same maximum, up to golden-section comparisons within roundoff.

RNG is counter-based (Philox) with the seed recorded in every report; a
fixed seed reproduces counts, estimates, and ratios bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .excitation import EmitterScene, image_amplitudes
from .fisher import _spade_table, fi_direct
from .numerics import _WK, _XK, golden_section_max_many

_LOG_FLOOR = 1e-300
_SCAN_POINTS = 256
_MODEL_BLOCK = 16  # separations per model call
_BIN_FI_REL_TOL = 0.02


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


def sample_counts(expected_per_channel, rng_seed) -> np.ndarray:
    """Independent Poisson draws per channel (an integer array);
    reproducible for a seed."""
    expected = np.asarray(expected_per_channel, dtype=float)
    if np.any(expected < 0.0):
        raise ValueError("negative expected count")
    rng = np.random.Generator(np.random.Philox(rng_seed))
    return rng.poisson(expected)


def _log_terms(model, s_values):
    """(ln max(N, floor), sum N) of the rows N of model(s_values): a
    (separations x channels) array and a vector, from blocks of at most
    _MODEL_BLOCK separations per model call."""
    logs, totals = [], []
    for start in range(0, len(s_values), _MODEL_BLOCK):
        block = np.asarray(s_values[start:start + _MODEL_BLOCK], dtype=float)
        n = np.asarray(model(block), dtype=float)
        logs.append(np.log(np.maximum(n, _LOG_FLOOR)))
        totals.append(n.sum(axis=1))
    return np.concatenate(logs), np.concatenate(totals)


def _scores(counts, log_n, total) -> np.ndarray:
    """Poisson log-likelihoods sum(n_c ln N_c) - sum N of every batch (rows
    of ``counts``) at every separation (rows of ``log_n``, entries of
    ``total``): a batches x separations array, one matrix-vector product
    per separation (the Monte Carlo path makes no matrix-matrix product,
    whose first OpenBLAS call allocates a work buffer that raises peak
    memory)."""
    return np.stack([counts @ row for row in log_n], axis=1) - total


def _ml_search(counts, model, search_interval) -> list[float]:
    """ML separations of the batches (rows) of ``counts``, in lockstep.

    model(s) takes a 1D array of separations and returns the expected
    count per channel, in count order and including any repetition factor,
    as one row per separation.  A 256-point scan brackets each batch's
    maximum of the Poisson log-likelihood sum(n_c ln N_c - N_c) (exact ties
    resolve toward the interval midpoint), and golden-section search
    refines it.  The scan evaluates the model and its logarithm once per
    point and scores all batches there with one matrix-vector product; the
    golden-section rounds evaluate them once per distinct abscissa (batches
    that share a bracket share abscissae, and so can different step
    sequences from one bracket), each round's new abscissae together, and
    score each round with one row-wise product.
    """
    counts = np.asarray(counts, dtype=float)
    if not np.all(np.any(counts > 0, axis=1)):
        raise ValueError("all counts are zero: separation not identifiable")
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not hi > lo:
        raise ValueError("search interval must be increasing")

    scan = np.linspace(lo, hi, _SCAN_POINTS)
    values = _scores(counts, *_log_terms(model, scan))

    # each batch's maximum nearest the midpoint, the first on equal distance,
    # bracketed by its neighbours (the interval ends beyond the first and last)
    peaks = values == values.max(axis=1, keepdims=True)
    best = np.where(peaks, np.abs(scan - 0.5 * (lo + hi)), np.inf).argmin(axis=1)
    edges = np.concatenate(([lo], scan, [hi]))
    b_lo, b_hi = edges[best], edges[best + 2]

    terms = {}

    def loglike(rows, x):
        new = list(dict.fromkeys(s for s in x if s not in terms))
        if new:
            terms.update(zip(new, zip(*_log_terms(model, new))))
        log_x, total_x = zip(*(terms[s] for s in x))
        return (np.einsum("ij,ij->i", counts[rows], np.stack(log_x))
                - np.array(total_x)).tolist()

    return golden_section_max_many(loglike, b_lo.tolist(), b_hi.tolist(), x_tol=1e-6)


def spade_count_model(exc, modes: int, x0: float = 0.0, g: float = 1.0,
                      kappa: float = 1.0):
    """Per-shot SPADE expectations [N_0, ..., N_modes] as a function of a
    vector of separations: one row per separation (negative ones clip to
    zero)."""

    def model(s_values) -> np.ndarray:
        s = np.maximum(np.asarray(s_values, dtype=float), 0.0)
        amps = image_amplitudes(exc, EmitterScene(s=s, x0=x0, g=g, kappa=kappa))
        return _spade_table(amps, modes)[0]

    return model


class BinnedImager:
    """Fixed 32x32 (by default) camera grid over the informative image region.

    The field of view spans 2.5 PSF widths beyond each emitter (the excluded
    tails carry < 1e-6 of the photons), keeping the bins fine enough that the
    discretized Fisher information stays within 2% of the continuum value —
    a wider view at the same bin count coarsens the bins and fails that
    contract.  Bin expectations are exact Gauss-Kronrod integrals of the
    intensity on a per-bin 15-node tensor rule.  Both emitters sit on y = 0,
    so the intensity is an x-profile times exp(-2 y^2) and the tensor
    rule factorizes: each model call integrates the x-profile over the
    x-bins (P_i) once, and ``expectations`` takes the outer product with
    y-bin weights W_j computed once at construction.  Because W_j does not
    depend on s, the y-bins carry no information on it: the x-bin column
    totals (``sum_over_y``) are a sufficient statistic, with expectations
    P_i sum_j W_j (``x_marginals``), and the Monte Carlo search scores
    them instead of every bin.  Construction verifies the 2% bound at
    domain_s and raises ValueError where the grid is too coarse for it.
    """

    _FOV_MARGIN = 2.5  # PSF widths beyond each emitter

    def __init__(self, exc, domain_s: float, nbins: int = 32, x0: float = 0.0,
                 g: float = 1.0, kappa: float = 1.0):
        self.exc = exc
        self.x0 = x0
        self.g = g
        self.kappa = kappa
        half = domain_s / 2.0 + self._FOV_MARGIN
        edges_x = np.linspace(x0 - half, x0 + half, nbins + 1)
        edges_y = np.linspace(-half, half, nbins + 1)
        half_x = 0.5 * (edges_x[1] - edges_x[0])
        half_y = 0.5 * (edges_y[1] - edges_y[0])
        mids_x = 0.5 * (edges_x[:-1] + edges_x[1:])
        mids_y = 0.5 * (edges_y[:-1] + edges_y[1:])
        self._nodes_x = mids_x[:, None] + half_x * _XK[None, :]
        self._weights_x = _WK * half_x
        nodes_y = mids_y[:, None] + half_y * _XK[None, :]
        # y-bin integrals of kappa * pref^2 * exp(-2 y^2), pref^2 = 2/pi
        self._weights_y = (kappa * (2.0 / math.pi) * np.exp(-2.0 * nodes_y**2)
                           @ (_WK * half_y))
        scene = EmitterScene(s=domain_s, x0=x0, g=g, kappa=kappa)
        continuum = fi_direct(image_amplitudes(exc, scene)).value
        binned = self.fisher_information(domain_s)
        if abs(binned - continuum) > _BIN_FI_REL_TOL * continuum:
            raise ValueError(
                f"BinnedImager: the {nbins}x{nbins}-bin DI Fisher information "
                f"at s={domain_s} deviates "
                f"{abs(binned - continuum) / continuum:.3%} from the "
                f"continuum value (limit {_BIN_FI_REL_TOL:.0%}); the bins "
                f"are too coarse for this separation")

    def _profile(self, s_values) -> np.ndarray:
        """x-bin integrals of the intensity's x-profile |a1 e1 + a2 e2|^2:
        one row of P_i per separation in the vector ``s_values`` (negative
        ones clip to zero)."""
        s = np.maximum(np.asarray(s_values, dtype=float), 0.0)
        amps = image_amplitudes(self.exc, EmitterScene(s=s, x0=self.x0, g=self.g,
                                                       kappa=self.kappa))
        # one entry per separation, broadcast against the (bins, nodes) grid
        a1, a2, x1, x2 = (np.reshape(v, (-1, 1, 1)) for v in (
            *amps.site_amplitudes, self.x0 - s / 2.0, self.x0 + s / 2.0))
        xx = self._nodes_x
        e1 = np.exp(-(xx - x1) ** 2)
        e2 = np.exp(-(xx - x2) ** 2)
        return np.abs(a1 * e1 + a2 * e2) ** 2 @ self._weights_x

    def expectations(self, s_values) -> np.ndarray:
        """Per-shot expected photon count in each bin (row-major),
        N_ij = P_i W_j, one row per separation in the vector ``s_values``
        (negative ones clip to zero)."""
        profile = self._profile(s_values)
        return (profile[:, :, None] * self._weights_y).reshape(
            profile.shape[0], profile.shape[1] * self._weights_y.size)

    def x_marginals(self, s_values) -> np.ndarray:
        """Per-shot expected photon count in each x-bin column, summed over
        the y-bins, P_i sum_j W_j: one row per separation."""
        return self._profile(s_values) * self._weights_y.sum()

    def sum_over_y(self, counts) -> np.ndarray:
        """Counts of each row-major batch (rows of ``counts``) summed over
        the y-bins: the x-bin column totals, whose expectation is
        ``x_marginals``."""
        counts = np.asarray(counts)
        return counts.reshape(len(counts), -1, self._weights_y.size).sum(axis=2)

    def fisher_information(self, s: float, h: float = 1e-4) -> float:
        """Discretized DI Fisher information at s via central differences."""
        e_mid, e_up, e_down = self.expectations([s, s + h, max(s - h, 0.0)])
        d_e = (e_up - e_down) / (h + min(h, s))
        mask = e_mid > 1e-15 * e_mid.max()
        return float(np.sum(d_e[mask] ** 2 / e_mid[mask]))


def run_experiment(model, true_s: float, mu: float, batches: int, seed: int,
                   search_interval, fisher_per_shot: float,
                   n_total: float = 0.0, method: str = "spade", *,
                   statistic=None) -> EstimationReport:
    """Simulate `batches` campaigns of mu shots each and compare the spread
    of the ML estimates against the Cramer-Rao bound 1/(mu F).

    model(s) takes a 1D array of separations and returns the per-shot
    expected count per channel, one row per separation.  Batch b draws its
    counts from the Philox stream of SeedSequence((seed, b)); the batches'
    counts form one integer array and their ML searches run in lockstep.

    ``statistic`` = (search_model, reduce) searches on a sufficient
    statistic of the counts: reduce maps the batches x channels counts to
    batches x statistics sums of Poisson counts, and search_model(s) gives
    their per-shot expectations.  The default (model, identity) searches on
    the counts themselves.  Each separation is evaluated once: the truth by
    model, then by search_model the 256 scan points in 16 calls of 16 and
    each golden-section round's new distinct abscissae in calls of at most
    16.
    """
    if batches < 2:
        raise ValueError("need at least two batches for a variance")
    if not fisher_per_shot > 0.0:
        raise ValueError("Fisher information must be positive for a CRB")
    search_model, reduce = statistic or (model, lambda counts: counts)

    expected = mu * np.asarray(model(np.array([float(true_s)])), dtype=float)[0]
    counts = np.stack([sample_counts(expected, np.random.SeedSequence((seed, b)))
                       for b in range(batches)])
    estimates = _ml_search(
        reduce(counts), lambda s: mu * np.asarray(search_model(s), dtype=float),
        search_interval)

    variance = float(np.var(np.asarray(estimates), ddof=1))
    crb = 1.0 / (mu * fisher_per_shot)
    return EstimationReport(
        true_s=true_s, estimates=estimates, empirical_variance=variance,
        crb=crb, ratio=variance / crb, mu=mu, seed=seed,
        n_total=n_total, method=method)
