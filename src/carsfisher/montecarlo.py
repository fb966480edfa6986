"""Monte Carlo verification of the Cramer-Rao chain.

Photon counts in each measured channel (a Hermite-Gauss mode for SPADE, a
camera column for direct imaging) are independent Poisson variables, so the
total over mu repetitions is itself Poisson with mean mu * N_c(s) and is a
sufficient statistic for s.  Each simulated batch therefore draws one
aggregate count per channel, runs maximum-likelihood estimation of the
separation, and the spread of the per-batch estimates is compared against
the Cramer-Rao bound 1/(mu F), with F = sum_c (dN_c/ds)^2 / N_c of the
same count model at the true separation (``fisher._channel_terms``).

Both count models (``spade_count_model`` and
``BinnedImager.expectations``) take a vector of separations and return
one row of per-channel expectations per separation, from one amplitude
record for the whole vector; with ``slope=True`` they also return the
rows' analytic s-derivatives.

All batches of a campaign are estimated in lockstep: their counts form one
batches x channels array, and the model and its logarithm are evaluated
once per scan point for every batch.  A secant search for the root of each
batch's Poisson score, built from the model's slopes, then refines the
scan's bracket; it makes one model pass per round for all batches still
refining, and the default campaigns finish in 3 (DI) and 4 (SPADE)
rounds.  The model
sees at most _MODEL_BLOCK = 64 separations per call, which bounds the size
of its work arrays: the 256-point scan takes 4 calls, and a secant round
one call per 64 new abscissae.  The scan scores every batch at every scan
point with one matrix product, and each secant round scores the batches
still refining with one row-wise product; each batch makes the search
steps it would make alone.

Direct imaging counts photons in the 32 x-bin columns of a camera
(``BinnedImager``), whose totals lose nothing, so SPADE and direct imaging
share one path: each draws and searches on the channels of its own model.

RNG is counter-based (Philox) with the seed recorded in every report: a
campaign draws all its counts in one call from the one stream of its seed,
batch after batch, so a fixed seed reproduces counts, estimates, and
ratios bit-for-bit, and the first B batches of a longer campaign are those
of a B-batch campaign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .excitation import EmitterScene, image_amplitudes
from .fisher import (_channel_terms, _di_coefficients, _di_products, _di_sides,
                     _spade_table, qfi_separation)
from .numerics import _WK, _XK, _ordered_sums

_LOG_FLOOR = 1e-300
_SCAN_POINTS = 256
_X_TOL = 1e-6  # width of the final ML bracket
# separations per model call: the half camera's work arrays then hold
# 64 x 240 nodes x 6 products x 8 B ~ 0.7 MB (with slopes)
_MODEL_BLOCK = 64
_BIN_FI_REL_TOL = 0.02
# the largest mean numpy's Poisson sampler draws from, its POISSON_LAM_MAX =
# int64 max - 10 sqrt(int64 max)
_POISSON_LAM_MAX = 9.223372006484771e18


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of a Monte Carlo estimation campaign.

    crb = 1/(mu F) for the per-shot Fisher information F of the model's
    channels at true_s, and ratio = empirical_variance / crb.
    """

    true_s: float
    estimates: list[float]
    empirical_variance: float
    crb: float
    ratio: float
    mu: float
    seed: int


def sample_counts(expected_per_channel, rng_seed) -> np.ndarray:
    """Independent Poisson draws, one per entry of ``expected_per_channel``
    (an array of any shape), as an integer array of its shape.  The entries
    are drawn in C order from the one Philox stream of ``rng_seed``, so a
    fixed seed reproduces them, and the first rows of a (batches, channels)
    array do not depend on how many rows follow."""
    expected = np.asarray(expected_per_channel, dtype=float)
    if np.any(expected < 0.0):
        raise ValueError("negative expected count")
    return np.random.Generator(np.random.Philox(rng_seed)).poisson(expected)


def _slope_fisher(model, s: float):
    """The count row N_c of a count model at the one separation s, and the
    per-shot Fisher information F = sum (dN_c/ds)^2 / N_c of its channels
    (``fisher._channel_terms``), from the model's one slope row there."""
    n, dn = (np.asarray(rows, dtype=float)[0]
             for rows in model(np.array([float(s)]), slope=True))
    return n, float(np.sum(_channel_terms(n, dn)))


def _model_rows(model, s_values, slope: bool = False):
    """model(s_values), or with ``slope`` the pair model(s_values,
    slope=True), from blocks of at most _MODEL_BLOCK separations per model
    call, concatenated."""
    blocks = []
    for start in range(0, len(s_values), _MODEL_BLOCK):
        block = np.asarray(s_values[start:start + _MODEL_BLOCK], dtype=float)
        blocks.append(model(block, slope=True) if slope else (model(block),))
    rows = [np.asarray(np.concatenate(part), dtype=float) for part in zip(*blocks)]
    return rows if slope else rows[0]


def _scores(counts, log_n, total) -> np.ndarray:
    """Poisson log-likelihoods sum(n_c ln N_c) - sum N of every batch (rows
    of ``counts``) at every separation (rows of ``log_n``, entries of
    ``total``): a batches x separations array from one matrix product.
    The first such product allocates an OpenBLAS work buffer, which raises
    the peak memory of a default DI campaign by at most 0.25 MB; the 256
    matrix-vector products that avoided it took 14 times as long (660
    against 48 us at 50 batches x 32 channels on a 2-core Xeon)."""
    return counts @ log_n.T - total


def _score_terms(model, s_values):
    """The per-separation parts of the Poisson score at each separation of
    ``s_values``: the rows N'_c / N_c (zero where N_c < _LOG_FLOOR, whose
    logarithm is floored and so does not move) and the totals sum N'_c,
    added left to right whatever the rows' memory layout."""
    n, dn = _model_rows(model, s_values, slope=True)
    ratio = np.zeros_like(dn)
    np.divide(dn, n, out=ratio, where=n >= _LOG_FLOOR)
    return ratio, _ordered_sums(dn)


def _pole_secant(a, b, score_a, score_b, pole):
    """The secant step in u = s^2 on an interval from near s = 0: the root in
    each bracket (a, b) of R/u + p + q u, the form of the score in u,
    S(s) / (2 s), near s = 0 (the counts are even in s), through the scores
    S at both ends (s = 0 taken at _X_TOL/2).  R is ``pole``, sum(n_c k_c)
    over the channels that vanish at s = 0 as u^k_c.  A degenerate step is
    NaN or infinite, which the caller's clamp moves into the bracket."""
    a = np.maximum(a, 0.5 * _X_TOL)
    u_a, u_b = a * a, b * b
    k_a = score_a / (2.0 * a) - pole / u_a
    k_b = score_b / (2.0 * b) - pole / u_b
    q = (k_b - k_a) / (u_b - u_a)
    p = k_a - q * u_a
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(p * p - 4.0 * q * pole)
        u = np.where(p < 0.0, 2.0 * pole / (d - p), -(p + d) / (2.0 * q))
        return np.sqrt(u)


def _ml_search(counts, model, search_interval) -> list[float]:
    """ML separations of the batches (rows) of ``counts``, in lockstep.

    model(s) takes a 1D array of separations and returns the expected
    count per channel, in count order and including any repetition factor,
    as one row per separation; model(s, slope=True) returns those rows and
    their s-derivatives.  A 256-point scan brackets each batch's maximum of
    the Poisson log-likelihood sum(n_c ln N_c - N_c) (exact ties resolve
    toward the interval midpoint), scoring all batches at all scan points
    with one matrix product (``_scores``).  The totals sum N_c and
    sum N'_c add each row left to right, so the estimates do not depend
    on the rows' memory layout or on how many separations share a call.

    A safeguarded secant search (regula falsi with the Illinois rule) then
    finds the root of each batch's score S(s) = sum(n_c N'_c / N_c) -
    sum(N'_c) in its bracket.  The first round scores both ends of every
    bracket; a batch whose score does not change sign there returns the end
    its likelihood rises toward.  Each later round scores one secant point
    per batch still refining, clamped at least _X_TOL/2 inside its bracket,
    and replaces the bracket end of the same sign; when the same end moves
    in two rounds running, the score kept at the other end is halved, so
    that end moves next.  A batch stops when its bracket is at most
    _X_TOL = 1e-6 wide and returns the midpoint, within _X_TOL/2 of the
    root.  Every round evaluates the model once per distinct abscissa
    (batches that share a bracket end share it) and scores its batches
    with one row-wise product.

    The secant runs in s, where a bracket away from s = 0 sees a nearly
    linear score, and in u = s^2 (``_pole_secant``) on an interval that
    starts within one scan step, (hi - lo)/255, of s = 0.  The models clip
    s < 0 to 0, so the interval must start at s >= 0.
    """
    counts = np.asarray(counts, dtype=float)
    if not np.all(np.any(counts > 0, axis=1)):
        raise ValueError("all counts are zero: separation not identifiable")
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not hi > lo:
        raise ValueError("search interval must be increasing")
    if lo < 0.0:
        raise ValueError("search interval must start at s >= 0")

    scan = np.linspace(lo, hi, _SCAN_POINTS)
    n = _model_rows(model, scan)
    values = _scores(counts, np.log(np.maximum(n, _LOG_FLOOR)), _ordered_sums(n))

    # each batch's maximum nearest the midpoint, the first on equal distance,
    # bracketed by its neighbours (the interval ends beyond the first and last)
    peaks = values == values.max(axis=1, keepdims=True)
    best = np.where(peaks, np.abs(scan - 0.5 * (lo + hi)), np.inf).argmin(axis=1)
    edges = np.concatenate(([lo], scan, [hi]))
    a, b = edges[best], edges[best + 2]

    terms = {}

    def score(rows, x):
        # s = 0 is scored at s = _X_TOL/2, where the score in u is finite
        x = np.maximum(x, 0.5 * _X_TOL)
        new = list(dict.fromkeys(s for s in x.tolist() if s not in terms))
        if new:
            terms.update(zip(new, zip(*_score_terms(model, new))))
        ratio_x, total_x = zip(*(terms[s] for s in x.tolist()))
        values = (np.einsum("ij,ij->i", counts[rows], np.stack(ratio_x))
                  - np.array(total_x))
        # a NaN score would stall the bracket, an infinite one mislead it
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError("count model gives a non-finite likelihood score "
                             f"at s={float(x[~finite][0])!r}")
        return values

    # an interval from within one scan step of s = 0 also scores s = 0 (at
    # _X_TOL/2), where (s/2) N'_c / N_c rounds to each channel's order k_c in u
    in_u = lo <= (hi - lo) / (_SCAN_POINTS - 1)
    batches = np.arange(len(counts))
    extra = int(in_u)
    both = score(np.concatenate((batches, batches, batches[:extra])),
                 np.concatenate((a, b, np.zeros(extra))))
    s_a, s_b = both[:len(counts)], both[len(counts):2 * len(counts)]
    if in_u:
        pole = counts @ np.rint(0.25 * _X_TOL * terms[0.5 * _X_TOL][0])
    refine = (s_a > 0.0) & (s_b < 0.0)
    estimates = np.where(s_a > 0.0, b, a)
    # the end each batch moved last round: +1 the lower, -1 the upper, 0 none
    moved = np.zeros(len(counts))
    active = np.flatnonzero(refine & (b - a > _X_TOL))
    while active.size:
        a_i, b_i, sa_i, sb_i = a[active], b[active], s_a[active], s_b[active]
        if in_u:
            x = _pole_secant(a_i, b_i, sa_i, sb_i, pole[active])
        else:
            x = a_i + (b_i - a_i) * (sa_i / (sa_i - sb_i))
        x = np.fmin(np.fmax(x, a_i + 0.5 * _X_TOL), b_i - 0.5 * _X_TOL)
        sx = score(active, x)
        up, down = sx > 0.0, sx < 0.0
        last = moved[active]
        s_a[active] = np.where(up, sx, np.where(down & (last < 0.0), 0.5 * sa_i, sa_i))
        s_b[active] = np.where(down, sx, np.where(up & (last > 0.0), 0.5 * sb_i, sb_i))
        # a zero score closes the bracket on its root
        a[active] = np.where(sx >= 0.0, x, a_i)
        b[active] = np.where(sx <= 0.0, x, b_i)
        moved[active] = np.where(up, 1.0, -1.0)
        active = active[b[active] - a[active] > _X_TOL]
    return np.where(refine, 0.5 * (a + b), estimates).tolist()


def spade_count_model(exc, modes: int, x0: float = 0.0, g: float = 1.0,
                      kappa: float = 1.0):
    """Per-shot SPADE expectations [N_0, ..., N_modes] as a function of a
    vector of separations: one row per separation (negative ones clip to
    zero).  With ``slope=True`` the model returns the rows and their
    s-derivatives, which vanish at s = 0 (the counts are even in s) and so
    wherever the separation clips."""

    def model(s_values, slope: bool = False):
        s = np.maximum(np.asarray(s_values, dtype=float), 0.0)
        amps = image_amplitudes(exc, EmitterScene(s=s, x0=x0, g=g, kappa=kappa))
        n, dn = _spade_table(amps, modes)
        return (n, dn) if slope else n

    return model


class BinnedImager:
    """A 32-column camera over the informative image region.

    The field of view spans 2.5 PSF widths beyond each emitter in x and y
    (the excluded tails carry < 1e-6 of the photons).  Its 32 x-bins keep
    the binned Fisher information within 2% of the continuum value; a
    wider view coarsens them and fails that contract.  The camera records
    each x-bin column's photon count over the view's whole y-extent, which
    loses nothing: both emitters sit on y = 0, so the intensity is an
    x-profile times exp(-2 y^2), a 2D camera's bins would expect
    N_ij(s) = P_i(s) W_j with y-bin weights W_j free of s, and its column
    totals are a sufficient statistic for s.  Their expectations are
    N_i = P_i(s) Y, with the y-integral Y = kappa sqrt(2/pi)
    erf(sqrt(2) half) in closed form, and P_i the x-profile on a 15-node
    Gauss-Kronrod rule per bin.  Its Fisher information sums
    (dN_i/ds)^2 / N_i over the columns (``_slope_fisher``), integrating
    the profile's analytic s-derivative on the same nodes.  Construction
    verifies the 2% bound at domain_s against the continuum value over
    the view, QFI - L_view (``_view_fisher``): the closed-form QFI less
    the phase loss summed on the same nodes, with no quadrature of its
    own.  It raises ValueError where the bins are too coarse for it.

    It is a half camera: the view is mirror-symmetric about x0, so only
    the nodes of the 16 columns right of x0, at offsets u, are evaluated.
    Their bin sums of F^2, D^2 and FD (``fisher._di_products``), and for
    slopes their moments, give every column: a right column and its
    mirror image on the left (at -u, in reverse order) apply each side's
    own coefficients (``fisher._di_coefficients``) to the same sums.  So
    _NBINS must stay even.
    """

    _FOV_MARGIN = 2.5  # PSF widths beyond each emitter
    _NBINS = 32

    def __init__(self, exc, domain_s: float, x0: float = 0.0, g: float = 1.0,
                 kappa: float = 1.0):
        self.exc = exc
        self.x0 = x0
        self.g = g
        self.kappa = kappa
        half = domain_s / 2.0 + self._FOV_MARGIN
        # the right half of the view, offsets u > 0 from x0; the left half
        # is its mirror image
        edges = np.linspace(0.0, half, self._NBINS // 2 + 1)
        half_bin = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        self._nodes_u = mids[:, None] + half_bin * _XK[None, :]
        # x-bin rule times the y-integral of kappa * (2/pi) * exp(-2 y^2)
        column = kappa * math.sqrt(2.0 / math.pi) * math.erf(math.sqrt(2.0) * half)
        self._weights_x = _WK * half_bin * column
        amps = image_amplitudes(exc, EmitterScene(s=domain_s, x0=x0, g=g, kappa=kappa))
        continuum = self._view_fisher(amps)
        binned = _slope_fisher(self.expectations, domain_s)[1]
        if abs(binned - continuum) > _BIN_FI_REL_TOL * continuum:
            raise ValueError(
                f"BinnedImager: the {self._NBINS}-column DI Fisher information "
                f"at s={domain_s} deviates "
                f"{abs(binned - continuum) / continuum:.3%} from the "
                f"continuum value (limit {_BIN_FI_REL_TOL:.0%}); the bins "
                f"are too coarse for this separation")

    def _view_fisher(self, amps) -> float:
        """The continuum DI Fisher information over the view, QFI - L_view,
        for the one scene of ``amps``: the closed-form QFI less the phase
        loss J^2 / I (``fisher.fi_direct``'s integrand) summed on the
        camera's own nodes and weights.  It leaves out only the phase loss
        outside the view, so it is at least DI up to the node rule's
        error, and exactly the QFI where J vanishes."""
        products = _di_products(self._nodes_u.reshape(-1, 1), amps.s, moments=True)
        terms = _channel_terms(*_di_sides(_di_coefficients(amps, phase=True), products))
        loss = float(np.sum(terms.reshape(2, *self._nodes_u.shape) @ self._weights_x))
        return qfi_separation(amps).value - loss

    def expectations(self, s_values, slope: bool = False):
        """Per-shot expected photon count in each of the 32 columns, one
        row per separation in the vector ``s_values`` (negative ones clip
        to zero).  With ``slope=True``, the rows and their s-derivatives
        from the analytic profile derivative, which vanish at s = 0 (the
        counts are even in s) and so wherever the separation clips."""
        s = np.maximum(np.asarray(s_values, dtype=float), 0.0)
        amps = image_amplitudes(self.exc, EmitterScene(s=s, x0=self.x0, g=self.g,
                                                       kappa=self.kappa))
        # bin sums of the products on the right half's (bins, nodes) grid,
        # summed with one row per separation (the row sums then do not
        # depend on the number of rows) and laid out with one column each
        sums = _di_products(self._nodes_u, s[:, None, None], slope) @ self._weights_x
        sides = _di_sides(_di_coefficients(amps, slope),
                          np.ascontiguousarray(sums.transpose(0, 2, 1)))
        # the right half's columns run outward from x0, the left half's
        # mirrored columns inward to it; one row per separation
        rows = [np.concatenate((left[::-1].T, right.T), axis=1)
                for right, left in (sides if slope else (sides,))]
        return tuple(rows) if slope else rows[0]


def run_experiment(model, true_s: float, mu: float, batches: int, seed: int,
                   search_interval) -> EstimationReport:
    """Simulate `batches` campaigns of mu shots each and compare the spread
    of the ML estimates against the Cramer-Rao bound 1/(mu F).

    model(s) takes a 1D array of separations and returns the per-shot
    expected count per channel, one row per separation; model(s,
    slope=True) returns those rows and their s-derivatives.  Both are
    scaled by mu for the search.  The bound comes from the model itself:
    one slope row at the truth gives the mean counts to draw from and the
    per-shot F = sum (dN_c/ds)^2 / N_c of its channels
    (``_slope_fisher``), and a vanishing F raises ValueError.
    The whole campaign's counts are one (batches, channels) integer array,
    drawn by ``sample_counts`` in one call from the Philox stream of
    ``seed``, row by row; a batch's counts do not depend on how many
    batches follow, and the batches' ML searches run in lockstep.  The
    count rows of each scan point are evaluated once, the 256 of them in
    4 calls of _MODEL_BLOCK = 64, and so are the rows with slopes: each
    secant round's new distinct abscissae in calls of at most 64.  mu must
    be positive and finite, with every expected count mu N_c within the
    Poisson sampler's limit, and true_s finite and >= 0; a violation
    raises ValueError naming it.  The report holds only what the campaign
    read and produced (the ``simulate`` command adds n_total and method).
    """
    if batches < 2:
        raise ValueError("need at least two batches for a variance")
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
    if not (math.isfinite(true_s) and true_s >= 0.0):
        raise ValueError(f"true_s must be finite and >= 0, got {true_s!r}")

    n, fisher = _slope_fisher(model, true_s)
    if not fisher > 0.0:
        raise ValueError("Fisher information vanishes: separation not "
                         "identifiable at this configuration")
    if np.any(n > _POISSON_LAM_MAX / mu):
        raise ValueError(f"mu={mu!r} gives an expected count of "
                         f"{mu * float(n.max()):.3g} in a channel, above the "
                         f"Poisson sampler's limit of {_POISSON_LAM_MAX:.3g}")
    expected = mu * n
    counts = sample_counts(np.broadcast_to(expected, (batches, expected.size)), seed)

    def scaled(s_values, slope: bool = False):
        if not slope:
            return mu * np.asarray(model(s_values), dtype=float)
        n, dn = model(s_values, slope=True)
        return mu * np.asarray(n, dtype=float), mu * np.asarray(dn, dtype=float)

    estimates = _ml_search(counts, scaled, search_interval)

    variance = float(np.var(np.asarray(estimates), ddof=1))
    crb = 1.0 / (mu * fisher)
    return EstimationReport(
        true_s=true_s, estimates=estimates, empirical_variance=variance,
        crb=crb, ratio=variance / crb, mu=mu, seed=seed)
