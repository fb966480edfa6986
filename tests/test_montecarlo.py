"""Poisson sampling, ML estimation, and Cramer-Rao consistency checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carsfisher import (
    BinnedImager,
    EmitterScene,
    PlaneWaveExcitation,
    VortexExcitation,
    fi_direct,
    fi_spade,
    image_amplitudes,
    qfi_separation,
    run_experiment,
    sample_counts,
    spade_count_model,
)

import carsfisher.montecarlo as montecarlo
from carsfisher.fisher import _spade_table
from oracles import (_ml_brackets, camera_columns_mpmath, ml_reference, ml_score_roots,
                     plane_field_mpmath, plane_sites, vortex_field_mpmath, vortex_sites)

PLANE_K2 = PlaneWaveExcitation(ktilde=2.0)


def _amps(exc, s):
    return image_amplitudes(exc, EmitterScene(s=s))


def _binned_fi(imager, s):
    # the camera's Fisher information, as run_experiment takes it for the CRB
    return montecarlo._slope_fisher(imager.expectations, s)[1]


def test_sample_counts_returns_nonnegative_integers():
    counts = sample_counts([0.0, 0.5, 3.0, 40.0], 5)
    assert counts.shape == (4,)
    assert counts.dtype.kind == "i"
    assert counts.min() >= 0
    assert counts[0] == 0


def test_sample_counts_poisson_mean():
    expected = np.full(100_000, 4.0)
    counts = sample_counts(expected, 123)
    # mean of 1e5 Poisson(4) draws: sigma = 2/sqrt(1e5)
    assert abs(counts.mean() - 4.0) < 4.0 * 2.0 / math.sqrt(100_000.0)
    assert counts.min() >= 0


def test_sample_counts_reproducible():
    expected = [0.5, 2.0, 7.0]
    a = sample_counts(expected, 42).tolist()
    b = sample_counts(expected, 42).tolist()
    c = sample_counts(expected, 43).tolist()
    assert a == b
    assert a != c


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=40),
       st.integers(0, 2**64 - 1), st.integers(1, 40))
def test_sample_counts_reproduces_itself_per_seed(expected, seed, batches):
    # one channel row, and run_experiment's (batches, channels) campaign,
    # whose rows are drawn one after another from the seed's one stream
    campaign = np.broadcast_to(expected, (batches, len(expected)))
    for means in (expected, campaign):
        counts = sample_counts(means, seed)
        assert counts.dtype.kind == "i"
        assert counts.shape == np.shape(means)
        assert counts.min() >= 0
        assert not np.any(counts[np.asarray(means) == 0.0])
        assert counts.tolist() == sample_counts(means, seed).tolist()
    rng = np.random.Generator(np.random.Philox(seed))
    rows = [rng.poisson(expected).tolist() for _ in range(batches)]
    assert sample_counts(campaign, seed).tolist() == rows
    assert sample_counts(expected, seed).tolist() == rows[0]


def test_sample_counts_rejects_negative_expectation():
    with pytest.raises(ValueError):
        sample_counts([1.0, -0.1], 7)
    # anywhere in a (batches, channels) array
    for index in ((0, 0), (1, 2)):
        expected = np.array([[0.5, 2.0, 7.0], [30.0, 0.0, 4.0]])
        expected[index] = -1e-300
        with pytest.raises(ValueError, match="negative expected count"):
            sample_counts(expected, 9)


def test_run_experiment_draws_its_campaign_in_one_call(monkeypatch):
    # one sample_counts call for all batches, with a (batches, channels)
    # array of the mean counts at the truth
    model = spade_count_model(PLANE_K2, 10)
    means = []

    def counted(expected, rng_seed):
        means.append(np.array(expected))
        return sample_counts(expected, rng_seed)

    monkeypatch.setattr(montecarlo, "sample_counts", counted)
    run_experiment(model, 1.0, 1e4, 7, 11, (0.5, 1.5))
    assert len(means) == 1
    assert means[0].shape == (7, 11)
    assert np.all(means[0] == 1e4 * model([1.0])[0])


@pytest.mark.parametrize("measurement", ["spade", "di"])
def test_a_longer_campaign_begins_with_the_shorter_one(measurement):
    # the first B batches of a longer campaign draw, and so estimate, what
    # a B-batch campaign does
    model = spade_count_model(PLANE_K2, 10) if measurement == "spade" \
        else _di_model()
    short = run_experiment(model, 1.0, 1e4, 20, 20260817, (0.5, 1.5))
    long = run_experiment(model, 1.0, 1e4, 50, 20260817, (0.5, 1.5))
    assert long.estimates[:20] == short.estimates


def _times(mu, model):
    # the count model of mu shots: its rows, and with slope=True its rows
    # and their slopes, scaled by mu
    def scaled(s_values, slope=False):
        if slope:
            n, dn = model(s_values, slope=True)
            return mu * n, mu * dn
        return mu * model(s_values)

    return scaled


def _ml_alone(counts, model, interval):
    # the maximum-likelihood search for one batch of counts
    return montecarlo._ml_search(np.asarray(counts)[None, :], model, interval)[0]


@pytest.mark.parametrize("measurement", ["spade", "di"])
def test_each_batch_estimate_is_its_search_alone_within_x_tol(measurement):
    # the lockstep search scores the scan with one matrix product and each
    # secant round with one row-wise product, a batch alone with its own;
    # their last bits may differ, the estimates by no more than the search
    # tolerance
    model = spade_count_model(PLANE_K2, 10) if measurement == "spade" \
        else _di_model()
    mu, interval = 1e4, (0.5, 1.5)
    expected = mu * model([1.0])[0]
    counts = sample_counts(np.broadcast_to(expected, (12, expected.size)), 5)
    together = montecarlo._ml_search(counts, _times(mu, model), interval)
    for row, estimate in zip(counts, together):
        alone = _ml_alone(row, _times(mu, model), interval)
        assert abs(alone - estimate) <= 1e-6


def test_scan_scores_match_a_float64_loop():
    rng = np.random.default_rng(3)
    counts = rng.poisson(40.0, size=(6, 64)).astype(float)
    expected = rng.uniform(1e-3, 200.0, size=(5, 64))
    log_n, total = np.log(expected), expected.sum(axis=1)
    scores = montecarlo._scores(counts, log_n, total)
    assert scores.shape == (6, 5)
    for b, row in enumerate(counts.tolist()):
        for j, logs in enumerate(log_n.tolist()):
            acc = 0.0
            for n_c, log_c in zip(row, logs):
                acc += n_c * log_c
            assert scores[b, j] == pytest.approx(acc - total[j], rel=1e-12)


def test_ml_estimate_validation():
    with pytest.raises(ValueError, match="identifiable"):
        _ml_alone(np.array([0]), lambda s: np.asarray(s)[:, None], (0.1, 1.0))
    with pytest.raises(ValueError, match="increasing"):
        _ml_alone(np.array([3]), lambda s: np.asarray(s)[:, None], (1.0, 0.5))
    with pytest.raises(ValueError, match="s >= 0"):
        _ml_alone(np.array([3]), lambda s: np.asarray(s)[:, None], (-0.1, 0.5))


def test_ml_search_rejects_a_non_finite_score():
    # a NaN score would stall the secant bracket; the search raises instead
    model = _times(1e4, spade_count_model(PLANE_K2, 10))

    def broken(s_values, slope=False):
        if not slope:
            return model(s_values)
        n, dn = model(s_values, slope=True)
        return n, np.where(np.asarray(s_values)[:, None] > 1.0, np.nan, dn)

    counts = sample_counts(model([1.0])[0], 3)
    with pytest.raises(ValueError, match=r"non-finite likelihood score at s=1\.00196"):
        _ml_alone(counts, broken, (0.5, 1.5))


def test_ml_estimate_recovers_truth_from_noise_free_counts():
    mu = 1e8
    model = spade_count_model(PLANE_K2, 10)
    counts = np.round(mu * model([1.0])[0]).astype(int)
    est = _ml_alone(counts, _times(mu, model), (0.5, 1.5))
    assert est == pytest.approx(1.0, abs=1e-4)


def test_spade_count_model_matches_mode_expectations():
    # one row per separation, each the per-mode value bit for bit
    model = spade_count_model(PLANE_K2, 12, kappa=0.8)
    s_values = [0.9, 0.0, 1e-8, 2.5]
    got = model(s_values)
    assert got.shape == (4, 13)
    for row, s in zip(got, s_values):
        amps = image_amplitudes(PLANE_K2, EmitterScene(s=s, kappa=0.8))
        assert row.tolist() == _spade_table(amps, 12)[0][0].tolist()
    # negative separations clip to zero
    assert model([-0.3]).tolist() == model([0.0]).tolist()


@pytest.mark.parametrize("measurement", ["spade", "di"])
def test_count_model_rows_do_not_depend_on_the_batch(measurement):
    exc = VortexExcitation(a=1.2, psi=0.3)
    if measurement == "spade":
        model = spade_count_model(exc, 10, x0=0.7)
    else:
        model = BinnedImager(exc, domain_s=1.0, x0=0.7).expectations
    # more separations than two of the search's model blocks
    s_values = np.linspace(0.0, 1.6, 2 * montecarlo._MODEL_BLOCK + 3)
    block = model(s_values)
    n_block, dn_block = model(s_values, slope=True)
    assert block.shape[0] == dn_block.shape[0] == len(s_values)
    assert n_block.tolist() == block.tolist()
    for row, slope_row, s in zip(block, dn_block, s_values):
        n, dn = model([s], slope=True)
        assert row.tolist() == model([s])[0].tolist() == n[0].tolist()
        assert slope_row.tolist() == dn[0].tolist()


@pytest.mark.parametrize("measurement", ["spade", "di"])
@pytest.mark.parametrize("interval", [(0.5, 1.5), (0.0, 1.5)])
def test_estimates_do_not_depend_on_the_model_block(monkeypatch, measurement,
                                                    interval):
    # the model's rows do not depend on how many separations share a call,
    # and their totals add left to right whatever the rows' layout (the
    # camera's rows are column-major from a call of two or more
    # separations), so the estimates do not either, bit for bit
    model = spade_count_model(PLANE_K2, 10) if measurement == "spade" \
        else _di_model()
    blocked = run_experiment(model, 1.0, 1e4, 50, 20260817, interval)
    monkeypatch.setattr(montecarlo, "_MODEL_BLOCK", 1)
    alone = run_experiment(model, 1.0, 1e4, 50, 20260817, interval)
    assert alone.estimates == blocked.estimates
    assert alone.ratio == blocked.ratio


def test_binned_imager_conserves_photons():
    imager = BinnedImager(PLANE_K2, domain_s=1.0)
    assert imager.expectations([1.0, 0.4]).shape == (2, 32)
    expectations = imager.expectations([1.0])[0]
    n_total = _amps(PLANE_K2, 1.0).n_total
    assert expectations.sum() == pytest.approx(n_total, rel=1e-5)
    assert expectations.min() >= 0.0
    assert expectations.size == 32


def test_binned_imager_tracks_continuum_fisher():
    imager = BinnedImager(PLANE_K2, domain_s=1.0)
    binned = _binned_fi(imager, 1.0)
    continuum = fi_direct(_amps(PLANE_K2, 1.0)).value
    assert abs(binned - continuum) / continuum < 0.02


@pytest.mark.parametrize("exc", [
    pytest.param(PLANE_K2, id="plane"),
    pytest.param(VortexExcitation(a=1.2, psi=0.3), id="vortex"),
])
@pytest.mark.parametrize("s", [0.4, 1.0, 1.6])
def test_binned_fisher_information_equals_richardson_difference(exc, s):
    # the analytic column derivatives against a Richardson-extrapolated
    # central difference of the column expectations (error O(h^4) ~ 1e-13)
    imager = BinnedImager(exc, domain_s=1.0, x0=0.7)

    def central(h):
        up, down = imager.expectations([s + h, s - h])
        return (up - down) / (2.0 * h)

    slope = (4.0 * central(5e-4) - central(1e-3)) / 3.0
    want = float(np.sum(slope ** 2 / imager.expectations([s])[0]))
    assert _binned_fi(imager, s) == pytest.approx(want, rel=1e-10)


def test_binned_imager_rejects_too_coarse_grid():
    # the camera widens its field of view with the separation, so its
    # bins outgrow the 2% bound above s ~ 3.07 (plane kt = 2)
    with pytest.raises(ValueError, match=r"at s=3\.25 deviates 2\.1"):
        BinnedImager(PLANE_K2, domain_s=3.25)


def test_binned_imager_builds_the_vortex_camera_at_s_5_5():
    # against converged values the 32 columns are within 0.03% of the
    # continuum out to s = 8 (vortex a = 1/sqrt(2))
    imager = BinnedImager(VortexExcitation(a=math.sqrt(0.5)), domain_s=5.5)
    assert _binned_fi(imager, 5.5) > 0.0


def test_binned_imager_builds_the_vortex_camera_at_s_6_5():
    # the 2% check compares against QFI - L_view, which is the closed-form
    # QFI here (the phase-loss numerator J is 0 at psi = 0)
    BinnedImager(VortexExcitation(a=math.sqrt(0.5)), domain_s=6.5)


@pytest.mark.parametrize("s", [6.9, 8.0])
def test_binned_imager_builds_the_dark_vortex_camera(s):
    # in the dark vortex tail, where the QFI is far below 1, the binned
    # value still tracks it
    exc = VortexExcitation(a=math.sqrt(0.5))
    imager = BinnedImager(exc, domain_s=s)
    qfi = qfi_separation(image_amplitudes(exc, EmitterScene(s=s))).value
    assert _binned_fi(imager, s) == pytest.approx(qfi, rel=0.02)


@pytest.mark.parametrize("ktilde,s,builds", [
    (2.0, 3.069, True), (2.0, 3.0705, False), (1.0, 1.8725, True), (1.0, 1.873, False),
])
def test_binned_imager_refusal_edges(ktilde, s, builds):
    # the largest default-plane separations the 32 columns hold to 2%
    exc = PlaneWaveExcitation(ktilde=ktilde)
    if builds:
        BinnedImager(exc, domain_s=s)
    else:
        with pytest.raises(ValueError, match="from the continuum value"):
            BinnedImager(exc, domain_s=s)


@pytest.mark.parametrize("x0", [0.0, 0.7])
@pytest.mark.parametrize("exc", [
    *(pytest.param(PlaneWaveExcitation(ktilde=k), id=f"plane-{k}") for k in (0, 1, 2, 4, 8)),
    *(pytest.param(VortexExcitation(a=a, psi=psi), id=f"vortex-{a:.3g}-{psi}")
      for a, psi in ((math.sqrt(0.5), 0.0), (math.sqrt(0.5), 0.3), (1.2, 0.3), (0.5, 0.1))),
])
def test_binned_imager_reference_is_di_over_its_view(monkeypatch, exc, x0):
    # the 2% check's reference, QFI - L_view, leaves out only the phase loss
    # outside the view, so it lies at or above converged DI (up to the node
    # rule's error), and is the QFI bit for bit where every amplitude is
    # real; the check is lifted so that refused cameras build too
    monkeypatch.setattr(montecarlo, "_BIN_FI_REL_TOL", math.inf)
    real = getattr(exc, "ktilde", None) == 0.0 or getattr(exc, "psi", None) == 0.0
    for s in (1e-6, 1e-3, 0.05, 0.5, 1.0, 2.0, 3.0, 5.5, 8.0):
        amps = image_amplitudes(exc, EmitterScene(s=s, x0=x0))
        reference = BinnedImager(exc, domain_s=s, x0=x0)._view_fisher(amps)
        di = fi_direct(amps, abs_tol=1e-13).value
        if real:
            assert reference == di
        else:
            assert -2e-5 <= (reference - di) / di <= 2e-3


@pytest.mark.parametrize("exc,sites", [
    pytest.param(PLANE_K2, plane_sites(2.0), id="plane"),
    pytest.param(VortexExcitation(a=1.2, psi=0.3), vortex_sites(1.2, 0.3), id="vortex"),
])
def test_binned_imager_matches_full_tensor_rule(exc, sites):
    # every bin of a 32x32 camera integrated over the full 15x15
    # Gauss-Legendre tensor grid of the 2D intensity, without using the
    # y-separability; the camera's columns are their sums over y
    domain_s, x0, s, nbins = 1.0, 0.7, 0.9, 32
    imager = BinnedImager(exc, domain_s=domain_s, x0=x0)
    half = domain_s / 2.0 + 2.5
    edges_x = np.linspace(x0 - half, x0 + half, nbins + 1)
    edges_y = np.linspace(-half, half, nbins + 1)
    nodes, weights = np.polynomial.legendre.leggauss(15)
    a1, a2 = sites(s, x0)
    want = np.empty((nbins, nbins))
    for i in range(nbins):
        hx = 0.5 * (edges_x[i + 1] - edges_x[i])
        xs = 0.5 * (edges_x[i] + edges_x[i + 1]) + hx * nodes
        for j in range(nbins):
            hy = 0.5 * (edges_y[j + 1] - edges_y[j])
            ys = 0.5 * (edges_y[j] + edges_y[j + 1]) + hy * nodes
            xx, yy = np.meshgrid(xs, ys, indexing="ij")
            u1 = math.sqrt(2.0 / math.pi) * np.exp(-((xx - x0 + s / 2.0) ** 2 + yy**2))
            u2 = math.sqrt(2.0 / math.pi) * np.exp(-((xx - x0 - s / 2.0) ** 2 + yy**2))
            intensity = np.abs(a1 * u1 + a2 * u2) ** 2
            want[i, j] = hx * hy * weights @ intensity @ weights
    np.testing.assert_allclose(imager.expectations([s])[0], want.sum(axis=1),
                               rtol=1e-12)


def _assert_camera_matches_mpmath(imager, field, s):
    # the half camera's right columns at x0 + u, and the left ones at
    # x0 - u in mirrored order, each within 1e-13 of its 40-digit value
    u = imager._nodes_u
    nodes = imager.x0 + np.concatenate((-u[::-1], u))
    want_n, want_dn = camera_columns_mpmath(field, s, imager.x0, nodes, imager._weights_x)
    n, dn = (row[0] for row in imager.expectations([s], slope=True))
    np.testing.assert_allclose(n, want_n, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(dn, want_dn, rtol=1e-13, atol=0.0)
    assert imager.expectations([s])[0].tolist() == n.tolist()


@pytest.mark.parametrize("exc,field", [
    pytest.param(PLANE_K2, lambda: plane_field_mpmath(2.0), id="plane"),
    pytest.param(VortexExcitation(a=math.sqrt(0.5)),
                 lambda: vortex_field_mpmath(math.sqrt(0.5), 0.0), id="vortex"),
])
@pytest.mark.parametrize("s", [5e-7, 1e-5, 1e-3, 0.7])
def test_camera_columns_against_mpmath(exc, field, s):
    # every column and column slope on the camera's own nodes and weights.
    # At s = 5e-7, |a1 e1 + a2 e2|^2 taken in complex arithmetic is ~1e-9
    # off in the dark vortex's central columns, where e1 - e2 cancels
    pytest.importorskip("mpmath")
    _assert_camera_matches_mpmath(BinnedImager(exc, domain_s=1.0), field(), s)


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_camera_columns_of_a_dark_site_against_mpmath(s):
    # site 1 on the vortex axis (x0 = s/2): left of x0 the only light is
    # site 2's far tail, ~1e-17 of the brightest column at s = 3, which a
    # split of the profile into mirror-even and odd parts loses
    pytest.importorskip("mpmath")
    imager = BinnedImager(VortexExcitation(a=1.0), domain_s=1.0, x0=s / 2.0)
    _assert_camera_matches_mpmath(imager, vortex_field_mpmath(1.0, 0.0), s)


def test_run_experiment_validation():
    model = spade_count_model(PLANE_K2, 10)
    with pytest.raises(ValueError, match="batches"):
        run_experiment(model, 1.0, 1e4, 1, 7, (0.5, 1.5))
    # every slope vanishes at s = 0, and with them the Fisher information
    with pytest.raises(ValueError, match="not identifiable"):
        run_experiment(model, 0.0, 1e4, 10, 7, (0.0, 1.5))
    for mu in (0.0, -5.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^mu must be positive and finite, got "):
            run_experiment(model, 1.0, mu, 10, 7, (0.5, 1.5))
    # the default scene's brightest channel expects 0.909 photons per shot
    with pytest.raises(ValueError, match=r"^mu=1e\+300 gives an expected count of "
                                         r"9\.09e\+299 in a channel, above the "
                                         r"Poisson sampler's limit of 9\.22e\+18$"):
        run_experiment(model, 1.0, 1e300, 10, 7, (0.5, 1.5))

    def unreachable(s_values, slope=False):
        raise AssertionError("the model is not called on an invalid true_s")

    for true_s in (-1.0, -1e-300, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^true_s must be finite and >= 0, got "):
            run_experiment(unreachable, true_s, 1e4, 10, 7, (0.5, 1.5))


def test_poisson_limit_is_numpys():
    rng = np.random.Generator(np.random.Philox(1))
    limit = montecarlo._POISSON_LAM_MAX
    assert limit == np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
    assert rng.poisson(limit) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(limit, np.inf))


@pytest.mark.parametrize("measurement", ["spade", "di"])
def test_crb_is_the_model_fisher_information_at_the_truth(measurement):
    # the bound 1/(mu F) takes F from the campaign's own count model: the
    # SPADE series at the model's cutoff, or the 32-column camera's
    exc, s, mu = VortexExcitation(a=1.2, psi=0.3), 0.9, 1e4
    if measurement == "spade":
        model = spade_count_model(exc, 12)
        fisher = fi_spade(_amps(exc, s), 12).value
    else:
        imager = BinnedImager(exc, domain_s=s)
        model, fisher = imager.expectations, _binned_fi(imager, s)
    report = run_experiment(model, s, mu, 4, 5, (0.5, 1.5))
    assert report.crb == pytest.approx(1.0 / (mu * fisher), rel=1e-14, abs=0.0)


def test_run_experiment_reproducible():
    model = spade_count_model(PLANE_K2, 10)
    a = run_experiment(model, 1.0, 1e4, 5, 11, (0.5, 1.5))
    b = run_experiment(model, 1.0, 1e4, 5, 11, (0.5, 1.5))
    assert a.estimates == b.estimates
    assert a.ratio == b.ratio
    assert a.seed == 11


def _di_model():
    return BinnedImager(PLANE_K2, domain_s=1.0).expectations


@pytest.mark.parametrize("measurement", ["spade", "di"])
@pytest.mark.parametrize("seed", [3, 20260817])
def test_run_experiment_equals_per_batch_scalar_search(measurement, seed):
    model = spade_count_model(PLANE_K2, 10) if measurement == "spade" \
        else _di_model()
    mu, batches, interval = 1e4, 12, (0.5, 1.5)
    report = run_experiment(model, 1.0, mu, batches, seed, interval)
    # the golden-section search of the likelihood maximum and the secant
    # search of the score root each land within x_tol/2 of the maximum
    reference = ml_reference(model, 1.0, mu, batches, seed, interval)
    assert max(abs(a - b) for a, b in zip(report.estimates, reference)) <= 1e-6
    # a batch searched alone gives the same estimate
    expected = mu * model([1.0])[0]
    counts = sample_counts(np.broadcast_to(expected, (batches, expected.size)), seed)[4]
    assert _ml_alone(counts, _times(mu, model), interval) == report.estimates[4]


def test_run_experiment_model_work(monkeypatch):
    # the truth is one row with slopes (its counts and its Fisher
    # information), the scan evaluates the 32-column camera's rows once per
    # point for all batches, and each secant round evaluates rows and slopes
    # once per distinct abscissa: no s is evaluated twice for either, and
    # no model call sees more than one block of separations
    batches, block = 50, montecarlo._MODEL_BLOCK
    model = _di_model()
    seen = {False: [], True: []}  # separations by slope=
    calls = {False: [], True: []}
    widths = set()

    def counted(s_values, slope=False):
        seen[slope].extend(np.asarray(s_values).tolist())
        calls[slope].append(len(s_values))
        rows = model(s_values, slope=slope)
        for r in (rows if slope else (rows,)):
            widths.add(r.shape[1])
        return rows

    rounds = []
    score_terms = montecarlo._score_terms

    def counting_terms(m, s_values):
        if not rounds:
            assert seen[True] == [1.0]  # the truth
            assert len(seen[False]) == 256  # the scan
            assert len(calls[False]) == math.ceil(256 / block)
        rounds.append(len(s_values))
        return score_terms(m, s_values)

    monkeypatch.setattr(montecarlo, "_score_terms", counting_terms)
    run_experiment(counted, 1.0, 1e4, batches, 20260817, (0.5, 1.5))
    assert widths == {32}
    for slope in (False, True):
        assert len(seen[slope]) == len(set(seen[slope]))
        assert max(calls[slope]) <= block
    assert len(seen[False]) == 256
    assert 1 + sum(rounds) == len(seen[True])
    # the first round scores both ends of every bracket, 8 distinct scan
    # points here; each later one a secant point per batch still refining
    assert rounds[0] <= 2 * batches
    assert all(r <= batches for r in rounds[1:])
    # 3 rounds and 108 slope abscissae (counts that depend on the draw)
    assert rounds == [8, 50, 50]
    assert len(calls[True]) == 1 + sum(math.ceil(r / block) for r in rounds)


def _rounds(monkeypatch):
    # the new abscissae that each search round scores, in a list that
    # fills as the search runs
    rounds = []
    score_terms = montecarlo._score_terms

    def counting_terms(m, s_values):
        rounds.append(len(s_values))
        return score_terms(m, s_values)

    monkeypatch.setattr(montecarlo, "_score_terms", counting_terms)
    return rounds


def test_default_spade_campaign_refines_in_four_rounds(monkeypatch):
    # the first round scores the 6 distinct bracket ends, three secant
    # rounds follow
    rounds = _rounds(monkeypatch)
    run_experiment(spade_count_model(PLANE_K2, 10), 1.0, 1e4, 50, 20260817,
                   (0.5, 1.5))
    assert rounds == [6, 50, 50, 50]


def test_spade_variance_meets_crb_long_campaign():
    # 400 batches: the batch-variance ratio has sd ~ sqrt(2/399) ~ 0.07
    model = spade_count_model(PLANE_K2, 10)
    report = run_experiment(model, 1.0, 1e4, 400, 7, (0.5, 1.5))
    assert 0.8 < report.ratio < 1.25
    assert report.ratio == pytest.approx(0.9843838971908441, rel=1e-9)


def test_direct_imaging_variance_exceeds_spade_variance():
    # same photon budget, same seed: the DI spread reflects its smaller
    # Fisher information
    spade_model = spade_count_model(PLANE_K2, 10)
    spade_report = run_experiment(spade_model, 1.0, 1e4, 50, 20260817,
                                  (0.5, 1.5))

    di_model = BinnedImager(PLANE_K2, domain_s=1.0).expectations
    di_report = run_experiment(di_model, 1.0, 1e4, 50, 20260817, (0.5, 1.5))

    assert spade_report.ratio == pytest.approx(1.1087181985182109, rel=1e-9)
    assert di_report.ratio == pytest.approx(1.2258109578476382, rel=1e-9)
    assert di_report.empirical_variance > 2.0 * spade_report.empirical_variance
    assert di_report.crb > spade_report.crb


def test_low_information_regime_stays_near_the_bound():
    # nearly coincident emitters, collinear beams: tiny F, biased ML; the
    # ratio drifts above one but must stay the right order of magnitude
    exc = PlaneWaveExcitation(ktilde=0.0)
    model = spade_count_model(exc, 10)
    assert fi_spade(_amps(exc, 0.2), 10).value < 0.2
    report = run_experiment(model, 0.2, 1e4, 50, 20260817, (0.02, 0.6))
    assert 0.9 < report.ratio < 2.0
    assert report.ratio == pytest.approx(1.1197050169929106, rel=1e-9)


_DEFAULT_VORTEX = VortexExcitation(a=math.sqrt(0.5))


def _count_model(exc, measurement, domain_s=1.0):
    if measurement == "spade":
        return spade_count_model(exc, 10)
    return BinnedImager(exc, domain_s=domain_s).expectations


@pytest.mark.parametrize("measurement", ["spade", "di"])
@pytest.mark.parametrize("exc", [
    pytest.param(PLANE_K2, id="plane"),
    pytest.param(_DEFAULT_VORTEX, id="vortex"),
])
def test_estimates_are_score_roots(exc, measurement):
    # each estimate is the midpoint of a bracket at most x_tol = 1e-6 wide
    # around the root of its batch's score; the oracle's root comes from
    # bisection on a finite-difference score
    model = _count_model(exc, measurement)
    mu, batches, seed, interval = 1e4, 30, 20260817, (0.5, 1.5)
    report = run_experiment(model, 1.0, mu, batches, seed, interval)
    roots = ml_score_roots(model, 1.0, mu, batches, seed, interval)
    for estimate, root in zip(report.estimates, roots):
        assert abs(estimate - root) <= 5e-7 + 1e-9


def test_low_information_estimates_are_score_roots():
    exc = PlaneWaveExcitation(ktilde=0.0)
    model = spade_count_model(exc, 10)
    args = (model, 0.2, 1e4, 50, 20260817, (0.02, 0.6))
    report = run_experiment(*args)
    for estimate, root in zip(report.estimates, ml_score_roots(*args)):
        assert abs(estimate - root) <= 5e-7 + 1e-9


@pytest.mark.parametrize("exc", [
    pytest.param(PLANE_K2, id="plane"),
    pytest.param(VortexExcitation(a=1.2, psi=0.3), id="vortex"),
])
@pytest.mark.parametrize("s", [0.4, 1.0, 1.6])
def test_spade_slope_rows_equal_richardson_difference(exc, s):
    # the analytic mode-count slopes against a Richardson-extrapolated
    # central difference of the mode counts (error O(h^4) ~ 1e-13)
    model = spade_count_model(exc, 10, x0=0.7, kappa=0.8)

    def central(h):
        up, down = model([s + h, s - h])
        return (up - down) / (2.0 * h)

    want = (4.0 * central(5e-4) - central(1e-3)) / 3.0
    n, dn = model([s], slope=True)
    assert n[0].tolist() == model([s])[0].tolist()
    np.testing.assert_allclose(dn[0], want, rtol=0.0,
                               atol=2e-12 * np.abs(want).max())


@pytest.mark.parametrize("measurement", ["spade", "di"])
def test_slope_rows_keep_the_count_rows_and_vanish_where_s_clips(measurement):
    # the counts are even in s, so their slope at s = 0, which a clipped
    # separation takes, is exactly zero
    model = _count_model(VortexExcitation(a=1.2, psi=0.3), measurement)
    s_values = np.array([-0.3, 0.0, 1e-9, 0.8, 1.4])
    n, dn = model(s_values, slope=True)
    assert n.tolist() == model(s_values).tolist()
    assert dn.shape == n.shape
    assert np.all(np.isfinite(dn))
    assert n[0].tolist() == n[1].tolist()
    assert not np.any(dn[0])


@pytest.mark.parametrize("measurement", ["spade", "di"])
@pytest.mark.parametrize("interval,end", [
    pytest.param((0.3, 0.8), 0.8, id="truth-above"),
    pytest.param((1.2, 1.7), 1.2, id="truth-below"),
])
def test_truth_outside_the_interval_gives_the_nearer_end(measurement, interval, end):
    model = _count_model(PLANE_K2, measurement)
    report = run_experiment(model, 1.0, 1e4, 20, 20260817, interval)
    assert max(abs(e - end) for e in report.estimates) <= 1e-6


@pytest.mark.parametrize("measurement", ["spade", "di"])
def test_search_from_zero_separation(monkeypatch, measurement):
    # the score is finite at s = 0, and a search from there stays inside
    model = _count_model(PLANE_K2, measurement, domain_s=0.3)
    ratio, total = montecarlo._score_terms(model, [0.0, 1e-12, 0.01])
    assert np.all(np.isfinite(ratio)) and np.all(np.isfinite(total))
    rounds = _rounds(monkeypatch)
    report = run_experiment(model, 0.05, 1e4, 20, 20260817, (0.0, 0.6))
    est = np.array(report.estimates)
    assert np.all(np.isfinite(est))
    assert est.min() >= 0.0 and est.max() <= 0.6
    assert len(rounds) <= 6


@pytest.mark.parametrize("pole", [0.0, 2.0, 1e-8])
def test_pole_secant_is_exact_on_its_interpolant(pole):
    # a score in u = s^2 of the form R/u + p + q u, root at s = 0.03: one
    # step from each bracket lands on the root.  From s = 0, scored at
    # _X_TOL/2, the end's p + q u is R/u - its score, which cancels to
    # about eps R / u there and moves the step by up to ~3e-9
    root = 0.03
    q = -50.0
    p = -pole / root**2 - q * root**2

    def score_s(s):
        u = np.maximum(s, 0.5 * montecarlo._X_TOL) ** 2
        return 2.0 * np.sqrt(u) * (pole / u + p + q * u)

    for a, b in [(0.0, 0.05), (0.0, 0.6), (0.01, 0.04)]:
        a_, b_ = np.array([a]), np.array([b])
        step = montecarlo._pole_secant(a_, b_, score_s(a_), score_s(b_),
                                       np.array([pole]))
        assert abs(step[0] - root) <= (1e-8 if a == 0.0 else 1e-15)


@pytest.mark.parametrize("measurement", ["spade", "di"])
@pytest.mark.parametrize("true_s", [0.001, 0.003])
def test_search_from_zero_refines_a_root_near_zero(monkeypatch, measurement, true_s):
    # noise-free counts put the likelihood maximum, the score root, at the
    # truth, and the scan brackets it from s = 0.  The noise-free SPADE
    # counts put fractions (~1e-8) of a photon in modes 1 and 2, which are
    # dark at s = 0, so the score in u = s^2 has a pole there; every camera
    # column is lit at s = 0, so the DI score in u has none
    model = _count_model(PLANE_K2, measurement, domain_s=0.3)
    mu = 1e4
    counts = mu * model([true_s])[0]
    rounds = _rounds(monkeypatch)
    estimate = _ml_alone(counts, _times(mu, model), (0.0, 0.6))
    assert abs(estimate - true_s) <= 5e-7
    assert len(rounds) <= 6


@pytest.mark.parametrize("measurement", ["spade", "di"])
@pytest.mark.parametrize("lo", [1e-9, 1e-4])
def test_search_from_just_above_zero_steps_in_u(monkeypatch, measurement, lo):
    # an interval that starts within one scan step, 0.6/255, of s = 0
    # steps in u = s^2 as one from s = 0 does; stepping in s, the secant
    # crept toward a root near zero for 13-18 rounds
    model = _count_model(PLANE_K2, measurement, domain_s=0.3)
    mu = 1e4
    counts = mu * model([0.001])[0]
    rounds = _rounds(monkeypatch)
    estimate = _ml_alone(counts, _times(mu, model), (lo, 0.6))
    assert abs(estimate - 0.001) <= 5e-7
    assert len(rounds) <= 4


@pytest.mark.parametrize("measurement,exc,true_s,seed,interval,from_zero,held", [
    pytest.param("spade", PlaneWaveExcitation(ktilde=0.0), 0.01, 20260817,
                 (0.0, 0.6), 12, 0, id="spade-k0"),
    pytest.param("di", PLANE_K2, 0.05, 20260817, (0.0, 1.5), 6, 0, id="di-k2"),
    pytest.param("di", PLANE_K2, 0.03, 3, (0.0, 1.5), 14, 1, id="di-k2-root"),
])
def test_search_from_zero_finds_the_score_root(monkeypatch, measurement, exc, true_s,
                                              seed, interval, from_zero, held):
    # brackets that start at s = 0, where every score vanishes, hold either
    # a root or a maximum at zero; the number of each is pinned per draw
    # (the di-k2-root draw has one bracket from zero that holds a root,
    # which the u = s^2 secant must find on noisy counts): each estimate
    # is the oracle's score root, and as likely as the golden-section
    # maximum to within 4 ulps wherever the two differ by more than x_tol
    # (the golden search compares likelihoods that agree to roundoff on
    # these flat maxima)
    model = _count_model(exc, measurement, domain_s=0.3)
    args = (model, true_s, 1e4, 30, seed, interval)
    rounds = _rounds(monkeypatch)
    report = run_experiment(*args)
    assert len(rounds) <= 6
    roots = ml_score_roots(*args)
    golden = ml_reference(*args)
    brackets = _ml_brackets(*args, 256)
    starts = [b for b, (_, _, a, _) in enumerate(brackets) if a == 0.0]
    assert len(starts) == from_zero
    assert sum(roots[b] > 1e-6 for b in starts) == held
    for estimate, root, best, (_, loglike, _, _) in zip(
            report.estimates, roots, golden, brackets):
        assert abs(estimate - root) <= 5e-7 + 1e-9
        ulps = 4.0 * np.spacing(abs(loglike(best)))
        assert abs(estimate - best) <= 1e-6 \
            or loglike(estimate) >= loglike(best) - ulps
