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
    mean_photons_spade,
    run_experiment,
    sample_counts,
    spade_count_model,
)

import carsfisher.montecarlo as montecarlo
from oracles import ml_reference, plane_sites, vortex_sites

PLANE_K2 = PlaneWaveExcitation(ktilde=2.0)


def _amps(exc, s):
    return image_amplitudes(exc, EmitterScene(s=s))


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
       st.integers(0, 2**64 - 1), st.integers(0, 400))
def test_sample_counts_reproduces_itself_per_seed(expected, seed, batch):
    # both seed forms in use: a plain integer, and run_experiment's
    # SeedSequence((seed, batch)) per batch
    for key in (lambda: seed, lambda: np.random.SeedSequence((seed, batch))):
        counts = sample_counts(expected, key())
        assert counts.dtype.kind == "i"
        assert counts.shape == (len(expected),)
        assert counts.min() >= 0
        assert counts[np.asarray(expected) == 0.0].tolist() == [0] * expected.count(0.0)
        assert counts.tolist() == sample_counts(expected, key()).tolist()


def test_sample_counts_rejects_negative_expectation():
    with pytest.raises(ValueError):
        sample_counts([1.0, -0.1], 7)


def _ml_alone(counts, model, interval):
    # the maximum-likelihood search for one batch of counts
    return montecarlo._ml_search(np.asarray(counts)[None, :], model, interval)[0]


@pytest.mark.parametrize("measurement", ["spade", "di"])
def test_each_batch_estimate_is_its_search_alone_within_x_tol(measurement):
    # the lockstep search scores batches with matrix-vector and row-wise
    # products, a batch alone with its own; their last bits may differ,
    # the estimates by no more than the search tolerance
    model = spade_count_model(PLANE_K2, 10) if measurement == "spade" \
        else _di_model()
    mu, interval = 1e4, (0.5, 1.5)
    expected = mu * model([1.0])[0]
    counts = np.stack([sample_counts(expected, np.random.SeedSequence((5, b)))
                       for b in range(12)])
    together = montecarlo._ml_search(counts, lambda s: mu * model(s), interval)
    for row, estimate in zip(counts, together):
        alone = _ml_alone(row, lambda s: mu * model(s), interval)
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


def test_ml_estimate_recovers_truth_from_noise_free_counts():
    mu = 1e8
    model = spade_count_model(PLANE_K2, 10)
    counts = np.round(mu * model([1.0])[0]).astype(int)
    est = _ml_alone(counts, lambda s: mu * model(s), (0.5, 1.5))
    assert est == pytest.approx(1.0, abs=1e-4)


def test_spade_count_model_matches_mode_expectations():
    # one row per separation, each the per-mode value bit for bit
    model = spade_count_model(PLANE_K2, 12, kappa=0.8)
    s_values = [0.9, 0.0, 1e-8, 2.5]
    got = model(s_values)
    assert got.shape == (4, 13)
    for row, s in zip(got, s_values):
        amps = image_amplitudes(PLANE_K2, EmitterScene(s=s, kappa=0.8))
        want = [mean_photons_spade(amps, m) for m in range(13)]
        assert row.tolist() == want
    # negative separations clip to zero
    assert model([-0.3]).tolist() == model([0.0]).tolist()


@pytest.mark.parametrize("measurement", ["spade", "di"])
def test_count_model_rows_do_not_depend_on_the_batch(measurement):
    exc = VortexExcitation(a=1.2, psi=0.3)
    if measurement == "spade":
        model = spade_count_model(exc, 10, x0=0.7)
    else:
        model = BinnedImager(exc, domain_s=1.0, x0=0.7).expectations
    s_values = np.linspace(0.0, 1.6, 17)
    block = model(s_values)
    assert block.shape[0] == 17
    for row, s in zip(block, s_values):
        assert row.tolist() == model([s])[0].tolist()


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
    binned = imager.fisher_information(1.0)
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
    assert imager.fisher_information(s) == pytest.approx(want, rel=1e-10)


def test_binned_imager_rejects_too_coarse_grid():
    # the camera widens its field of view with the separation, so its
    # bins outgrow the 2% bound above s ~ 3.07 (plane kt = 2) and s ~ 5.27
    # (vortex a = 1/sqrt(2))
    with pytest.raises(ValueError, match=r"at s=3\.25 deviates 2\.1"):
        BinnedImager(PLANE_K2, domain_s=3.25)
    with pytest.raises(ValueError, match="too coarse"):
        BinnedImager(VortexExcitation(a=math.sqrt(0.5)), domain_s=5.5)


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


def test_run_experiment_validation():
    model = spade_count_model(PLANE_K2, 10)
    with pytest.raises(ValueError, match="batches"):
        run_experiment(model, 1.0, 1e4, 1, 7, (0.5, 1.5), fisher_per_shot=16.0)
    with pytest.raises(ValueError, match="positive"):
        run_experiment(model, 1.0, 1e4, 10, 7, (0.5, 1.5), fisher_per_shot=0.0)


def test_run_experiment_reproducible():
    model = spade_count_model(PLANE_K2, 10)
    fisher = fi_spade(_amps(PLANE_K2, 1.0), 10).value
    a = run_experiment(model, 1.0, 1e4, 5, 11, (0.5, 1.5), fisher_per_shot=fisher)
    b = run_experiment(model, 1.0, 1e4, 5, 11, (0.5, 1.5), fisher_per_shot=fisher)
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
    report = run_experiment(model, 1.0, mu, batches, seed, interval,
                            fisher_per_shot=16.0, method=measurement)
    assert report.estimates == ml_reference(model, 1.0, mu, batches, seed,
                                            interval)
    # a batch searched alone gives the same estimate
    counts = sample_counts(mu * model([1.0])[0],
                           np.random.SeedSequence((seed, 4)))
    assert _ml_alone(counts, lambda s: mu * model(s), interval) \
        == report.estimates[4]


def test_run_experiment_model_work(monkeypatch):
    # the scan evaluates the 32-column camera model once per point for all
    # batches and the golden rounds once per distinct abscissa: no s is
    # evaluated twice, and no model call sees more than 16 separations
    batches = 50
    model = _di_model()
    seen, calls, widths = [], [], set()

    def counted(s_values):
        seen.extend(np.asarray(s_values).tolist())
        calls.append(len(s_values))
        rows = model(s_values)
        widths.add(rows.shape[1])
        return rows

    rounds = []
    lockstep = montecarlo.golden_section_max_many

    def counting_search(f, lo, hi, x_tol):
        assert len(seen) == 1 + 256  # the truth and the scan
        assert len(calls) == 1 + 16

        def g(rows, x):
            rounds.append(len(rows))
            return f(rows, x)

        return lockstep(g, lo, hi, x_tol)

    monkeypatch.setattr(montecarlo, "golden_section_max_many", counting_search)
    run_experiment(counted, 1.0, 1e4, batches, 20260817, (0.5, 1.5),
                   fisher_per_shot=16.0, method="di")
    assert widths == {32}
    assert len(seen) == len(set(seen))
    assert max(calls) <= 16
    assert rounds[0] == 2 * batches
    assert len(rounds) == 20
    assert len(seen) <= 256 + batches * len(rounds) + 1
    # truth + scan + 723 distinct golden abscissae (a count that depends on
    # the draw); a search per batch with no shared evaluations would
    # evaluate 50 * (256 + 21) separations
    assert len(seen) == 980
    # each round's new abscissae in blocks of at most 16
    assert len(calls) <= 1 + 16 + len(rounds) * math.ceil(2 * batches / 16)


def test_spade_variance_meets_crb_long_campaign():
    # 400 batches: the batch-variance ratio has sd ~ sqrt(2/399) ~ 0.07
    model = spade_count_model(PLANE_K2, 10)
    fisher = fi_spade(_amps(PLANE_K2, 1.0), 10).value
    report = run_experiment(model, 1.0, 1e4, 400, 7, (0.5, 1.5),
                            fisher_per_shot=fisher, method="spade")
    assert 0.8 < report.ratio < 1.25
    assert report.ratio == pytest.approx(0.98581896383530798, rel=1e-9)


def test_direct_imaging_variance_exceeds_spade_variance():
    # same photon budget, same seed: the DI spread reflects its smaller
    # Fisher information
    spade_model = spade_count_model(PLANE_K2, 10)
    spade_fisher = fi_spade(_amps(PLANE_K2, 1.0), 10).value
    spade_report = run_experiment(spade_model, 1.0, 1e4, 50, 20260817,
                                  (0.5, 1.5), fisher_per_shot=spade_fisher)

    imager = BinnedImager(PLANE_K2, domain_s=1.0)
    di_fisher = imager.fisher_information(1.0)
    di_report = run_experiment(imager.expectations, 1.0, 1e4, 50, 20260817,
                               (0.5, 1.5), fisher_per_shot=di_fisher,
                               method="di")

    assert spade_report.ratio == pytest.approx(0.70437763973459899, rel=1e-9)
    assert di_report.ratio == pytest.approx(0.8293503405077302, rel=1e-9)
    assert di_report.empirical_variance > 2.0 * spade_report.empirical_variance
    assert di_fisher < spade_fisher


def test_low_information_regime_stays_near_the_bound():
    # nearly coincident emitters, collinear beams: tiny F, biased ML; the
    # ratio drifts above one but must stay the right order of magnitude
    exc = PlaneWaveExcitation(ktilde=0.0)
    model = spade_count_model(exc, 10)
    fisher = fi_spade(_amps(exc, 0.2), 10).value
    assert fisher < 0.2
    report = run_experiment(model, 0.2, 1e4, 50, 20260817, (0.02, 0.6),
                            fisher_per_shot=fisher)
    assert 0.9 < report.ratio < 2.0
    assert report.ratio == pytest.approx(1.3058790579655588, rel=1e-9)
