"""Acceptance suite: the contract this package ships against.

Each test prints one pass/fail line through the ``acceptance`` fixture (the
lines are echoed again in the terminal summary) and then asserts, so a red
run still reports every criterion's status.
"""

import json
import math
import time

import numpy as np
import pytest

from carsfisher import (
    EmitterScene,
    PlaneWaveExcitation,
    PulseSpectrum,
    RamanResonance,
    VortexExcitation,
    cli,
    fi_direct,
    fi_spade,
    image_amplitudes,
    normalize_phi,
    qfi_matrix,
    qfi_plane_closed,
    qfi_separation,
    run_experiment,
    spade_count_model,
)

from small_s import small_s_coefficients

SQ2I = math.sqrt(2.0) / 2.0


def _amps(exc, s, **scene_kw):
    return image_amplitudes(exc, EmitterScene(s=s, **scene_kw))


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_criterion_01_plane_qfi_general_equals_closed(acceptance):
    t0 = time.perf_counter()
    worst = 0.0
    s_grid = np.linspace(0.01, 3.0, 120)
    for ktilde in (0.0, 1.0, 2.0, 4.0):
        exc = PlaneWaveExcitation(ktilde=ktilde)
        for s in s_grid:
            s = float(s)
            general = qfi_separation(_amps(exc, s))
            closed = qfi_plane_closed(ktilde, s)
            worst = max(worst, abs(general.normalized_value
                                   - closed.normalized_value))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 1.0
    acceptance(f"criterion 01: {_status(ok)} — plane QFI general vs closed, "
               f"max |dev| {worst:.2e} (tol 1e-10) over 480 points, {dt:.2f}s")
    assert worst < 1e-10
    assert dt < 1.0


def test_criterion_02_collinear_saturation(acceptance):
    t0 = time.perf_counter()
    exc = PlaneWaveExcitation(ktilde=0.0)
    worst_di = 0.0
    for s in np.linspace(0.25, 3.0, 12):
        s = float(s)
        di = fi_direct(_amps(exc, s), abs_tol=1e-11).value
        qfi = qfi_plane_closed(0.0, s).value
        worst_di = max(worst_di, abs(di - qfi) / qfi)
    worst_spade = 0.0
    for s in np.linspace(0.05, 3.0, 60):
        s = float(s)
        series = fi_spade(_amps(exc, s), 30).normalized_value
        closed = 1.0 + math.exp(-s * s / 2.0) * (s * s - 1.0)
        worst_spade = max(worst_spade, abs(series - closed))
    dt = time.perf_counter() - t0
    ok = worst_di < 1e-6 and worst_spade < 1e-8 and dt < 30.0
    acceptance(f"criterion 02: {_status(ok)} — collinear DI saturation "
               f"{worst_di:.2e} (tol 1e-6), SPADE closed form {worst_spade:.2e} "
               f"(tol 1e-8), {dt:.1f}s")
    assert worst_di < 1e-6
    assert worst_spade < 1e-8
    assert dt < 30.0


def test_criterion_03_small_separation_coefficients(acceptance):
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for ktilde in (0.0, 1.0, 2.0):
        c_di, c_qfi, c_spade = small_s_coefficients(ktilde=ktilde)
        kt2 = ktilde * ktilde
        want_di = 3.0 + 2.0 * kt2 + kt2 * kt2
        want_q = 3.0 + 6.0 * kt2 + kt2 * kt2
        devs = (abs(c_di - want_di) / want_di,
                abs(c_qfi - want_q) / want_q,
                abs(c_spade - want_q) / want_q)
        worst = max(worst, *devs)
        details.append(f"kt={ktilde:g}: {max(devs):.2%}")
    dt = time.perf_counter() - t0
    ok = worst < 0.005 and dt < 10.0
    acceptance(f"criterion 03: {_status(ok)} — small-s quadratic coefficients "
               f"({'; '.join(details)}; tol 0.5%), {dt:.1f}s")
    assert worst < 0.005
    assert dt < 10.0


def test_criterion_04_vortex_closed_form_adjudication(acceptance, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "adjudication.json"
    code = cli.main(["adjudicate", "--out", str(out)])
    doc = json.loads(out.read_text())
    vortex = doc["vortex_qfi_closed"]
    dt = time.perf_counter() - t0
    ok = (code == 0 and vortex["exactly_one_match"]
          and vortex["selected_matches"] and dt < 5.0)
    devs = {name: c["max_deviation"]
            for name, c in vortex["candidates"].items()}
    acceptance(f"criterion 04: {_status(ok)} — vortex adjudication exit {code}, "
               f"exactly one closed form within 1e-9 (devs: "
               f"{', '.join(f'{k}={v:.1e}' for k, v in sorted(devs.items()))}), "
               f"{dt:.1f}s")
    assert code == 0
    assert vortex["exactly_one_match"] is True
    assert vortex["selected_matches"] is True
    assert dt < 5.0


def test_criterion_05_vortex_measurement_claims(acceptance):
    t0 = time.perf_counter()
    on_axis = VortexExcitation(a=SQ2I, psi=0.0)
    worst_di = 0.0
    worst_spade = 0.0
    for s in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
        amps = _amps(on_axis, s)
        qfi = qfi_separation(amps).value
        di = fi_direct(amps, abs_tol=1e-11).value
        spade = fi_spade(amps, 30).value
        worst_di = max(worst_di, abs(di - qfi) / qfi)
        worst_spade = max(worst_spade, abs(spade - qfi) / qfi)

    off_axis = _amps(VortexExcitation(a=SQ2I, psi=0.3), 0.5)
    qfi_off = qfi_separation(off_axis).value
    di_ratio = fi_direct(off_axis, abs_tol=1e-10).value / qfi_off
    spade_ratio = fi_spade(off_axis, 30).value / qfi_off
    dt = time.perf_counter() - t0
    ok = (worst_di < 1e-6 and worst_spade < 1e-8
          and di_ratio < 0.99 and spade_ratio >= 0.999 and dt < 60.0)
    acceptance(f"criterion 05: {_status(ok)} — on-axis vortex: DI dev "
               f"{worst_di:.2e} (tol 1e-6), SPADE dev {worst_spade:.2e} "
               f"(tol 1e-8); off-axis psi=0.3: DI/QFI {di_ratio:.4f} < 0.99, "
               f"SPADE/QFI {spade_ratio:.6f} >= 0.999, {dt:.1f}s")
    assert worst_di < 1e-6
    assert worst_spade < 1e-8
    assert di_ratio < 0.99
    assert spade_ratio >= 0.999
    assert dt < 60.0


def test_criterion_06_spade_mode_convergence(acceptance):
    t0 = time.perf_counter()
    exc = PlaneWaveExcitation(ktilde=2.0)
    cutoffs = (5, 10, 15, 20, 25)
    monotone = True
    worst_ratio = math.inf
    for s in np.linspace(0.05, 2.0, 40):
        s = float(s)
        amps = _amps(exc, s)
        values = [fi_spade(amps, m).value for m in cutoffs]
        monotone &= all(b >= a for a, b in zip(values, values[1:]))
        worst_ratio = min(worst_ratio,
                          values[-1] / qfi_plane_closed(2.0, s).value)
    dt = time.perf_counter() - t0
    ok = monotone and worst_ratio >= 0.999 and dt < 2.0
    acceptance(f"criterion 06: {_status(ok)} — SPADE FI monotone in M "
               f"{monotone}, min FI(M=25)/QFI {worst_ratio:.6f} >= 0.999, "
               f"{dt:.2f}s")
    assert monotone
    assert worst_ratio >= 0.999
    assert dt < 2.0


def test_criterion_07_information_chain_and_matrix(acceptance):
    t0 = time.perf_counter()
    configs = [PlaneWaveExcitation(ktilde=kt) for kt in (0.0, 1.0, 2.0, 4.0)]
    configs += [VortexExcitation(a=SQ2I, psi=psi) for psi in (0.0, 0.3)]
    worst_di_excess = -math.inf
    worst_spade_excess = -math.inf
    worst_dd_dev = 0.0
    min_det = math.inf
    for exc in configs:
        for s in np.linspace(0.1, 3.0, 15):
            s = float(s)
            amps = _amps(exc, s)
            report = qfi_separation(amps)
            qfi = report.normalized_value
            di = fi_direct(amps).normalized_value
            spade = fi_spade(amps, 30).normalized_value
            worst_di_excess = max(worst_di_excess, di - qfi)
            worst_spade_excess = max(worst_spade_excess, spade - qfi)
            matrix = qfi_matrix(amps)
            worst_dd_dev = max(worst_dd_dev,
                               abs(matrix.q_dd - report.value)
                               / max(report.value, 1e-30))
            det = matrix.q_dd * matrix.q_x0x0 - matrix.q_dx0**2
            min_det = min(min_det, det)
    dt = time.perf_counter() - t0
    ok = (worst_di_excess <= 1e-6 and worst_spade_excess <= 1e-6
          and worst_dd_dev < 1e-12 and min_det >= -1e-9)
    acceptance(f"criterion 07: {_status(ok)} — information chain: max DI-QFI "
               f"excess {worst_di_excess:.2e}, max SPADE-QFI excess "
               f"{worst_spade_excess:.2e} (tol 1e-6); matrix q_dd vs Q_d dev "
               f"{worst_dd_dev:.2e} (tol 1e-12), min det {min_det:.2e}, {dt:.1f}s")
    assert worst_di_excess <= 1e-6
    assert worst_spade_excess <= 1e-6
    assert worst_dd_dev < 1e-12
    assert min_det >= -1e-9


def test_criterion_08_photon_conservation(acceptance):
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for i in range(20):
        s = float(rng.uniform(0.05, 3.0))
        kappa = float(rng.uniform(0.2, 1.0))
        g = float(rng.uniform(0.5, 2.0))
        if i % 2 == 0:
            exc = PlaneWaveExcitation(ktilde=float(rng.uniform(0.0, 4.0)))
        else:
            exc = VortexExcitation(a=float(rng.uniform(0.3, 2.0)),
                                   psi=float(rng.uniform(-0.5, 0.5)))
        amps = _amps(exc, s, kappa=kappa, g=g)
        total = spade_count_model(exc, 30, g=g, kappa=kappa)([s])[0].sum()
        worst = max(worst, abs(total - amps.n_total) / amps.n_total)
    ok = worst < 1e-10
    acceptance(f"criterion 08: {_status(ok)} — photon conservation over 20 "
               f"random configurations, max rel dev {worst:.2e} (tol 1e-10)")
    assert worst < 1e-10


def test_criterion_09_monte_carlo_crb(acceptance):
    t0 = time.perf_counter()
    g10 = 3.5647539063284568  # calibrated so n_total = 10 per shot
    exc = VortexExcitation(a=SQ2I, psi=0.0)
    amps = _amps(exc, 1.0, g=g10)
    model = spade_count_model(exc, 10, g=g10)
    report = run_experiment(model, 1.0, 1e4, 50, 20260817, (0.5, 1.5))
    dt = time.perf_counter() - t0
    ok = (0.9 <= report.ratio <= 1.3 and abs(amps.n_total - 10.0) < 1e-6
          and dt < 60.0)
    acceptance(f"criterion 09: {_status(ok)} — Monte Carlo CRB ratio "
               f"{report.ratio:.4f} in [0.9, 1.3] (n_total "
               f"{amps.n_total:.6f}, mu=1e4, 50 batches), {dt:.1f}s")
    assert abs(amps.n_total - 10.0) < 1e-6
    assert 0.9 <= report.ratio <= 1.3
    assert dt < 60.0


def test_criterion_10_spectral_normalization_and_scaling(acceptance):
    t0 = time.perf_counter()
    res = RamanResonance(omega_vib=10.0, gamma_vib=0.5)
    pump = PulseSpectrum(center=100.0, bandwidth=1.0)
    stokes = PulseSpectrum(center=90.0, bandwidth=1.0)
    g0, phi = normalize_phi(res, pump, stokes)
    om = np.linspace(86.0, 134.0, 48_001)
    vals = np.abs(phi(om)) ** 2
    dw = om[1] - om[0]
    norm = (vals.sum() - 0.5 * (vals[0] + vals[-1])) * dw / (2.0 * math.pi)
    norm_dev = abs(norm - 1.0)

    pump2 = PulseSpectrum(center=100.0, bandwidth=1.0, amplitude=2.0)
    stokes3 = PulseSpectrum(center=90.0, bandwidth=1.0, amplitude=3.0)
    g_scaled, _ = normalize_phi(res, pump2, stokes3)
    scaling_dev = abs(g_scaled / (12.0 * g0) - 1.0)
    dt = time.perf_counter() - t0
    ok = norm_dev < 1e-6 and scaling_dev < 1e-9 and dt < 10.0
    acceptance(f"criterion 10: {_status(ok)} — spectral mode norm dev "
               f"{norm_dev:.2e} (tol 1e-6), amplitude-scaling dev "
               f"{scaling_dev:.2e} (tol 1e-9), {dt:.1f}s")
    assert norm_dev < 1e-6
    assert scaling_dev < 1e-9
    assert dt < 10.0


def test_criterion_11_byte_identical_reruns(acceptance, tmp_path):
    cfg2 = tmp_path / "fig2.cfg"
    cfg2.write_text("s_min=0.2\ns_max=2.0\ns_points=4\nktilde_grid=0,2\nM=8\n",
                    encoding="utf-8")
    cfg3 = tmp_path / "fig3.cfg"
    cfg3.write_text("s_min=0.5\ns_max=1.5\ns_points=3\npsi_grid=0,0.2\nM=8\n",
                    encoding="utf-8")
    outputs = []
    for command, cfg in (("figure2", cfg2), ("figure3", cfg3)):
        pair = []
        for run in ("first", "second"):
            out = tmp_path / f"{command}-{run}.csv"
            assert cli.main([command, "--config", str(cfg),
                             "--out", str(out)]) == 0
            pair.append(out.read_bytes())
        outputs.append(pair)
    fig2_same = outputs[0][0] == outputs[0][1]
    fig3_same = outputs[1][0] == outputs[1][1]
    ok = fig2_same and fig3_same
    acceptance(f"criterion 11: {_status(ok)} — byte-identical reruns: "
               f"figure2 {fig2_same}, figure3 {fig3_same}")
    assert fig2_same
    assert fig3_same
