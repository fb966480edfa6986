"""QFI/FI routes: general Gram path, closed forms, direct imaging, SPADE."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carsfisher import fisher
from carsfisher import (
    ConvergenceError,
    EmitterScene,
    FisherReport,
    PlaneWaveExcitation,
    QfiMatrix,
    VortexExcitation,
    fi_direct,
    fi_spade,
    image_amplitudes,
    optimize_waist,
    qfi_matrix,
    qfi_plane_closed,
    qfi_separation,
    qfi_vortex_closed,
    vortex_closed_variants,
)

from oracles import (
    di_fisher_analytic,
    di_fisher_fd,
    field_1d,
    optimal_waist,
    plane_sites,
    plane_slopes,
    qfi_matrix_fd,
    qfi_matrix_mpmath,
    spade_closed,
    spade_fisher_fd,
    spade_gamma,
    trapezoid,
    vortex_sites,
    vortex_slopes,
)
from small_s import small_s_coefficients

SQ2I = math.sqrt(2.0) / 2.0

# regression anchors, frozen from validated runs (raw units, kappa=g=1)
PLANE_QFI_K2 = {0.5: 8.4406385926456053, 1.0: 16.431380667806756,
                2.0: 8.5381688082239844}
PLANE_DI_K0 = {0.5: 0.67625464612300401, 1.0: 1.9999999999999394,
               2.0: 2.8120116994196507}
PLANE_DI_K2 = {0.5: 4.8739889527086424, 1.0: 6.9743540354076012,
               2.0: 1.1832568830184358}
VORTEX_QFI_ONAXIS = {0.5: 5.6808544448037885, 1.0: 2.0000000000000013}


def _plane(ktilde, s, **scene_kw):
    scene = EmitterScene(s=s, **scene_kw)
    return image_amplitudes(PlaneWaveExcitation(ktilde=ktilde), scene)


def _vortex(a, psi, s, **scene_kw):
    scene = EmitterScene(s=s, **scene_kw)
    return image_amplitudes(VortexExcitation(a=a, psi=psi), scene)


def test_fisher_report_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        FisherReport(value=-1.0, normalized_value=-0.5)


@pytest.mark.parametrize("field", ["value", "normalized_value", "error_estimate"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fisher_report_rejects_non_finite_fields(field, bad):
    fields = {"value": 1.0, "normalized_value": 0.5, field: bad}
    with pytest.raises(ValueError, match=f"finite: {field}="):
        FisherReport(**fields)


def test_qfi_matrix_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        QfiMatrix(q_dd=-1.0, q_dx0=0.0, q_x0x0=1.0)
    with pytest.raises(ValueError, match="semidefinite"):
        QfiMatrix(q_dd=1.0, q_dx0=2.0, q_x0x0=1.0)
    QfiMatrix(q_dd=1.0, q_dx0=0.999, q_x0x0=1.0)  # PSD boundary is fine


@pytest.mark.parametrize("field", ["q_dd", "q_dx0", "q_x0x0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_qfi_matrix_rejects_non_finite_entries(field, bad):
    # every comparison with NaN is False, so the sign and determinant tests
    # alone let a NaN entry through
    entries = {"q_dd": 1.0, "q_dx0": 0.0, "q_x0x0": 1.0, field: bad}
    with pytest.raises(ValueError, match=f"finite: {field}="):
        QfiMatrix(**entries)


def test_array_records_name_the_first_bad_entry():
    with pytest.raises(ValueError, match="nonnegative at entry 2 \\(value=-1e-30\\)"):
        FisherReport(value=np.array([1.0, 0.0, -1e-30, -2.0]),
                     normalized_value=np.zeros(4))
    ones = np.ones(3)
    with pytest.raises(ValueError, match="semidefinite at entry 1 \\(det=-3.0\\)"):
        QfiMatrix(q_dd=ones, q_dx0=np.array([0.5, 2.0, 3.0]), q_x0x0=ones)


@pytest.mark.parametrize("g,a,s", [(100.0, 0.8, 4.8), (1e6, 0.5, 2.6)])
def test_qfi_matrix_psd_check_is_relative(g, a, s):
    # one emitter on the vortex core: the matrix is rank one up to roundoff,
    # and det = q_dd q_x0x0 - q_dx0^2 loses ~1e-16 of products that grow
    # as g^4, far beyond any fixed absolute tolerance at large g
    q = qfi_matrix(_vortex(a, 0.0, s, x0=s / 2.0, g=g))
    products = q.q_dd * q.q_x0x0 + q.q_dx0**2
    assert products > 1e9
    assert abs(q.q_dd * q.q_x0x0 - q.q_dx0**2) <= 1e-14 * products
    # a genuinely indefinite matrix is still rejected at the same scale
    with pytest.raises(ValueError, match="semidefinite"):
        QfiMatrix(q_dd=g**2, q_dx0=2.0 * g**2, q_x0x0=g**2)


@pytest.mark.parametrize("s,expected", sorted(PLANE_QFI_K2.items()))
def test_qfi_plane_closed_frozen(s, expected):
    report = qfi_plane_closed(2.0, s)
    assert report.value == pytest.approx(expected, rel=1e-14)
    assert report.normalized_value == pytest.approx(expected / 2.0, rel=1e-14)


def test_qfi_plane_closed_limits():
    assert qfi_plane_closed(0.0, 0.0).value == 0.0
    assert qfi_plane_closed(3.0, 0.0).value == pytest.approx(0.0, abs=1e-14)
    # far-separated emitters: one photon pair's worth of gradient information
    assert qfi_plane_closed(0.0, 40.0).normalized_value == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        qfi_plane_closed(1.0, -0.3)
    with pytest.raises(ValueError, match="separation must be finite"):
        qfi_plane_closed(2.0, math.nan)
    with pytest.raises(ValueError, match="separation must be finite"):
        qfi_plane_closed(2.0, np.array([0.5, -0.1]))


@pytest.mark.parametrize("ktilde", [0.0, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("s", [0.05, 0.5, 1.0, 2.0, 3.0])
def test_plane_general_path_equals_closed_form(ktilde, s):
    amps = _plane(ktilde, s)
    general = qfi_separation(amps)
    closed = qfi_plane_closed(ktilde, s)
    assert general.value == pytest.approx(closed.value, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("ktilde", [0.0, 2.0])
@pytest.mark.parametrize("s", [38.0, 50.0, 100.0])
def test_plane_general_path_equals_closed_form_where_sinh_overflows(ktilde, s):
    # s^2/2 > 709.8: sinh(s^2/2) would overflow, and delta = exp(-s^2/2)
    # underflows to zero in the Gram form
    general = qfi_separation(_plane(ktilde, s))
    closed = qfi_plane_closed(ktilde, s)
    assert general.value == pytest.approx(closed.value, rel=1e-12)


def test_qfi_general_zero_at_coincidence():
    for amps in (_plane(2.0, 0.0), _vortex(SQ2I, 0.3, 0.0)):
        assert qfi_separation(amps).value == 0.0


@pytest.mark.parametrize("family,kwargs", [
    ("plane", {"ktilde": 2.0}),
    ("vortex", {"a": SQ2I, "psi": 0.0}),
    ("vortex", {"a": SQ2I, "psi": 0.3}),
])
@pytest.mark.parametrize("s", [0.5, 1.5])
def test_qfi_matrix_against_independent_oracle(family, kwargs, s):
    kappa = 0.7
    if family == "plane":
        amps = _plane(kwargs["ktilde"], s, x0=0.1, kappa=kappa)
        sites = plane_sites(kwargs["ktilde"])
    else:
        amps = _vortex(kwargs["a"], kwargs["psi"], s, x0=0.1, kappa=kappa)
        sites = vortex_sites(kwargs["a"], kwargs["psi"])
    got = qfi_matrix(amps)
    want_dd, want_dx, want_xx = qfi_matrix_fd(sites, s, x0=0.1, kappa=kappa)
    assert got.q_dd == pytest.approx(want_dd, rel=5e-7, abs=5e-7)
    assert got.q_dx0 == pytest.approx(want_dx, rel=5e-7, abs=5e-7)
    assert got.q_x0x0 == pytest.approx(want_xx, rel=5e-7, abs=5e-7)


def test_qfi_keeps_its_digits_off_centre_at_tiny_separation():
    # at x0 = 1 the site amplitudes are far from zero while the field
    # derivative is O(s): products of one site's amplitude with the other's
    # gradient would cancel, site sums and differences do not
    pytest.importorskip("mpmath")
    amps = _plane(0.5, 1e-10, x0=1.0, kappa=0.5)
    want = qfi_matrix_mpmath(*amps.site_amplitudes, *amps.site_gradients,
                             amps.s, amps.kappa)
    got = qfi_matrix(amps)
    assert got.q_dd == pytest.approx(want[0], rel=1e-14, abs=0.0)
    assert qfi_separation(amps).value == got.q_dd
    assert got.q_x0x0 == pytest.approx(want[2], rel=1e-14, abs=0.0)
    assert abs(got.q_dx0 - want[1]) <= 1e-14 * math.sqrt(want[0] * want[2])


def test_qfi_matrix_diagonal_matches_scalar_route():
    for amps in (_plane(2.0, 1.0), _vortex(SQ2I, 0.3, 0.7)):
        assert qfi_matrix(amps).q_dd == pytest.approx(
            qfi_separation(amps).value, rel=1e-12)


@pytest.mark.parametrize("s", [1e-8, 1.0, 6.0])
def test_qfi_geometry_comes_from_the_scene_separation(s):
    # no geometry argument: another separation can not reach the QFI, and
    # both routes share the scene's Gram form
    for amps in (_plane(2.0, s), _vortex(SQ2I, 0.3, s)):
        assert qfi_matrix(amps).q_dd == qfi_separation(amps).value
        with pytest.raises(TypeError):
            qfi_separation(amps, 3.0)


def test_plane_qfi_matrix_is_diagonal_on_axis():
    # centered plane-wave scenes have no d/x0 cross-information
    for ktilde in (0.0, 2.0):
        amps = _plane(ktilde, 1.2)
        got = qfi_matrix(amps)
        assert abs(got.q_dx0) < 1e-10 * max(got.q_dd, got.q_x0x0)


# ---------------------------------------------------------------------------
# vortex closed-form adjudication
# ---------------------------------------------------------------------------

_ADJ_GRID = [(a, psi, s)
             for a in (0.5, SQ2I, 1.0)
             for psi in (0.0, 0.2)
             for s in (0.1, 0.5, 1.0, 2.0, 3.0)]


def test_exactly_one_vortex_variant_matches_general_path():
    dev_shipped = 0.0
    dev_other = 0.0
    for a, psi, s in _ADJ_GRID:
        amps = _vortex(a, psi, s)
        general = qfi_separation(amps).normalized_value
        variants = vortex_closed_variants(a, psi, s)
        scale = max(1.0, abs(general))
        dev_shipped = max(dev_shipped,
                          abs(variants["psi_dependent"] - general) / scale)
        dev_other = max(dev_other,
                        abs(variants["psi_independent"] - general) / scale)
    assert dev_shipped < 1e-9
    assert dev_other > 1e-2


def test_qfi_vortex_closed_ships_the_certified_variant():
    report = qfi_vortex_closed(SQ2I, 0.2, 0.5)
    assert report.normalized_value == pytest.approx(
        vortex_closed_variants(SQ2I, 0.2, 0.5)["psi_dependent"], rel=1e-15)
    assert report.value == pytest.approx(6.6322630925701125, rel=1e-14)


def test_qfi_vortex_closed_offaxis_frozen():
    for s, expected in ((1.0, 4.3908570565771132), (2.0, 2.5867560147526136)):
        assert qfi_vortex_closed(SQ2I, 0.2, s).value == pytest.approx(expected, rel=1e-14)


def test_qfi_vortex_closed_limits_and_validation():
    assert qfi_vortex_closed(SQ2I, 0.0, 0.0).value == pytest.approx(0.0, abs=1e-13)
    assert qfi_vortex_closed(SQ2I, 0.3, 0.0).value == pytest.approx(0.0, abs=1e-13)
    # the shipped closed form and both candidates check a and s alike
    for closed_form in (qfi_vortex_closed, vortex_closed_variants):
        for a in (0.0, -0.7, math.nan):
            with pytest.raises(ValueError, match="waist ratio a must be positive"):
                closed_form(a, 0.0, 1.0)
        for s in (-1.0, math.inf, math.nan, np.array([0.5, -1.0])):
            with pytest.raises(ValueError, match="separation must be finite"):
                closed_form(0.7, 0.0, s)


# ---------------------------------------------------------------------------
# direct imaging
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ktilde,frozen", [(0.0, PLANE_DI_K0), (2.0, PLANE_DI_K2)])
def test_fi_direct_frozen_plane(ktilde, frozen):
    for s, expected in sorted(frozen.items()):
        report = fi_direct(_plane(ktilde, s))
        assert report.value == pytest.approx(expected, rel=1e-12)
        assert 0.0 <= report.error_estimate <= 2.1e-8  # tol * raw scale


@pytest.mark.parametrize("amps,sites,s,x0", [
    pytest.param(_plane, (2.0,), 0.5, 0.0, id="0.5"),
    pytest.param(_plane, (2.0,), 1.0, 0.0, id="1.0"),
    pytest.param(_plane, (2.0,), 2.0, 0.0, id="2.0"),
    pytest.param(_vortex, (SQ2I, 0.3), 1.0, 0.0, id="vortex-psi0.3"),
    pytest.param(_plane, (2.0,), 1.0, 0.7, id="x0-0.7"),
    # the one profile here that is not mirror-symmetric about x0, so the
    # two halves of fi_direct's folded window differ
    pytest.param(_vortex, (SQ2I, 0.3), 1.0, 0.7, id="vortex-x0-0.7"),
    pytest.param(_plane, (2.0,), math.pi / 2.0, 0.0, id="dark-fringe"),
    pytest.param(_plane, (2.0,), 6.0, 0.0, id="large-s"),
])
def test_fi_direct_against_independent_oracle(amps, sites, s, x0):
    oracle_sites = plane_sites if amps is _plane else vortex_sites
    report = fi_direct(amps(*sites, s, x0=x0), abs_tol=1e-10)
    want = di_fisher_fd(oracle_sites(*sites), s, x0=x0)
    assert report.value == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_fi_direct_of_a_dark_site(s):
    # site 1 on the vortex axis (x0 = s/2): left of x0 the only light is
    # site 2's far tail, yet it carries the gradient of site 1's field.  A
    # split of the folded profile into mirror-even and odd parts loses it
    # (at s = 3 the quadrature then exhausts its cell budget); the oracle
    # keeps every point where I > 0
    amps = _vortex(1.0, 0.0, s, x0=s / 2.0)
    assert amps.site_amplitudes[0] == 0.0
    want = di_fisher_analytic(vortex_sites(1.0, 0.0), vortex_slopes(1.0, 0.0), s, s / 2.0)
    assert fi_direct(amps, abs_tol=1e-10).value == pytest.approx(want, rel=1e-10)


def test_fi_direct_meets_its_tolerance_on_the_default_figure3_curve():
    # fi_di_err is the Gauss-Kronrod error estimate, not a bound: on this
    # curve (figure3's psi = 0.1 row) the value at s = 2.69849 is 2.1e-9
    # from the converged one, 3.8 times its estimate.  What holds is the
    # tolerance: every normalized value within tol = 1e-8 of the exact one.
    s = np.linspace(0.01, 3.0, 120)
    report = fi_direct(_vortex(SQ2I, 0.1, s))
    sites, slopes = vortex_sites(SQ2I, 0.1), vortex_slopes(SQ2I, 0.1)
    want = np.array([di_fisher_analytic(sites, slopes, v) for v in s]) / 2.0
    assert np.all(np.abs(report.normalized_value - want) <= 1e-8)


def test_fi_direct_saturates_qfi_for_collinear_plane():
    for s in (0.5, 1.0, 2.0):
        di = fi_direct(_plane(0.0, s), abs_tol=1e-10).value
        qfi = qfi_plane_closed(0.0, s).value
        assert abs(di - qfi) / qfi < 1e-6


def test_fi_direct_saturates_qfi_for_on_axis_vortex():
    for s, expected in sorted(VORTEX_QFI_ONAXIS.items()):
        closed = qfi_vortex_closed(SQ2I, 0.0, s).value
        assert closed == pytest.approx(expected, rel=1e-13)
        di = fi_direct(_vortex(SQ2I, 0.0, s), abs_tol=1e-10).value
        assert abs(di - closed) / closed < 1e-6


def test_fi_direct_shares_integrand_calls_along_a_curve(monkeypatch):
    # one figure2 curve must refine its 120 integrals in lockstep rounds,
    # not one integrand call per cell of every point
    calls = 0
    batch = fisher.integrate_1d_many

    def counting(f, *args, **kwargs):
        def counted(rows, x):
            nonlocal calls
            calls += 1
            return f(rows, x)

        return batch(counted, *args, **kwargs)

    monkeypatch.setattr(fisher, "integrate_1d_many", counting)
    report = fi_direct(_plane(2.0, np.linspace(0.01, 3.0, 120)))
    assert report.value.shape == (120,)
    assert 0 < calls < 120


def test_fi_direct_underflowed_profile_is_zero():
    # a narrow vortex far off both sites: every intensity underflows to 0,
    # which used to give 0/0 at every node and a ConvergenceError; a dark
    # point has no phase loss, so its information counts through the QFI
    amps = _vortex(0.5, 0.0, 19.0)
    assert amps.n_total < 1e-300
    assert fi_direct(amps).value == qfi_separation(amps).value


_scenes = st.tuples(
    st.one_of(st.tuples(st.just("plane"), st.floats(0.0, 4.0), st.just(0.0)),
              st.tuples(st.just("vortex"), st.floats(0.5, 1.0), st.floats(-0.3, 0.3))),
    st.floats(1e-6, 20.0),                   # s
    st.floats(-1.0, 1.0),                    # x0
    st.floats(0.05, 1.0, exclude_max=True),  # kappa < 1
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_scenes)
def test_fi_direct_is_below_qfi_over_random_scenes(scene):
    (family, p, psi), s, x0, kappa = scene
    amps = (_plane(p, s, x0=x0, kappa=kappa) if family == "plane"
            else _vortex(p, psi, s, x0=x0, kappa=kappa))
    di = fi_direct(amps)
    assert di.normalized_value <= qfi_separation(amps).normalized_value + 1e-8


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_scenes)
def test_fi_direct_meets_its_relative_tolerance_over_random_scenes(scene):
    # the phase loss is held to tol * min(1, QFI): DI keeps the absolute
    # tolerance, tightened to a relative one where the QFI is below 1 (the
    # oracle's own error is ~2e-16 / s of DI, far inside that)
    (family, p, psi), s, x0, kappa = scene
    if family == "plane":
        amps, sites, slopes = _plane(p, s, x0=x0, kappa=kappa), plane_sites(p), plane_slopes(p)
    else:
        amps = _vortex(p, psi, s, x0=x0, kappa=kappa)
        sites, slopes = vortex_sites(p, psi), vortex_slopes(p, psi)
    tol = 1e-8
    di, qfi = fi_direct(amps, abs_tol=tol), qfi_separation(amps)
    want = di_fisher_analytic(sites, slopes, s, x0, kappa) / (2.0 * kappa)
    assert abs(di.normalized_value - want) <= tol * min(1.0, qfi.normalized_value)
    assert di.value <= qfi.value


_profile_scenes = st.tuples(
    st.one_of(st.tuples(st.just("plane"), st.floats(0.0, 4.0), st.just(0.0)),
              st.tuples(st.just("vortex"), st.floats(0.3, 3.0), st.floats(-1.0, 1.0))),
    st.floats(0.0, 8.0),                                         # s
    st.floats(-1.0, 1.0).filter(lambda x0: abs(x0) > 1e-3),      # x0
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_profile_scenes, st.lists(st.floats(0.0, 6.0), min_size=1, max_size=8))
def test_di_real_form_equals_the_complex_profile(scene, offsets):
    # the real forms of I and dI/ds at x0 + u and x0 - u against |A|^2 and
    # Re(conj(A) 2 d_s A) of the complex field A = a1 e1 + a2 e2, with
    # 2 d_s A = (-g1 - 2 a1 d1) e1 + (g2 + 2 a2 d2) e2 and d_k the offsets
    # from the sites x0 -/+ s/2.  Errors are relative to the sizes of the
    # two copies' terms, which is all a lopsided profile leaves: a test
    # relative to the mirror-even part would pass a form that loses the
    # dim side (x0 != 0 makes the sites unequal).  Against 40-digit
    # values both sides err by up to ~4e-14 of these sizes, from rounding
    # exp(-64)-sized Gaussians
    (family, p, psi), s, x0 = scene
    amps = _plane(p, s, x0=x0) if family == "plane" else _vortex(p, psi, s, x0=x0)
    (a1, a2), (g1, g2) = amps.site_amplitudes, amps.site_gradients
    u = np.array(offsets)
    products = fisher._di_products(u, s, moments=True)[:, None]  # one scene
    sides = zip((1.0, -1.0), *fisher._di_sides(fisher._di_coefficients(amps), products))
    for sign, (inten,), (d_inten,) in sides:
        d1, d2 = sign * u + s / 2.0, sign * u - s / 2.0
        e1, e2 = np.exp(-d1 ** 2), np.exp(-d2 ** 2)
        field = a1 * e1 + a2 * e2
        d_field = (-g1 - 2.0 * a1 * d1) * e1 + (g2 + 2.0 * a2 * d2) * e2
        size = np.abs(a1 * e1) + np.abs(a2 * e2)
        d_size = ((np.abs(g1) + 2.0 * np.abs(a1 * d1)) * e1
                  + (np.abs(g2) + 2.0 * np.abs(a2 * d2)) * e2)
        assert np.all(np.abs(inten - np.abs(field) ** 2) <= 1e-13 * size ** 2)
        assert np.all(np.abs(d_inten - (np.conj(field) * d_field).real)
                      <= 1e-13 * size * d_size)


@pytest.mark.parametrize("x0", [0.0, 0.5])
@pytest.mark.parametrize("amps", [
    pytest.param(lambda s, x0: _plane(0.0, s, x0=x0), id="plane-k0"),
    pytest.param(lambda s, x0: _vortex(SQ2I, 0.0, s, x0=x0), id="vortex-psi0"),
])
def test_fi_direct_is_the_qfi_where_every_amplitude_is_real(amps, x0):
    # the field's phase does not depend on s, so the phase loss is exactly
    # zero at every node and DI is the closed-form QFI bit for bit, in one
    # quadrature round, over the default sweep grid
    curve = amps(np.linspace(0.01, 3.0, 120), x0)
    di, qfi = fi_direct(curve), qfi_separation(curve)
    assert di.value.tobytes() == qfi.value.tobytes()
    assert di.normalized_value.tobytes() == qfi.normalized_value.tobytes()
    assert not np.any(di.error_estimate)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_profile_scenes, st.lists(st.floats(0.0, 6.0), min_size=1, max_size=8))
def test_di_phase_form_equals_the_complex_profile(scene, offsets):
    # the phase-loss numerator J = Im(conj(A) 2 d_s A) from the same factor
    # table as dI/ds, against the complex field as in the real-form test
    (family, p, psi), s, x0 = scene
    amps = _plane(p, s, x0=x0) if family == "plane" else _vortex(p, psi, s, x0=x0)
    (a1, a2), (g1, g2) = amps.site_amplitudes, amps.site_gradients
    u = np.array(offsets)
    products = fisher._di_products(u, s, moments=True)[:, None]  # one scene
    coeffs = fisher._di_coefficients(amps, phase=True)
    assert np.array_equal(coeffs[:3], fisher._di_coefficients(amps)[:3])
    sides = zip((1.0, -1.0), fisher._di_sides(coeffs, products)[1])
    for sign, (phase,) in sides:
        d1, d2 = sign * u + s / 2.0, sign * u - s / 2.0
        e1, e2 = np.exp(-d1 ** 2), np.exp(-d2 ** 2)
        field = a1 * e1 + a2 * e2
        d_field = (-g1 - 2.0 * a1 * d1) * e1 + (g2 + 2.0 * a2 * d2) * e2
        size = np.abs(a1 * e1) + np.abs(a2 * e2)
        d_size = ((np.abs(g1) + 2.0 * np.abs(a1 * d1)) * e1
                  + (np.abs(g2) + 2.0 * np.abs(a2 * d2)) * e2)
        assert np.all(np.abs(phase - (np.conj(field) * d_field).imag)
                      <= 1e-13 * size * d_size)


def test_fi_direct_meets_its_relative_tolerance_on_the_default_sweeps():
    # every row of default figure2 and figure3 within tol * min(1, QFI) of
    # a tight reference, and never above the QFI; an absolute tolerance
    # on L alone misses by 2.4x at psi = 0.2, s = 2.95
    s = np.linspace(0.01, 3.0, 120)
    curves = ([_plane(kt, s) for kt in (0.0, 1.0, 2.0, 4.0)]
              + [_vortex(SQ2I, psi, s) for psi in (0.0, 0.1, 0.2, 0.3)])
    for amps in curves:
        di, qfi = fi_direct(amps), qfi_separation(amps).normalized_value
        want = fi_direct(amps, abs_tol=1e-13).normalized_value
        assert np.all(np.abs(di.normalized_value - want) <= 1e-8 * np.minimum(1.0, qfi))
        assert np.all(di.normalized_value <= qfi)


def test_fi_direct_nonconvergence_carries_a_di_estimate():
    # the kernel stalls on L / min(1, QFI); the error reports DI = QFI - L
    # for the scene it names, and L's error in DI's units (at s = 0 the
    # QFI and L vanish, so that scene converges at once)
    curve = _plane(2.0, np.array([0.0, 0.5]))
    with pytest.raises(ConvergenceError, match=r"direct imaging at s=0\.5: ") as info:
        fi_direct(curve, abs_tol=1e-30)
    assert info.value.member == 1
    assert info.value.estimate == pytest.approx(
        fi_direct(_plane(2.0, 0.5), abs_tol=1e-13).normalized_value, rel=1e-12)
    assert 0.0 < info.value.error < 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: fi_di_err is L's Gauss-Kronrod estimate, not a bound, "
    "and the tolerance rests on it; at this row the error is 7.7 times the "
    "reported one and 5.8 times tol * min(1, QFI)"))
def test_fi_direct_meets_its_tolerance_in_the_vortex_tail_grid():
    # row 40 of figure3's psi = 0.2 curve at s_max=8 (a curve refines each
    # scene as it would alone)
    amps = _vortex(SQ2I, 0.2, 2.6957142857142857)
    di = fi_direct(amps)
    off = abs(di.normalized_value - fi_direct(amps, abs_tol=1e-14).normalized_value)
    assert off <= 1e-8 * min(1.0, qfi_separation(amps).normalized_value)
    assert off <= di.error_estimate


def test_offset_vortex_di_gap_and_spade_recovery():
    # with the beam off axis, direct imaging loses phase information that
    # mode sorting retains
    amps = _vortex(SQ2I, 0.3, 0.5)
    qfi = qfi_separation(amps).value
    di = fi_direct(amps, abs_tol=1e-10).value
    spade = fi_spade(amps, 30).value
    assert qfi == pytest.approx(7.2633378793865289, rel=1e-12)
    assert di == pytest.approx(2.7677816129869979, rel=1e-9)
    assert di / qfi == pytest.approx(0.38106193859465182, rel=1e-9)
    assert spade / qfi == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# SPADE
# ---------------------------------------------------------------------------

def test_spade_collinear_closed_matches_mode_sum():
    # the full mode sum at ktilde = 0 saturates the QFI, so its closed form
    # is the plane-wave QFI closed form there
    for s in (0.3, 1.0, 2.0, 3.0):
        closed = qfi_plane_closed(0.0, s)
        series = fi_spade(_plane(0.0, s), 30)
        assert closed.normalized_value == pytest.approx(
            1.0 + math.exp(-s * s / 2.0) * (s * s - 1.0), rel=1e-15)
        assert series.value == pytest.approx(closed.value, abs=1e-8)
    for s in (-1.0, math.nan):
        with pytest.raises(ValueError, match="separation must be finite"):
            qfi_plane_closed(0.0, s)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_fi_spade_against_independent_oracle(s):
    for amps, sites in (
        (_plane(2.0, s), plane_sites(2.0)),
        (_vortex(SQ2I, 0.3, s), vortex_sites(SQ2I, 0.3)),
    ):
        got = fi_spade(amps, 12).value
        want = spade_fisher_fd(sites, s, 12)
        assert got == pytest.approx(want, rel=1e-7)


# fi_spade (M = 30, M = 10) and N_0, N_1, N_4 as float.hex, frozen from the
# schema 9 table (mode amplitudes straight from the site amplitudes); the
# fi_spade bits from schema 10's channel terms (dN_m / sqrt(N_m))^2
SPADE_BITS = {
    "plane-s0": (
        _plane, (2.0, 0.0), {},
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.0000000000000p+2", "0x0.0p+0", "0x0.0p+0")),
    "plane-s1e-8": (
        _plane, (2.0, 1e-8), {},
        ("0x1.35d8ffe057c8ap-48", "0x1.35d8ffe057c8ap-48"),
        ("0x1.0000000000000p+2", "0x1.9f623d5a8a730p-107", "0x1.c1551b1463436p-224")),
    "plane-s1": (
        _plane, (2.0, 1.0), {},
        ("0x1.06e6ef6a45b4dp+4", "0x1.06e6ef6a453bap+4"),
        ("0x1.d19e4432a9475p-1", "0x1.1a5768de1dcefp-1", "0x1.366982cc70dacp-13")),
    "plane-s20": (
        _plane, (2.0, 20.0), {},
        ("0x1.5d9d199069685p-46", "0x1.780d90020a9b4p-93"),
        ("0x1.1af0f09b2f54fp-145", "0x1.14947586c24ffp-136", "0x1.1913a92d5190ap-123")),
    "collinear-kappa-g": (
        _plane, (0.0, 0.5), {"kappa": 0.8, "g": 1.3},
        ("0x1.d41ea4684bbafp-1", "0x1.d41ea4684bbafp-1"),
        ("0x1.452462e4c29b9p+2", "0x0.0p+0", "0x1.b185d931037a5p-19")),
    "vortex-offset": (
        _vortex, (1.2, 0.3, 0.9), {"x0": 0.7},
        ("0x1.ac7f0d8cec6fcp+2", "0x1.ac7f0d8cec692p+2"),
        ("0x1.c72a8370a0a24p+0", "0x1.586dc644edf9ap-5", "0x1.053ed40ea987cp-13")),
}


@pytest.mark.parametrize("name", sorted(SPADE_BITS))
def test_spade_bits_are_frozen(name):
    make, args, scene_kw, fi_bits, n_bits = SPADE_BITS[name]
    amps = make(*args, **scene_kw)
    assert (fi_spade(amps, 30).value.hex(),
            fi_spade(amps, 10).value.hex()) == fi_bits
    n = fisher._spade_table(amps, 4)[0][0]
    assert tuple(n[m].hex() for m in (0, 1, 4)) == n_bits


def test_fi_spade_builds_one_table_per_curve(monkeypatch):
    calls = []
    table = fisher._gamma_table

    def counted(s_values, *args):
        calls.append(len(s_values))
        return table(s_values, *args)

    monkeypatch.setattr(fisher, "_gamma_table", counted)
    fi_spade(_plane(2.0, np.array([0.0, 0.5, 1.0, 4.0])), 30)
    assert calls == [4]


@pytest.mark.parametrize("case", [
    ("plane", 2.0, 0.0, 1.0, 0.0, 1.0, 1.0),
    ("plane", 0.0, 0.0, 0.5, 0.0, 0.8, 1.3),
    ("plane", 3.0, 0.0, 4.0, -0.4, 0.6, 1.0),
    ("vortex", 1.2, 0.3, 0.9, 0.7, 1.0, 1.0),
    ("vortex", SQ2I, 0.2, 2.5, 0.0, 0.5, 0.7),
], ids=["plane-k2", "collinear", "plane-k3-offset", "vortex-offset", "vortex-far"])
def test_spade_against_closed_oracle(case):
    family, p, psi, s, x0, kappa, g = case
    if family == "plane":
        amps = _plane(p, s, x0=x0, kappa=kappa, g=g)
        sites, slopes = plane_sites(p, g), plane_slopes(p, g)
    else:
        amps = _vortex(p, psi, s, x0=x0, kappa=kappa, g=g)
        sites, slopes = vortex_sites(p, psi, g), vortex_slopes(p, psi, g)
    for M in (4, 12, 30):
        photons, fisher_norm = spade_closed(sites, slopes, s, x0, M, kappa, g)
        assert fi_spade(amps, M).normalized_value == pytest.approx(
            fisher_norm, rel=1e-12)
        got = fisher._spade_table(amps, M)[0][0].tolist()
        assert got == pytest.approx(photons, rel=1e-12, abs=1e-300)


_spade_scenes = st.tuples(
    st.one_of(st.tuples(st.just("plane"), st.floats(0.0, 4.0), st.just(0.0)),
              st.tuples(st.just("vortex"), st.floats(0.3, 3.0), st.floats(-1.0, 1.0))),
    st.floats(1e-10, 20.0),                  # s
    st.floats(-1.0, 1.0),                    # x0
    st.floats(0.05, 1.0, exclude_max=True),  # kappa < 1
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(_spade_scenes, min_size=1, max_size=4))
def test_spade_properties_over_random_scenes(scenes):
    curve = [_plane(p, s, x0=x0, kappa=kappa) if family == "plane"
             else _vortex(p, psi, s, x0=x0, kappa=kappa)
             for (family, p, psi), s, x0, kappa in scenes]
    for amps in curve:
        spade = fi_spade(amps, 30)
        qfi = qfi_separation(amps)
        assert spade.value <= qfi.value * (1.0 + 1e-9)
        by_cutoff = [fi_spade(amps, M).value for M in range(31)]
        assert by_cutoff == sorted(by_cutoff)
        assert by_cutoff[-1] == spade.value
        # modes 0..30 plus the tail beyond them hold every photon: even
        # modes collect |a1 + a2|^2, odd modes |a2 - a1|^2, times gamma_m^2
        a1, a2 = amps.site_amplitudes
        tail = amps.kappa * sum(
            spade_gamma(m, amps.s) ** 2 * abs(a2 + (-1) ** m * a1) ** 2
            for m in range(31, 260))
        photons = fisher._spade_table(amps, 30)[0].sum()
        assert photons + tail == pytest.approx(amps.n_total, rel=1e-10)


_off_center = st.floats(-1.0, 1.0).filter(lambda x0: abs(x0) > 1e-3)
_psd_scenes = st.one_of(
    st.tuples(st.one_of(
                  st.tuples(st.just("plane"), st.floats(0.0, 4.0), st.just(0.0)),
                  st.tuples(st.just("vortex"), st.floats(0.3, 3.0), st.floats(-1.0, 1.0))),
              st.floats(1e-10, 20.0), _off_center),
    # dark fringes of the plane wave: kt s = n pi empties one image mode
    st.builds(lambda kt, n, x0: (("plane", kt, 0.0), n * math.pi / kt, x0),
              st.floats(0.5, 4.0), st.integers(1, 3), _off_center),
    # one emitter on the vortex core, the other s = t a out in the beam's
    # tail: for large t the image is dark, d and x0 only brighten the core
    # emitter, and the matrix tends to rank one
    st.builds(lambda a, t: (("vortex", a, 0.0), t * a, t * a / 2.0),
              st.floats(0.3, 2.0), st.floats(0.1, 8.0)),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_psd_scenes, st.floats(0.05, 1.0, exclude_max=True))
def test_qfi_matrix_is_psd_over_random_scenes(scene, kappa):
    (family, p, psi), s, x0 = scene
    amps = (_plane(p, s, x0=x0, kappa=kappa) if family == "plane"
            else _vortex(p, psi, s, x0=x0, kappa=kappa))
    q = qfi_matrix(amps)
    assert q.q_dd >= 0.0 and q.q_x0x0 >= 0.0
    # det's own roundoff scale: the two products it subtracts
    scale = q.q_dd * q.q_x0x0 + q.q_dx0**2
    assert q.q_dd * q.q_x0x0 - q.q_dx0**2 >= -1e-9 * scale


def test_fi_spade_monotone_in_mode_cutoff():
    amps = _plane(2.0, 1.0)
    values = [fi_spade(amps, M).value for M in (5, 10, 15, 20, 25)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= qfi_plane_closed(2.0, 1.0).value * (1.0 + 1e-9)


def test_fi_spade_validation_and_degenerate_cases():
    amps = _plane(2.0, 1.0)
    with pytest.raises(ValueError):
        fi_spade(amps, -1)
    assert fi_spade(_plane(2.0, 0.0), 30).value == 0.0


def test_fi_spade_at_a_subnormal_separation_is_finite_and_quiet():
    # the mode slopes divide by nothing, so s = 1e-320 neither overflows
    # nor puts 0 * inf into a dark mode's slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fi_spade(_plane(2.0, 1e-320), 30)
    assert math.isfinite(report.value) and report.value >= 0.0


@pytest.mark.parametrize("ktilde", [0.5, 2.0])
@pytest.mark.parametrize("s", [1e-54, 1e-58, 1e-70])
def test_fi_spade_saturates_qfi_at_tiny_separations(ktilde, s):
    # (dN_m)^2 underflows below s ~ 1e-51 (dN_1 ~ s^3), but dN_m / sqrt(N_m)
    # does not: every mode's term survives while N_m is a normal double
    amps = _plane(ktilde, s)
    ratio = fi_spade(amps, 30).value / qfi_separation(amps).value
    assert abs(ratio - 1.0) <= 1e-12


@pytest.mark.parametrize("M", [10.5, True, 30.0, "30", -1])
@pytest.mark.parametrize("estimator", [
    pytest.param(fi_spade, id="fi_spade"),
    # the table of mode photon numbers that the count model reads
    pytest.param(fisher._spade_table, id="mean_photons_spade"),
])
def test_spade_mode_cutoff_must_be_a_nonnegative_integer(estimator, M):
    # a fractional cutoff must not round to some number of modes, a bool
    # is not a count, and no count is negative
    with pytest.raises(ValueError, match="nonnegative integer"):
        estimator(_plane(2.0, 1.0), M)


def test_mean_photons_spade_conservation():
    for amps in (_plane(2.0, 1.3, kappa=0.8), _vortex(SQ2I, 0.2, 0.9)):
        total = fisher._spade_table(amps, 30)[0].sum()
        assert total == pytest.approx(amps.n_total, rel=1e-10)


def test_mean_photons_spade_bounds():
    amps = _plane(0.0, 1.0)
    with pytest.raises(ValueError):
        fi_spade(amps, -1)
    # no upper cap: an even mode beyond 30 holds its tiny share of the light
    n = fisher._spade_table(amps, 32)[0][0]
    assert 0.0 < n[32] < n[30]


def test_small_s_information_does_not_cancel():
    # the O(s) light that tells the emitters apart sits in site differences
    # and in 1 - delta, which must not cancel to a few ulps at s = 1e-8
    # (a cancelling 1 - delta reads 13.5 for SPADE and 15.5 for the QFI)
    def per_s2(s):
        amps = _plane(2.0, s)
        return (fi_spade(amps, 30).normalized_value / s**2,
                qfi_separation(amps).normalized_value / s**2)

    at_1e5 = per_s2(1e-5)
    assert at_1e5 == pytest.approx((21.5, 21.5), rel=1e-6)
    assert per_s2(1e-8) == pytest.approx(at_1e5, rel=1e-6)


def _estimator_records(make, *params):
    def records(s):
        amps = make(*params, s, x0=0.4, kappa=0.8, g=1.3)
        return (fi_spade(amps, 12), qfi_separation(amps), qfi_matrix(amps),
                fi_direct(amps))

    return records


def _entry_bits(record, one_scene):
    """Each field of a record: the float.hex of each entry (one entry, a
    Python float, for a one-scene record)."""
    if isinstance(record, tuple):  # optimize_waist: (a*, Q*), arrays per grid
        return {k: [x.hex() for x in v.tolist()] for k, v in enumerate(record)}
    bits = {}
    for name, value in vars(record).items():
        if one_scene:
            assert type(value) is float
            bits[name] = [value.hex()]
        else:
            bits[name] = [x.hex() for x in value.tolist()]
    return bits


@pytest.mark.parametrize("records", [
    _estimator_records(_plane, 2.0), _estimator_records(_plane, 0.0),
    _estimator_records(_vortex, 1.2, 0.3), _estimator_records(_vortex, SQ2I, 0.0),
    lambda s: (qfi_plane_closed(2.0, s, 0.8, 1.3),),
    lambda s: (qfi_vortex_closed(1.2, 0.3, s, 0.8, 1.3),),
    lambda s: (optimize_waist(0.3, np.atleast_1d(s), kappa=0.8, g=1.3),),
], ids=["plane-k2", "collinear", "vortex-offset", "vortex-axis", "qfi_plane_closed",
        "qfi_vortex_closed", "optimize_waist"])
def test_estimators_report_each_scene_of_an_array_record(records):
    # one record for the whole curve; entry i of each field is, bit for
    # bit, the one-scene value at s_i
    s_values = [0.0, 1e-8, 0.3, 1.0, 2.5, 6.0]
    curve = records(np.array(s_values))
    scenes = [records(s) for s in s_values]
    for k, record in enumerate(curve):
        want = [_entry_bits(one[k], one_scene=True) for one in scenes]
        for name, got in _entry_bits(record, one_scene=False).items():
            if isinstance(got, str):
                assert all(one[name] == got for one in want)
            else:
                assert got == [bits for one in want for bits in one[name]]


def test_spade_saturates_plane_qfi_with_transverse_phase():
    got = fi_spade(_plane(2.0, 1.0), 30).value
    assert got == pytest.approx(qfi_plane_closed(2.0, 1.0).value, rel=1e-8)


# ---------------------------------------------------------------------------
# intensity profile, small-s coefficients, waist optimization
# ---------------------------------------------------------------------------

def test_intensity_profile_integrates_to_photon_number():
    # the image field rebuilt from the package's site amplitudes on the
    # oracle grid (the y-factor integrates to one) carries |alpha+|^2 +
    # |alpha-|^2 photons
    for amps in (_plane(2.0, 1.0, kappa=0.8), _vortex(SQ2I, 0.3, 0.5)):
        field = field_1d(lambda s, x0: amps.site_amplitudes, amps.s, amps.x0,
                         amps.kappa)
        total = trapezoid(np.abs(field) ** 2).real
        assert total == pytest.approx(amps.n_total, rel=1e-9)


def test_small_s_coefficients_frozen_collinear():
    c_di, c_qfi, c_spade = small_s_coefficients(ktilde=0.0)
    assert c_di == pytest.approx(2.9975606126539955, rel=1e-9)
    assert c_qfi == pytest.approx(2.9975606126679111, rel=1e-9)
    assert c_spade == pytest.approx(2.9975606126679124, rel=1e-9)


def test_optimize_waist_frozen_point():
    (a_star,), (q_star,) = optimize_waist(0.0, [1.0])
    assert a_star == pytest.approx(1.1040581162434564, abs=1e-5)
    assert q_star == pytest.approx(4.4071601947647272, rel=1e-8)
    # local optimality
    assert q_star >= qfi_vortex_closed(a_star + 0.01, 0.0, 1.0).value
    assert q_star >= qfi_vortex_closed(a_star - 0.01, 0.0, 1.0).value


@pytest.mark.parametrize("psi,kappa,g,s_grid", [
    (0.0, 1.0, 1.0, np.linspace(0.01, 3.0, 120)),
    (0.3, 0.7, 1.3, np.linspace(0.0, 8.0, 97)),
])
def test_optimize_waist_pairs_are_the_scalar_closed_form(psi, kappa, g, s_grid):
    # the scan, the refinement rounds and Q* evaluate the closed form as
    # arrays; each Q* must still be the scalar value, sign of zero included
    a_stars, q_stars = optimize_waist(psi, s_grid, kappa=kappa, g=g)
    assert a_stars.dtype == q_stars.dtype == np.float64
    assert a_stars.shape == q_stars.shape == s_grid.shape
    for s, a_star, q_star in zip(s_grid.tolist(), a_stars.tolist(), q_stars.tolist()):
        want = qfi_vortex_closed(a_star, psi, s, kappa, g).value
        assert (q_star, math.copysign(1.0, q_star)) == (want, math.copysign(1.0, want))


_WAIST_S = (0.01, 0.3, 0.7, 1.007, 1.505, 2.2, 3.0)


@pytest.mark.parametrize("psi", [0.0, 0.2])
def test_optimize_waist_matches_the_grid_and_bisection_oracle(psi):
    # the cubic's roots give the oracle's maximizer, and no point of its
    # 4,096-point grid beats Q* (up to the rounding between the package's
    # and the oracle's transcriptions of the closed form)
    a_stars, q_stars = optimize_waist(psi, _WAIST_S)
    for s, a_star, q_star in zip(_WAIST_S, a_stars.tolist(), q_stars.tolist()):
        a_ref, grid_values = optimal_waist(psi, s)
        assert abs(a_star - a_ref) <= 1e-9
        assert q_star / 2.0 >= grid_values.max() * (1.0 - 1e-15)


def test_optimize_waist_at_and_near_zero_separation():
    # Q vanishes for every a at s = 0; at s = 0.01 on axis the optimum is
    # the lower bound itself
    (a_zero, a_small), (q_zero, _) = optimize_waist(0.0, [0.0, 0.01])
    assert (a_zero, q_zero) == (0.05, 0.0)
    assert a_small == 0.05 == optimal_waist(0.0, 0.01)[0]
    (a_custom,), (q_custom,) = optimize_waist(0.2, [0.0], a_bounds=(0.3, 2.0))
    assert (a_custom, q_custom) == (0.3, 0.0)


def test_optimize_waist_follows_the_jump_between_two_local_maxima():
    # on axis, the optimum moves from one local maximum (a* ~ 1.11 at
    # s = 1.007) to another (a* ~ 0.525 at s = 1.505); at every s between,
    # the package picks the oracle's global maximum
    s_grid = np.linspace(1.007, 1.505, 25)
    a_stars, _ = optimize_waist(0.0, s_grid)
    assert a_stars[0] == pytest.approx(1.11, abs=0.01)
    assert a_stars[-1] == pytest.approx(0.525, abs=0.01)
    for s, a_star in zip(s_grid.tolist(), a_stars.tolist()):
        assert abs(a_star - optimal_waist(0.0, s)[0]) <= 1e-9


def test_qfi_vortex_closed_keeps_its_digits_at_small_s():
    # every e^{-s^2/2} difference of the bracket goes through expm1, so the
    # closed form matches 40-digit arithmetic at s down to 1e-6
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def reference(a, psi, s):
        a, psi, s = mp.mpf(a), mp.mpf(psi), mp.mpf(s)
        a2, s2, p2 = a * a, s * s, psi * psi
        poly = s2 * s2 + s2 * (4 * p2 + a2 * (a2 - 4)) + 4 * a2 * a2 * (1 + p2)
        sub = (s2 * s2 * (a2 + 1) ** 2 - s2 * (a2 * (5 * a2 + 4) + 4 * (a2 + 1) ** 2 * p2)
               + 4 * a2 * a2 * (p2 + 1))
        return (mp.e / (2 * a2 ** 3) * mp.exp(-(s2 / 2 + 2 * p2) / a2)
                * (poly - mp.exp(-s2 / 2) * sub))

    for a in (0.3, SQ2I, 2.0):
        for psi in (0.0, 0.2, 1.0):
            for s in (1e-6, 1e-4, 1e-2, 1.0):
                want = reference(a, psi, s)
                got = qfi_vortex_closed(a, psi, s).normalized_value
                assert abs(float((got - want) / want)) <= 1e-13


def test_optimize_waist_bounds_validation():
    with pytest.raises(ValueError):
        optimize_waist(0.0, [1.0], a_bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        optimize_waist(0.0, [1.0], a_bounds=(2.0, 1.0))
    with pytest.raises(ValueError, match="separation must be finite"):
        optimize_waist(0.0, [1.0, -1.0])
