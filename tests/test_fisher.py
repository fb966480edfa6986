"""QFI/FI routes: general Gram path, closed forms, direct imaging, SPADE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carsfisher import fisher
from carsfisher import (
    EmitterScene,
    FisherReport,
    PlaneWaveExcitation,
    QfiMatrix,
    VortexExcitation,
    fi_direct,
    fi_direct_many,
    fi_spade,
    fi_spade_many,
    image_amplitudes,
    mean_photons_spade,
    optimize_waist,
    psf_geometry,
    qfi_matrix,
    qfi_plane_closed,
    qfi_separation,
    qfi_vortex_closed,
    small_s_coefficients,
    spade_collinear_closed,
    vortex_closed_variants,
)

from oracles import (
    di_fisher_fd,
    field_1d,
    plane_sites,
    plane_slopes,
    qfi_matrix_fd,
    spade_closed,
    spade_fisher_fd,
    spade_gamma,
    trapezoid,
    vortex_sites,
    vortex_slopes,
)

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
    with pytest.raises(ValueError, match="method"):
        FisherReport(value=1.0, normalized_value=0.5, method="guesswork")
    with pytest.raises(ValueError, match="nonnegative"):
        FisherReport(value=-1.0, normalized_value=-0.5, method="qfi_closed")


@pytest.mark.parametrize("field", ["value", "normalized_value", "error_estimate"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fisher_report_rejects_non_finite_fields(field, bad):
    fields = {"value": 1.0, "normalized_value": 0.5, field: bad}
    with pytest.raises(ValueError, match=f"finite: {field}="):
        FisherReport(method="qfi_closed", **fields)


def test_qfi_matrix_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        QfiMatrix(q_dd=-1.0, q_dx0=0.0, q_x0x0=1.0)
    with pytest.raises(ValueError, match="semidefinite"):
        QfiMatrix(q_dd=1.0, q_dx0=2.0, q_x0x0=1.0)
    QfiMatrix(q_dd=1.0, q_dx0=0.999, q_x0x0=1.0)  # PSD boundary is fine


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


@pytest.mark.parametrize("ktilde", [0.0, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("s", [0.05, 0.5, 1.0, 2.0, 3.0])
def test_plane_general_path_equals_closed_form(ktilde, s):
    amps = _plane(ktilde, s)
    general = qfi_separation(amps)
    closed = qfi_plane_closed(ktilde, s)
    assert general.value == pytest.approx(closed.value, rel=1e-10, abs=1e-10)


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


def test_qfi_matrix_diagonal_matches_scalar_route():
    for amps in (_plane(2.0, 1.0), _vortex(SQ2I, 0.3, 0.7)):
        assert qfi_matrix(amps).q_dd == pytest.approx(
            qfi_separation(amps).value, rel=1e-12)


@pytest.mark.parametrize("s", [1e-8, 1.0, 6.0])
def test_qfi_geometry_comes_from_the_scene_separation(s):
    # no geometry argument: a PsfGeometry at another separation can no
    # longer reach the QFI, and both routes share the scene's geometry
    for amps in (_plane(2.0, s), _vortex(SQ2I, 0.3, s)):
        assert qfi_matrix(amps).q_dd == qfi_separation(amps).value
        with pytest.raises(TypeError):
            qfi_separation(amps, psf_geometry(3.0))


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
    with pytest.raises(ValueError):
        qfi_vortex_closed(0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# direct imaging
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ktilde,frozen", [(0.0, PLANE_DI_K0), (2.0, PLANE_DI_K2)])
def test_fi_direct_frozen_plane(ktilde, frozen):
    for s, expected in sorted(frozen.items()):
        report = fi_direct(_plane(ktilde, s))
        assert report.value == pytest.approx(expected, rel=1e-12)
        assert report.method == "di_quadrature"
        assert 0.0 <= report.error_estimate <= 2.1e-8  # tol * raw scale


@pytest.mark.parametrize("amps,sites,s,x0", [
    pytest.param(_plane, (2.0,), 0.5, 0.0, id="0.5"),
    pytest.param(_plane, (2.0,), 1.0, 0.0, id="1.0"),
    pytest.param(_plane, (2.0,), 2.0, 0.0, id="2.0"),
    pytest.param(_vortex, (SQ2I, 0.3), 1.0, 0.0, id="vortex-psi0.3"),
    pytest.param(_plane, (2.0,), 1.0, 0.7, id="x0-0.7"),
    pytest.param(_plane, (2.0,), math.pi / 2.0, 0.0, id="dark-fringe"),
    pytest.param(_plane, (2.0,), 6.0, 0.0, id="large-s"),
])
def test_fi_direct_against_independent_oracle(amps, sites, s, x0):
    oracle_sites = plane_sites if amps is _plane else vortex_sites
    report = fi_direct(amps(*sites, s, x0=x0), abs_tol=1e-10)
    want = di_fisher_fd(oracle_sites(*sites), s, x0=x0)
    assert report.value == pytest.approx(want, rel=1e-7)


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


def test_fi_direct_many_shares_integrand_calls(monkeypatch):
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
    curve = [_plane(2.0, float(s)) for s in np.linspace(0.01, 3.0, 120)]
    reports = fi_direct_many(curve)
    assert len(reports) == len(curve)
    assert 0 < calls < len(curve)


def test_fi_direct_underflowed_profile_is_zero():
    # a narrow vortex far off both sites: every intensity underflows to 0,
    # which used to give 0/0 at every node and a ConvergenceError
    amps = _vortex(0.5, 0.0, 19.0)
    assert amps.n_total < 1e-300
    assert fi_direct(amps).value == 0.0


_scenes = st.tuples(
    st.one_of(st.tuples(st.just("plane"), st.floats(0.0, 4.0), st.just(0.0)),
              st.tuples(st.just("vortex"), st.floats(0.5, 1.0), st.floats(-0.3, 0.3))),
    st.floats(1e-6, 20.0),                   # s
    st.floats(-1.0, 1.0),                    # x0
    st.floats(0.05, 1.0, exclude_max=True),  # kappa < 1
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(_scenes, min_size=1, max_size=4))
def test_fi_direct_many_is_per_scene_fi_direct_and_below_qfi(scenes):
    curve = [_plane(p, s, x0=x0, kappa=kappa) if family == "plane"
             else _vortex(p, psi, s, x0=x0, kappa=kappa)
             for (family, p, psi), s, x0, kappa in scenes]
    reports = fi_direct_many(curve)
    assert reports == [fi_direct(amps) for amps in curve]  # bit for bit
    for amps, di in zip(curve, reports):
        qfi = qfi_separation(amps)
        assert di.normalized_value <= qfi.normalized_value + 1e-8


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
    for s in (0.3, 1.0, 2.0, 3.0):
        closed = spade_collinear_closed(s)
        series = fi_spade(_plane(0.0, s), 30)
        assert closed.normalized_value == pytest.approx(
            1.0 + math.exp(-s * s / 2.0) * (s * s - 1.0), rel=1e-15)
        assert series.value == pytest.approx(closed.value, abs=1e-8)


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
# scalar per-mode implementation the batched table replaced
SPADE_BITS = {
    "plane-s0": (
        _plane, (2.0, 0.0), {},
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.0000000000000p+2", "0x0.0p+0", "0x0.0p+0")),
    "plane-s1e-8": (
        _plane, (2.0, 1e-8), {},
        ("0x1.851c6b01eb435p-49", "0x1.851c6b01eb435p-49"),
        ("0x1.0000000000000p+2", "0x0.0p+0", "0x1.c1551b1463436p-224")),
    "plane-s1": (
        _plane, (2.0, 1.0), {},
        ("0x1.06e6ef6a45b4dp+4", "0x1.06e6ef6a453bap+4"),
        ("0x1.d19e4432a9477p-1", "0x1.1a5768de1dcedp-1", "0x1.366982cc70dadp-13")),
    "plane-s20": (
        _plane, (2.0, 20.0), {},
        ("0x1.5d9d199069685p-46", "0x1.780d90020a9b1p-93"),
        ("0x1.1af0f09b2f550p-145", "0x1.14947586c24ffp-136", "0x1.1913a92d5190ap-123")),
    "collinear-kappa-g": (
        _plane, (0.0, 0.5), {"kappa": 0.8, "g": 1.3},
        ("0x1.d41ea4684bbb4p-1", "0x1.d41ea4684bbb4p-1"),
        ("0x1.452462e4c29b9p+2", "0x0.0p+0", "0x1.b185d931037a5p-19")),
    "vortex-offset": (
        _vortex, (1.2, 0.3, 0.9), {"x0": 0.7},
        ("0x1.ac7f0d8cec6fbp+2", "0x1.ac7f0d8cec691p+2"),
        ("0x1.c72a8370a0a24p+0", "0x1.586dc644edf9ap-5", "0x1.053ed40ea987cp-13")),
}


@pytest.mark.parametrize("name", sorted(SPADE_BITS))
def test_spade_bits_are_frozen(name):
    make, args, scene_kw, fi_bits, n_bits = SPADE_BITS[name]
    amps = make(*args, **scene_kw)
    assert (fi_spade(amps, 30).value.hex(),
            fi_spade(amps, 10).value.hex()) == fi_bits
    assert tuple(mean_photons_spade(amps, m).hex() for m in (0, 1, 4)) == n_bits


def test_fi_spade_many_is_per_scene_fi_spade():
    curve = [SPADE_BITS[name][0](*SPADE_BITS[name][1], **SPADE_BITS[name][2])
             for name in sorted(SPADE_BITS)]
    for M in (0, 10, 30):
        assert fi_spade_many(curve, M) == [fi_spade(a, M) for a in curve]
    assert fi_spade_many([], 10) == []


def test_fi_spade_many_builds_one_table(monkeypatch):
    calls = []
    table = fisher._gamma_table

    def counted(s_values, *args):
        calls.append(len(s_values))
        return table(s_values, *args)

    monkeypatch.setattr(fisher, "_gamma_table", counted)
    fi_spade_many([_plane(2.0, s) for s in (0.0, 0.5, 1.0, 4.0)], 30)
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
        got = [mean_photons_spade(amps, m) for m in range(M + 1)]
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
    reports = fi_spade_many(curve, 30)
    assert reports == [fi_spade(amps, 30) for amps in curve]  # bit for bit
    for amps, spade in zip(curve, reports):
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
        photons = sum(mean_photons_spade(amps, m) for m in range(31))
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


@pytest.mark.parametrize("M", [10.5, True, 30.0, "30", -1])
@pytest.mark.parametrize("estimator", [fi_spade, mean_photons_spade])
def test_spade_mode_cutoff_must_be_a_nonnegative_integer(estimator, M):
    # a fractional cutoff must not round to some number of modes, a bool
    # is not a count, and no count is negative
    with pytest.raises(ValueError, match="nonnegative integer"):
        estimator(_plane(2.0, 1.0), M)


def test_mean_photons_spade_conservation():
    for amps in (_plane(2.0, 1.3, kappa=0.8), _vortex(SQ2I, 0.2, 0.9)):
        total = sum(mean_photons_spade(amps, m) for m in range(31))
        assert total == pytest.approx(amps.n_total, rel=1e-10)


def test_mean_photons_spade_bounds():
    amps = _plane(0.0, 1.0)
    with pytest.raises(ValueError):
        mean_photons_spade(amps, -1)
    # no upper cap: an even mode beyond 30 holds its tiny share of the light
    assert 0.0 < mean_photons_spade(amps, 32) < mean_photons_spade(amps, 30)


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
    c_di, c_qfi, c_spade = small_s_coefficients("plane", {"ktilde": 0.0})
    assert c_di == pytest.approx(2.9975606126539955, rel=1e-9)
    assert c_qfi == pytest.approx(2.9975606126679111, rel=1e-9)
    assert c_spade == pytest.approx(2.9975606126679124, rel=1e-9)


def test_small_s_coefficients_family_guard():
    with pytest.raises(ValueError):
        small_s_coefficients("vortex")


def test_optimize_waist_frozen_point():
    [(a_star, q_star)] = optimize_waist(0.0, [1.0])
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
    for s, (a_star, q_star) in zip(s_grid, optimize_waist(psi, s_grid,
                                                          kappa=kappa, g=g)):
        want = qfi_vortex_closed(a_star, psi, float(s), kappa, g).value
        assert type(a_star) is float and type(q_star) is float
        assert (q_star, math.copysign(1.0, q_star)) == (want, math.copysign(1.0, want))


def test_optimize_waist_bounds_validation():
    with pytest.raises(ValueError):
        optimize_waist(0.0, [1.0], a_bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        optimize_waist(0.0, [1.0], a_bounds=(2.0, 1.0))
