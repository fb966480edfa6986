"""Adaptive 1D quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carsfisher import (
    ConvergenceError,
    integrate_1d_many,
)

from oracles import adaptive_gk_heap


def integrate_1d(f, a, b, abs_tol=1e-10, max_depth=50):
    # the one-member batch; f takes the cell abscissae alone
    return integrate_1d_many(lambda rows, x: f(x), (a,), (b,), abs_tol,
                             max_depth)[0]


def test_integrate_1d_polynomial_exact():
    # Kronrod-15 integrates degree <= 22 exactly; no refinement needed.
    value, err = integrate_1d(lambda x: 5 * x**4 - 3 * x**2 + 2, -1.0, 2.0,
                              abs_tol=1e-12)
    exact = (2.0**5 - (-1.0) ** 5) - (2.0**3 - (-1.0) ** 3) + 2 * 3.0
    assert value == pytest.approx(exact, abs=1e-12)
    assert err <= 1e-12


def test_integrate_1d_gaussian_matches_erf():
    value, err = integrate_1d(lambda x: np.exp(-x * x), -8.0, 8.0,
                              abs_tol=1e-13)
    assert value == pytest.approx(math.sqrt(math.pi) * math.erf(8.0), rel=1e-13)
    assert err <= 1e-13


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_integrate_1d_error_estimate_tracks_tolerance(tol):
    value, err = integrate_1d(lambda x: np.cos(3.0 * x) * np.exp(-x * x),
                              -6.0, 6.0, abs_tol=tol)
    exact = math.sqrt(math.pi) * math.exp(-9.0 / 4.0)
    assert err <= tol
    assert abs(value - exact) <= 10.0 * tol


def test_integrate_1d_unreachable_tolerance_raises_with_estimate():
    with pytest.raises(ConvergenceError) as info:
        integrate_1d(lambda x: np.exp(-x * x), -8.0, 8.0, abs_tol=1e-30,
                     max_depth=60)
    err = info.value
    assert err.estimate == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert 0.0 < err.error < 1e-12  # honest achieved error, not the target


def test_integrate_1d_depth_limit_raises():
    # a near-singular integrand cannot converge in two bisections
    with pytest.raises(ConvergenceError, match="depth"):
        integrate_1d(lambda x: 1.0 / np.sqrt(np.abs(x - 0.37) + 1e-14),
                     0.0, 1.0, abs_tol=1e-12, max_depth=2)


def test_integrate_1d_deterministic():
    f = lambda x: np.sin(7.0 * x) ** 2 * np.exp(-0.3 * x * x)  # noqa: E731
    first = integrate_1d(f, -5.0, 5.0, abs_tol=1e-11)
    second = integrate_1d(f, -5.0, 5.0, abs_tol=1e-11)
    assert first == second  # bit-identical, not merely close


def _stacked(functions, dtype):
    """A batch integrand f(rows, x) that evaluates member i with functions[i]."""

    def f(rows, x):
        out = np.empty(x.shape, dtype=dtype)
        for i, fn in enumerate(functions):
            sel = rows == i
            out[sel] = fn(x[sel])
        return out

    return f


# a polynomial the first Kronrod cell integrates exactly, an oscillatory
# integrand that needs many rounds of refinement, and a complex one
_BATCH = (
    (lambda x: 5 * x**4 - 3 * x**2 + 2, -1.0, 2.0),
    (lambda x: np.cos(40.0 * x) * np.exp(-0.2 * x * x), -6.0, 5.0),
    (lambda x: np.exp(3j * x - x * x), -8.0, 8.0),
)


@pytest.mark.parametrize("dtype,size", [(float, 2), (complex, 3)])
def test_integrate_1d_many_equals_one_call_per_member(dtype, size):
    # the batch shares one output dtype, so a real member of a complex
    # batch is compared with its values cast to complex
    batch = _BATCH[:size]
    functions, lo, hi = zip(*batch)
    calls = {"batch": 0}

    def counted(rows, x):
        calls["batch"] += 1
        return _stacked(functions, dtype)(rows, x)

    together = integrate_1d_many(counted, lo, hi, abs_tol=1e-11)
    alone = []
    for fn, a, b in batch:
        calls[a] = 0

        def counted_alone(x, fn=fn, key=a):
            calls[key] += 1
            return np.asarray(fn(x), dtype=dtype)

        alone.append(integrate_1d(counted_alone, a, b, abs_tol=1e-11))
    assert together == alone  # bit-identical, not merely close
    assert all(type(v) is type(w) for (v, _), (w, _) in zip(together, alone))
    assert calls[-1.0] == 1          # converged on its first cell
    assert calls[-6.0] >= 10         # many rounds of refinement
    # one integrand call per round, however many members are still active
    assert calls["batch"] == max(calls[a] for _, a, _ in batch)


def test_integrate_1d_many_names_the_member_that_fails():
    singular = lambda x: 1.0 / np.sqrt(np.abs(x - 0.37))  # noqa: E731
    gaussian = lambda x: np.exp(-x * x)  # noqa: E731
    batch = [_BATCH[0], (singular, 0.0, 1.0), (gaussian, -8.0, 8.0)]
    functions, lo, hi = zip(*batch)
    for fn, a, b in (batch[0], batch[2]):
        integrate_1d(fn, a, b, abs_tol=1e-10, max_depth=12)  # these converge
    with pytest.raises(ConvergenceError) as alone:
        integrate_1d(singular, 0.0, 1.0, abs_tol=1e-10, max_depth=12)
    with pytest.raises(ConvergenceError, match="member 1 stalled at depth 12") as info:
        integrate_1d_many(_stacked(functions, float), lo, hi, abs_tol=1e-10,
                          max_depth=12)
    assert info.value.estimate == alone.value.estimate
    assert info.value.error == alone.value.error


def _bits(value):
    return np.asarray(value, dtype=complex).tobytes()


# per member: amplitude, width, centre and frequency of a Gaussian-damped
# cosine, an optional integrable cusp |x - centre|^-p, and the interval
_members = st.tuples(
    st.floats(-3.0, 3.0), st.floats(0.05, 30.0), st.floats(-2.0, 2.0),
    st.floats(0.0, 30.0), st.booleans(), st.floats(0.1, 0.9),
    st.floats(-5.0, 0.0), st.floats(0.1, 8.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_members, min_size=1, max_size=5), st.booleans(),
       st.floats(-20.0, -4.0), st.integers(2, 16))
def test_integrate_1d_many_matches_the_heap_reference(members, complex_,
                                                      log_tol, max_depth):
    amp, width, centre, freq, cusp, power, lo, length = (
        np.array(col)[:, None] for col in zip(*members))

    def f(r, x):
        y = amp[r] * np.exp(-width[r] * (x - centre[r]) ** 2) * np.cos(freq[r] * x)
        with np.errstate(divide="ignore"):  # a node may land on the cusp
            y = np.where(cusp[r], y + np.abs(x - centre[r]) ** -power[r], y)
        return y + 1j * amp[r] * np.sin(freq[r] * x) if complex_ else y

    _assert_matches_heap_reference(f, lo[:, 0], (lo + length)[:, 0],
                                   10.0 ** log_tol, max_depth)


def test_integrate_1d_many_budget_failure_matches_the_heap_reference():
    # member 0 converges on its first cell; member 1 refines a cusp until
    # it has made 10,000 cells
    def f(rows, x):
        with np.errstate(divide="ignore"):  # a node may land on the cusp
            return np.where(rows[:, None] == 0, 3.0 * x**2,
                            np.abs(x - 0.3) ** -0.5 + np.sin(40.0 * x))

    _assert_matches_heap_reference(f, np.array([0.0, 0.0]),
                                   np.array([1.0, 1.0]), 1e-13, 60)


def _assert_matches_heap_reference(f, a, b, tol, max_depth):
    alone = [adaptive_gk_heap(f, i, a[i], b[i], tol, max_depth)
             for i in range(len(a))]
    failures = [(r[-1], i) for i, r in enumerate(alone) if r[0] == "fail"]
    if not failures:
        got = integrate_1d_many(f, a, b, abs_tol=tol, max_depth=max_depth)
        assert [(_bits(v), _bits(e)) for v, e in got] == \
            [(_bits(r[1]), _bits(r[2])) for r in alone]
        return
    # the batch raises for the member that fails in the earliest round,
    # the lowest index among those failing together
    _, i = min(failures)
    _, reason, estimate, error, _ = alone[i]
    with pytest.raises(ConvergenceError) as info:
        integrate_1d_many(f, a, b, abs_tol=tol, max_depth=max_depth)
    assert str(info.value) == (f"1D quadrature member {i} {reason} "
                               f"(error {error:.3e} > tol {tol:.3e})")
    assert _bits(info.value.estimate) == _bits(estimate)
    assert _bits(info.value.error) == _bits(error)
