"""Shared numerical kernels.

Adaptive 1D Gauss-Kronrod quadrature (whose node and weight tables the
spectral composite rule reuses) and a golden-section maximizer.  Everything
here is deterministic: adaptive subdivision uses a worst-error heap with an
insertion counter as tie-break, and final sums are accumulated in
insertion order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

# 7-point Gauss / 15-point Kronrod pair (standard QUADPACK table).  The odd
# Kronrod nodes (indices 1, 3, 5, 7, ...) coincide with the Gauss-7 nodes,
# so one 15-point evaluation yields both rules.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss-7 weights, aligned with the odd Kronrod indices.
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)

# a cell whose K15-G7 deviation is this small relative to its value sits at
# double-precision roundoff; splitting it cannot reduce the estimated error
_ROUNDOFF_FLOOR = 1e-16

# hard cap on the number of cells one call may create, so an unreachable
# tolerance fails in bounded time instead of subdividing until max_depth
_MAX_CELLS = 10_000


class ConvergenceError(RuntimeError):
    """Adaptive refinement hit its depth limit before reaching tolerance.

    Carries the best available estimate so callers can report it (an
    array when the rule integrates several outputs at once).
    """

    def __init__(self, message: str, estimate: float | complex | np.ndarray,
                 error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _gk_cell_1d(f, a: float, b: float):
    """One Gauss-Kronrod pass on [a, b]; returns (K15 value, |K15-G7|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _XK
    y = np.asarray(f(x))
    vk = half * np.sum(_WK * y)
    vg = half * np.sum(_WG * y[_GAUSS_IDX])
    return vk, abs(vk - vg)


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    max_depth: int = 50,
    breakpoints: Sequence[float] = (),
) -> tuple[float | complex, float]:
    """Adaptive 1D quadrature of a vectorized integrand over [a, b].

    ``breakpoints`` seeds the initial subdivision (useful for integrands
    with a known sharp feature).  Returns (value, error_estimate); raises
    :class:`ConvergenceError` if the tolerance is unreachable at
    ``max_depth`` bisections.
    """
    edges = [a] + sorted(x for x in breakpoints if a < x < b) + [b]
    heap = []
    cells = {}
    counter = 0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk_cell_1d(f, lo, hi)
        cells[counter] = (val, err)
        total_err += err
        # cells at the roundoff floor cannot improve; keep their error but
        # stop splitting them so an unreachable tolerance fails fast
        if err > _ROUNDOFF_FLOOR * abs(val):
            heapq.heappush(heap, (-err, counter, lo, hi, 0))
        counter += 1

    while True:
        if total_err <= abs_tol:
            # the incremental total drifts by cancellation; verify exactly
            total_err = sum(c[1] for c in cells.values())
            if total_err <= abs_tol:
                break
        if not heap:
            total_err = sum(c[1] for c in cells.values())
            value = _ordered_sum(cells)
            raise ConvergenceError(
                f"1D quadrature at the roundoff floor "
                f"(error {total_err:.3e} > tol {abs_tol:.3e})",
                value, total_err)
        if counter >= _MAX_CELLS:
            total_err = sum(c[1] for c in cells.values())
            value = _ordered_sum(cells)
            raise ConvergenceError(
                f"1D quadrature exhausted its {_MAX_CELLS}-cell budget "
                f"(error {total_err:.3e} > tol {abs_tol:.3e})",
                value, total_err)
        neg_err, idx, lo, hi, depth = heapq.heappop(heap)
        if depth >= max_depth:
            value = _ordered_sum(cells)
            raise ConvergenceError(
                f"1D quadrature stalled at depth {max_depth} "
                f"(error {total_err:.3e} > tol {abs_tol:.3e})",
                value, total_err)
        total_err -= cells.pop(idx)[1]
        mid = 0.5 * (lo + hi)
        for lo2, hi2 in ((lo, mid), (mid, hi)):
            val, err = _gk_cell_1d(f, lo2, hi2)
            cells[counter] = (val, err)
            total_err += err
            if err > _ROUNDOFF_FLOOR * abs(val):
                heapq.heappush(heap, (-err, counter, lo2, hi2, depth + 1))
            counter += 1

    return _ordered_sum(cells), sum(c[1] for c in cells.values())


def _ordered_sum(cells: dict):
    # Fixed (insertion-order) accumulation keeps results bit-reproducible.
    return sum(cells[k][0] for k in sorted(cells))


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    x_tol: float = 1e-6,
) -> float:
    """Golden-section search for a maximum bracketed by [lo, hi].

    Assumes unimodality on the bracket; returns the abscissa of the
    maximum to within ``x_tol``.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > x_tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
