"""Shared numerical kernels.

Adaptive 1D Gauss-Kronrod quadrature (whose node and weight tables the
binned camera model reuses) and a golden-section maximizer.  Everything
here is deterministic: adaptive subdivision uses a worst-error heap with an
insertion counter as tie-break, and final sums are accumulated in
insertion order, so repeated runs are bit-identical.

The quadrature runs a lockstep batch of integrals (``integrate_1d_many``):
each member refines on its own heap, budget and depth limit, while the
cells every active member splits in a round share one integrand call.
Because each member makes the splits it would make alone, a batch returns
the one-member (``integrate_1d``) results bit for bit; it only trades
per-cell Python and numpy call overhead for one call per round.  The
golden-section search (``golden_section_max_many``) follows the same
pattern: each member keeps its own bracket and makes the steps it would
make alone, and one objective call per round evaluates the new abscissae
of every unfinished member.

``_scalar_map`` applies a Python float function elementwise.  Batched code
uses it wherever the scalar code it replaces calls ``math.exp`` or ``**``,
because numpy's SIMD exp and pow round differently in the last bit.
"""

from __future__ import annotations

import heapq
import itertools
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


def _scalar_map(fn: Callable, x, *args) -> np.ndarray:
    """``fn(v, *args)`` for every element v of ``x``, by the Python scalar
    function; returns a float array of the shape of ``x``.

    numpy's SIMD exp and pow differ from libm in the last bit for a few
    percent of arguments; mapping the scalar function keeps an array path
    bit-identical to the scalar code it batches.
    """
    x = np.asarray(x, dtype=float)
    values = map(fn, x.ravel().tolist(), *(itertools.repeat(a) for a in args))
    return np.fromiter(values, dtype=float, count=x.size).reshape(x.shape)


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


def _gk_cells(f, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One Gauss-Kronrod pass on each cell [lo[i], hi[i]] of member rows[i],
    all in one integrand call; returns (K15 values, |K15-G7|) per cell."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = mid[:, None] + half[:, None] * _XK
    y = np.broadcast_to(np.asarray(f(rows, x)), x.shape)
    vk = half * np.add.reduce(_WK * y, axis=1)
    vg = half * np.add.reduce(_WG * y[:, _GAUSS_IDX], axis=1)
    return vk, np.abs(vk - vg)


class _Member:
    """Adaptive state of one integral in a lockstep batch."""

    __slots__ = ("heap", "cells", "counter", "total_err")

    def __init__(self):
        self.heap = []
        self.cells = {}
        self.counter = 0
        self.total_err = 0.0

    def add(self, lo: float, hi: float, depth: int, val, err):
        self.cells[self.counter] = (val, err)
        self.total_err += err
        # cells at the roundoff floor cannot improve; keep their error but
        # stop splitting them so an unreachable tolerance fails fast
        if err > _ROUNDOFF_FLOOR * abs(val):
            heapq.heappush(self.heap, (-err, self.counter, lo, hi, depth))
        self.counter += 1

    def exact_error(self):
        return sum(c[1] for c in self.cells.values())


def integrate_1d_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    abs_tol: float = 1e-10,
    max_depth: int = 50,
) -> list[tuple[float | complex, float]]:
    """Adaptive 1D quadrature of a batch of integrals, refined in lockstep.

    Member i integrates ``f(rows, x)`` over [a[i], b[i]], where the integrand
    receives cell abscissae ``x`` of shape (n, 15) together with ``rows``,
    the member index of each of the n cells, and returns values of that
    shape; their dtype is shared, so a real member of a complex batch is
    summed in complex arithmetic.  Each member keeps its own worst-error
    heap, tolerance test, cell budget and depth limit, and makes exactly
    the splits it would make alone; per round, the cells of all unconverged
    members are evaluated in one integrand call.
    Returns (value, error_estimate) per member; raises
    :class:`ConvergenceError` naming the first member whose tolerance is
    unreachable at ``max_depth`` bisections, with that member's estimate.
    """
    members = [_Member() for _ in a]
    # (member, lo, hi, depth) of every cell the next integrand call fills
    pending = [(i, lo, hi, 0) for i, (lo, hi) in enumerate(zip(a, b))]

    active = range(len(members))
    while pending:
        rows, lo, hi, _ = zip(*pending)
        vals, errs = _gk_cells(f, np.array(rows), np.array(lo), np.array(hi))
        for k, cell in enumerate(pending):
            members[cell[0]].add(*cell[1:], vals[k], errs[k])
        pending = []
        still_active = []
        for i in active:
            m = members[i]
            if m.total_err <= abs_tol:
                # the incremental total drifts by cancellation; verify exactly
                m.total_err = m.exact_error()
                if m.total_err <= abs_tol:
                    continue
            if not m.heap:
                _fail(i, m, "at the roundoff floor", m.exact_error(), abs_tol)
            if m.counter >= _MAX_CELLS:
                _fail(i, m, f"exhausted its {_MAX_CELLS}-cell budget",
                      m.exact_error(), abs_tol)
            _, idx, lo_c, hi_c, depth_c = heapq.heappop(m.heap)
            if depth_c >= max_depth:
                _fail(i, m, f"stalled at depth {max_depth}", m.total_err, abs_tol)
            m.total_err -= m.cells.pop(idx)[1]
            mid = 0.5 * (lo_c + hi_c)
            pending.append((i, lo_c, mid, depth_c + 1))
            pending.append((i, mid, hi_c, depth_c + 1))
            still_active.append(i)
        active = still_active

    return [(_ordered_sum(m.cells), m.exact_error()) for m in members]


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    max_depth: int = 50,
) -> tuple[float | complex, float]:
    """Adaptive 1D quadrature of a vectorized integrand over [a, b].

    The one-member case of :func:`integrate_1d_many`: ``f`` receives the
    cell abscissae as an array and must evaluate elementwise.  Returns
    (value, error_estimate); raises :class:`ConvergenceError` if the
    tolerance is unreachable at ``max_depth`` bisections.
    """
    return integrate_1d_many(lambda rows, x: f(x), (a,), (b,), abs_tol,
                             max_depth)[0]


def _fail(index: int, member: _Member, reason: str, error: float,
          abs_tol: float):
    raise ConvergenceError(
        f"1D quadrature member {index} {reason} "
        f"(error {error:.3e} > tol {abs_tol:.3e})",
        _ordered_sum(member.cells), error)


def _ordered_sum(cells: dict):
    # Fixed (insertion-order) accumulation keeps results bit-reproducible.
    return sum(cells[k][0] for k in sorted(cells))


def golden_section_max_many(
    f: Callable[[list, list], Sequence[float]],
    lo: Sequence[float],
    hi: Sequence[float],
    x_tol: float = 1e-6,
) -> list[float]:
    """Golden-section searches for the maxima bracketed by [lo[i], hi[i]],
    run in lockstep.

    Member i maximizes ``f(rows, x)`` on its bracket, where the objective
    receives the abscissae ``x`` of one round (a list of floats) together
    with ``rows``, the member index of each, and returns one value per
    abscissa.  Each member keeps its own bracket and stopping test and
    makes exactly the steps it would make alone; per round, the new
    abscissae of all unfinished members are evaluated in one objective call
    (the first round evaluates both interior points of every bracket).
    Assumes unimodality on each bracket; returns the abscissa of each
    maximum to within ``x_tol``.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    # per member [a, b, c, d, f(c), f(d)]
    state = []
    for a, b in zip(lo, hi):
        a, b = float(a), float(b)
        state.append([a, b, b - invphi * (b - a), a + invphi * (b - a), 0.0, 0.0])
    members = range(len(state))
    values = f([i for i in members for _ in (0, 1)],
               [v for st in state for v in st[2:4]])
    for i in members:
        state[i][4:] = values[2 * i:2 * i + 2]

    active = [i for i in members if state[i][1] - state[i][0] > x_tol]
    while active:
        slots, x = [], []
        for i in active:
            st = state[i]
            a, b, c, d, fc, fd = st
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                slots.append(4)
                x.append(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                slots.append(5)
                x.append(d)
            st[:] = a, b, c, d, fc, fd
        values = f(active, x)
        for i, slot, v in zip(active, slots, values):
            state[i][slot] = v
        active = [i for i in active if state[i][1] - state[i][0] > x_tol]
    return [0.5 * (st[0] + st[1]) for st in state]
