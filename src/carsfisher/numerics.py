"""Shared numerical kernels.

Adaptive 1D Gauss-Kronrod quadrature (whose node and weight tables the
binned camera model reuses) and golden-section maximization, each run as a
lockstep batch: every member refines on its own and makes exactly the steps
it would make alone, while one integrand or objective call per round
evaluates the new points of every unfinished member.

The quadrature keeps the cells of all members in padded (members x cells)
arrays, in creation order.  Each round every unconverged member splits its
cell of largest error, the oldest on ties (``argmax`` returns the first
maximum); the exact error check and the final values add a member's cells
left to right.  So the results are bit-identical from run to run and do
not depend on the rest of the batch.

``_scalar_map`` applies a Python float function elementwise.  Batched code
uses it wherever the scalar code it replaces calls ``math.exp`` or ``**``,
because numpy's SIMD exp and pow round differently in the last bit.
"""

from __future__ import annotations

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
    y = f(rows, x)
    vk = half * np.add.reduce(_WK * y, axis=1)
    # take, not y[:, _GAUSS_IDX]: that copy is Fortran-ordered, and numpy
    # adds a complex row of it in an order that depends on the row count
    vg = half * np.add.reduce(_WG * y.take(_GAUSS_IDX, axis=1), axis=1)
    return vk, np.abs(vk - vg)


def _widen(table: np.ndarray, members: int, fill) -> np.ndarray:
    """A flat per-cell ``table`` (one run of slots per member, in member
    order) with every run doubled, the new slots set to ``fill``."""
    runs = table.reshape(members, -1, *table.shape[1:])
    wide = np.concatenate([runs, np.full_like(runs, fill)], axis=1)
    return wide.reshape(-1, *table.shape[1:])


def _ordered_sums(table: np.ndarray) -> np.ndarray:
    """Row sums of ``table`` added left to right.  Adding 0.0 maps a -0.0
    total to +0.0, as summing from an integer 0 does, so the zeroed slots
    of split cells change nothing."""
    return np.add.accumulate(table, axis=1)[:, -1] + 0.0


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
    summed in complex arithmetic.  Each member keeps its own tolerance
    test, cell budget and depth limit, and each round splits its worst
    cell (the oldest on ties), exactly as it would alone; per round, the
    cells of all unconverged members are evaluated in one integrand call.
    Returns (value, error_estimate) per member; raises
    :class:`ConvergenceError` naming the first member whose tolerance is
    unreachable at ``max_depth`` bisections, with that member's estimate.
    """
    n = len(a)
    width = 32  # slots per member, doubled as needed
    # flat per-cell tables, member i's cells in slots i*width + 0, 1, ... in
    # creation order; a split cell's value and error become zero and its
    # split key (else the error, or -inf at the roundoff floor) -inf
    val, err, c_lo, c_hi = (np.zeros(n * width) for _ in range(4))
    key = np.full(n * width, -np.inf)
    c_depth = np.zeros(n * width, dtype=int)
    # unconverged members, their running error totals, and the member, slot,
    # bounds and depth of each cell of the next call (left halves first)
    active = rows = np.arange(n)
    total = np.zeros(n)
    slots = rows * width
    lo, hi = np.array(a, dtype=float), np.array(b, dtype=float)
    depth = np.zeros(n, dtype=int)
    # a member active in a round was active in all earlier ones, so after
    # round r every active member has made cells = 2r - 1 cells
    cells = -1
    while rows.size:
        cells += 2
        if cells > width:
            val, err, c_lo, c_hi, c_depth = (
                _widen(t, n, 0) for t in (val, err, c_lo, c_hi, c_depth))
            key = _widen(key, n, -np.inf)
            slots += rows * width  # member m's slots move by m * width
            width *= 2
        v, e = _gk_cells(f, rows, lo, hi)
        if v.dtype != val.dtype:
            val = val.astype(np.result_type(val, v))
        val[slots], err[slots] = v, e
        c_lo[slots], c_hi[slots], c_depth[slots] = lo, hi, depth
        # cells at the roundoff floor cannot improve; keep their error but
        # never split them, so an unreachable tolerance fails fast
        key[slots] = np.where(e > _ROUNDOFF_FLOOR * abs(v), e, -np.inf)
        total += e[:active.size]  # a member's cells in creation order
        if e.size > active.size:
            total += e[active.size:]

        # the incremental total drifts by cancellation; verify exactly
        low = total <= abs_tol
        if np.count_nonzero(low):
            total[low] = _ordered_sums(err.reshape(n, width)[active[low]])
            keep = ~(total <= abs_tol)
            active, total = active[keep], total[keep]
        base = active * width
        # argmax takes the first of equal errors: the oldest cell
        worst = base + key.reshape(n, width).take(active, axis=0).argmax(axis=1)
        worst_depth = c_depth.take(worst)
        empty = key.take(worst) == -np.inf
        failing = empty | (worst_depth >= max_depth)
        if cells >= _MAX_CELLS or np.count_nonzero(failing):
            # the first member that fails; the budget binds them all at once
            k = 0 if cells >= _MAX_CELLS else failing.argmax()
            i = active[k]
            if empty[k] or cells >= _MAX_CELLS:
                reason = ("at the roundoff floor" if empty[k]
                          else f"exhausted its {_MAX_CELLS}-cell budget")
                error = _ordered_sums(err.reshape(n, width)[i:i + 1])[0]
            else:
                reason, error = f"stalled at depth {max_depth}", total[k]
            raise ConvergenceError(
                f"1D quadrature member {i} {reason} "
                f"(error {error:.3e} > tol {abs_tol:.3e})",
                _ordered_sums(val.reshape(n, width)[i:i + 1])[0], error)
        total -= err.take(worst)
        val[worst] = err[worst] = 0.0
        key[worst] = -np.inf
        left, right = c_lo.take(worst), c_hi.take(worst)
        mid = 0.5 * (left + right)
        lo, hi = np.concatenate((left, mid)), np.concatenate((mid, right))
        depth = np.concatenate((worst_depth, worst_depth)) + 1
        rows = np.concatenate((active, active))
        slots = base + cells
        slots = np.concatenate((slots, slots + 1))

    return list(zip(_ordered_sums(val.reshape(n, width)),
                    _ordered_sums(err.reshape(n, width))))


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
