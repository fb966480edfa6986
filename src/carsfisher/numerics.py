"""Shared numerical kernels.

Adaptive 1D Gauss-Kronrod quadrature of real integrands (whose node and
weight tables the binned camera model reuses), run as a lockstep batch:
every member refines on its own and makes exactly the steps it would make
alone, while one integrand call per round evaluates the new cells of every
unfinished member.

The quadrature keeps the cells of all members in padded (cells x members)
arrays, one column per member in creation order.  Each round a member stops
once its cells' errors, added in creation order, are within the tolerance,
and its value is its cells' values added the same way; every other member
splits its cell of largest error, the oldest on ties (``argmax`` returns
the first maximum).  So the results are bit-identical from run to run and do not
depend on the rest of the batch.
"""

from __future__ import annotations

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

# hard cap on the number of cells one member may create, so an unreachable
# tolerance fails in bounded time instead of subdividing to _MAX_DEPTH.
# Each round re-sums every active member's cells, so a batch of failing
# members costs time quadratic in the cap.  It is ample: a DI member of
# the shipped sweeps makes at most 33 cells, and at most 125 at tol=1e-15
_MAX_CELLS = 1_000

# a member stalls when its worst cell is this many bisections of [a, b]
# deep, so its finest cell is (b - a) / 2^43
_MAX_DEPTH = 43


class ConvergenceError(RuntimeError):
    """Adaptive refinement failed to reach its tolerance.

    Carries the member's best available estimate and its error, the
    creation-order sum of its cells' errors, both floats, and the member's
    index.
    """

    def __init__(self, message: str, estimate: float, error: float, member: int):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
        self.member = member


def _gk_cells(f, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One Gauss-Kronrod pass on each cell [lo[i], hi[i]] of member rows[i],
    all in one integrand call; returns (K15 values, |K15-G7|) per cell."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = mid[:, None] + half[:, None] * _XK
    y = f(rows, x)
    if np.iscomplexobj(y):
        # a real cell table would silently drop the imaginary part
        raise TypeError("1D quadrature integrands must be real, got complex values")
    vk = half * np.add.reduce(_WK * y, axis=1)
    # take gives a C-ordered copy, so each row is added in one order
    # whatever the number of rows
    vg = half * np.add.reduce(_WG * y.take(_GAUSS_IDX, axis=1), axis=1)
    return vk, np.abs(vk - vg)


def _ordered_sums(table: np.ndarray) -> np.ndarray:
    """Row sums of ``table`` added left to right.  Adding 0.0 maps a -0.0
    total to +0.0, as summing from an integer 0 does, so the zeroed slots
    of split cells change nothing."""
    return np.add.accumulate(table, axis=1)[:, -1] + 0.0


def integrate_1d_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    abs_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive 1D quadrature of a batch of real integrals, refined in
    lockstep.

    Member i integrates ``f(rows, x)`` over [a[i], b[i]], where the integrand
    receives cell abscissae ``x`` of shape (n, 15) together with ``rows``,
    the member index of each of the n cells, and returns real values of
    that shape (complex values raise TypeError).  A member stops once the
    sum of its cells' errors, added in creation order, is at most
    ``abs_tol``; until then each round splits its cell of largest error,
    the oldest on ties, but never a cell whose error is within roundoff of
    its value.  Each member keeps its own tolerance test, cell budget and
    depth limit, exactly as it would alone; per round, the cells of all
    unconverged members are evaluated in one integrand call.  Returns the
    arrays (values, errors), one entry per member, each error that same
    sum.  Raises :class:`ConvergenceError` naming the first member whose
    tolerance is unreachable, with that member's estimate and error.
    """
    n = len(a)
    # cell c of member i in slot c * n + i, each member's cells in creation
    # order; a split cell's value and error become zero
    val, err, c_lo, c_hi = (np.zeros(32 * n) for _ in range(4))
    c_depth = np.zeros(32 * n, dtype=int)
    values, errors = np.zeros(n), np.zeros(n)
    # unconverged members, and the member, slot, bounds and depth of each
    # cell of the next call (left halves first)
    active = rows = slots = np.arange(n)
    lo, hi = np.array(a, dtype=float), np.array(b, dtype=float)
    depth = np.zeros(n, dtype=int)
    # a member active in a round was active in all earlier ones, so after
    # round r every active member has made cells = 2r - 1 cells
    cells = -1
    while active.size:
        cells += 2
        if cells * n > val.size:
            val, err, c_lo, c_hi, c_depth = (np.concatenate((t, np.zeros_like(t)))
                                             for t in (val, err, c_lo, c_hi, c_depth))
        v, e = _gk_cells(f, rows, lo, hi)
        for table, new in zip((val, err, c_lo, c_hi, c_depth), (v, e, lo, hi, depth)):
            table[slots] = new
        # the cells every active member has made, one column per member
        v_cols = val[:cells * n].reshape(cells, n).take(active, axis=1)
        e_cols = err[:cells * n].reshape(cells, n).take(active, axis=1)
        total = _ordered_sums(e_cols.T)
        done = total <= abs_tol
        if np.count_nonzero(done):
            values[active[done]] = _ordered_sums(v_cols.T[done])
            errors[active[done]] = total[done]
            keep = ~done
            active, total = active[keep], total[keep]
            v_cols, e_cols = v_cols[:, keep], e_cols[:, keep]
            if not active.size:
                break
        # a cell at the roundoff floor cannot improve: it keeps its error but
        # is never split, so an unreachable tolerance fails fast
        splittable = e_cols > _ROUNDOFF_FLOOR * np.abs(v_cols)
        # argmax takes the first of equal errors: the oldest cell
        worst = np.where(splittable, e_cols, -np.inf).argmax(axis=0) * n + active
        worst_depth = c_depth.take(worst)
        empty = ~splittable.any(axis=0)
        failing = empty | (worst_depth >= _MAX_DEPTH)
        if cells >= _MAX_CELLS or np.count_nonzero(failing):
            # the first member that fails; the budget binds them all at once
            k = 0 if cells >= _MAX_CELLS else failing.argmax()
            reason = ("at the roundoff floor" if empty[k]
                      else f"exhausted its {_MAX_CELLS}-cell budget" if cells >= _MAX_CELLS
                      else f"stalled at depth {_MAX_DEPTH}")
            raise ConvergenceError(
                f"1D quadrature member {active[k]} {reason} "
                f"(error {total[k]:.3e} > tol {abs_tol:.3e})",
                _ordered_sums(v_cols.T[k:k + 1])[0], total[k], int(active[k]))
        left, right = c_lo.take(worst), c_hi.take(worst)
        val[worst] = err[worst] = 0.0
        mid = 0.5 * (left + right)
        lo, hi = np.concatenate((left, mid)), np.concatenate((mid, right))
        depth = np.concatenate((worst_depth, worst_depth)) + 1
        rows = np.concatenate((active, active))
        slots = np.concatenate((active, active + n)) + cells * n
    return values, errors
