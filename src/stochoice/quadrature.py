"""Adaptive Simpson quadrature over a finite interval.

The integrand maps a numpy array of points to an array of values, so
refinement rounds evaluate whole batches of midpoints at once.  It may
also return one row of values per integral, shape (rows, points): all
rows then share the panels, and a panel's error is the sum of its rows'
errors.  Local error control follows the classic
|S_fine - S_coarse| <= 15 * tol rule with the tolerance budget split
proportionally to interval length.
"""

from __future__ import annotations

import math

import numpy as np

_SEED_PANELS = 32
_MAX_DEPTH = 40


class QuadratureError(RuntimeError):
    pass


def adaptive_simpson(f, lo: float, hi: float, tol: float = 1e-10):
    """Integrate f over [lo, hi] to absolute tolerance tol; raise
    QuadratureError when panels are still unresolved at depth 40, or
    when the interval or a panel estimate is not finite.

    Returns a float, or an array of one integral per row when f returns
    rows; the rows' absolute errors then sum to at most tol."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise QuadratureError(f"integration interval [{lo}, {hi}] is not finite")
    if not hi > lo:
        raise ValueError("empty integration interval")
    edges = np.linspace(lo, hi, _SEED_PANELS + 1)
    a = edges[:-1]
    b = edges[1:]
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    coarse = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # each panel gets a tolerance share proportional to its width
    share = np.full(_SEED_PANELS, tol / _SEED_PANELS)
    total = np.zeros(fa.shape[:-1])
    depth = 0
    while a.size:
        if depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"adaptive Simpson left {a.size} panels unresolved at depth {_MAX_DEPTH}"
            )
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        fine = left + right
        err = np.abs(fine - coarse).reshape(-1, a.size).sum(axis=0)
        # a non-finite panel never converges, and its refinement would
        # double the panels every round until memory runs out
        if not np.isfinite(err).all():
            raise QuadratureError("adaptive Simpson met a non-finite panel estimate")
        done = err <= 15.0 * share
        # Richardson extrapolation on accepted panels
        total += (fine + (fine - coarse) / 15.0).take(done.nonzero()[0], axis=-1).sum(axis=-1)
        # split each kept panel: its points a, lm, m, rm, b give the left
        # half (a, lm, m) and the right half (m, rm, b); panels are picked
        # by index, as a boolean mask on the last axis of rows is slow
        keep = (~done).nonzero()[0]
        xs = np.array([a, lm, m, rm, b]).take(keep, axis=-1)
        fs = np.array([fa, flm, fm, frm, fb]).take(keep, axis=-1)
        a, m, b = np.concatenate([xs[:3], xs[2:]], axis=-1)
        fa, fm, fb = np.concatenate([fs[:3], fs[2:]], axis=-1)
        coarse = np.concatenate([left.take(keep, axis=-1), right.take(keep, axis=-1)], axis=-1)
        share = np.concatenate([share[keep] / 2.0] * 2)
        depth += 1
    return total if total.ndim else float(total)
