"""Adaptive Simpson quadrature over a finite interval.

The integrand maps a numpy array of points to an array of values, so
refinement rounds evaluate whole batches of midpoints at once.  Local
error control follows the classic |S_fine - S_coarse| <= 15 * tol rule
with the tolerance budget split proportionally to interval length.
"""

from __future__ import annotations

import numpy as np

_SEED_PANELS = 32


class QuadratureError(RuntimeError):
    pass


def adaptive_simpson(f, lo: float, hi: float, tol: float = 1e-10, max_depth: int = 40) -> float:
    """Integrate f over [lo, hi] to absolute tolerance tol; raise
    QuadratureError when panels are still unresolved at max_depth."""
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
    total = 0.0
    depth = 0
    while a.size:
        if depth >= max_depth:
            raise QuadratureError(
                f"adaptive Simpson left {a.size} panels unresolved at depth {max_depth}"
            )
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        fine = left + right
        err = np.abs(fine - coarse)
        done = err <= 15.0 * share
        # Richardson extrapolation on accepted panels
        total += float(np.sum(fine[done] + (fine[done] - coarse[done]) / 15.0))
        keep = ~done
        a = np.concatenate([a[keep], m[keep]])
        b = np.concatenate([m[keep], b[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        m = np.concatenate([lm[keep], rm[keep]])
        fm = np.concatenate([flm[keep], frm[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        share = np.concatenate([share[keep] / 2.0, share[keep] / 2.0])
        depth += 1
    return total
