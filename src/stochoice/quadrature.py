"""Adaptive Gauss–Kronrod (G7-K15) quadrature over a finite interval.

The integrand maps a numpy array of points to an array of values, so
each round evaluates the 15 Kronrod nodes of every open panel in one
call.  It may also return one row of values per integral, shape
(rows, points): all rows then share the panels, and a panel's error is
the sum of its rows' errors.  A panel's error estimate is |K15 - G7|,
the difference between its 15-point Kronrod and embedded 7-point Gauss
sums (QUADPACK's QK15: Piessens et al., 1983); the tolerance budget is
split in proportion to panel width.  K15 is exact for polynomials of
degree 23 and G7 for degree 13.
"""

from __future__ import annotations

import math

import numpy as np

_SEED_PANELS = 8
_MAX_DEPTH = 40

# QK15 abscissae on [0, 1] from the outer node inwards; the odd-indexed
# ones are the Gauss nodes
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)


def _mirror(half, sign):
    # the 15 entries in ascending node order from the 8 of one side
    return np.concatenate([sign * np.array(half[:-1]), half[::-1]])


_NODES = _mirror(_XGK, -1.0)
_KRONROD = _mirror(_WGK, 1.0)
_ERROR = _KRONROD - _mirror(_WG, 1.0)


class QuadratureError(RuntimeError):
    pass


def adaptive_simpson(f, lo: float, hi: float, tol: float = 1e-10):
    """Integrate f over [lo, hi] to absolute tolerance tol by adaptive
    G7-K15 (the name is kept from the adaptive Simpson rule it replaced);
    raise QuadratureError when panels are still unresolved at depth 40,
    or when the interval or a panel estimate is not finite.

    Returns a float, or an array of one integral per row when f returns
    rows; the rows' absolute errors then sum to at most tol."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise QuadratureError(f"integration interval [{lo}, {hi}] is not finite")
    if not hi > lo:
        raise ValueError("empty integration interval")
    edges = np.linspace(lo, hi, _SEED_PANELS + 1)
    a = edges[:-1]
    b = edges[1:]
    total = 0.0
    # the open panels have been halved depth times
    depth = 0
    while a.size:
        if depth > _MAX_DEPTH:
            raise QuadratureError(
                f"adaptive Gauss-Kronrod left {a.size} panels unresolved at depth {_MAX_DEPTH}"
            )
        half = 0.5 * (b - a)
        centre = a + half
        fx = f((centre[:, None] + half[:, None] * _NODES).ravel())
        fx = fx.reshape(fx.shape[:-1] + (a.size, _NODES.size))
        kronrod = (fx @ _KRONROD) * half
        err = np.abs((fx @ _ERROR) * half).reshape(-1, a.size).sum(axis=0)
        # a non-finite panel never converges, and its refinement would
        # double the panels every round until memory runs out
        if not (np.isfinite(err).all() and np.isfinite(kronrod).all()):
            raise QuadratureError("adaptive Gauss-Kronrod met a non-finite panel estimate")
        done = err <= tol * (b - a) / (hi - lo)
        # panels are picked by index, as a boolean mask on the last axis
        # of rows is slow
        total = total + kronrod.take(done.nonzero()[0], axis=-1).sum(axis=-1)
        keep = (~done).nonzero()[0]
        a, centre, b = a[keep], centre[keep], b[keep]
        a, b = np.concatenate([a, centre]), np.concatenate([centre, b])
        depth += 1
    return total if np.ndim(total) else float(total)
