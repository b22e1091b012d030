"""Reference computations the benchmark checks the program against.

Nothing here imports stochoice: every value is rebuilt from the
benchmark's own inputs with numpy and scipy, or is a property the
paper's constructions must have.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, sparse, special

# the quadrature contract the program documents: absolute tolerance per
# group integral, and the largest pre-renormalization residual it accepts
QUAD_TOL = 1e-10
NORMALIZATION_GUARD = 1e-8


def log_softmax(v: np.ndarray) -> np.ndarray:
    return v - special.logsumexp(v)


def cumulants3(support, probs) -> np.ndarray:
    """Mean, variance and third central moment of a finite lottery,
    computed from central moments (the program uses the raw-moment
    recursion instead)."""
    x = np.asarray(support, dtype=float)
    w = np.asarray(probs, dtype=float)
    mean = float(np.dot(w, x))
    c = x - mean
    return np.array([mean, float(np.dot(w, c * c)), float(np.dot(w, c**3))])


def chebyshev_fit(groups) -> float:
    """min over coefficients c and per-menu offsets mu_m of
    max_{m,a} |y_ma - X_ma . c - mu_m|, solved as a linear program.

    ``groups`` is a list of (X, y) per menu, X of shape (k_m, d).
    """
    d = groups[0][0].shape[1]
    m = len(groups)
    rows = sum(len(y) for _, y in groups)
    n_var = d + m + 1  # c, mu, t
    x_blk = np.vstack([x for x, _ in groups])
    y_all = np.concatenate([y for _, y in groups])
    menu_of_row = np.repeat(np.arange(m), [len(y) for _, y in groups])
    mu = sparse.csr_matrix(
        (np.ones(rows), (np.arange(rows), menu_of_row)), shape=(rows, m)
    )
    t_col = sparse.csr_matrix(np.ones((rows, 1)))
    xs = sparse.csr_matrix(x_blk)
    # y - Xc - mu <= t  and  -(y - Xc - mu) <= t
    upper = sparse.hstack([-xs, -mu, -t_col])
    lower = sparse.hstack([xs, mu, -t_col])
    a_ub = sparse.vstack([upper, lower]).tocsc()
    b_ub = np.concatenate([-y_all, y_all])
    cost = np.zeros(n_var)
    cost[-1] = 1.0
    bounds = [(None, None)] * (d + m) + [(0.0, None)]
    res = optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"Chebyshev LP failed: {res.message}")
    return float(res.fun)


def probit_probabilities(values) -> np.ndarray:
    """P(a) = int phi(x) prod_{b != a} Phi(o_a - o_b + x) dx for iid
    N(0, 1) shocks, each integral by scipy.integrate.quad."""
    vals = np.asarray(values, dtype=float)
    out = np.empty(len(vals))
    for i, v in enumerate(vals):
        others = np.delete(vals, i)

        def f(x, v=v, others=others):
            return math.exp(
                -0.5 * x * x
                - 0.5 * math.log(2.0 * math.pi)
                + float(np.sum(special.log_ndtr(v - others + x)))
            )

        out[i] = integrate.quad(f, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return out


def binary_probit(delta: float) -> float:
    """Closed form: P(top) = Phi(delta / sqrt(2)) for N(0, 1) shocks."""
    return float(special.ndtr(delta / math.sqrt(2.0)))


def probit_unit_diagonal_log(n: int) -> tuple[float, float]:
    """Natural logs of the diagonal group integrals (all b1, all b0) on the
    n-fold power of the unit binary menu under probit.

    The power menu holds C(n, k) actions of outcome k; the integral for a
    single action of outcome v is int phi(x) prod_k Phi(v - k + x)^c_k dx
    with its own action removed from the counts.  Integrated in log
    space around the integrand's peak, so tiny values keep their digits.
    """
    vals = np.arange(n + 1, dtype=float)
    counts = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    grid = np.linspace(-40.0, n + 40.0, 40001)
    out = []
    for v in (float(n), 0.0):
        c = counts.copy()
        c[int(v)] -= 1.0

        def log_f(x, v=v, c=c):
            x = np.atleast_1d(x)
            acc = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
            return acc + special.log_ndtr(v - vals[None, :] + x[:, None]) @ c

        lg = log_f(grid)
        peak = float(grid[np.argmax(lg)])
        shift = float(lg.max())
        val = integrate.quad(
            lambda x: math.exp(float(log_f(x)[0]) - shift),
            peak - 40.0,
            peak + 40.0,
            points=[peak],
            epsabs=0.0,
            epsrel=1e-12,
            limit=400,
        )[0]
        out.append(math.log(val) + shift)
    return out[0], out[1]


def contract_interval(log_ref: float) -> tuple[float, float]:
    """Logs of the lowest and highest probability the program may report
    for a group integral whose true value is exp(log_ref): QUAD_TOL
    absolute error, then renormalization by a total within the guard.
    Returns -inf for the low end when the tolerance swamps the value."""
    ref = math.exp(log_ref)
    lo = (ref - QUAD_TOL) / (1.0 + NORMALIZATION_GUARD)
    hi = (ref + QUAD_TOL) / (1.0 - NORMALIZATION_GUARD)
    return (math.log(lo) if lo > 0.0 else -math.inf), math.log(hi)
