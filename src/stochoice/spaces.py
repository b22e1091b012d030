"""Outcome spaces and their additive utility functionals.

Six concrete spaces share one interface: a binary composition for
combining outcomes of unrelated actions, an identity element, and a
feature map phi that is additive over composition
(``phi(x*y) = phi(x) + phi(y)``).  Every utility is ``coeffs . phi(x)``,
so it is additive as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

SCALAR = "real_scalar"
VECTOR = "real_vector"
MEAN_STDDEV = "mean_stddev"
DISTRIBUTION = "discrete_distribution"
PRIZE_STREAM = "prize_stream"
MATRIX = "matrix"

KINDS = (SCALAR, VECTOR, MEAN_STDDEV, DISTRIBUTION, PRIZE_STREAM, MATRIX)

# support points collide when |p - q| <= MERGE_RTOL * max(1, |p|, |q|)
MERGE_RTOL = 1e-12
PROB_SUM_TOL = 1e-12

# default outcome-equality tolerance; prize streams compare exactly
EQUALITY_TOL = 1e-9

# padded terms per array pass of the lottery convolution
_BLOCK = 1 << 12


class SpaceMismatchError(ValueError):
    def __init__(self) -> None:
        super().__init__("incompatible outcome spaces")


@dataclass(frozen=True, slots=True)
class Space:
    """Descriptor of an outcome space: a kind tag plus shape parameters.

    ``d`` is the dimension for vector and matrix spaces, ``moment_order``
    the number of cumulants a distribution-space utility may weight, and
    ``alphabet`` the prize labels of a stream space.
    """

    kind: str
    d: int = 0
    moment_order: int = 0
    alphabet: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown outcome space kind: {self.kind!r}")
        if self.kind in (VECTOR, MATRIX) and self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.kind == DISTRIBUTION and self.moment_order < 0:
            raise ValueError("moment_order must be >= 0")
        if self.kind == PRIZE_STREAM:
            if not self.alphabet:
                raise ValueError("prize alphabet must be nonempty")
            if len(set(self.alphabet)) != len(self.alphabet):
                raise ValueError("prize alphabet has duplicate labels")

    @staticmethod
    def scalar() -> "Space":
        return Space(SCALAR)

    @staticmethod
    def vector(d: int) -> "Space":
        return Space(VECTOR, d=d)

    @staticmethod
    def mean_stddev() -> "Space":
        return Space(MEAN_STDDEV)

    @staticmethod
    def distribution(moment_order: int) -> "Space":
        return Space(DISTRIBUTION, moment_order=moment_order)

    @staticmethod
    def prizes(alphabet) -> "Space":
        return Space(PRIZE_STREAM, alphabet=tuple(alphabet))

    @staticmethod
    def matrix(d: int) -> "Space":
        return Space(MATRIX, d=d)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind in (VECTOR, MATRIX):
            out["d"] = self.d
        elif self.kind == DISTRIBUTION:
            out["moment_order"] = self.moment_order
        elif self.kind == PRIZE_STREAM:
            out["alphabet"] = list(self.alphabet)
        return out

    @staticmethod
    def from_json(data: dict) -> "Space":
        kind = data["kind"]
        if kind in (VECTOR, MATRIX):
            return Space(kind, d=json_int(data["d"], "d"))
        if kind == DISTRIBUTION:
            return Space(kind, moment_order=json_int(data["moment_order"], "moment_order"))
        if kind == PRIZE_STREAM:
            alphabet = data["alphabet"]
            if not (isinstance(alphabet, list) and all(isinstance(p, str) for p in alphabet)):
                raise ValueError(f"alphabet must be a list of strings, got {alphabet!r}")
            return Space(kind, alphabet=tuple(alphabet))
        return Space(kind)


def json_int(value, name: str) -> int:
    """An integer JSON field: an int, or an integral float such as 3.0.
    A bool, a string or any other number raises ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _points_collide(p, q):
    """|p - q| <= MERGE_RTOL * max(1, |p|, |q|), elementwise on arrays.

    Rounding is monotone, so comparing against each scaled term gives
    the same answer as comparing against the scaled maximum.  Points at
    an infinite distance never collide, though inf <= MERGE_RTOL * inf."""
    d = abs(p - q)
    near = (d <= MERGE_RTOL) | (d <= MERGE_RTOL * abs(p)) | (d <= MERGE_RTOL * abs(q))
    return near & (d < math.inf)


@dataclass(frozen=True, slots=True)
class Outcome:
    """A value in one of the six outcome spaces.

    Payload by kind: float | tuple of floats | (m, sigma) |
    tuple of (support point, probability) sorted by point |
    tuple of prize labels | d x d nested tuple.  Values are normalized
    and validated at construction and immutable afterwards.
    """

    space: Space
    value: object

    def __post_init__(self) -> None:
        kind = self.space.kind
        v = self.value
        if kind == SCALAR:
            object.__setattr__(self, "value", float(v))
        elif kind == VECTOR:
            vec = tuple(float(t) for t in v)
            if len(vec) != self.space.d:
                raise ValueError("vector outcome has wrong length")
            object.__setattr__(self, "value", vec)
        elif kind == MEAN_STDDEV:
            m, sigma = v
            sigma = float(sigma)
            if sigma < 0:
                raise ValueError("standard deviation must be nonnegative")
            object.__setattr__(self, "value", (float(m), sigma))
        elif kind == DISTRIBUTION:
            pairs = sorted((float(p), float(w)) for p, w in v)
            if not pairs:
                raise ValueError("distribution needs at least one support point")
            for (p, w), (q, _) in zip(pairs, pairs[1:]):
                if _points_collide(p, q):
                    raise ValueError("distribution support points must be distinct")
            weights = [w for _, w in pairs]
            if any(w <= 0 for w in weights):
                raise ValueError("distribution probabilities must be positive")
            if abs(math.fsum(weights) - 1.0) > PROB_SUM_TOL:
                raise ValueError("distribution probabilities must sum to 1")
            object.__setattr__(self, "value", tuple(pairs))
        elif kind == PRIZE_STREAM:
            seq = tuple(v)
            bad = [p for p in seq if p not in self.space.alphabet]
            if bad:
                raise ValueError(f"prizes outside alphabet: {bad}")
            object.__setattr__(self, "value", seq)
        elif kind == MATRIX:
            d = self.space.d
            rows = tuple(tuple(float(t) for t in row) for row in v)
            if len(rows) != d or any(len(r) != d for r in rows):
                raise ValueError("matrix outcome has wrong shape")
            # non-finite entries are rejected below, before slogdet sees them
            if np.isfinite(rows).all() and np.linalg.slogdet(rows)[0] == 0.0:
                raise ValueError("matrix outcome must be invertible")
            object.__setattr__(self, "value", rows)
        # scalars, the bulk of every power menu, skip the flattening
        if kind == SCALAR:
            finite = math.isfinite(self.value)
        else:
            finite = all(map(math.isfinite, _flat(self)))
        if not finite:
            raise ValueError("outcome components must be finite")


def _trusted_outcome(space: Space, value) -> Outcome:
    # bypass __post_init__ for a value that is valid by construction
    x = object.__new__(Outcome)
    object.__setattr__(x, "space", space)
    object.__setattr__(x, "value", value)
    return x


def scalar(x: float) -> Outcome:
    return Outcome(Space.scalar(), x)


def point_mass(space: Space, at: float = 0.0) -> Outcome:
    return Outcome(space, ((at, 1.0),))


def compose(x: Outcome, y: Outcome) -> Outcome:
    """Combine outcomes of unrelated actions: x * y.

    Componentwise sum for scalars and vectors, independent-sum of
    (mean, stddev) pairs, convolution for distributions, concatenation
    for prize streams, and the matrix product for matrices.  The last
    two are order-sensitive.
    """
    if x.space != y.space:
        raise SpaceMismatchError()
    kind = x.space.kind
    if kind == SCALAR:
        return Outcome(x.space, x.value + y.value)
    if kind == VECTOR:
        return Outcome(x.space, tuple(a + b for a, b in zip(x.value, y.value)))
    if kind == MEAN_STDDEV:
        (m1, s1), (m2, s2) = x.value, y.value
        return Outcome(x.space, (m1 + m2, math.hypot(s1, s2)))
    if kind == DISTRIBUTION:
        return _compose_all((x,), (y,))[0]
    if kind == PRIZE_STREAM:
        return Outcome(x.space, x.value + y.value)
    # matrix product, order preserved
    prod = np.array(x.value) @ np.array(y.value)
    return Outcome(x.space, tuple(map(tuple, prod)))


def _compose_all(xs: Sequence[Outcome], ys: Sequence[Outcome]) -> list[Outcome]:
    """``x * y`` for every x in xs and y in ys, in row-major order.

    All outcomes share one space, which the caller has checked.
    Lotteries are convolved in array passes over blocks of at most
    ``_BLOCK`` padded terms, unless a single pair exceeds it; any other
    kind composes pair by pair.
    """
    space = xs[0].space
    if space.kind != DISTRIBUTION:
        return [compose(x, y) for x in xs for y in ys]
    x_sizes = np.array([len(x.value) for x in xs])
    y_rows, y_sizes = _padded([y.value for y in ys])
    per_point = y_rows.shape[0] * y_rows.shape[1]  # padded terms of one x point
    out: list[Outcome] = []
    start = 0
    while start < len(xs):
        # as many whole rows as fit, or one row
        widths = np.maximum.accumulate(x_sizes[start : start + max(1, _BLOCK // per_point)])
        fits = widths * np.arange(1, len(widths) + 1) * per_point <= _BLOCK
        stop = start + max(1, int(np.count_nonzero(fits)))
        x_rows, x_block_sizes = _padded([x.value for x in xs[start:stop]])
        # a row too large alone takes ys in slices; rows that fit
        # together take all of ys at once, which keeps row-major order
        step = max(1, _BLOCK // (x_rows.shape[0] * x_rows.shape[1] * y_rows.shape[1]))
        for j in range(0, len(ys), step):
            out += _convolve_rows(
                space, x_rows, x_block_sizes, y_rows[j : j + step], y_sizes[j : j + step]
            )
        start = stop
    return out


def _padded(lotteries: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Each lottery payload's (point, weight) pairs as one row, padded
    with (inf, inf) to the largest support, and the support sizes."""
    sizes = np.fromiter(map(len, lotteries), int, len(lotteries))
    rows = np.full((len(sizes), sizes.max(), 2), np.inf)
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(lotteries)), float)
    rows[np.arange(sizes.max()) < sizes[:, None]] = flat.reshape(-1, 2)
    return rows, sizes


def _valid_lotteries(lotteries: Sequence[tuple]) -> np.ndarray:
    """Whether each lottery payload, its pairs sorted by point, is one
    that Outcome keeps as it is: no two adjacent points collide, every
    point is finite, every weight lies in (0, 1], and the ``fsum`` of
    the weights is within PROB_SUM_TOL of 1.  The weight bound is
    stricter than Outcome, so it may flag a payload that Outcome accepts,
    never the reverse."""
    rows, sizes = _padded(lotteries)
    real = np.arange(rows.shape[1]) < sizes[:, None]
    points, weights = rows[..., 0], rows[..., 1]
    # padding and non-finite points meet as inf - inf
    with np.errstate(invalid="ignore"):
        collide = _points_collide(points[:, :-1], points[:, 1:]) & real[:, 1:]
    good = np.isfinite(points) & (weights > 0) & (weights <= 1.0)
    ok = (good | ~real).all(axis=1) & ~collide.any(axis=1)
    # a flagged row sums to 0 here, and its weights never reach fsum
    sums = map(math.fsum, np.where(ok[:, None] & real, weights, 0.0).tolist())
    return ok & (np.abs(np.fromiter(sums, float, len(ok)) - 1.0) <= PROB_SUM_TOL)


def _outcomes(space: Space, payloads: Sequence) -> list[Outcome]:
    """``[Outcome(space, v) for v in payloads]``.

    Scalar payloads (floats) and lottery payloads (tuples of float pairs
    sorted by point) are checked together in one array pass; any other
    kind is built one outcome at a time.  A payload that the pass flags
    is rebuilt through Outcome in order, so the first invalid payload
    raises Outcome's own error."""
    if not payloads:
        return []
    if space.kind == SCALAR:
        ok = np.isfinite(np.array(payloads, dtype=float))
    elif space.kind == DISTRIBUTION:
        ok = _valid_lotteries(payloads)
    else:
        return [Outcome(space, v) for v in payloads]
    out = [_trusted_outcome(space, v) for v in payloads]
    for i in np.flatnonzero(~ok).tolist():
        out[i] = Outcome(space, payloads[i])
    return out


# points may overflow to inf, as Python floats do silently; the
# finiteness check rejects them
@np.errstate(over="ignore", invalid="ignore")
def _convolve_rows(
    space: Space,
    x_rows: np.ndarray,
    x_sizes: np.ndarray,
    y_rows: np.ndarray,
    y_sizes: np.ndarray,
) -> list[Outcome]:
    """The convolution of every padded x row with every padded y row.

    A pair's terms are ``(p + q, wp * wq)`` for p in x, q in y, sorted
    stably by (point, weight); a term joins the open run when it collides
    with the run's first point, and a run's weight is its terms added one
    at a time in sorted order.  These are the floating-point operations,
    in the same order, of a pairwise loop over Python tuples.
    """
    # axes (x row, y row, x point, y point): pairs in row-major order,
    # each pair's terms in the order of ``for p in x for q in y``, with
    # padding terms (inf, inf) sorting last
    points = (x_rows[:, None, :, None, 0] + y_rows[None, :, None, :, 0]).reshape(
        len(x_rows) * len(y_rows), -1
    )
    weights = (x_rows[:, None, :, None, 1] * y_rows[None, :, None, :, 1]).reshape(
        points.shape
    )
    # complex order is lexicographic on (real, imag), and -0.0 ties 0.0
    # as in tuple comparison
    key = np.empty(points.shape, dtype=complex)
    key.real, key.imag = points, weights
    order = np.argsort(key, axis=1, kind="stable")
    count = (x_sizes[:, None] * y_sizes).ravel()
    real = np.arange(points.shape[1]) < count[:, None]
    points = np.take_along_axis(points, order, 1)[real]
    weights = np.take_along_axis(weights, order, 1)[real]

    n = len(points)
    head = np.zeros(n, dtype=bool)
    head[np.cumsum(count) - count] = True
    pair = np.cumsum(head)
    # guess the runs from adjacent collisions, then correct each pair's
    # earliest term that disagrees with its open run until none does:
    # a chain of close points may spread past MERGE_RTOL
    opens = head.copy()
    opens[1:] |= ~_points_collide(points[:-1], points[1:])
    index = np.arange(n)
    while True:
        first = np.maximum.accumulate(np.where(opens, index, 0))
        want = head.copy()
        want[1:] |= ~_points_collide(points[first[:-1]], points[1:])
        wrong = np.flatnonzero(want != opens)
        if not wrong.size:
            break
        _, earliest = np.unique(pair[wrong], return_index=True)
        opens[wrong[earliest]] = want[wrong[earliest]]

    run = np.flatnonzero(opens)
    length = np.diff(run, append=n)
    run_points, run_weights = points[run], weights[run]
    for k in range(1, int(length.max())):
        live = np.flatnonzero(length > k)
        run_weights[live] += weights[run[live] + k]

    bounds = np.flatnonzero(head[run])
    valid = np.logical_and.reduceat(
        (run_weights > 0) & np.isfinite(run_points) & np.isfinite(run_weights), bounds
    )
    ws = run_weights.tolist()
    spans = list(zip(bounds.tolist(), [*bounds[1:].tolist(), len(ws)]))
    terms = list(zip(run_points.tolist(), ws))
    for ok, (a, b) in zip(valid.tolist(), spans):
        if not ok or abs(math.fsum(ws[a:b]) - 1.0) > PROB_SUM_TOL:
            # Outcome rejects the pair with its own error
            Outcome(space, terms[a:b])
    return [_trusted_outcome(space, tuple(terms[a:b])) for a, b in spans]


def identity(space: Space) -> Outcome:
    """The irrelevant outcome e with e*x = x*e = x."""
    kind = space.kind
    if kind == SCALAR:
        return Outcome(space, 0.0)
    if kind == VECTOR:
        return Outcome(space, (0.0,) * space.d)
    if kind == MEAN_STDDEV:
        return Outcome(space, (0.0, 0.0))
    if kind == DISTRIBUTION:
        return point_mass(space)
    if kind == PRIZE_STREAM:
        return Outcome(space, ())
    return Outcome(space, tuple(map(tuple, np.eye(space.d))))


@dataclass(frozen=True, slots=True)
class Utility:
    """An additive-over-composition utility functional ``coeffs . features(x)``.

    ``coeffs`` are aligned with the space's feature map: the single
    beta, the weight vector, (gamma1, gamma2), the cumulant weights, the
    prize values in alphabet order, or the log-det beta.
    """

    space: Space
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        n = len(self.coeffs)
        expected = len(features(identity(self.space)))
        if n != expected:
            raise ValueError(
                f"{self.space.kind} utility needs {expected} coefficients, got {n}"
            )
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError(f"utility coefficients must be finite, got {self._named()}")

    def _named(self) -> dict:
        """The coefficients as ``to_json`` names them, for messages."""
        return {k: v for k, v in self.to_json().items() if k != "space"}

    @staticmethod
    def scalar_beta(beta: float) -> "Utility":
        return Utility(Space.scalar(), (beta,))

    @staticmethod
    def mean_variance(gamma1: float, gamma2: float) -> "Utility":
        return Utility(Space.mean_stddev(), (gamma1, gamma2))

    @staticmethod
    def prize_values(space: Space, values: dict) -> "Utility":
        return Utility(space, tuple(values[p] for p in space.alphabet))

    @staticmethod
    def log_det(d: int, beta: float) -> "Utility":
        return Utility(Space.matrix(d), (beta,))

    def to_json(self) -> dict:
        out: dict = {"space": self.space.to_json()}
        kind = self.space.kind
        if kind in (SCALAR, MATRIX):
            out["beta"] = self.coeffs[0]
        elif kind == VECTOR:
            out["weights"] = list(self.coeffs)
        elif kind == MEAN_STDDEV:
            out["gamma1"], out["gamma2"] = self.coeffs
        elif kind == DISTRIBUTION:
            out["gammas"] = list(self.coeffs)
        else:
            out["weights"] = dict(zip(self.space.alphabet, self.coeffs))
        return out

    @staticmethod
    def from_json(data: dict) -> "Utility":
        space = Space.from_json(data["space"])
        kind = space.kind
        if kind in (SCALAR, MATRIX):
            coeffs = (data["beta"],)
        elif kind == VECTOR:
            coeffs = tuple(data["weights"])
        elif kind == MEAN_STDDEV:
            coeffs = (data["gamma1"], data["gamma2"])
        elif kind == DISTRIBUTION:
            coeffs = tuple(data["gammas"])
        else:
            coeffs = tuple(data["weights"][p] for p in space.alphabet)
        return Utility(space, _json_numbers(coeffs, "a utility coefficient"))


def features(x: Outcome) -> tuple[float, ...]:
    """The additive feature map phi, with phi(x*y) = phi(x) + phi(y).

    x itself for scalars and vectors, (m, sigma^2) for mean-stddev
    pairs, the cumulants kappa_1..kappa_n for distributions, the count
    of each alphabet label for prize streams, and ln|det| for matrices.
    Every built-in utility is ``coeffs . phi(x)``.  This is the one row
    of ``feature_rows``.
    """
    return tuple(feature_rows(x.space, (x,))[0].tolist())


def feature_rows(space: Space, outcomes: Sequence[Outcome]) -> np.ndarray:
    """``features`` of each outcome of a space as one (len, k) float
    array, for one or more outcomes.

    Scalars, vectors, mean-stddev pairs and prize counts are read into
    one array, matrices take one stacked ``slogdet``, and lotteries
    their cumulants from one padded pass (``_cumulant_rows``).
    """
    kind = space.kind
    if kind == DISTRIBUTION:
        return _cumulant_rows(*_padded([x.value for x in outcomes]), space.moment_order)
    if kind == PRIZE_STREAM:
        rows = [[x.value.count(p) for p in space.alphabet] for x in outcomes]
    elif kind == MATRIX:
        _, logdets = np.linalg.slogdet(np.array([x.value for x in outcomes]))
        return logdets[:, None]
    else:
        rows = [x.value for x in outcomes]
    phi = np.array(rows, dtype=float).reshape(len(outcomes), -1)
    if kind == MEAN_STDDEV:
        phi[:, 1] *= phi[:, 1]
    return phi


def evaluate(u: Utility, x: Outcome) -> float:
    """Utility of an outcome; additive over compose by construction."""
    if u.space != x.space:
        raise SpaceMismatchError()
    return math.fsum(c * f for c, f in zip(u.coeffs, features(x)))


def basis_probes(space: Space) -> list[Outcome]:
    """Outcomes whose feature vectors form an invertible square matrix.

    The unit basis of the features wherever single outcomes realize it;
    finite-support lotteries for cumulants; diag(e, 1, ..., 1), whose
    log|det| is exactly 1, for matrices.  Distribution probes keep their
    support within [-1, 2] so probe utilities stay moderate: the log
    odds are lost once the identity's probe probability underflows.
    """
    kind = space.kind
    if kind == SCALAR:
        return [Outcome(space, 1.0)]
    if kind in (VECTOR, MEAN_STDDEV):
        k = len(features(identity(space)))
        return [Outcome(space, tuple(row)) for row in np.eye(k)]
    if kind == PRIZE_STREAM:
        return [Outcome(space, (p,)) for p in space.alphabet]
    if kind == MATRIX:
        diag = np.eye(space.d)
        diag[0, 0] = math.e
        return [Outcome(space, diag)]
    # a point mass pins the mean; Bernoulli probes with distinct success
    # probabilities and small symmetric two-point probes fill the higher
    # orders
    n = space.moment_order
    lotteries = [
        ((1.0, 1.0),),
        ((0.0, 0.5), (1.0, 0.5)),
        ((0.0, 0.75), (1.0, 0.25)),
        ((-1.0, 0.5), (1.0, 0.5)),
        ((0.0, 0.875), (1.0, 0.125)),
        ((-1.0, 0.25), (1.0, 0.75)),
        ((0.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)),
        ((-2.0, 0.5), (1.0, 0.5)),
    ]
    if n > len(lotteries):
        raise ValueError(f"no probe set available for cumulant order {n}")
    return [Outcome(space, pairs) for pairs in lotteries[:n]]


def cumulants(x: Outcome, n: int) -> tuple[float, ...]:
    """First n cumulants of a finite-support distribution: the one row
    of ``_cumulant_rows``.  kappa_1 is the mean and kappa_2 the
    variance."""
    if x.space.kind != DISTRIBUTION:
        raise ValueError("cumulants are defined for distribution outcomes")
    if n < 0:
        raise ValueError("cumulant order must be nonnegative")
    return tuple(_cumulant_rows(*_padded((x.value,)), n)[0].tolist())


# a power past the float range gives inf or NaN, as a product's summed
# rows do
@np.errstate(over="ignore", invalid="ignore")
def _cumulant_rows(rows: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """The first n cumulants of each padded lottery row (``_padded``),
    as one (rows, n) array.

    Raw moments m_j are the sums of w * p**j over each row's support,
    taken support column by support column in one array pass with a
    compensated (Neumaier) sum, which rounds like ``math.fsum`` except
    under heavy cancellation.  Cumulants follow from the
    moment-to-cumulant recursion
    kappa_j = m_j - sum_{k<j} C(j-1, k-1) kappa_k m_{j-k},
    which is stable for finite support (no numerical differentiation of
    the log characteristic function).
    """
    real = np.arange(rows.shape[1]) < sizes[:, None]
    points = np.where(real, rows[..., 0], 0.0).T
    weights = np.where(real, rows[..., 1], 0.0).T
    # terms[i, j - 1] is w * p**j of each row's i-th support point; a
    # scalar exponent lets p**2 be the exact square
    terms = np.empty((len(points), n, len(rows)))
    for j in range(1, n + 1):
        terms[:, j - 1] = weights * points**j
    moments, error = terms[0].copy(), np.zeros(terms.shape[1:])
    for term in terms[1:]:
        total = moments + term
        big = np.abs(moments) >= np.abs(term)
        error += np.where(big, (moments - total) + term, (term - total) + moments)
        moments = total
    moments += error
    # moments[j - 1] is m_j
    kappas = np.empty((len(rows), n))
    for order in range(1, n + 1):
        acc = moments[order - 1].copy()
        for k in range(1, order):
            acc -= math.comb(order - 1, k - 1) * kappas[:, k - 1] * moments[order - k - 1]
        kappas[:, order - 1] = acc
    return kappas


def _flat(x: Outcome) -> tuple[float, ...]:
    """The compared payload as one flat tuple: distribution pairs and
    matrix rows concatenated, a prize stream as its length followed by
    the alphabet position of each label."""
    kind = x.space.kind
    if kind == SCALAR:
        return (x.value,)
    if kind in (VECTOR, MEAN_STDDEV):
        return x.value
    if kind == PRIZE_STREAM:
        index = x.space.alphabet.index
        return (float(len(x.value)), *(float(index(p)) for p in x.value))
    return tuple(chain.from_iterable(x.value))


def _equality_tol(space: Space, tol: float | None) -> float:
    if space.kind == PRIZE_STREAM:
        return 0.0
    return EQUALITY_TOL if tol is None else tol


def outcomes_equal(x: Outcome, y: Outcome, tol: float | None = None) -> bool:
    """Componentwise |a - b| <= tol over the flattened payloads, which
    must have the same length; prize streams compare exactly."""
    if x.space != y.space:
        return False
    a, b = _flat(x), _flat(y)
    t = _equality_tol(x.space, tol)
    return len(a) == len(b) and all(abs(p - q) <= t for p, q in zip(a, b))


def sort_and_cut(values: Sequence[float], tol: float) -> list[int]:
    """Run label of each value: sort, and start a new run wherever the
    sorted values step up by more than tol.  Labels count 0, 1, ... in
    ascending order of value, so values within tol of each other always
    share a run, and a run's values may span more than tol."""
    order = sorted(range(len(values)), key=values.__getitem__)
    labels = [0] * len(values)
    run = 0
    for i, j in zip(order, order[1:]):
        if values[j] - values[i] > tol:
            run += 1
        labels[j] = run
    return labels


def equal_outcome_blocks(
    outcomes: Sequence[Outcome], tol: float | None = None
) -> list[tuple[list[int], bool]]:
    """Blocks of outcome indices, each ascending, such that every pair of
    equal outcomes (``outcomes_equal`` at tol) lies in one block.

    Blocks are runs of ``sort_and_cut`` on the first flattened
    coordinate.  A block is flagged all-equal when its payloads have one
    length and every coordinate spreads by at most tol; then every pair
    in it is equal.  Otherwise only some of its pairs may be.
    """
    if not outcomes:
        return []
    t = _equality_tol(outcomes[0].space, tol)
    flats = [_flat(x) for x in outcomes]
    labels = sort_and_cut([f[0] for f in flats], t)
    members: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for i, g in enumerate(labels):
        members[g].append(i)
    blocks = []
    for idx in members:
        rows = [flats[i] for i in idx]
        all_equal = len(rows) == 1 or (
            all(len(r) == len(rows[0]) for r in rows)
            and all(max(c) - min(c) <= t for c in zip(*rows))
        )
        blocks.append((idx, all_equal))
    return blocks


def outcome_to_json(x: Outcome):
    kind = x.space.kind
    if kind == SCALAR:
        return x.value
    if kind in (VECTOR, PRIZE_STREAM):
        return list(x.value)
    if kind == MEAN_STDDEV:
        return {"m": x.value[0], "sigma": x.value[1]}
    if kind == DISTRIBUTION:
        return {
            "support": [p for p, _ in x.value],
            "probs": [w for _, w in x.value],
        }
    return [list(row) for row in x.value]


def outcome_from_json(space: Space, data) -> Outcome:
    kind = space.kind
    if kind == PRIZE_STREAM:
        if type(data) is not list or not all(type(p) is str for p in data):
            raise ValueError(f"a prize stream must be a JSON list of prize labels, got {data!r}")
        return Outcome(space, data)
    if kind == MEAN_STDDEV:
        data = (data["m"], data["sigma"])
    elif kind == DISTRIBUTION:
        support, probs = data["support"], data["probs"]
        if len(support) != len(probs):
            raise ValueError(f"lottery has {len(support)} support points but {len(probs)} probs")
        data = tuple(zip(support, probs))
    return Outcome(space, _json_numbers(data))


def _json_numbers(data, name: str = "an outcome number"):
    """``data``, a JSON number or nested lists of them, as read.  A bool or
    a string such as "1.5", which float() would read, raises ValueError
    naming ``name``."""
    if type(data) is list or type(data) is tuple:
        for x in data:
            _json_numbers(x, name)
    elif type(data) is not float and type(data) is not int:
        raise ValueError(f"{name} must be a JSON number, got {data!r}")
    return data


# a number's canonical text: 12 significant digits
_number_text = "{:.12g}".format


class _NumberTexts(dict):
    """Each number's canonical text, formatted once per distinct value.
    -0.0 and 0.0 are one key but print as "-0" and "0", so zero is
    formatted every time."""

    def __missing__(self, v: float) -> str:
        text = _number_text(v)
        if v:
            self[v] = text
        return text


def _canonical_text(x: Outcome, num: Callable[[float], str]) -> str:
    """Compact encoding of an outcome, for hashing, with num(v) the text
    of each number v: ``_number_text``, or a ``_NumberTexts`` lookup
    that a caller shares across many outcomes."""
    kind = x.space.kind
    if kind == SCALAR:
        return num(x.value)
    if kind == VECTOR:
        return ",".join([num(t) for t in x.value])
    if kind == MEAN_STDDEV:
        return f"{num(x.value[0])};{num(x.value[1])}"
    if kind == DISTRIBUTION:
        return "|".join([f"{num(p)}:{num(w)}" for p, w in x.value])
    if kind == PRIZE_STREAM:
        return "|".join(x.value)
    return ";".join(",".join([num(t) for t in row]) for row in x.value)
