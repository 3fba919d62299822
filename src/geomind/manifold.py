"""Token fields and the metric geometry they induce.

A token field is a weighted set of Gaussian kernels in R^D, held as arrays:
ids (n,), means (n, D), covariances and weights (n,). The covariances are
(n, D, D) matrices or (n, D) diagonals, whichever shape the caller gives: a
field file whose covariances are all diagonal lists (or left out) loads as
(n, D), which needs neither the dense array nor an eigenvalue check, and
one with any full matrix as (n, D, D). Both shapes are written out as
matrices, so a field's files do not depend on the shape. Its density
defines a conformal metric g(x) = I / (rho(x) + eps), so dense regions are
metrically short and geodesics gravitate toward them. Analytic metrics
(flat scaling, 2-sphere chart) are provided as test oracles. These three
are the metric sources a run can name, each with closed-form Christoffel
symbols; christoffel_fd is their finite-difference reference. curvature_at
takes finite differences of any source's symbols, and the density metric's
scalar curvature also has a closed form.

Every kernel pass runs on constants the field caches whenever it stores its
means: the centroid c, the slopes s_i = (v_i - c) / h^2 and the offsets
o_i = -|v_i - c|^2 / 2h^2. With x_c = x - c the kernel exponent is
E_i = o_i + s_i . x_c - |x_c|^2 / 2h^2 = -|x - v_i|^2 / 2h^2, so
k_i = w_i exp(E_i), and no (n, D) means - x array is built. Each k_i carries
a relative error of about D eps (1 + (|v_i - c| + |x_c|)^2 / h^2), which
centring keeps small near the data. density_at and density_gradient take
one matrix-vector product per point. A batch takes rho and grad rho from
_kernel_sums, with products stacked per point: a matrix-vector product is
not row-invariant against a batched GEMM, and each row must get its bits.
densities and scalar_curvature, which serve curvature grids of any size,
take their points in blocks of KERNEL_BLOCK kernel elements; a batch
christoffel, which a shooting stage calls with D + 1 rows, takes its whole
batch in one pass.

Every metric source's christoffel() takes one (D,) point, giving (D, D, D),
or a (B, D) batch, giving (B, D, D, D), and check_domain() takes either.
A batch is row-invariant: each row is bitwise what the point gives alone.
The field metric's Gamma, for a point or a batch, is one gather: the table
[g, -g, 0], g = grad lambda, divided by 2 lambda and taken with ndarray.take,
whose result is C-ordered, through a (D, D, D) index cached per dimension
(_christoffel_index); the einsum that contracts Gamma sums in an
order that follows the strides of its operands. A batch takes lambda and g
from one kernel pass over its rows. A single point keeps three density calls
(density_at twice and density_gradient once), because the benchmark's traced
flows pin 4 christoffel and 12 density calls per RK4 step, but the three
calls share one kernel pass and one density sum: each field keeps an entry
for the last point it was asked about, with the exponents, |x_c|^2 and rho,
and forgets it when it stores new means or weights. TokenField.nearest ranks
tokens by those exponents, so in a consciousness cycle its pass at the new
front also serves the next step's first stage, and a cycle makes 4 kernel
passes. The flat and sphere metrics take batches in closed form too.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ChartDomainError, SingularMetricError

# Relative step for central differences of the metric; the same step is
# reused for the Christoffel derivatives inside the curvature tensor.
FD_STEP = 1e-4

# Covariances are validated this many rows at a time: the checks' temporaries
# for all 10^4 16x16 matrices at once would add tens of MB to peak memory.
VALIDATE_BLOCK = 512

# densities, scalar_curvature and mind's connectivity scan take points in
# blocks of about this many (point, token) kernel elements, so that the
# temporaries of a grid stay small whatever its size. A batch christoffel
# takes no blocks: its one caller in geomind, a shooting stage, passes D + 1
# rows, so its (B, n) temporaries are small beside its (B, D, D, D) result.
KERNEL_BLOCK = 4096


def _as_vector(x, dim: int, name: str = "point", batch: bool = False) -> np.ndarray:
    """x as a (D,) float array; with batch, a (B, D) array of rows also passes."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,) and not (batch and x.ndim == 2 and x.shape[1] == dim):
        raise ValueError(f"{name} must have dimension {dim}, got shape {x.shape}")
    return x


def _as_int(value, name: str, floor: Optional[int] = None) -> int:
    """value as an int when it is a Python or numpy int, never a bool, and at
    least floor when one is given; any other value raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if floor is not None and value < floor:
        raise ValueError(f"{name} must be at least {floor}, got {value!r}")
    return int(value)


def covariance_root(covariance) -> Optional[np.ndarray]:
    """The square root L of a covariance that a Gaussian draw mean + L z
    uses, for a (D, D) matrix or a (D,) row of its diagonal: None for the
    zero matrix, the (D,) elementwise root of a diagonal, else the (D, D)
    Cholesky factor, or the eigenvalue root if the matrix is only
    semidefinite. Diagonal and eigenvalue roots clip rounding-level
    negatives to zero."""
    cov = np.asarray(covariance, dtype=float)
    if not np.any(cov):
        return None
    if cov.ndim == 1:
        return np.sqrt(np.clip(cov, 0.0, None))
    if np.count_nonzero(cov - np.diag(np.diagonal(cov))) == 0:
        return np.sqrt(np.clip(np.diagonal(cov), 0.0, None))
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(cov)
        return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))


def _owned(value, dtype) -> np.ndarray:
    """value as an array of dtype that owns its memory: the array itself if
    it owns its memory already, else a copy."""
    array = np.asarray(value, dtype=dtype)
    return array if array.flags.owndata else array.copy()


@dataclass(frozen=True, init=False, eq=False)
class TokenField:
    """A set of n Gaussian tokens in R^D, stored once as read-only arrays,
    plus the kernel parameters of the density.

    bandwidth is the shared Gaussian length scale h; epsilon regularises the
    conformal factor 1/(rho + eps) so the metric stays finite away from data.
    The dimension D is means.shape[1], so an empty field takes (0, D) means.
    covariances is either (n, D, D) matrices or (n, D) diagonals, each row
    the diagonal of a matrix that is zero off it; the field keeps the shape
    it is given and never inspects values to choose one.
    """

    ids: np.ndarray  # (n,)
    means: np.ndarray  # (n, D)
    covariances: np.ndarray  # (n, D, D) or (n, D)
    weights: np.ndarray  # (n,)
    dimension: int
    bandwidth: float
    epsilon: float

    def __init__(self, ids, means, covariances, weights,
                 bandwidth: float = 1.0, epsilon: float = 1.0):
        """Validate and take over the token arrays: an array that owns its
        memory becomes the field's own and read-only, also for the caller;
        anything else, such as a list or a view into another array, is
        copied. So no write through a given array reaches the field; only a
        view taken of one before the call could. ValueError names the first
        offending id."""
        if not 2.0**-511 <= bandwidth < 2.0**511:
            # the kernel divides by h^2 and 2 h^2, which must neither
            # overflow nor lose bits as subnormals
            raise ValueError("bandwidth must be positive and finite, with a normal square: "
                             f"2^-511 <= bandwidth < 2^511, got {bandwidth!r}")
        if not 2.0**-511 <= epsilon < np.inf:
            # far from the data lambda = 1/epsilon, and lambda^2 must stay finite
            raise ValueError("epsilon must be positive and finite, with a finite 1/epsilon^2: "
                             f"2^-511 <= epsilon, got {epsilon!r}")
        ids, means = _owned(ids, np.int64), _owned(means, float)
        covariances, weights = _owned(covariances, float), _owned(weights, float)
        if means.ndim != 2 or means.shape[1] < 1:
            raise ValueError(f"means must be an (n, D) array with D >= 1, got shape {means.shape}")
        n, d = means.shape
        if (ids.shape != (n,) or covariances.shape not in ((n, d, d), (n, d))
                or weights.shape != (n,)):
            raise ValueError(f"{n} tokens in dimension {d} need ids ({n},), covariances "
                             f"({n}, {d}, {d}) or ({n}, {d}) and weights ({n},), got "
                             f"{ids.shape}, {covariances.shape} and {weights.shape}")
        unique, counts = np.unique(ids, return_counts=True)
        if np.any(counts > 1):
            raise ValueError(f"duplicate token id(s): {unique[counts > 1].tolist()}")
        axes = tuple(range(1, covariances.ndim))
        for lo in range(0, n, VALIDATE_BLOCK):
            cov = covariances[lo:lo + VALIDATE_BLOCK]
            # before eigvalsh, which cannot take NaN or infinity
            finite = (np.isfinite(means[lo:lo + VALIDATE_BLOCK]).all(axis=1)
                      & np.isfinite(cov).all(axis=axes) & np.isfinite(weights[lo:lo + VALIDATE_BLOCK]))
            if not finite.all():
                raise ValueError(f"token {ids[lo + np.argmin(finite)]}: mean, covariance and weight "
                                 "must be finite")
            if cov.ndim == 3:
                asymmetric = ~np.isclose(cov, cov.transpose(0, 2, 1), atol=1e-12).all(axis=(1, 2))
                eigmin = np.linalg.eigvalsh(cov).min(axis=1, initial=0.0)
            else:  # a diagonal matrix is symmetric, and its eigenvalues are its diagonal
                asymmetric, eigmin = np.zeros(len(cov), dtype=bool), cov.min(axis=1, initial=0.0)
            scale = np.maximum(1.0, np.abs(cov).max(axis=axes, initial=0.0))
            for bad, rule in (
                    (asymmetric, "covariance must be symmetric"),
                    (eigmin < -1e-10 * scale, "covariance must be positive semidefinite"),
                    (weights[lo:lo + VALIDATE_BLOCK] < 0, "weight must be non-negative")):
                if np.any(bad):
                    raise ValueError(f"token {ids[lo + np.argmax(bad)]}: {rule}")
        self.__dict__.update(dimension=d, bandwidth=bandwidth, epsilon=epsilon)
        with np.errstate(over="ignore"):
            if not np.isfinite(means.sum(axis=0)).all():
                # the kernel centroid would be infinite, and every density NaN
                raise ValueError("means must have finite column sums, since the kernel is "
                                 "centred on their centroid")
            self._store({"ids": ids, "means": means, "covariances": covariances, "weights": weights})
        # an infinite offset makes exponents of -inf + inf, NaN densities near
        # the token; an infinite slope (v - c) / h^2 implies one, as h^2 >= 2^-1022
        far = ~np.isfinite(self._offsets)
        if far.any():
            raise ValueError(f"token {ids[np.argmax(far)]}: mean is too far from the centroid: "
                             "its kernel offset -|v - c|^2 / 2h^2 is not finite")

    def _store(self, arrays: dict[str, np.ndarray]) -> None:
        for name, array in arrays.items():
            array.flags.writeable = False
            self.__dict__[name] = array
        if "covariances" in arrays:
            # covariance_root of each row, filled in by sampling_root; a copy
            # that keeps the covariances shares it
            self.__dict__["_roots"] = {}
        if "means" in arrays:
            # the centred kernel constants of _exponent; max() keeps an empty
            # field off numpy's mean-of-empty warning
            h2 = self.bandwidth**2
            centre = self.means.sum(axis=0) / max(1, len(self.means))
            slopes = self.means - centre
            squares = np.einsum("nd,nd->n", slopes, slopes)
            offsets = -squares / (2.0 * h2)
            slopes /= h2
            self.__dict__.update(_centre=centre, _slopes=slopes, _offsets=offsets,
                                 _reach=math.sqrt(squares.max(initial=0.0)))
        if "means" in arrays or "weights" in arrays:
            # _exponent's entry for its last point holds rho = w . e, which
            # depends on the weights as well as the means; a copy that keeps
            # both keeps it
            self.__dict__["_memo"] = None

    def _replace(self, **arrays: np.ndarray) -> "TokenField":
        """A copy that takes over the given, already valid arrays, read-only."""
        field = copy.copy(self)
        field._store(arrays)
        return field

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids) -> np.ndarray:
        """Row index of each given token id, in the given order. Ids are Python
        or numpy ints, never bools; any other value, or an unknown id, is a ValueError."""
        ids = list(ids)
        for i in ids:
            _as_int(i, "token id")
        unknown = sorted({int(i) for i in ids}.difference(self.ids.tolist()))
        if unknown:
            raise ValueError(f"unknown token id(s): {unknown}")
        order = np.argsort(self.ids)
        return order[np.searchsorted(self.ids, np.array(ids, dtype=np.int64), sorter=order)]

    def sampling_root(self, row: int) -> Optional[np.ndarray]:
        """covariance_root of the covariance in the given row, read-only,
        computed on the row's first use and then kept."""
        roots = self.__dict__["_roots"]
        if row not in roots:
            root = covariance_root(self.covariances[row])
            if root is not None:
                root.flags.writeable = False
            roots[row] = root
        return roots[row]

    def nearest(self, x) -> int:
        """Row of the token whose mean is Euclidean-nearest to x; ties go to
        the lowest id.

        The rule is exact on the computed distances a_i^(1/2), where
        a_i = fl(|v_i - x|^2) by one BLAS dot per row, but it is applied only
        to the rows whose kernel exponent E_i (see _exponent) lies within a
        margin M of max E; the pass that finds E also serves the next
        density call at x. Why no row outside the margin can win: let
        R_i = |x - v_i|^2 exactly and H = h^2 as stored, and write
        gamma_n = n u / (1 - n u), u = 2^-53, for the bound on n roundings
        (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
        a_i takes D + 2 roundings of non-negative terms, so
        a_i = R_i (1 + t_i) with |t_i| <= gamma_(D+2), and the square root
        rounds once more, so the winning row j has, against every row m,
        R_j <= (1 + f) R_m with f <= 2 gamma_(D+4). E_i is
        o_i + s_i . x_c - |x_c|^2 / 2H with terms of size at most
        K = r^2 / 2H, r = max_i |v_i - c| + |x_c| (the field caches the
        reach max_i |v_i - c|), each taking at most D + 3 roundings, and two
        additions, so |E_i + R_i / 2H| <= gamma_(D+5) K. With m the row of
        max E and R_m / 2H <= K:
        E_j >= -(1 + f) R_m / 2H - gamma_(D+5) K >= E_m - (2 gamma_(D+5) + f) K
        >= max E - 4 gamma_(D+8) K. M is twice that, which covers the
        rounding of K itself, plus (D + 8) 2^-1070 (1 + r) (1 + 1 / H) for
        products that round to subnormals with an absolute error. Where
        max E is not finite (a NaN or infinite x, or an overflow), or r
        reaches 2^511 and a_i could overflow, every row is scanned."""
        if not len(self):
            raise ValueError("nearest() on an empty field")
        x = _as_vector(x, self.dimension)
        exponent = _exponent(self, x)[1]
        top = int(exponent.argmax())  # the first NaN, if any, which fails isfinite
        radius = self._reach + math.sqrt(self._memo[2])  # |x_c|, from _exponent's entry
        if math.isfinite(exponent[top]) and radius < 2.0**511:
            h2, d = self.bandwidth**2, self.dimension
            gamma = (d + 8) * 2.0**-53 / (1.0 - (d + 8) * 2.0**-53)
            margin = (8.0 * gamma * radius**2 / (2.0 * h2)
                      + (d + 8) * 2.0**-1070 * (1.0 + radius) * (1.0 + 1.0 / h2))
            near = exponent >= exponent[top] - margin
            if np.count_nonzero(near) == 1:
                return top
            rows = np.flatnonzero(near)
        else:
            rows = np.arange(len(self))
        diffs = self.means[rows] - x
        # vecdot is the per-row BLAS dot that np.linalg.norm uses on one vector
        dist = np.sqrt(np.vecdot(diffs, diffs))
        tied = rows[dist == dist.min()]
        # a NaN in x makes every distance NaN, which ties with nothing
        return int(tied[np.argmin(self.ids[tied])]) if tied.size else 0


def _exponent(field: TokenField, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centred point x_c = x - c, kernel exponents E (n,) and unweighted
    kernel values e = exp(E) at one (D,) point x, k_i = w_i e_i, where
    E_i = o_i + s_i . x_c - |x_c|^2 / 2h^2 = -|x - v_i|^2 / 2h^2
    with the field's cached centroid c, slopes s_i = (v_i - c) / h^2 and
    offsets o_i = -|v_i - c|^2 / 2h^2: one matrix-vector product, no (n, D)
    temporary. The exponent's terms are rounded at their own size, up to
    (|v_i - c| + |x_c|)^2 / 2h^2, not at the size of their sum, so each k_i
    carries a relative error of about D eps (1 + (|v_i - c| + |x_c|)^2 / h^2),
    eps = 2^-52; centring keeps it small near the data.

    The field keeps the read-only result for the last point, keyed on its
    bytes, in its entry field._memo = (key, result, |x_c|^2, rho), where
    rho = w . e is density_at's value and |x_c|^2 gives nearest() its
    radius. So the density calls of one Christoffel evaluation, and a
    nearest() followed by a density call at the same point, share one pass
    and one weighted sum. The entry is replaced whole, never changed, and
    the field forgets it when it stores new means or weights."""
    x = _as_vector(x, field.dimension)
    key = x.tobytes()
    memo = field._memo
    if memo is not None and memo[0] == key:
        return memo[1]
    xc = x - field._centre
    xc2 = float(np.dot(xc, xc))
    exponent = field._offsets + field._slopes @ xc - xc2 / (2.0 * field.bandwidth**2)
    kern = np.exp(exponent)
    result = (xc, exponent, kern)
    for array in result:
        array.flags.writeable = False
    field.__dict__["_memo"] = (key, result, xc2, float(np.dot(field.weights, kern)))
    return result


def density_at(field: TokenField, x) -> float:
    """Weighted Gaussian kernel density rho(x) = sum_i w_i exp(-|x-v_i|^2 / 2h^2),
    one dot product w . e that the field's entry for x keeps (_exponent)."""
    _exponent(field, x)
    return field._memo[3]


def density_gradient(field: TokenField, x) -> np.ndarray:
    """Closed-form gradient of density_at with respect to x,
    sum_i k_i (v_i - x) / h^2 = sum_i k_i s_i - (sum_i k_i) x_c / h^2."""
    xc, _, kern = _exponent(field, x)
    kern = kern * field.weights
    # np.add.reduce is kern.sum()'s pairwise sum without its Python wrapper
    return kern @ field._slopes - np.add.reduce(kern) / field.bandwidth**2 * xc


def _batch_exponents(field: TokenField, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_c (B, D) and E (B, n) of a (B, D) point array in one pass, where
    E_i = o_i + s_i . x_c - |x_c|^2 / 2h^2 = -|x - v_i|^2 / 2h^2 is the
    exponent that _exponent gives one point, so k_i = w_i exp(E_i). The
    products are stacked per point, which is row-invariant: a point's values
    do not depend on the batch it sits in, as they would with one (B, D) GEMM."""
    xc = points - field._centre
    # vecdot gives each row the bits of _exponent's np.dot(x_c, x_c)
    return xc, (field._offsets + np.matmul(xc[:, None, :], field._slopes.T)[:, 0]
                - np.vecdot(xc, xc)[:, None] / (2.0 * field.bandwidth**2))


def _exponents(field: TokenField, points: np.ndarray):
    """Yield (rows, x_c, E) of _batch_exponents over blocks of KERNEL_BLOCK
    kernel elements of a (P, D) point array."""
    block = max(1, KERNEL_BLOCK // max(1, len(field)))
    for lo in range(0, len(points), block):
        yield (slice(lo, lo + block), *_batch_exponents(field, points[lo:lo + block]))


def _kernel_sums(field: TokenField, xc: np.ndarray, exponent: np.ndarray, gradient=True):
    """k = w exp(E) (B, n), rho (B,) and grad rho (B, D) of the x_c and E of
    _batch_exponents, each row bitwise what density_at and density_gradient
    give its point (vecdot is np.dot by row); without gradient, k and grad
    are None."""
    kern = np.exp(exponent)
    rho = np.vecdot(kern, field.weights)
    if not gradient:
        return None, rho, None
    kern *= field.weights
    grad = (np.matmul(kern[:, None, :], field._slopes)[:, 0]
            - (np.add.reduce(kern, axis=1) / field.bandwidth**2)[:, None] * xc)
    return kern, rho, grad


def densities(field: TokenField, points) -> np.ndarray:
    """density_at for each row of a (P, D) array, bitwise, block by block."""
    points = np.asarray(points, dtype=float).reshape(-1, field.dimension)
    rho = np.empty(len(points))
    for rows, xc, exponent in _exponents(field, points):
        rho[rows] = _kernel_sums(field, xc, exponent, gradient=False)[1]
    return rho


@dataclass(frozen=True)
class CurvatureReport:
    """Riemann tensor R^rho_{sigma mu nu} and the scalar curvature at a point."""

    riemann: np.ndarray
    scalar: float


class MetricSource:
    """A Riemannian metric on a single global chart.

    Subclasses implement metric() and christoffel(); scalar_curvature()
    defaults to central finite differences and may be overridden with a
    closed form. check_domain() and christoffel() take one (D,) point or a
    (B, D) batch of rows, and every row of a batch must get exactly the bits
    it gets alone.
    """

    dim: int

    def check_domain(self, x: np.ndarray) -> None:
        """Raise ChartDomainError if x, or any row of a (B, D) batch, is
        outside the chart. Default: all of R^D."""

    def in_domain(self, x) -> bool:
        try:
            self.check_domain(_as_vector(x, self.dim))
        except ChartDomainError:
            return False
        return True

    def metric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        """Gamma^m_{nl} at x as (D, D, D), or (B, D, D, D) for a batch."""
        raise NotImplementedError

    def scalar_curvature(self, points) -> np.ndarray:
        """Scalar curvature at each row of a (P, D) array. Default: the
        finite-difference path of curvature_at, one point at a time."""
        points = np.asarray(points, dtype=float).reshape(-1, self.dim)
        return np.array([curvature_at(self, p).scalar for p in points], dtype=float)


def fd_step_at(x: np.ndarray) -> float:
    return FD_STEP * max(1.0, float(np.linalg.norm(x)))


def _inverse_metric(g: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(g)) or abs(np.linalg.det(g)) < 1e-300:
        raise SingularMetricError("metric is not invertible at this point")
    return np.linalg.inv(g)


def christoffel_fd(source: MetricSource, x) -> np.ndarray:
    """Gamma^m_{nl} = 1/2 g^{mr} (d_l g_{rn} + d_n g_{rl} - d_r g_{nl}) at x as
    a (D, D, D) array, with the metric derivatives taken by central
    differences: the reference for the closed-form christoffel() of every
    source."""
    d = source.dim
    x = _as_vector(x, d)
    delta = fd_step_at(x)
    dg = np.empty((d, d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = delta
        dg[k] = (source.metric(x + e) - source.metric(x - e)) / (2.0 * delta)
    ginv = _inverse_metric(source.metric(x))
    term1 = np.einsum("mr,lrn->mnl", ginv, dg)
    term2 = np.einsum("mr,nrl->mnl", ginv, dg)
    term3 = np.einsum("mr,rnl->mnl", ginv, dg)
    return 0.5 * (term1 + term2 - term3)


class FlatMetric(MetricSource):
    """Constant scaled-identity metric g = scale * I on R^D."""

    def __init__(self, dim: int, scale: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be positive")
        if not 0 < scale < np.inf:
            raise ValueError("scale must be positive and finite")
        self.dim = dim
        self.scale = float(scale)

    def metric(self, x: np.ndarray) -> np.ndarray:
        _as_vector(x, self.dim)
        return self.scale * np.eye(self.dim)

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, self.dim, batch=True)
        return np.zeros(x.shape[:-1] + (self.dim,) * 3)


class SphereMetric(MetricSource):
    """Round 2-sphere of radius r in the (theta, phi) chart, 0 < theta < pi."""

    dim = 2

    def __init__(self, radius: float = 1.0):
        if not 2.0**-511 <= radius < 2.0**511:  # metric() squares it
            raise ValueError("radius must be positive and finite, with a normal square: "
                             f"2^-511 <= radius < 2^511, got {radius!r}")
        self.radius = float(radius)

    def check_domain(self, x: np.ndarray) -> None:
        theta = np.asarray(x)[..., 0]
        # written so that a NaN theta fails
        if not np.all((0.0 < theta) & (theta < np.pi) & (np.abs(np.sin(theta)) >= 1e-12)):
            raise ChartDomainError(f"sphere chart is singular at theta={theta}")

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, 2)
        self.check_domain(x)
        r2 = self.radius**2
        return np.diag([r2, r2 * np.sin(x[0]) ** 2])

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, 2, batch=True)
        self.check_domain(x)
        theta = x[..., 0]
        gamma = np.zeros(x.shape[:-1] + (2, 2, 2))
        gamma[..., 0, 1, 1] = -np.sin(theta) * np.cos(theta)
        cot = np.cos(theta) / np.sin(theta)
        gamma[..., 1, 0, 1] = cot
        gamma[..., 1, 1, 0] = cot
        return gamma


@functools.cache
def _christoffel_index(dim: int) -> np.ndarray:
    """(D, D, D) index into [g, -g, 0], length 2D + 1, that gathers the
    conformal Gamma^m_{nl} * 2 lambda: g_l where m = n, else g_n where
    m = l, else -g_m where n = l, else 0. Where m = n = l the three Kronecker
    terms sum to (g_m + g_m) - g_m, which is g_m exactly. Nothing writes to
    it, but it stays writable: ndarray.take copies a read-only index on
    every call."""
    m, n, l = np.indices((dim,) * 3)
    return np.where(m == n, l, np.where(m == l, n, np.where(n == l, dim + m, 2 * dim)))


def _conformal_christoffel(two_lam, grad: np.ndarray) -> np.ndarray:
    """Gamma^m_{nl} = (delta^m_n g_l + delta^m_l g_n - delta_nl g_m) / (2 lambda)
    of lambda I as (..., D, D, D), from g = grad lambda (..., D) and 2 lambda
    as a float or a (..., 1) array."""
    d = grad.shape[-1]
    table = np.zeros(grad.shape[:-1] + (2 * d + 1,))
    table[..., :d] = grad
    np.negative(grad, out=table[..., d:-1])
    table /= two_lam
    return table.take(_christoffel_index(d), axis=-1)


class ConformalFieldMetric(MetricSource):
    """Data-driven conformal metric g(x) = lambda(x) * I, lambda = 1/(rho + eps)."""

    def __init__(self, field: TokenField):
        self.field = field
        self.dim = field.dimension

    def conformal_factor(self, x) -> float:
        return 1.0 / (density_at(self.field, x) + self.field.epsilon)

    def conformal_gradient(self, x) -> np.ndarray:
        lam = self.conformal_factor(x)
        return -(lam * lam) * density_gradient(self.field, x)

    def metric(self, x: np.ndarray) -> np.ndarray:
        return self.conformal_factor(x) * np.eye(self.dim)

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, self.dim, batch=True)
        if x.ndim == 1:
            # a single point keeps three density calls, which share one kernel
            # pass: the benchmark's traced flows pin 4 christoffel and 12
            # density calls per RK4 step
            return _conformal_christoffel(2.0 * self.conformal_factor(x),
                                          self.conformal_gradient(x))
        # a batch takes rho and grad rho from one kernel pass over its rows, so
        # that each row gets the bits it gets alone
        _, rho, grad = _kernel_sums(self.field, *_batch_exponents(self.field, x))
        lam = 1.0 / (rho + self.field.epsilon)
        grad = -(lam * lam)[:, None] * grad
        return _conformal_christoffel((2.0 * lam)[:, None], grad)

    def scalar_curvature(self, points) -> np.ndarray:
        """Closed-form scalar curvature of lambda I, lambda = 1/(rho + eps):
        R = (D-1) [lap rho - (D+2) |grad rho|^2 / (4 (rho + eps))], the
        conformal-change formula, with rho and grad rho from _kernel_sums and
        lap rho = sum_i k_i (|x - v_i|^2 / h^4 - D / h^2), where
        |x - v_i|^2 / h^4 = -2 E_i / h^2 with the centred exponent E_i."""
        field, d = self.field, self.dim
        points = np.asarray(points, dtype=float).reshape(-1, d)
        scalar = np.empty(len(points))
        for rows, xc, exponent in _exponents(field, points):
            kern, rho, grad = _kernel_sums(field, xc, exponent)
            lap = np.einsum("bn,bn->b", kern, -2.0 * exponent - d) / field.bandwidth**2
            scalar[rows] = (d - 1) * (lap - (d + 2) * np.einsum("bd,bd->b", grad, grad)
                                      / (4.0 * (rho + field.epsilon)))
        return scalar


def curvature_at(source: MetricSource, x) -> CurvatureReport:
    """Riemann tensor and scalar curvature at x.

    R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
    + Gamma^rho_{mu l} Gamma^l_{nu sigma} - Gamma^rho_{nu l} Gamma^l_{mu sigma},
    with the Gamma derivatives taken by central differences. The scalar is the
    double contraction of the Ricci tensor with the inverse metric.
    """
    x = _as_vector(x, source.dim)
    d = source.dim
    delta = fd_step_at(x)
    dgamma = np.empty((d, d, d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = delta
        dgamma[k] = (source.christoffel(x + e) - source.christoffel(x - e)) / (2.0 * delta)
    gamma = source.christoffel(x)
    riemann = (
        np.einsum("mrns->rsmn", dgamma)
        - np.einsum("nrms->rsmn", dgamma)
        + np.einsum("rml,lns->rsmn", gamma, gamma)
        - np.einsum("rnl,lms->rsmn", gamma, gamma)
    )
    ricci = np.einsum("rsrn->sn", riemann)
    ginv = _inverse_metric(source.metric(x))
    scalar = float(np.einsum("sn,sn->", ginv, ricci))
    return CurvatureReport(riemann=riemann, scalar=scalar)
