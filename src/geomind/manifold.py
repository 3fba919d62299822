"""Token fields and the metric geometry they induce.

A token field is a weighted set of Gaussian kernels in R^D. Its density
defines a conformal metric g(x) = I / (rho(x) + eps), so dense regions are
metrically short and geodesics gravitate toward them. Analytic metrics
(flat scaling, 2-sphere chart) are provided as test oracles, and a generic
finite-difference path computes Christoffel symbols and curvature for any
metric source. The density metric's scalar curvature also has a closed form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ChartDomainError, SingularMetricError

# Relative step for central differences of the metric; the same step is
# reused for the Christoffel derivatives inside the curvature tensor.
FD_STEP = 1e-4

# Covariances are validated this many rows at a time: the checks' temporaries
# for all 10^4 16x16 matrices at once would add tens of MB to peak memory.
VALIDATE_BLOCK = 512

# Batched kernel sums take points in blocks of about this many (point, token)
# kernel elements, so their temporaries stay small whatever the batch size.
KERNEL_BLOCK = 4096


def _as_vector(x, dim: int, name: str = "point") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"{name} must have dimension {dim}, got shape {x.shape}")
    return x


def _token_arrays(rows, n: int, dimension: int) -> dict[str, np.ndarray]:
    """Validated arrays ids (n,), means (n, D), covariances (n, D, D) and
    weights (n,) from n (id, mean, covariance, weight) rows, where a 1-D
    covariance is the diagonal. ValueError names the first offending id."""
    ids, weights = np.empty(n, dtype=np.int64), np.empty(n)
    means, covariances = np.empty((n, dimension)), np.empty((n, dimension, dimension))
    for k, (token_id, mean, cov, weight) in enumerate(rows):
        mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError(f"token {token_id}: mean must be a vector")
        if mean.shape[0] != dimension:
            raise ValueError(f"token {token_id}: mean dimension {mean.shape[0]} != field dimension {dimension}")
        if cov.ndim == 1:
            if cov.shape != (dimension,):
                raise ValueError(f"token {token_id}: diagonal covariance length != {dimension}")
            cov = np.diag(cov)
        if cov.shape != (dimension, dimension):
            raise ValueError(f"token {token_id}: covariance must be {dimension}x{dimension}")
        ids[k], means[k], covariances[k], weights[k] = token_id, mean, cov, weight
    unique, counts = np.unique(ids, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"duplicate token id(s): {unique[counts > 1].tolist()}")
    for lo in range(0, n, VALIDATE_BLOCK):
        cov = covariances[lo:lo + VALIDATE_BLOCK]
        # before eigvalsh, which cannot take NaN or infinity
        finite = (np.isfinite(means[lo:lo + VALIDATE_BLOCK]).all(axis=1)
                  & np.isfinite(cov).all(axis=(1, 2)) & np.isfinite(weights[lo:lo + VALIDATE_BLOCK]))
        if not finite.all():
            raise ValueError(f"token {ids[lo + np.argmin(finite)]}: mean, covariance and weight "
                             "must be finite")
        eigmin = np.linalg.eigvalsh(cov).min(axis=1, initial=0.0)
        scale = np.maximum(1.0, np.abs(cov).max(axis=(1, 2), initial=0.0))
        for bad, rule in (
                (~np.isclose(cov, cov.transpose(0, 2, 1), atol=1e-12).all(axis=(1, 2)),
                 "covariance must be symmetric"),
                (eigmin < -1e-10 * scale, "covariance must be positive semidefinite"),
                (weights[lo:lo + VALIDATE_BLOCK] < 0, "weight must be non-negative")):
            if np.any(bad):
                raise ValueError(f"token {ids[lo + np.argmax(bad)]}: {rule}")
    return {"ids": ids, "means": means, "covariances": covariances, "weights": weights}


@dataclass(frozen=True)
class TokenEmbedding:
    """One embedded token: mean position, covariance and density weight."""

    id: int
    mean: np.ndarray
    covariance: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        # np.size is the dimension of a vector mean; any other mean is refused
        arrays = _token_arrays([(self.id, self.mean, self.covariance, self.weight)], 1,
                               np.size(self.mean))
        object.__setattr__(self, "mean", arrays["means"][0])
        object.__setattr__(self, "covariance", arrays["covariances"][0])
        object.__setattr__(self, "weight", float(arrays["weights"][0]))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, init=False, eq=False)
class TokenField:
    """A set of token embeddings, stored once as read-only arrays, plus the
    kernel parameters of the density.

    bandwidth is the shared Gaussian length scale h; epsilon regularises the
    conformal factor 1/(rho + eps) so the metric stays finite away from data.
    """

    ids: np.ndarray  # (n,)
    means: np.ndarray  # (n, D)
    covariances: np.ndarray  # (n, D, D)
    weights: np.ndarray  # (n,)
    dimension: int
    bandwidth: float
    epsilon: float

    def __init__(self, tokens: Sequence[TokenEmbedding], dimension: int,
                 bandwidth: float = 1.0, epsilon: float = 1.0):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if not 0 < bandwidth < np.inf:
            raise ValueError("bandwidth must be positive and finite")
        if not 0 < epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        self.__dict__.update(dimension=dimension, bandwidth=bandwidth, epsilon=epsilon)
        tokens = tuple(tokens)
        self._store(_token_arrays([(t.id, t.mean, t.covariance, t.weight) for t in tokens],
                                  len(tokens), dimension))

    def _store(self, arrays: dict[str, np.ndarray]) -> None:
        for name, array in arrays.items():
            array.flags.writeable = False
            self.__dict__[name] = array

    def _replace(self, **arrays: np.ndarray) -> "TokenField":
        """A copy that takes over the given, already valid arrays, read-only."""
        field = copy.copy(self)
        field._store(arrays)
        return field

    def __len__(self) -> int:
        return len(self.ids)

    def _row(self, i) -> TokenEmbedding:
        row = object.__new__(TokenEmbedding)
        row.__dict__.update(id=int(self.ids[i]), mean=self.means[i],
                            covariance=self.covariances[i], weight=float(self.weights[i]))
        return row

    @property
    def tokens(self) -> tuple[TokenEmbedding, ...]:
        """Unvalidated row views of the token arrays, in storage order."""
        return tuple(self._row(i) for i in range(len(self)))

    def rows(self, ids) -> np.ndarray:
        """Row index of each given token id, in the given order."""
        ids = np.array(list(ids), dtype=np.int64)
        unknown = sorted(set(ids[~np.isin(ids, self.ids)].tolist()))
        if unknown:
            raise ValueError(f"unknown token id(s): {unknown}")
        order = np.argsort(self.ids)
        return order[np.searchsorted(self.ids, ids, sorter=order)]

    def nearest(self, x) -> TokenEmbedding:
        """Token whose mean is Euclidean-nearest to x; ties go to the lowest id."""
        if not len(self):
            raise ValueError("nearest() on an empty field")
        x = _as_vector(x, self.dimension)
        diffs = self.means - x
        # vecdot is the per-row BLAS dot that np.linalg.norm uses on one vector
        dist = np.sqrt(np.vecdot(diffs, diffs))
        tied = np.flatnonzero(dist == dist.min())
        # a non-finite x makes every distance NaN, which ties with nothing
        return self._row(tied[np.argmin(self.ids[tied])] if tied.size else 0)

    def with_tokens(self, tokens: Sequence[TokenEmbedding]) -> "TokenField":
        return TokenField(tuple(tokens), self.dimension, self.bandwidth, self.epsilon)


def density_at(field: TokenField, x) -> float:
    """Weighted Gaussian kernel density rho(x) = sum_i w_i exp(-|x-v_i|^2 / 2h^2)."""
    x = _as_vector(x, field.dimension)
    diffs = field.means - x
    sq = np.einsum("nd,nd->n", diffs, diffs)
    return float(np.dot(field.weights, np.exp(-sq / (2.0 * field.bandwidth**2))))


def density_gradient(field: TokenField, x) -> np.ndarray:
    """Closed-form gradient of density_at with respect to x."""
    x = _as_vector(x, field.dimension)
    diffs = field.means - x
    sq = np.einsum("nd,nd->n", diffs, diffs)
    kern = field.weights * np.exp(-sq / (2.0 * field.bandwidth**2))
    return np.einsum("n,nd->d", kern, diffs) / field.bandwidth**2


def _kernel_blocks(field: TokenField, points: np.ndarray):
    """Yield (rows, v_i - x (B, n, D), |x - v_i|^2 (B, n), k_i (B, n)) over
    blocks of a (P, D) point array, k_i = w_i exp(-|x - v_i|^2 / 2h^2)."""
    block = max(1, KERNEL_BLOCK // max(1, len(field)))
    for lo in range(0, len(points), block):
        diffs = field.means - points[lo:lo + block, None, :]
        sq = np.einsum("bnd,bnd->bn", diffs, diffs)
        yield (slice(lo, lo + block), diffs, sq,
               field.weights * np.exp(-sq / (2.0 * field.bandwidth**2)))


def densities(field: TokenField, points) -> np.ndarray:
    """density_at for each row of a (P, D) array, as batched kernel sums; the
    sums run in another order, so results may differ in the last digit."""
    points = np.asarray(points, dtype=float).reshape(-1, field.dimension)
    rho = np.empty(len(points))
    for rows, _, _, kern in _kernel_blocks(field, points):
        rho[rows] = kern.sum(axis=1)
    return rho


@dataclass(frozen=True)
class CurvatureReport:
    """Riemann tensor R^rho_{sigma mu nu} and the scalar curvature at a point."""

    riemann: np.ndarray
    scalar: float


class MetricSource:
    """A Riemannian metric on a single global chart.

    Subclasses implement metric(); christoffel() and scalar_curvature()
    default to central finite differences and may be overridden with a
    closed form.
    """

    dim: int

    def check_domain(self, x: np.ndarray) -> None:
        """Raise ChartDomainError if x is outside the chart. Default: all of R^D."""

    def in_domain(self, x) -> bool:
        try:
            self.check_domain(_as_vector(x, self.dim))
        except ChartDomainError:
            return False
        return True

    def metric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        return christoffel_fd(self, x)

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
    differences. Every source's christoffel() defaults to this path."""
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
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.dim = dim
        self.scale = float(scale)

    def metric(self, x: np.ndarray) -> np.ndarray:
        _as_vector(x, self.dim)
        return self.scale * np.eye(self.dim)

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        _as_vector(x, self.dim)
        return np.zeros((self.dim, self.dim, self.dim))


class SphereMetric(MetricSource):
    """Round 2-sphere of radius r in the (theta, phi) chart, 0 < theta < pi."""

    dim = 2

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def check_domain(self, x: np.ndarray) -> None:
        theta = x[0]
        if not (0.0 < theta < np.pi) or abs(np.sin(theta)) < 1e-12:
            raise ChartDomainError(f"sphere chart is singular at theta={theta}")

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, 2)
        self.check_domain(x)
        r2 = self.radius**2
        return np.diag([r2, r2 * np.sin(x[0]) ** 2])

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, 2)
        self.check_domain(x)
        theta = x[0]
        gamma = np.zeros((2, 2, 2))
        gamma[0, 1, 1] = -np.sin(theta) * np.cos(theta)
        cot = np.cos(theta) / np.sin(theta)
        gamma[1, 0, 1] = cot
        gamma[1, 1, 0] = cot
        return gamma


class ConformalFieldMetric(MetricSource):
    """Data-driven conformal metric g(x) = lambda(x) * I, lambda = 1/(rho + eps)."""

    def __init__(self, field: TokenField):
        self.field = field
        self.dim = field.dimension

    def conformal_factor(self, x) -> float:
        return 1.0 / (density_at(self.field, x) + self.field.epsilon)

    def conformal_gradient(self, x) -> np.ndarray:
        lam = self.conformal_factor(x)
        return -(lam**2) * density_gradient(self.field, x)

    def metric(self, x: np.ndarray) -> np.ndarray:
        return self.conformal_factor(x) * np.eye(self.dim)

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        # closed form for a conformally flat metric lambda * I:
        # Gamma^m_{nl} = (delta^m_n d_l lam + delta^m_l d_n lam - delta_nl d_m lam) / (2 lam)
        x = _as_vector(x, self.dim)
        lam = self.conformal_factor(x)
        grad = self.conformal_gradient(x)
        d = self.dim
        eye = np.eye(d)
        gamma = (
            np.einsum("mn,l->mnl", eye, grad)
            + np.einsum("ml,n->mnl", eye, grad)
            - np.einsum("nl,m->mnl", eye, grad)
        )
        return gamma / (2.0 * lam)

    def scalar_curvature(self, points) -> np.ndarray:
        """Closed-form scalar curvature of lambda I, lambda = 1/(rho + eps):
        R = (D-1) [lap rho - (D+2) |grad rho|^2 / (4 (rho + eps))], the
        conformal-change formula with the Gaussian kernel's own derivatives
        grad rho = sum_i k_i (v_i - x) / h^2 and
        lap rho = sum_i k_i (|x - v_i|^2 / h^4 - D / h^2)."""
        field, d = self.field, self.dim
        points = np.asarray(points, dtype=float).reshape(-1, d)
        h2 = field.bandwidth**2
        scalar = np.empty(len(points))
        for rows, diffs, sq, kern in _kernel_blocks(field, points):
            grad = np.einsum("bn,bnd->bd", kern, diffs) / h2
            lap = np.einsum("bn,bn->b", kern, sq / h2**2 - d / h2)
            u = kern.sum(axis=1) + field.epsilon
            scalar[rows] = (d - 1) * (lap - (d + 2) * np.einsum("bd,bd->b", grad, grad) / (4.0 * u))
        return scalar


class CallableMetric(MetricSource):
    """Metric defined by an arbitrary g(x) callable; Christoffels via finite
    differences. Mainly useful for tests and experiments."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int,
                 domain: Optional[Callable[[np.ndarray], bool]] = None):
        self.fn = fn
        self.dim = dim
        self.domain = domain

    def check_domain(self, x: np.ndarray) -> None:
        if self.domain is not None and not self.domain(x):
            raise ChartDomainError(f"point {x} outside chart domain")

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, self.dim)
        self.check_domain(x)
        return np.asarray(self.fn(x), dtype=float)


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
