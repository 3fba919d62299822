import numpy as np
import pytest

from geomind import (CognitionParams, ConformalFieldMetric, FlatMetric,
                     SphereMetric, TokenField)


def make_field(means, dim=2, bandwidth=1.0, epsilon=1.0, weights=None, covs=None, ids=None):
    """Build a small field from plain lists; zero covariance by default."""
    n = len(means)
    return TokenField(list(range(1, n + 1)) if ids is None else ids,
                      np.asarray(means, dtype=float).reshape(n, dim),
                      np.zeros((n, dim, dim)) if covs is None else covs,
                      [1.0] * n if weights is None else weights, bandwidth, epsilon)


def field_to_dict(field):
    """The field as the JSON payload that save_snapshots writes for it, built
    field by field as the byte reference of the writer: each covariance a
    D x D matrix, an (n, D) field's diagonals with +0.0 off the diagonal."""
    covariances, d = field.covariances, field.dimension
    if covariances.ndim == 2:
        covariances = np.zeros((len(field), d, d))
        covariances[:, range(d), range(d)] = field.covariances
    return {
        "dimension": field.dimension,
        "bandwidth": field.bandwidth,
        "epsilon": field.epsilon,
        "tokens": [
            {"id": i, "mean": mean, "covariance": cov, "weight": w}
            for i, mean, cov, w in zip(field.ids.tolist(), field.means.tolist(),
                                       covariances.tolist(), field.weights.tolist())
        ],
    }


@pytest.fixture
def empty_field():
    return make_field([])


@pytest.fixture
def one_token_field():
    return make_field([[0.0, 0.0]], bandwidth=1.0, epsilon=1.0)


@pytest.fixture
def random_field():
    rng = np.random.default_rng(42)
    return make_field([rng.uniform(-1, 1, 2) for _ in range(5)],
                      bandwidth=0.8, epsilon=0.5)


@pytest.fixture
def flat():
    return FlatMetric(2)


@pytest.fixture
def sphere():
    return SphereMetric(1.0)


@pytest.fixture
def identity_params():
    return CognitionParams.defaults(2)
