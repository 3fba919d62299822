import math

import numpy as np
import pytest

from geomind import (CallableMetric, ChartDomainError, ConformalFieldMetric,
                     FlatMetric, SingularMetricError, SphereMetric,
                     TokenEmbedding, TokenField, christoffel_at, curvature_at,
                     density_at, density_gradient, metric_at)

from conftest import make_field


# ---------------------------------------------------------------- density

def test_density_empty_field_is_zero(empty_field):
    assert density_at(empty_field, [0.3, -0.7]) == 0.0


def test_density_at_kernel_center(one_token_field):
    assert density_at(one_token_field, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_density_half_value_radius(one_token_field):
    # oracle: solve exp(-r^2/2) = 1/2 -> r = sqrt(2 ln 2)
    r = math.sqrt(2.0 * math.log(2.0))
    assert density_at(one_token_field, [r, 0.0]) == pytest.approx(0.5, abs=1e-12)
    assert density_at(one_token_field, [1.17741, 0.0]) == pytest.approx(0.5, abs=1e-6)


def test_density_dimension_mismatch(one_token_field):
    with pytest.raises(ValueError):
        density_at(one_token_field, [0.0, 0.0, 0.0])


def test_density_monotone_in_weight():
    base = make_field([[0.0, 0.0], [1.0, 0.5]], epsilon=1.0)
    heavier = make_field([[0.0, 0.0], [1.0, 0.5]], weights=[2.0, 1.0], epsilon=1.0)
    v = np.array([0.0, 0.0])
    rho_lo, rho_hi = density_at(base, v), density_at(heavier, v)
    assert rho_hi > rho_lo
    lam_lo = ConformalFieldMetric(base).conformal_factor(v)
    lam_hi = ConformalFieldMetric(heavier).conformal_factor(v)
    assert lam_hi < lam_lo


def test_density_gradient_matches_finite_differences(random_field):
    x = np.array([0.2, -0.3])
    grad = density_gradient(random_field, x)
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (density_at(random_field, x + e) - density_at(random_field, x - e)) / (2 * h)
        assert grad[k] == pytest.approx(fd, abs=1e-8)


# ---------------------------------------------------------------- field invariants

def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        make_field([[0.0, 0.0], [1.0, 1.0]], ids=[3, 3])


def test_dimension_mismatch_rejected():
    token = TokenEmbedding(1, np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        TokenField((token,), 2, 1.0, 1.0)


def test_bad_kernel_parameters_rejected():
    with pytest.raises(ValueError):
        TokenField((), 2, bandwidth=0.0, epsilon=1.0)
    with pytest.raises(ValueError):
        TokenField((), 2, bandwidth=1.0, epsilon=0.0)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        TokenEmbedding(1, np.zeros(2), np.zeros((2, 2)), weight=-0.5)


def test_non_psd_covariance_rejected():
    with pytest.raises(ValueError):
        TokenEmbedding(1, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_field_arrays_are_read_only(random_field):
    for array in (random_field.ids, random_field.means, random_field.covariances,
                  random_field.weights, random_field.tokens[0].mean):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_diagonal_covariance_expanded():
    token = TokenEmbedding(1, np.zeros(2), np.array([0.5, 2.0]))
    assert token.covariance.shape == (2, 2)
    assert np.array_equal(token.covariance, np.diag([0.5, 2.0]))


# ---------------------------------------------------------------- metric

def test_metric_empty_field_identity(empty_field):
    g = metric_at(ConformalFieldMetric(empty_field), [0.4, 0.9])
    assert np.allclose(g, np.eye(2))


def test_metric_one_token_at_center(one_token_field):
    g = metric_at(ConformalFieldMetric(one_token_field), [0.0, 0.0])
    assert np.allclose(g, 0.5 * np.eye(2))


def test_metric_sphere_equator(sphere):
    g = metric_at(sphere, [np.pi / 2, 0.0])
    assert np.allclose(g, np.diag([1.0, 1.0]))


def test_metric_sphere_pole_raises(sphere):
    with pytest.raises(ChartDomainError):
        metric_at(sphere, [0.0, 0.3])
    with pytest.raises(ChartDomainError):
        metric_at(sphere, [np.pi, 0.3])


def test_metric_symmetric_positive_definite(random_field):
    source = ConformalFieldMetric(random_field)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        g = metric_at(source, x)
        assert np.allclose(g, g.T)
        assert np.min(np.linalg.eigvalsh(g)) > 0.0


# ---------------------------------------------------------------- christoffel

def test_christoffel_flat_zero(flat):
    gamma = christoffel_at(flat, [1.3, -0.4])
    assert np.all(gamma == 0.0)
    assert np.all(christoffel_at(flat, [1.3, -0.4], method="fd") == 0.0)


def test_christoffel_sphere_closed_form(sphere):
    # oracle: Gamma^theta_phiphi = -sin cos, Gamma^phi_thetaphi = cot
    x = np.array([np.pi / 4, 0.0])
    gamma = christoffel_at(sphere, x, method="exact")
    assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
    fd = christoffel_at(sphere, x, method="fd")
    assert np.max(np.abs(fd - gamma)) < 1e-6


def test_christoffel_conformal_fd_agreement(one_token_field):
    source = ConformalFieldMetric(one_token_field)
    x = np.array([0.5, 0.5])
    exact = christoffel_at(source, x, method="exact")
    fd = christoffel_at(source, x, method="fd")
    assert np.max(np.abs(exact - fd)) <= 1e-4


def test_christoffel_fd_agreement_random_points():
    # bandwidth well above the finite-difference step
    rng = np.random.default_rng(7)
    field = make_field([rng.uniform(-1, 1, 2) for _ in range(4)],
                       bandwidth=0.5, epsilon=0.3)
    source = ConformalFieldMetric(field)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 2)
        exact = christoffel_at(source, x, method="exact")
        fd = christoffel_at(source, x, method="fd")
        assert np.max(np.abs(exact - fd)) <= 1e-4


def test_christoffel_lower_index_symmetry(random_field, sphere):
    rng = np.random.default_rng(3)
    for source in (ConformalFieldMetric(random_field), sphere):
        for _ in range(10):
            x = rng.uniform(0.3, 1.5, 2)
            for method in ("auto", "fd"):
                gamma = christoffel_at(source, x, method=method)
                assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-9


def test_christoffel_singular_metric_raises():
    singular = CallableMetric(lambda x: np.zeros((2, 2)), dim=2)
    with pytest.raises(SingularMetricError):
        christoffel_at(singular, [0.0, 0.0], method="fd")


def test_christoffel_exact_unavailable_raises():
    generic = CallableMetric(lambda x: np.eye(2), dim=2)
    with pytest.raises(ValueError):
        christoffel_at(generic, [0.0, 0.0], method="exact")


# ---------------------------------------------------------------- curvature

def test_curvature_flat_zero(flat):
    report = curvature_at(flat, [0.2, 0.9])
    assert np.all(report.riemann == 0.0)
    assert report.scalar == 0.0


def test_curvature_sphere_scalar(sphere):
    assert curvature_at(sphere, [np.pi / 3, 1.0]).scalar == pytest.approx(2.0, abs=1e-3)


def test_curvature_sphere_scalar_random_points_and_radii():
    rng = np.random.default_rng(11)
    for radius in (1.0, 2.0):
        source = SphereMetric(radius)
        for _ in range(20):
            x = np.array([rng.uniform(0.2, np.pi - 0.2), rng.uniform(0, 2 * np.pi)])
            assert curvature_at(source, x).scalar == pytest.approx(2.0 / radius**2, abs=1e-3)


def test_riemann_antisymmetry_last_two_indices(random_field, sphere):
    rng = np.random.default_rng(5)
    for source in (ConformalFieldMetric(random_field), sphere):
        x = np.array([rng.uniform(0.5, 1.2), rng.uniform(0.5, 1.2)])
        r = curvature_at(source, x).riemann
        assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) <= 1e-6
