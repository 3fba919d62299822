import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomind import (CallableMetric, ChartDomainError, ConformalFieldMetric,
                     FlatMetric, SingularMetricError, SphereMetric,
                     TokenField, christoffel_fd, curvature_at,
                     density_at, density_gradient, learn_update, load_field,
                     manipulate_feature, save_field)
from geomind.manifold import KERNEL_BLOCK, _exponent, densities

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


@st.composite
def _kernel_cases(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 8))
    # a shift far from the origin makes an uncentred expansion lose digits
    shift = draw(st.sampled_from([0.0, 50.0, -1e3]))
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    means = shift + np.array([draw(st.lists(coord, min_size=d, max_size=d)) for _ in range(n)])
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=n, max_size=n))
    h = draw(st.floats(0.3, 2.0))
    field = make_field(means, dim=d, bandwidth=h, weights=weights)
    # from inside the data to 12 bandwidths past the centroid, where the
    # kernel is down to about exp(-72 D)
    reach = draw(st.sampled_from([0.1, 1.0, 4.0, 12.0])) * h
    x = means.mean(axis=0) + np.array(draw(st.lists(st.floats(-reach, reach), min_size=d,
                                                    max_size=d)))
    return field, x


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_kernel_within_its_error_bound(case):
    # reference: the direct means - x form; the bound is twice the one in
    # the kernel's docstring, D eps (1 + (|v_i - c| + |x_c|)^2 / h^2) per k_i,
    # for the per-point density_at and the batched densities alike
    field, x = case
    d, h2 = field.dimension, field.bandwidth**2
    diffs = field.means - x
    kern = field.weights * np.exp(-np.einsum("nd,nd->n", diffs, diffs) / (2.0 * h2))
    centre = field.means.mean(axis=0)
    # hypot does not square its way to zero for coordinates below 1e-154
    r = np.hypot.reduce(field.means - centre, axis=1) + np.hypot.reduce(x - centre)
    bound = 2.0 * d * np.finfo(float).eps * (1.0 + r**2 / h2)
    # a few subnormal spacings: a k_i that underflows keeps no relative precision
    underflow = 4.0 * (len(field) + 1) * np.finfo(float).smallest_subnormal / h2
    for rho in (density_at(field, x), densities(field, x)[0]):
        assert abs(rho - kern.sum()) <= np.sum(bound * kern) + underflow
    # each k_i's error times its direction, plus the rounding of s_i and x_c
    grad_tol = np.sum(kern * (bound * np.hypot.reduce(diffs, axis=1)
                              + 2.0 * d * np.finfo(float).eps * r)) / h2
    # an underflowed k_i or sum k_i / h^2 is off by whole subnormal spacings,
    # which the gradient carries along s_i and x_c / h^2, up to r_i / h^2
    assert (np.max(np.abs(density_gradient(field, x) - kern @ diffs / h2))
            <= grad_tol + underflow * (1.0 + r.max()))


def _rebuilt(field):
    return TokenField(field.ids.copy(), field.means.copy(), field.covariances.copy(),
                      field.weights.copy(), field.bandwidth, field.epsilon)


@pytest.mark.parametrize("change", ["learn_update", "manipulate_feature", "subset",
                                    "load_field", "empty"])
def test_kernel_constants_follow_the_field(random_field, tmp_path, change):
    # a field from any of these gives the densities of one built afresh
    if change == "learn_update":
        field = learn_update(random_field, [0.9, -0.4], 0.5)
        assert not np.array_equal(field.means, random_field.means)
    elif change == "manipulate_feature":
        field = manipulate_feature(random_field, random_field.ids[:2].tolist(), 3.0)
    elif change == "subset":
        field = TokenField(random_field.ids[1:4], random_field.means[1:4],
                           random_field.covariances[1:4], random_field.weights[1:4],
                           random_field.bandwidth, random_field.epsilon)
    elif change == "load_field":
        save_field(random_field, tmp_path / "field.json")
        field = load_field(tmp_path / "field.json")
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = TokenField(random_field.ids[:0], random_field.means[:0],
                               random_field.covariances[:0], random_field.weights[:0],
                               random_field.bandwidth, random_field.epsilon)
            assert density_at(field, [0.5, 0.5]) == 0.0
    fresh = _rebuilt(field)
    for x in np.random.default_rng(6).uniform(-2, 2, size=(5, 2)):
        assert density_at(field, x) == density_at(fresh, x)
        assert density_gradient(field, x).tobytes() == density_gradient(fresh, x).tobytes()


def _evaluations(field, x):
    """The bytes of everything a field evaluates at one point."""
    return (np.float64(density_at(field, x)).tobytes(), density_gradient(field, x).tobytes(),
            ConformalFieldMetric(field).christoffel(x).tobytes(), field.nearest(x))


def test_interleaved_points_and_fields_give_the_cold_results():
    # each field keeps the exponent of its last point; any order of calls
    # gives the bits of a field that has never been asked anything
    rng = np.random.default_rng(21)
    means = rng.normal(size=(9, 3))
    base = make_field(list(means), dim=3, bandwidth=0.9, weights=list(rng.uniform(0.5, 2, 9)))
    heavier = base._replace(weights=np.asarray(base.weights) * 3.0)  # shares the entry
    other = make_field(list(means + 0.25), dim=3, bandwidth=0.6)
    points = list(rng.normal(size=(3, 3))) + [means[4], np.array([0.0, 0.5, 1.0]),
                                              np.array([-0.0, 0.5, 1.0])]
    cold = {(id(f), k): _evaluations(_rebuilt(f), x)
            for f in (base, heavier, other) for k, x in enumerate(points)}
    for _ in range(60):
        field = (base, heavier, other)[rng.integers(3)]
        k = int(rng.integers(len(points)))
        calls = _evaluations(field, points[k])
        assert calls == cold[id(field), k]
        # one call alone, after another field or point, in any position
        which = int(rng.integers(4))
        assert _evaluations(field, points[k])[which] == calls[which]


def test_exponent_entry_is_read_only_and_follows_the_means(random_field):
    x = np.array([0.3, -0.2])
    for array in _exponent(random_field, x):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    before = _evaluations(random_field, x)
    # a field with moved means starts with no entry, so never reads its parent's
    for field in (learn_update(random_field, x, 0.5),
                  random_field._replace(means=random_field.means + 0.125)):
        assert field._memo is None
        after = _evaluations(field, x)
        assert after[:3] != before[:3]
        assert after == _evaluations(_rebuilt(field), x)
    assert _evaluations(random_field, x) == before


# ---------------------------------------------------------------- field invariants

def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        make_field([[0.0, 0.0], [1.0, 1.0]], ids=[3, 3])


def test_dimension_mismatch_rejected():
    # a 3-D covariance for 2-D means, and the reverse
    with pytest.raises(ValueError, match="covariances"):
        TokenField([1], np.zeros((1, 2)), np.zeros((1, 3, 3)), [1.0])
    with pytest.raises(ValueError, match="covariances"):
        TokenField([1], np.zeros((1, 3)), np.zeros((1, 2, 2)), [1.0])


def test_bad_kernel_parameters_rejected():
    with pytest.raises(ValueError):
        TokenField([], np.empty((0, 2)), np.empty((0, 2, 2)), [], bandwidth=0.0, epsilon=1.0)
    with pytest.raises(ValueError):
        TokenField([], np.empty((0, 2)), np.empty((0, 2, 2)), [], bandwidth=1.0, epsilon=0.0)


@pytest.mark.parametrize("bandwidth", [1e200, 2.0**511, 1e-170, np.nextafter(2.0**-511, 0.0)],
                         ids=["1e200", "2^511", "1e-170", "below 2^-511"])
def test_bandwidth_whose_square_is_not_a_normal_float_is_refused(bandwidth):
    # 1e200 squared overflowed in the constructor; 1e-170 squared is 0, and
    # the density divided by it. From 2^511 on, 2 h^2 overflows; below
    # 2^-511, h^2 is subnormal
    with pytest.raises(ValueError, match="bandwidth must be positive and finite, with a normal square"):
        TokenField([1, 2], [[0.0], [1.0]], np.zeros((2, 1, 1)), [1.0, 1.0], bandwidth=bandwidth)


@pytest.mark.parametrize("bandwidth", [2.0**-511, np.nextafter(2.0**511, 0.0)],
                         ids=["2^-511", "below 2^511"])
def test_bandwidth_at_the_range_ends_gives_finite_densities(bandwidth):
    field = TokenField([1, 2], [[0.0], [1.0]], np.zeros((2, 1, 1)), [1.0, 1.0], bandwidth=bandwidth)
    source = ConformalFieldMetric(field)
    assert np.isfinite(density_at(field, [0.5])) and np.all(np.isfinite(source.christoffel([0.5])))


def test_epsilon_below_2_to_the_minus_511_is_refused():
    # far from the data lambda = 1/epsilon, and the Christoffel symbols
    # square it: from 1e-300 on that overflowed in a geodesic run
    for epsilon in (np.nextafter(2.0**-511, 0.0), 1e-300, 5e-324):
        with pytest.raises(ValueError, match="epsilon must be positive and finite, with a finite"):
            TokenField([1], [[0.0]], np.zeros((1, 1, 1)), [1.0], epsilon=epsilon)


def test_epsilon_of_2_to_the_minus_511_gives_finite_christoffel_symbols_far_from_data():
    field = TokenField([1], [[0.0]], np.zeros((1, 1, 1)), [1.0], epsilon=2.0**-511)
    assert field.epsilon == 2.0**-511
    source = ConformalFieldMetric(field)
    assert source.conformal_factor([100.0]) == 2.0**511
    assert np.all(np.isfinite(source.christoffel([100.0])))


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf],
                         ids=["zero", "negative", "nan", "inf", "-inf"])
def test_analytic_metrics_refuse_non_positive_or_non_finite_scale(value):
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        FlatMetric(2, scale=value)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        SphereMetric(value)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        TokenField([1], np.zeros((1, 2)), np.zeros((1, 2, 2)), [-0.5])


def test_non_psd_covariance_rejected():
    with pytest.raises(ValueError):
        TokenField([1], np.zeros((1, 2)), [[[1.0, 2.0], [2.0, 1.0]]], [1.0])


def test_field_arrays_are_read_only(random_field):
    for array in (random_field.ids, random_field.means, random_field.covariances,
                  random_field.weights, random_field.means[0]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_no_write_to_a_given_array_reaches_the_field():
    rng = np.random.default_rng(8)
    means, points = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
    for form in ("arrays", "view", "lists"):
        given = [np.arange(6), means.copy(), np.zeros((6, 3, 3)), rng.uniform(0.5, 2.0, 6)]
        backing = np.vstack([means, np.zeros((2, 3))])
        if form == "view":
            given[1] = backing[:6]
        elif form == "lists":
            given = [array.tolist() for array in given]
        field = TokenField(*given, bandwidth=0.7)
        before = [density_gradient(field, x).tobytes() for x in points]
        for array in given:
            if isinstance(array, list):
                array.clear()
            elif array.base is None:  # taken over: read-only for the caller too
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 5.0
        backing[:] = 9.0  # a view was copied
        assert np.array_equal(field.means, means)
        fresh = _rebuilt(field)
        for x, expected in zip(points, before):
            assert density_gradient(field, x).tobytes() == expected
            assert density_gradient(fresh, x).tobytes() == expected


# ---------------------------------------------------------------- metric

def test_metric_empty_field_identity(empty_field):
    g = ConformalFieldMetric(empty_field).metric([0.4, 0.9])
    assert np.allclose(g, np.eye(2))


def test_metric_one_token_at_center(one_token_field):
    g = ConformalFieldMetric(one_token_field).metric([0.0, 0.0])
    assert np.allclose(g, 0.5 * np.eye(2))


def test_metric_sphere_equator(sphere):
    g = sphere.metric([np.pi / 2, 0.0])
    assert np.allclose(g, np.diag([1.0, 1.0]))


def test_metric_sphere_pole_raises(sphere):
    with pytest.raises(ChartDomainError):
        sphere.metric([0.0, 0.3])
    with pytest.raises(ChartDomainError):
        sphere.metric([np.pi, 0.3])


def test_metric_symmetric_positive_definite(random_field):
    source = ConformalFieldMetric(random_field)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-2, 2, 2)
        g = source.metric(x)
        assert np.allclose(g, g.T)
        assert np.min(np.linalg.eigvalsh(g)) > 0.0


# ---------------------------------------------------------------- christoffel

def test_christoffel_flat_zero(flat):
    gamma = flat.christoffel([1.3, -0.4])
    assert np.all(gamma == 0.0)
    assert np.all(christoffel_fd(flat, [1.3, -0.4]) == 0.0)


def test_christoffel_sphere_closed_form(sphere):
    # oracle: Gamma^theta_phiphi = -sin cos, Gamma^phi_thetaphi = cot
    x = np.array([np.pi / 4, 0.0])
    gamma = sphere.christoffel(x)
    assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
    fd = christoffel_fd(sphere, x)
    assert np.max(np.abs(fd - gamma)) < 1e-6


def test_christoffel_conformal_fd_agreement(one_token_field):
    source = ConformalFieldMetric(one_token_field)
    x = np.array([0.5, 0.5])
    exact = source.christoffel(x)
    fd = christoffel_fd(source, x)
    assert np.max(np.abs(exact - fd)) <= 1e-4


def test_christoffel_fd_agreement_random_points():
    # bandwidth well above the finite-difference step
    rng = np.random.default_rng(7)
    field = make_field([rng.uniform(-1, 1, 2) for _ in range(4)],
                       bandwidth=0.5, epsilon=0.3)
    source = ConformalFieldMetric(field)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 2)
        exact = source.christoffel(x)
        fd = christoffel_fd(source, x)
        assert np.max(np.abs(exact - fd)) <= 1e-4


def _kronecker_christoffel(grad, lam):
    """The conformal Gamma^m_{nl} = (delta_mn g_l + delta_ml g_n - delta_nl g_m) / 2 lam
    as three einsum outer products with the identity: for a (D,) gradient and
    a float, or for a (B, D) gradient and (B,) factors. The reference that
    the gather must reproduce."""
    eye = np.eye(grad.shape[-1])
    if grad.ndim == 1:
        return (np.einsum("mn,l->mnl", eye, grad) + np.einsum("ml,n->mnl", eye, grad)
                - np.einsum("nl,m->mnl", eye, grad)) / (2.0 * lam)
    return (np.einsum("mn,bl->bmnl", eye, grad) + np.einsum("ml,bn->bmnl", eye, grad)
            - np.einsum("nl,bm->bmnl", eye, grad)) / (2.0 * lam)[:, None, None, None]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
def test_christoffel_gather_equals_kronecker_products(d, monkeypatch):
    rng = np.random.default_rng(d)
    source = ConformalFieldMetric(make_field(rng.uniform(-1.0, 1.0, (6, d)), dim=d,
                                             bandwidth=0.7, epsilon=0.3))
    points = rng.uniform(-1.5, 1.5, (40, d))
    lam = np.array([source.conformal_factor(p) for p in points])
    grad = np.array([source.conformal_gradient(p) for p in points])
    assert np.all(grad != 0.0)
    gamma = source.christoffel(points)
    assert gamma.flags.c_contiguous
    assert gamma.tobytes() == _kronecker_christoffel(grad, lam).tobytes()
    for point, factor, row in zip(points, lam, grad):
        assert source.christoffel(point).tobytes() == _kronecker_christoffel(row, factor).tobytes()

    # a zero component: the products give +0 where the gather can give -0
    origin = ConformalFieldMetric(make_field([[0.0] * d], dim=d))
    points[:, 0] = rng.choice([0.0, -0.0], len(points))
    lam = np.array([origin.conformal_factor(p) for p in points])
    grad = np.array([origin.conformal_gradient(p) for p in points])
    assert np.all(grad[:, 0] == 0.0)
    assert np.array_equal(origin.christoffel(points), _kronecker_christoffel(grad, lam))

    # any size and sign below 2^1022, and signed zeros, through the single
    # point, whose patched methods return the current row and factor
    monkeypatch.setattr(source, "conformal_gradient", lambda x: row)
    monkeypatch.setattr(source, "conformal_factor", lambda x: factor)
    for _ in range(50):
        row = rng.choice([-1.0, 1.0], d) * 2.0 ** rng.uniform(-1060.0, 1021.9, d)
        factor = 2.0 ** rng.uniform(0.0, 20.0)
        assert source.christoffel(points[0]).tobytes() == _kronecker_christoffel(row, factor).tobytes()
        row[rng.random(d) < 0.5] = rng.choice([0.0, -0.0])
        assert np.array_equal(source.christoffel(points[0]), _kronecker_christoffel(row, factor))

    # from |g| = 2^1023 on, the products' g_m + g_m on the diagonal
    # m = n = l overflowed to infinity; the gather takes g_m itself
    row, factor = np.full(d, 2.0**1023), 1.0
    with np.errstate(over="ignore"):
        assert np.isinf(_kronecker_christoffel(row, factor)[0, 0, 0])
    assert source.christoffel(points[0])[0, 0, 0] == 2.0**1022


def test_christoffel_lower_index_symmetry(random_field, sphere):
    rng = np.random.default_rng(3)
    for source in (ConformalFieldMetric(random_field), sphere):
        for _ in range(10):
            x = rng.uniform(0.3, 1.5, 2)
            for gamma in (source.christoffel(x), christoffel_fd(source, x)):
                assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-9


def test_christoffel_singular_metric_raises():
    singular = CallableMetric(lambda x: np.zeros((2, 2)), dim=2)
    with pytest.raises(SingularMetricError):
        christoffel_fd(singular, [0.0, 0.0])


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


@pytest.mark.parametrize("mean, cov, weight", [
    ([np.nan, 0.0], np.zeros(2), 1.0),
    ([0.0, 0.0], [np.inf, 0.0], 1.0),
    ([0.0, 0.0], np.zeros(2), np.nan),
])
def test_token_refuses_non_finite_values(mean, cov, weight):
    with pytest.raises(ValueError, match="token 3: mean, covariance and weight must be finite"):
        TokenField([3], [mean], [np.diag(cov)], [weight])


# ---------------------------------------------------------------- closed-form conformal curvature

def _curvature_term_scale(field, x):
    """Sum of the absolute terms of the conformal scalar curvature at x: the
    size the finite-difference error is relative to, even where the terms
    cancel and R itself passes through zero."""
    d, h2 = field.dimension, field.bandwidth**2
    diffs = field.means - x
    sq = np.sum(diffs**2, axis=1)
    kern = field.weights * np.exp(-sq / (2.0 * h2))
    grad = kern @ diffs / h2
    return (d - 1) * (float(kern @ (sq / h2**2 + d / h2))
                      + (d + 2) * float(grad @ grad) / (4.0 * (kern.sum() + field.epsilon)))


@st.composite
def _field_and_points(draw):
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    means = [draw(st.lists(coord, min_size=d, max_size=d)) for _ in range(n)]
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    field = make_field(means, dim=d, bandwidth=draw(st.floats(0.5, 1.5)),
                       epsilon=draw(st.floats(0.1, 1.0)), weights=weights,
                       covs=[np.zeros((d, d))] * n)
    points = np.array([draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
                       for _ in range(draw(st.integers(1, 4)))])
    return field, points


@settings(max_examples=60, deadline=None)
@given(_field_and_points())
def test_closed_form_scalar_curvature_matches_fd(case):
    field, points = case
    source = ConformalFieldMetric(field)
    closed = source.scalar_curvature(points)
    assert closed.shape == (len(points),)
    for x, r in zip(points, closed):
        fd = curvature_at(source, x).scalar
        assert r == pytest.approx(fd, rel=1e-5, abs=1e-5 * _curvature_term_scale(field, x))


@settings(max_examples=60, deadline=None)
@given(_field_and_points())
def test_christoffel_symmetric_and_matches_fd(case):
    # Gamma^m_{nl} = Gamma^m_{ln}, and the closed form agrees with central
    # differences far inside their O(step^2) error (below 4e-8 of scale on
    # 3,000 random fields)
    field, points = case
    source = ConformalFieldMetric(field)
    for x in points:
        exact, fd = source.christoffel(x), christoffel_fd(source, x)
        scale = 1.0 + float(np.max(np.abs(exact)))
        for gamma in (exact, fd):
            assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-12 * scale
        assert np.max(np.abs(exact - fd)) <= 1e-6 * scale


def test_closed_form_scalar_curvature_blocks_agree_with_single_points(random_field):
    # more points than one kernel block holds
    source = ConformalFieldMetric(random_field)
    points = np.random.default_rng(3).uniform(-2, 2, size=(2000, 2))
    batch = source.scalar_curvature(points)
    assert np.array_equal(batch, np.concatenate([source.scalar_curvature(p) for p in points]))


def test_closed_form_scalar_curvature_empty_field_is_exactly_zero(empty_field):
    points = np.random.default_rng(4).normal(size=(7, 2))
    assert np.array_equal(ConformalFieldMetric(empty_field).scalar_curvature(points), np.zeros(7))


def test_scalar_curvature_default_is_the_fd_path(sphere):
    points = np.array([[np.pi / 3, 1.0], [1.0, -2.0]])
    expected = [curvature_at(sphere, p).scalar for p in points]
    assert np.array_equal(sphere.scalar_curvature(points), expected)
    assert sphere.scalar_curvature(np.empty((0, 2))).shape == (0,)


def test_densities_match_density_at(random_field):
    # bitwise, at D = 1 to 16 and over several kernel blocks of points
    fields = [random_field] + [
        make_field(np.random.default_rng(d).uniform(-1, 1, (7, d)), dim=d, bandwidth=0.8,
                   epsilon=0.5, weights=np.random.default_rng(d).uniform(0.1, 2.0, 7))
        for d in (1, 3, 5, 16)]
    for field in fields:
        points = np.random.default_rng(5).uniform(-2, 2, size=(1500, field.dimension))
        assert len(points) > KERNEL_BLOCK // len(field)
        expected = [density_at(field, p) for p in points]
        assert np.array_equal(densities(field, points), expected), field.dimension
