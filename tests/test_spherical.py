"""Spherical-function numerics against independent oracles."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_legendre, j0, j1

from sphreg import accept
from sphreg import liegroup as lg
from sphreg import spherical as sph
from sphreg.spherical import (
    QuadratureConfig,
    QuadratureError,
    SpectralParameter,
    spherical_sl2,
    spherical_sl3,
)

ROOT = Path(__file__).resolve().parents[1]
BIG = QuadratureConfig(n_start=1024, n_max=1 << 20, target=1e-12, fail=1e-7)


def test_chamber_coordinate_matches_qr():
    rng = np.random.default_rng(1)
    for _ in range(25):
        y = rng.uniform(-3, 3)
        theta = rng.uniform(0, 2 * np.pi)
        g = lg.SpecialLinearElement.from_array(
            np.diag([np.exp(y), np.exp(-y)]) @ np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]))
        assert abs(lg.iwasawa_projection(g)[0]
                   - sph.sl2_chamber_coordinate(y, theta)) <= 1e-12


def test_value_at_identity_is_one():
    for xi, eta in [(0.0, 0.0), (1.7, 0.3), (-4.0, -0.2)]:
        v = spherical_sl2(SpectralParameter.rank1(xi, eta), 0.0)
        assert abs(v.value - 1.0) <= 1e-12


def test_against_brute_force_trapezoid():
    # independent evaluation at extreme fixed resolution
    theta = 2.0 * np.pi * np.arange(1_000_000) / 1_000_000
    u = sph.sl2_chamber_coordinate(1.0, theta)
    oracle = np.exp(-u).mean()  # spectral value zero
    got = spherical_sl2(SpectralParameter.rank1(0.0), 1.0).value
    assert abs(got - oracle) <= 1e-10


def test_against_legendre_function_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 25
    for c, eta, y in [(0.5, 0.0, 1.0), (2.0, 0.0, 0.7), (1.3, 0.2, 1.5)]:
        got = spherical_sl2(SpectralParameter.rank1(c, eta), y).value
        nu = mpmath.mpc(-0.5, c) - mpmath.mpf(eta)
        want = complex(mpmath.legenp(nu, 0, mpmath.cosh(2 * y)))
        assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("xi,eta,y", [(30.0, 0.0, 2.0), (7.0, 0.4, 3.0), (150.0, -0.2, 4.5),
                                      (2000.0, 0.3, 2.5), (1000.0, 0.0, 4.9)])
def test_large_chamber_points_against_legendre_function(xi, eta, y):
    # at large Y the node count grows like |xi Y|; with Laplace's form it grows like xi e^{2Y}
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = complex(mpmath.legenp(mpmath.mpc(-0.5, xi) - mpmath.mpf(eta), 0,
                                     mpmath.cosh(2 * y), type=3))
    got = spherical_sl2(SpectralParameter.rank1(xi, eta), y, BIG)
    assert abs(got.value - want) <= 1e-13 * max(1.0, abs(want))
    assert got.estimated_error <= 1e-12


def test_sweep_nodes_ceiling():
    assert sph.sl2_sweep_nodes(0.0, 1.0) == 64
    assert sph.sl2_sweep_nodes(1000.0, 2.0) == 1 << 14
    assert sph.sl2_sweep_nodes(-1000.0, -2.0) == 1 << 14
    assert sph.sl2_sweep_nodes(8e5, 4.0) == sph.SWEEP_NODE_CEILING
    for xi in (1e6, 1e300):
        with pytest.raises(ValueError, match="quadrature nodes"):
            sph.sl2_sweep_nodes(xi, 4.0)


def test_positive_definite_family_is_bounded():
    for xi in (0.3, 1.0, 5.0, 40.0):
        for y in (0.5, 2.0, 4.0):
            v = spherical_sl2(SpectralParameter.rank1(xi), y, BIG)
            assert abs(v.value) <= 1.0 + 1e-9


def test_weyl_symmetry_in_the_spectral_variable():
    rng = np.random.default_rng(2)
    for _ in range(50):
        xi = rng.uniform(0.1, 8.0)
        y = rng.uniform(0.1, 3.0)
        plus = spherical_sl2(SpectralParameter.rank1(xi), y, BIG).value
        minus = spherical_sl2(SpectralParameter.rank1(-xi), y, BIG).value
        assert abs(plus - minus) <= 1e-9


def test_bounded_region_dichotomy():
    from sphreg.accept import load_fixtures
    config = QuadratureConfig(n_start=4096, n_max=1 << 20, target=1e-10, fail=1e-6)
    inside = spherical_sl2(SpectralParameter.rank1(0.0, 0.5), 4.0, config)
    assert abs(inside.value) <= 1.0 + 1e-8

    outside_t4 = abs(spherical_sl2(SpectralParameter.rank1(0.0, 0.75), 4.0, config).value)
    outside_t2 = abs(spherical_sl2(SpectralParameter.rank1(0.0, 0.75), 2.0, config).value)
    recorded = load_fixtures()["unbounded_parameter_magnitude_t4"]
    assert abs(outside_t4 - recorded) <= 0.01 * recorded
    # growth rate e^{(eta - rho) Y} with the excess at half the half-sum
    assert outside_t4 / outside_t2 >= 0.9 * math.exp(1.0)


def test_quadrature_failure_raises():
    tight = QuadratureConfig(n_start=64, n_max=256, target=1e-12, fail=1e-9)
    with pytest.raises(QuadratureError):
        sph._mehler(500.0, 0.0, 2.0, 0, tight)


# (xi, eta, Y) whose Mehler-Dirichlet phase needs 2 sl2_sweep_nodes = 32768 > 8192
# full-turn nodes, and the sweep's value there
SWEEP_PAST_8192_NODES = {(-626.93, 0.99865, 4.8285): -2.591624658064073 + 1.0076847594388203j,
                         (-653.66, -1.0004, 3.2090): -0.5088296185935238 + 0.20256159332688736j,
                         (-722.41, 0.83155, 2.8183): 0.12766439778716118 - 0.047008618703597196j,
                         (3000.0, 0.75, 1.0): 0.006060088411796607 + 0.01533560260060149j}


@pytest.mark.parametrize("xi, eta, y", SWEEP_PAST_8192_NODES)
def test_default_budget_is_the_sweeps_where_the_phase_needs_more_than_8192_nodes(xi, eta, y):
    lam = SpectralParameter.rank1(xi, eta)
    got = spherical_sl2(lam, y)
    assert got.path == "trapezoid" and got.quadrature_nodes > 8192
    sweep = complex(sph.spherical_sl2_sweep(xi, eta, y))
    assert repr(got.value) == repr(sweep) == repr(SWEEP_PAST_8192_NODES[xi, eta, y])
    derivative = sph.deriv_spherical_sl2(lam, 1.0, y, 1)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        def legendre_p(t):
            return mpmath.legenp(mpmath.mpc(-0.5, xi) - mpmath.mpf(eta), 0,
                                 mpmath.cosh(2 * t), type=3)
        want, want_derivative = (complex(f(mpmath.mpf(y))) for f in
                                 (legendre_p, lambda t: mpmath.diff(legendre_p, t)))
    assert abs(got.value - want) <= 1e-12 * abs(want)
    assert abs(derivative - want_derivative) <= 1e-12 * abs(want_derivative)


@pytest.mark.parametrize("xi, eta, y", SWEEP_PAST_8192_NODES)
def test_explicit_config_raises_with_the_node_count_the_phase_needs(xi, eta, y):
    lam, config = SpectralParameter.rank1(xi, eta), QuadratureConfig()
    with pytest.raises(QuadratureError, match="needs 32768 nodes"):
        spherical_sl2(lam, y, config)
    for order in range(4):
        with pytest.raises(QuadratureError, match="needs 32768 nodes"):
            sph.deriv_spherical_sl2(lam, 1.0, y, order, config)


def test_geodesic_range_guard():
    with pytest.raises(ValueError):
        spherical_sl2(SpectralParameter.rank1(1.0), 5.5)


# The folded, nested rule must equal the brute-force full-turn trapezoid mean
# at the same node count; QuadratureConfig(n_start=N // 2, n_max=N) pins the
# final level at N full-turn nodes.
PINNED_NODES = (64, 256, 4096, 1 << 15)


def _pinned(nodes):
    return QuadratureConfig(n_start=nodes // 2, n_max=nodes, fail=1.0)


def _full_turn(nodes):
    return 2.0 * np.pi * np.arange(nodes) / nodes


def _sinhc(x):
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.sinh(safe) / safe)


def _mehler_full_turn(xi, eta, y, nodes):
    """Full-turn trapezoid mean of the Mehler-Dirichlet integrand."""
    c = np.cos(_full_turn(nodes))
    amplitude = 1.0 / np.sqrt(_sinhc(y * (1.0 - c)) * _sinhc(y * (1.0 + c)))
    return (np.cosh(np.multiply.outer(2.0 * y * (1j * np.asarray(xi) - eta), c))
            * amplitude).mean(axis=-1)


@pytest.mark.parametrize("nodes", PINNED_NODES)
def test_folded_rule_equals_full_turn_mean(nodes):
    for xi, eta, y in [(0.7, 0.2, 0.9), (6.0, -0.4, 1.6), (15.0, 0.0, 0.3), (3.0, 0.5, -1.2)]:
        got = sph._mehler(xi, eta, y, 0, _pinned(nodes))
        assert got.quadrature_nodes == nodes
        assert abs(got.value - _mehler_full_turn(xi, eta, y, nodes)) <= 1e-13


def _mehler_derivative_full_turn(xi, eta, y, nodes):
    """Full-turn trapezoid mean of the order-1 Mehler-Dirichlet integrand."""
    a = _full_turn(nodes)
    c, s = np.cos(a), 1j * xi - eta
    amplitude = 1.0 / np.sqrt(_sinhc(y * (1.0 - c)) * _sinhc(y * (1.0 + c)))
    return ((2.0 * s - 1.0) / np.sinh(2.0 * y)
            * (amplitude * np.sinh(2.0 * y * s * c) * np.sinh(2.0 * y * c)
               + 2.0 * y * y * np.sin(a) ** 2 * np.cosh(2.0 * y * s * c) / amplitude)).mean()


def _laplace_derivatives(xi, eta, y, nodes=1 << 17):
    """Orders 1-3 by Laplace's integral, differentiated under the integral
    sign and resolved at ``nodes`` full-turn nodes."""
    c = 2j * xi - 2 * eta - 1
    u, u1, u2, u3 = sph.sl2_chamber_derivatives(y, _full_turn(nodes), 3)
    factors = [c * u1, c * u2 + (c * u1) ** 2, c * u3 + 3 * c * c * u1 * u2 + (c * u1) ** 3]
    return [(factor * np.exp(c * u)).mean() for factor in factors]


@pytest.mark.parametrize("nodes", PINNED_NODES)
def test_folded_derivatives_equal_full_turn_mean(nodes):
    for xi, eta, scale, y in [(0.8, 0.1, 3.0, 1.1), (0.5, -0.3, 1.0, 0.6)]:
        want = _mehler_derivative_full_turn(scale * xi, eta, y, nodes)
        got = sph._mehler(scale * xi, eta, y, 1, _pinned(nodes)).value
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("xi,eta,scale,y", [(0.8, 0.1, 3.0, 1.1), (0.5, -0.3, 1.0, 0.6),
                                            (6.0, -0.4, 1.0, 1.6), (15.0, 0.0, 1.0, 0.3),
                                            (0.0, 0.75, 1.0, 2.0)])
def test_derivatives_equal_converged_laplace_mean(xi, eta, scale, y):
    wants = _laplace_derivatives(scale * xi, eta, y)
    for order, want in enumerate(wants, start=1):
        got = sph.deriv_spherical_sl2(SpectralParameter.rank1(xi, eta), scale, y, order)
        # the Laplace mean's own roundoff reaches 1e-12 at order 3 (eta = 0.75,
        # Y = 2 against mpmath), so the bound is looser than the rule's error
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), order


@pytest.mark.parametrize("nodes", PINNED_NODES)
def test_folded_compact_integral_equals_full_turn_mean(nodes):
    phi = _full_turn(nodes)
    for n, theta in [(0, 1.0), (3, 0.4), (17, 2.2), (60, 1.3)]:
        z = np.cos(theta) + 1j * np.sin(theta) * np.cos(phi)
        want = np.exp(n * np.log(z)).mean()
        got = sph.spherical_compact_su2(n, theta, _pinned(nodes))
        assert abs(got - want.real) <= 1e-13


def test_folded_sweep_equals_full_turn_mean():
    # series and fallback points alike, on a grid with signed zeros and
    # negative chamber points, against the full-turn mean at 2^14 nodes
    xis = np.array([[0.5, 9.0], [40.0, -150.0]])
    ys = np.array([1.3, 0.0, -0.0, -0.7, 0.2])
    for eta in (0.0, -0.1, 0.75):
        got = sph.spherical_sl2_sweep(xis, eta, ys)
        assert got.shape == (5, 2, 2) and got.dtype == complex
        if eta == 0.0:
            assert np.all(got.imag == 0.0)
        for index in np.ndindex(xis.shape):
            for y, value in zip(ys, got[(slice(None),) + index]):
                want = _mehler_full_turn(xis[index], eta, y, 1 << 14)
                assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (index, y, eta)
        scalar = sph.spherical_sl2_sweep(xis, eta, 1.3)
        assert scalar.shape == (2, 2) and scalar.dtype == complex
        assert scalar.tobytes() == got[0].tobytes()


@pytest.mark.parametrize("y", [1.3, -0.7])
def test_sweep_at_eta_zero_is_real_and_equals_the_two_product_form(y):
    # the pole at xi = 0 and the tan pole's neighbourhood fall back to the
    # Mehler-Dirichlet rule, whose real cos(xi s) at eta = 0 is checked
    # against the general form's two products
    xis = np.array([0.0, 1e-9, -1e-12])
    got = sph.spherical_sl2_sweep(xis, 0.0, y)
    assert got.dtype == complex and np.all(got.imag == 0.0)
    for xi, value in zip(xis, got):
        def two_products(rule, xi=xi):
            s = 2.0 * y * rule.cos
            amplitude = sph._mehler_amplitude(y, rule.sin2_half)
            return (np.cos(xi * s) * (amplitude * np.cosh(0.0 * s))
                    - 1j * (np.sin(xi * s) * (amplitude * np.sinh(0.0 * s))))
        want = sph._nested_trapezoid(two_products, 4, sph._mehler_config(xi, y))[0]
        assert abs(value - want) <= 1e-15


def _full_grid_nested_trapezoid(integrand, fold, config):
    """The doubling loop that slices each level's midpoints from the full
    folded grid: the oracle for the midpoint-only loop."""
    nodes = config.n_start
    rule = sph._folded_grid(nodes, fold)
    current = integrand(rule) @ rule.weights
    while True:
        previous, nodes = current, 2 * nodes
        rule = sph._folded_grid(nodes, fold)
        midpoints = sph._Rule(rule.angles[1::2], rule.weights[1::2])
        current = 0.5 * previous + integrand(midpoints) @ midpoints.weights
        err = abs(current - previous)
        scale = max(1.0, abs(current))
        if err <= config.target * scale or nodes >= config.n_max:
            return current, nodes, err


@pytest.mark.parametrize("n_start", [64, 1024])
def test_midpoint_doubling_equals_full_grid_oracle(n_start):
    config = QuadratureConfig(n_start=n_start, n_max=1 << 18, target=1e-12, fail=1.0)
    cases = [(4, 2.0 * 1.4 * (1j * 37.0 + 0.3), 1.4), (4, 2.0 * 0.6 * (1j * 300.0), 0.6),
             (4, 2.0 * 2.1 * (-0.5), 2.1)]
    for fold, w, y in cases:
        def integrand(rule):
            a = rule.angles
            return np.cosh(w * np.cos(a)) * sph._mehler_amplitude(y, np.sin(0.5 * a) ** 2)
        got = sph._nested_trapezoid(integrand, fold, config)
        want = _full_grid_nested_trapezoid(integrand, fold, config)
        assert repr(got) == repr(want)
    for n, theta in [(0, 1.0), (17, 2.2), (500, 0.4), (1000, 2.9)]:
        def integrand(rule):
            phi = rule.angles
            return np.exp(n * np.log(np.cos(theta) + 1j * np.sin(theta) * np.cos(phi)))
        got = sph._nested_trapezoid(integrand, 2, config)
        want = _full_grid_nested_trapezoid(integrand, 2, config)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("xi,eta,y", [(0.7, 0.2, 0.9), (6.0, -0.4, 1.6), (15.0, 0.0, 0.3),
                                      (3.0, 0.5, -1.2), (0.0, 0.75, 2.0)])
def test_value_equals_converged_laplace_mean(xi, eta, y):
    # Laplace's integral, the definition, is resolved at 2^17 full-turn nodes
    u = sph.sl2_chamber_coordinate(y, _full_turn(1 << 17))
    want = np.exp((2j * xi - 2 * eta - 1) * u).mean()
    got = spherical_sl2(SpectralParameter.rank1(xi, eta), y).value
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_node_counts_must_fold():
    with pytest.raises(ValueError):
        spherical_sl2(SpectralParameter.rank1(1.0), 1.0, QuadratureConfig(n_start=66))


def test_sweep_matches_single_evaluations():
    xis = np.array([3.0, 17.0, 40.0])
    swept = sph.spherical_sl2_sweep(xis, 0.0, 1.2)
    for xi, value in zip(xis, swept):
        single = spherical_sl2(SpectralParameter.rank1(xi), 1.2, BIG).value
        assert abs(value - single) <= 1e-9


def test_sl3_identity_and_boundedness():
    v = spherical_sl3(SpectralParameter.rank2((0.4, 0.7)), (0.0, 0.0))
    assert v.path == "cubature"
    assert abs(v.value - 1.0) <= 1e-14

    v = spherical_sl3(SpectralParameter.rank2((0.4, 0.7)), (1.0, 0.0))
    assert abs(v.value) <= 1.0 + v.estimated_error
    assert v.estimated_error <= 1e-10


def _sl3_reference(lam, a_log, rows=200, columns=64):
    """The reduction integrated over ``u`` itself, without the change of
    variables, on a Gauss-Legendre rule in ``t = u3`` times the trapezoid
    rule in ``alpha``, with every inner value from the sweep."""
    from numpy.polynomial.legendre import leggauss
    y1, y2 = a_log
    a = np.exp([y1, y2, -y1 - y2])
    c1, c2 = (x + 1j * e for x, e in zip(lam.xi, lam.eta))
    l1, l2, l3 = c1, c2 - c1, -c2
    cp = (l2 - l3) / 2
    t, wt = leggauss(rows)
    alpha = (np.arange(columns) + 0.5) * (2 * np.pi / columns)
    t, alpha = np.meshgrid(t, alpha, indexing="ij")
    s = np.sqrt(1 - t * t)
    u2 = np.stack([(s * np.cos(alpha)) ** 2, (s * np.sin(alpha)) ** 2, t * t])
    r = np.tensordot(a ** 2, u2, 1)
    d = a ** -2
    z = (d.sum() - np.tensordot(d, u2, 1)) / (2 * np.sqrt(r))
    y = 0.5 * np.arccosh(np.maximum(z, 1.0))
    p = (1j * (l1 - l2) - 1) / 2 + (1j * cp - 0.5) / 2
    inner = sph.spherical_sl2_sweep([cp.real], cp.imag, y.ravel())[:, 0].reshape(y.shape)
    return (wt @ (r ** p * inner)).mean() / 2


def test_sl3_matches_high_count_oracle():
    # the direct rule on u needs many more nodes where r is small; at these
    # mild points 200 x 64 resolve it to about 1e-12
    for xi, eta, a_log in [((0.2, 0.9), (0.0, 0.0), (1.0, 0.0)),
                           ((0.4, 0.7), (0.0, 0.0), (0.6, -0.2)),
                           ((1.1, 0.3), (0.2, -0.1), (0.3, 0.4))]:
        lam = SpectralParameter.rank2(xi, eta)
        got = spherical_sl3(lam, a_log)
        assert abs(got.value - _sl3_reference(lam, a_log)) <= 1e-9, (xi, eta, a_log)


def test_sl3_deterministic_per_seed():
    lam = SpectralParameter.rank2((0.5, 0.2), (0.1, 0.0))
    a = spherical_sl3(lam, (0.8, 0.1), seed=7)
    b = spherical_sl3(lam, (0.8, 0.1), seed=7)
    assert a == b
    # the seed of the former Monte Carlo is accepted and ignored
    assert spherical_sl3(lam, (0.8, 0.1), 50_000, 8) == a == spherical_sl3(lam, (0.8, 0.1))


def _sl3_qr_oracle(lam, a_log, samples, seed):
    """The QR path: the Iwasawa diagonal of ``a k`` for each sampled rotation,
    with the mean and standard error over one array of values."""
    y1, y2 = a_log
    a = np.diag(np.exp([y1, y2, -y1 - y2]))
    _, r = np.linalg.qr(a @ lg.haar_so_n_sample(3, seed, samples))
    h = np.log(np.abs(np.einsum("...ii->...i", r)))
    c1, c2 = (x + 1j * e for x, e in zip(lam.xi, lam.eta))
    values = np.exp(1j * (c1 * (h[:, 0] - h[:, 1]) + c2 * (h[:, 1] - h[:, 2]))
                    - (h[:, 0] - h[:, 2]))
    var = values.real.var(ddof=1) + values.imag.var(ddof=1)
    return values.mean(), math.sqrt(var / samples)


SL3_POINTS = [
    ((0.4, 0.7), (0.0, 0.0), (1.0, 0.0), 10_000, 3),
    ((1.3, -0.4), (0.2, -0.3), (2.5, -1.0), 2 * 7282 + 5, 5),
    ((0.5, 0.2), (0.1, 0.0), (0.8, 0.1), 5_000, 7),
    ((3.0, 1.0), (0.5, 0.5), (4.0, 1.0), 7282, 8),  # spread 9: 66,625 evaluations
    ((0.0, 0.0), (0.0, 0.0), (-1.5, 2.0), 20_001, 11),  # c = 0: every image on the tan pole
]


@pytest.mark.parametrize("xi, eta, a_log, samples, seed", SL3_POINTS)
def test_sl3_matches_qr_oracle(xi, eta, a_log, samples, seed):
    lam = SpectralParameter.rank2(xi, eta)
    value, stderr = _sl3_qr_oracle(lam, a_log, samples, seed)
    got = spherical_sl3(lam, a_log, 200_000)
    assert got.path == "cubature" and got.quadrature_nodes <= 200_000
    assert got.estimated_error <= 1e-10 * max(1.0, abs(got.value))
    assert abs(got.value - value) <= 4.0 * stderr


def test_sl3_calls_neither_qr_nor_rotation_sampler(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(lg, "haar_so_n_sample", refuse)
    v = spherical_sl3(SpectralParameter.rank2((0.4, 0.7)), (1.0, 0.5))
    assert abs(v.value) <= 1.0 + v.estimated_error


def _weyl_images(c1, c2):
    """``(c1, c2)`` of every image of ``l = (c1, c2 - c1, -c2)`` under the
    permutations of its entries."""
    l = (c1, c2 - c1, -c2)
    return [(l[i], -l[k]) for i, j, k in itertools.permutations(range(3))]


# (xi, eta, a_log): bench-like points, complex c, and the tan pole Re c' = 0
# of the given image at (0.6, 0.3), (1, 0.5) and (0.6, 0.3) + i (0.1, 0)
@pytest.mark.parametrize("xi, eta, a_log", [
    ((0.6, 0.3), (0.0, 0.0), (0.7, -0.1)), ((1.0, 0.5), (0.0, 0.0), (0.5, 0.2)),
    ((0.6, 0.3), (0.1, 0.0), (0.8, 0.1)),
    ((1.2, 0.4), (0.0, 0.0), (0.9, 0.25)), ((0.3, 1.4), (0.0, 0.0), (0.4, -0.3)),
    ((1.3, -0.4), (0.2, -0.3), (1.5, -1.0)), ((0.8, 1.3), (0.1, 0.2), (-0.6, 1.1)),
    ((2.5, 0.7), (-0.2, 0.1), (1.2, 0.6))])
def test_sl3_weyl_images_agree_within_their_estimates(xi, eta, a_log):
    c = [complex(x, e) for x, e in zip(xi, eta)]
    images = _weyl_images(*c)
    values = [spherical_sl3(SpectralParameter.rank2((c1.real, c2.real), (c1.imag, c2.imag)),
                            a_log) for c1, c2 in images]
    if len({c[0], c[1] - c[0], -c[1]}) == 3:  # else the images are one computation
        assert len({v.value for v in values}) >= 2
    for a, b in itertools.combinations(values, 2):
        assert abs(a.value - b.value) <= a.estimated_error + b.estimated_error


def test_sl3_pole_takes_the_image_off_it():
    # Re c' = (2 xi2 - xi1) / 2 = 0: spherical_sl2's fallback at every inner
    # point past the small-Y region, unless the image moves
    l = sph._sl3_image(np.array([0.6, -0.3, -0.3], dtype=complex))
    assert abs((l[1] - l[2]).real) == pytest.approx(0.9)
    given = np.array([1.2, -0.4, -0.8], dtype=complex)
    assert sph._sl3_image(given) is given


def test_sl3_ceiling_raises_before_any_allocation(monkeypatch):
    monkeypatch.setattr(sph, "spherical_sl2_sweep", _refuse)
    lam = SpectralParameter.rank2((300.0, 150.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="ceiling 50000"):
            spherical_sl3(lam, (2.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 15, peak
    with pytest.raises(ValueError, match="ceiling 100"):
        spherical_sl3(SpectralParameter.rank2((0.4, 0.7)), (1.0, 0.0), 100)
    # an estimate past the float range is refused, not converted to an int
    with pytest.raises(ValueError, match="inf evaluations"):
        spherical_sl3(SpectralParameter.rank2((1e300, 0.5)), (1.0, 0.0))


def test_sl3_levels_past_the_ceiling_raise():
    # the first level, 33 x 17 points, fits 1000 evaluations; the next,
    # 65 x 17, does not
    lam = SpectralParameter.rank2((3.0, 1.0))
    assert sph._sl3_evaluations(math.hypot(3.0, 1.0), 2.3) <= 1000
    assert spherical_sl3(lam, (1.0, 0.3)).quadrature_nodes == 65 * 17
    with pytest.raises(QuadratureError, match="ceiling 1000"):
        spherical_sl3(lam, (1.0, 0.3), 1000)


def test_sl3_chamber_point_past_the_sweep_range_raises():
    with pytest.raises(ValueError, match="sl3 chamber point"):
        spherical_sl3(SpectralParameter.rank2((0.5, 0.5)), (6.0, 0.0))


def test_clenshaw_curtis_rules_are_exact_and_nest():
    for n in (2, 4, 16, 64):
        t, w = sph._clenshaw_curtis(n)
        for k in range(0, n + 1, 2):  # even monomials up to degree n on [0, 1]
            assert abs(w @ t ** k - 1.0 / (k + 1)) <= 1e-15
        assert np.array_equal(sph._clenshaw_curtis(2 * n)[0][::2], t)


def test_legendre_recurrence():
    assert sph.legendre(0, 0.77) == 1.0
    assert sph.legendre(1, 0.3) == pytest.approx(0.3, abs=1e-15)
    xs = np.linspace(-1, 1, 21)
    for n in (2, 5, 17, 60):
        assert np.allclose(sph.legendre(n, xs), eval_legendre(n, xs), atol=1e-12)
    seq = sph.legendre_sequence(60, 0.41)
    assert seq[60] == pytest.approx(sph.legendre(60, 0.41), abs=1e-14)
    assert np.all(np.abs(seq) <= 1.0 + 1e-12)


def test_legendre_rows_match_scipy_and_the_sequence():
    mpmath = pytest.importorskip("mpmath")
    xs = np.linspace(-1, 1, 41)
    degrees = [60, 0, 17, 2, 17, 1, 5]  # unsorted, repeated
    rows = sph.legendre_rows(degrees, xs)
    assert rows.shape == (len(degrees), len(xs))
    sequences = np.array([sph.legendre_sequence(60, x) for x in xs]).T
    with mpmath.workdps(30):
        for n, row in zip(degrees, rows):
            exact = np.array([float(mpmath.legendre(n, x)) for x in xs])
            assert np.abs(row - exact).max() <= 2e-15
            assert np.abs(row - sequences[n]).max() <= 2e-15
            # scipy's own error reaches 8.9e-15, at n = 60 and x = -1
            assert np.abs(row - eval_legendre(n, xs)).max() <= 1e-14
    for x in (0.41, -0.93, math.cos(2.2)):
        scalar = sph.legendre_rows(degrees, x)
        assert scalar.shape == (len(degrees),)
        assert np.abs(scalar - sph.legendre_sequence(60, x)[degrees]).max() <= 2e-15


def test_legendre_rows_keep_degrees_zero_and_one_exact():
    xs = np.array([-1.0, -0.7, -0.0, 0.0, 5e-324, -5e-324, 1e-300, 0.3, math.cos(1e-8), 1.0])
    ones, first = sph.legendre_rows([0, 1], xs)
    assert ones.tobytes() == np.ones_like(xs).tobytes()
    assert first.tobytes() == xs.tobytes()
    assert sph.legendre(1, -0.0) == 0.0 and math.copysign(1.0, sph.legendre(1, -0.0)) == -1.0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1.0 + 2 ** -52, -1.5,
                               np.array([0.2, math.nan]), np.array([[0.1], [-1.1]])])
def test_legendre_points_outside_the_interval_raise(x):
    for call in (lambda: sph.legendre_rows([3, 10], x), lambda: sph.legendre(4, x),
                 lambda: sph.legendre_rows([sph.LEGENDRE_MAX_DEGREE], x)):
        with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
            call()


def test_legendre_sequence_takes_one_point():
    for x in (np.array([0.1, 0.2]), [0.3], np.zeros((1, 1))):
        with pytest.raises(ValueError, match="one point"):
            sph.legendre_sequence(5, x)
    for x in (math.nan, -math.inf, 1.5):
        with pytest.raises(ValueError, match="outside"):
            sph.legendre_sequence(5, x)
    with pytest.raises(ValueError, match="nonnegative"):
        sph.legendre_sequence(-1, 0.3)
    assert sph.legendre_sequence(0, 0.3).tolist() == [1.0]
    assert sph.legendre_sequence(1, np.float64(0.3)).tolist() == [1.0, 0.3]


# the degrees and points of criterion 9's table: approach angles, then the interior angle
BLOWUP_DEGREES = sorted({int(round(10 ** (1 + 3 * k / 12))) for k in range(13)})
BLOWUP_POINTS = np.append(np.cos(np.geomspace(1e-8, 0.49, 400)), math.cos(0.3))


def test_legendre_table_of_the_blowup_check_matches_mpmath():
    # the float64 three-term recurrence was 2.4e-9 off near x = 1 on this table
    mpmath = pytest.importorskip("mpmath")
    rows = sph.legendre_rows(BLOWUP_DEGREES, BLOWUP_POINTS)
    with mpmath.workdps(30):
        for n, row in zip(BLOWUP_DEGREES, rows):
            exact = np.array([float(mpmath.legendre(n, x)) for x in BLOWUP_POINTS])
            assert np.abs(row - exact).max() <= 1e-14, n


def test_legendre_table_of_the_blowup_check_stays_within_one_mebibyte():
    sph.legendre_rows(BLOWUP_DEGREES, BLOWUP_POINTS)
    tracemalloc.start()
    try:
        sph.legendre_rows(BLOWUP_DEGREES, BLOWUP_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


@pytest.mark.parametrize("degrees", [[-1, 3], [], [4, -2]])
def test_legendre_rows_reject_bad_degree_lists(degrees):
    with pytest.raises(ValueError):
        sph.legendre_rows(degrees, 0.3)
    with pytest.raises(ValueError):
        sph.legendre_rows(degrees, np.array([0.1, 0.2]))


def test_compact_integral_examples():
    assert sph.spherical_compact_su2(0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert sph.spherical_compact_su2(1, math.pi / 3) == pytest.approx(0.5, abs=1e-12)
    assert sph.spherical_compact_su2(40, 1.0) == pytest.approx(
        sph.legendre(40, math.cos(1.0)), abs=1e-9)
    with pytest.raises(ValueError):
        sph.spherical_compact_su2(3, 0.0)
    with pytest.raises(ValueError):
        sph.spherical_compact_su2(-1, 1.0)


def test_compact_integral_grid_against_recurrence():
    for theta in np.linspace(0.2, 2.9, 12):
        seq = sph.legendre_sequence(100, math.cos(theta))
        for n in (0, 3, 25, 100):
            assert abs(sph.spherical_compact_su2(n, theta) - seq[n]) <= 1e-9


def test_derivative_order_zero_equals_value():
    lam = SpectralParameter.rank1(0.8, 0.1)
    direct = spherical_sl2(SpectralParameter.rank1(2.4, 0.1), 1.1).value
    assert abs(sph.deriv_spherical_sl2(lam, 3.0, 1.1, 0) - direct) <= 1e-12
    # at small Y both take the small-Y series, so they agree to the bit
    rng = np.random.default_rng(21)
    for _ in range(200):
        y = float(rng.uniform(1e-3, 0.5))
        xi, eta = (float(rng.uniform(-1.0, 1.0) / y) for _ in range(2))
        direct = spherical_sl2(SpectralParameter.rank1(xi, eta), y)
        got = sph.deriv_spherical_sl2(SpectralParameter.rank1(xi, eta), 1.0, y, 0)
        assert repr(got) == repr(direct.value), (xi, eta, y)
        assert direct.path == "small-y"


@pytest.mark.parametrize("order,h,rtol", [(1, 1e-5, 1e-6), (2, 1e-4, 1e-5), (3, 2e-3, 1e-3)])
def test_derivatives_match_central_differences(order, h, rtol):
    lam = SpectralParameter.rank1(0.8, 0.1)
    got = sph.deriv_spherical_sl2(lam, 3.0, 1.1, order)

    def f(y):
        return spherical_sl2(SpectralParameter.rank1(2.4, 0.1), y).value

    if order == 1:
        fd = (f(1.1 + h) - f(1.1 - h)) / (2 * h)
    elif order == 2:
        fd = (f(1.1 + h) - 2 * f(1.1) + f(1.1 - h)) / h ** 2
    else:
        fd = (f(1.1 + 2 * h) - 2 * f(1.1 + h) + 2 * f(1.1 - h) - f(1.1 - 2 * h)) / (2 * h ** 3)
    assert abs(got - fd) <= rtol * max(1.0, abs(fd))


def test_first_derivative_sign_at_spectral_origin():
    # the function decays off the identity, so the slope is negative
    lam = SpectralParameter.rank1(0.0)
    for y in (0.5, 1.0, 2.0):
        assert sph.deriv_spherical_sl2(lam, 1.0, y, 1).real < 0.0


@pytest.mark.parametrize("xi,eta,y,rtol", [(2000.0, 0.0, 2.4, 1e-11), (1000.0, 0.0, 4.9, 1e-11),
                                           (300.0, 0.5, 5.0, 1e-11), (1.0, 0.2, 0.01, 1e-11),
                                           (3.0, -0.5, 1e-4, 1e-9)])
def test_derivatives_against_legendre_function(xi, eta, y, rtol):
    # Laplace's form of the derivatives stopped on roundoff at large Y
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        nu = mpmath.mpc(-0.5, xi) - mpmath.mpf(eta)
        y_mp = mpmath.mpf(y)
        wants = [complex(mpmath.diff(lambda s: mpmath.legenp(nu, 0, mpmath.cosh(2 * s), type=3),
                                     y_mp, order)) for order in (1, 2, 3)]
    for order, want in enumerate(wants, start=1):
        got = sph.deriv_spherical_sl2(SpectralParameter.rank1(xi, eta), 1.0, y, order, BIG)
        assert abs(got - want) <= rtol * max(1.0, abs(want)), order


def test_derivatives_call_no_laplace_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(sph, "sl2_chamber_derivatives", refuse)
    monkeypatch.setattr(sph, "sl2_chamber_coordinate", refuse)
    lam = SpectralParameter.rank1(0.8, 0.1)
    for order in range(4):
        assert math.isfinite(abs(sph.deriv_spherical_sl2(lam, 3.0, 1.1, order)))


def test_derivative_guards():
    lam = SpectralParameter.rank1(1.0)
    with pytest.raises(ValueError):
        sph.deriv_spherical_sl2(lam, 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        sph.deriv_spherical_sl2(lam, 1.0, -0.5, 1)


def test_legendre_degree_ceiling_raises_before_the_recurrence():
    top = sph.LEGENDRE_MAX_DEGREE
    assert sph.legendre_rows([top], 0.5).shape == (1,)
    for call in (lambda: sph.legendre_rows([0, top + 1], 0.5),
                 lambda: sph.legendre_sequence(top + 1, 0.5),
                 lambda: sph.legendre(top + 1, np.array([0.1, 0.2]))):
        with pytest.raises(ValueError, match="above the supported maximum"):
            call()


@pytest.mark.parametrize("xi, a_log", [((0.5, 0.5), (1.0, math.inf)),
                                       ((math.nan, 0.5), (1.0, 0.0)),
                                       ((0.5, 0.5), (math.nan, 0.0))])
def test_sl3_rejects_non_finite_input(xi, a_log):
    with pytest.raises(ValueError, match="non-finite"):
        spherical_sl3(SpectralParameter.rank2(xi), a_log)


def test_sl3_overflow_raises_instead_of_warning():
    with pytest.raises(FloatingPointError):
        spherical_sl3(SpectralParameter.rank2((0.5, 0.5)), (400.0, 0.0))


# The quadrature benchmark's rule, and points of its grid.

BENCH_CONFIG = QuadratureConfig(n_start=64, n_max=1 << 20, target=1e-12, fail=1e-7)
# (xi, eta, Y) at centres of the quadrature benchmark's grid, final counts 2^9 .. 2^17
BENCH_POINTS = [(2 ** 7.5, 0.31, 0.6), (2 ** 6.25, -0.12, 1.25), (2 ** 5.25, 0.5, 1.8),
                (2 ** 10.75, -0.45, 0.6), (2 ** 9.0, 0.08, 1.5), (2 ** 9.25, -0.3, 1.8),
                (2 ** 11.75, 0.22, 1.25), (2 ** 13.5, -0.5, 1.0)]


@pytest.mark.parametrize("xi, eta, y", BENCH_POINTS)
def test_integrand_points_equal_the_level_by_level_loop(monkeypatch, xi, eta, y):
    # each integrand call gets one level, the n_start grid and then each
    # doubling's midpoints, and the result is the full-grid oracle's
    kernel = sph._nested_trapezoid
    for order in (0, 1):
        sizes, runs = [], []

        def recorded(integrand, fold, config):
            def counted(rule):
                sizes.append(len(rule.angles))
                return integrand(rule)
            runs.append((integrand, fold, config, kernel(counted, fold, config)))
            return runs[-1][-1]

        with monkeypatch.context() as patch:
            patch.setattr(sph, "_nested_trapezoid", recorded)
            sph._mehler(xi, eta, y, order, BENCH_CONFIG)
        [(integrand, fold, config, got)] = runs
        assert repr(got) == repr(_full_grid_nested_trapezoid(integrand, fold, config))
        doublings = range(1, (got[1] // config.n_start).bit_length())
        assert got[1] >= 1 << 9
        assert sizes == [config.n_start // 4 + 1] + [config.n_start << k >> 3 for k in doublings]


def test_derivative_integrand_does_not_depend_on_the_level_length(monkeypatch):
    # numpy elides a temporary of 256 KiB or more (16384 complex values), and an
    # elided ``scalar * array`` rounds as ``array * scalar`` does
    captured = []
    monkeypatch.setattr(sph, "_nested_trapezoid",
                        lambda integrand, fold, config: captured.append(integrand) or (0j, 0, 0.0))
    sph._mehler(37.5, 0.9, 1.3, 1, sph.DEFAULT_CONFIG)
    [integrand] = captured
    angles = np.linspace(0.01, 0.5 * np.pi - 0.01, 64)
    padded = np.concatenate([angles, np.linspace(0.0, 0.5 * np.pi, (1 << 14) + 1 - 64)])
    short, long = (integrand(sph._Rule(a, np.ones_like(a))) for a in (angles, padded))
    assert long.size == (1 << 14) + 1
    assert long[:64].tobytes() == short.tobytes()


@pytest.mark.parametrize("xi, eta, y", [(math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0),
                                        (1.0, math.nan, 1.0), (1.0, -math.inf, 1.0),
                                        (1.0, 0.0, math.nan)])
def test_value_rejects_non_finite_input_before_quadrature(monkeypatch, xi, eta, y):
    monkeypatch.setattr(sph, "_nested_trapezoid", None)
    with pytest.raises(ValueError, match="non-finite"):
        spherical_sl2(SpectralParameter.rank1(xi, eta), y)


@pytest.mark.parametrize("order", [0, 1, 3])
@pytest.mark.parametrize("xi, eta, scale", [(math.inf, 0.0, 1.0), (math.nan, 0.2, 1.0),
                                            (1.0, math.nan, 1.0), (1.0, 0.0, math.inf),
                                            (1e300, 0.0, 1e10)])
def test_derivative_rejects_non_finite_input_before_quadrature(monkeypatch, xi, eta, scale,
                                                               order):
    monkeypatch.setattr(sph, "_nested_trapezoid", None)
    with pytest.raises(ValueError, match="non-finite"):
        sph.deriv_spherical_sl2(SpectralParameter.rank1(xi, eta), scale, 1.0, order)


@pytest.mark.parametrize("xi, eta", [(1.7e308, 0.0), (-1.7e308, 0.2), (1.0, 1.7e308)])
def test_overflowing_phase_raises_before_quadrature(monkeypatch, xi, eta):
    monkeypatch.setattr(sph, "_nested_trapezoid", None)
    lam = SpectralParameter.rank1(xi, eta)
    with pytest.raises(ValueError, match="overflows"):
        spherical_sl2(lam, 4.0)
    for order in range(4):
        with pytest.raises(ValueError, match="overflows"):
            sph.deriv_spherical_sl2(lam, 1.0, 4.0, order)


def test_kernel_raises_at_the_first_non_finite_estimate():
    sizes = []

    def nan_past_256(rule):
        sizes.append(len(rule.angles))
        values = np.exp(50j * rule.cos)  # unresolved below 512 nodes
        return values if len(rule.angles) <= 32 else values * math.nan

    config = QuadratureConfig(n_start=64, n_max=1 << 16, target=1e-12, fail=1.0)
    with pytest.raises(QuadratureError, match="at 512 nodes is not finite"):
        sph._nested_trapezoid(nan_past_256, 4, config)
    # levels 64, 128 and 256 are finite; the 512-node midpoints are NaN
    assert sizes == [17, 16, 32, 64]
    with pytest.raises(QuadratureError, match="at 128 nodes is not finite"):
        sph._nested_trapezoid(lambda rule: np.full(len(rule.angles), math.nan), 4, config)


@pytest.mark.parametrize("xis, eta, y", [([1.0, math.nan], 0.0, 1.0), ([math.inf], 0.0, 1.0),
                                         ([1.0], math.nan, 1.0), ([1.0], 0.0, -math.inf),
                                         ([1.0], 0.2, math.nan)])
def test_sweep_rejects_non_finite_input_before_the_cache(monkeypatch, xis, eta, y):
    monkeypatch.setattr(sph, "_folded_grid", _refuse_rules)
    with pytest.raises(ValueError, match="non-finite"):
        sph.spherical_sl2_sweep(np.array(xis), eta, y)


def _refuse_rules(*args):
    raise AssertionError("a rule was built")


@pytest.mark.parametrize("xis, y", [([1.0, 1e6], 4.0), (2.0, [0.5, 1e300])])
def test_sweep_rejects_counts_above_the_ceiling_before_any_rule(monkeypatch, xis, y):
    monkeypatch.setattr(sph, "_folded_grid", _refuse_rules)
    with pytest.raises(ValueError, match="quadrature nodes"):
        sph.spherical_sl2_sweep(xis, 0.0, y)


# Rule cache: every rule is built once per (nodes, fold), shared and read-only.


@pytest.mark.parametrize("midpoints", [False, True])
def test_rules_are_read_only_and_shared(monkeypatch, midpoints):
    monkeypatch.setattr(sph, "_RULES", {})
    rule = sph._folded_grid(256, 4, midpoints)
    assert sph._folded_grid(256, 4, midpoints) is rule
    for field in ("angles", "weights", "cos", "sin", "sin2_half"):
        array = getattr(rule, field)
        assert getattr(sph._folded_grid(256, 4, midpoints), field) is array
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_rules_above_the_limit_are_built_but_not_kept(monkeypatch):
    monkeypatch.setattr(sph, "_RULES", {})
    limit = sph._ELIDE_POINTS
    kept = sph._folded_grid(8 * limit, 4, midpoints=True)  # 16384 points
    assert len(kept.angles) == limit
    assert sph._folded_grid(8 * limit, 4, midpoints=True) is kept
    full = sph._folded_grid(4 * limit, 4)  # 16385 points
    assert len(full.angles) == limit + 1
    assert sph._folded_grid(4 * limit, 4) is not full
    bigger = sph._folded_grid(16 * limit, 4, midpoints=True)
    assert sph._folded_grid(16 * limit, 4, midpoints=True) is not bigger
    assert all(len(rule.angles) <= limit for rule in sph._RULES.values())
    assert set(sph._RULES) == {(8 * limit, 4, True)}


@pytest.mark.parametrize("nodes, fold", [(66, 4), (2, 4), (0, 2), (9, 2)])
def test_node_counts_that_do_not_fold_raise_on_every_call(monkeypatch, nodes, fold):
    monkeypatch.setattr(sph, "_RULES", {})
    for _ in range(2):
        for midpoints in (False, True):
            with pytest.raises(ValueError, match="positive multiple"):
                sph._folded_grid(nodes, fold, midpoints)
    assert sph._RULES == {}


def _cached_calls():
    calls = []
    for xi, eta, y in BENCH_POINTS:
        lam = SpectralParameter.rank1(xi, eta)
        calls.append(lambda lam=lam, y=y: spherical_sl2(lam, y, BENCH_CONFIG))
        calls += [lambda lam=lam, y=y, order=order:
                  sph.deriv_spherical_sl2(lam, 1.0, y, order, BENCH_CONFIG)
                  for order in (1, 2, 3)]
    calls += [lambda n=n, theta=theta: sph.spherical_compact_su2(n, theta)
              for n, theta in [(0, 1.0), (17, 2.2), (500, 0.4), (1000, 2.9)]]
    calls.append(lambda: sph.spherical_sl2_sweep(np.array([0.5, 9.0, 40.0]), -0.1,
                                                 np.array([1.3, 0.2])).tobytes())
    return calls


def test_values_are_the_same_with_cleared_and_warm_caches(monkeypatch):
    calls = _cached_calls()
    cold = []
    for call in calls:
        monkeypatch.setattr(sph, "_RULES", {})
        cold.append(repr(call()))
    for _ in range(2):
        assert [repr(call()) for call in calls] == cold


@pytest.mark.parametrize("xi, y", [(1.0e308, 0.4), (1e200, 1e-200), (1.0, 5e-324)])
@pytest.mark.parametrize("order", [1, 3])
def test_derivative_with_overflowing_prefactor_raises_before_quadrature(monkeypatch, xi, y,
                                                                         order):
    monkeypatch.setattr(sph, "_nested_trapezoid", None)
    with pytest.raises(ValueError, match="overflows"):
        sph.deriv_spherical_sl2(SpectralParameter.rank1(xi), 1.0, y, order)


# Harish-Chandra series: P_nu = tan(nu pi) / pi (Q_nu - Q_{-nu-1}), with a
# tail-plus-rounding bound; the Mehler-Dirichlet rule is the fallback.


def _legendre_reference(xi, eta, y, order=0):
    """``d^order/dY^order P_nu(cosh 2Y)`` at ``nu = i xi - eta - 1/2`` by
    mpmath; ``-0.5 - eta`` is formed in mpmath, as its float rounds away the
    low bits of ``1/2 - |eta|`` near ``|eta| = 1/2``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        nu = mpmath.mpc(-0.5, xi) - mpmath.mpf(eta)

        def f(s):
            return mpmath.legenp(nu, 0, mpmath.cosh(2 * s), type=3)

        y_mp = mpmath.mpf(y)
        return complex(f(y_mp) if order == 0 else mpmath.diff(f, y_mp, order))


_SERIES_RNG = np.random.default_rng(16)
SERIES_POINTS = [(float(2.0 ** _SERIES_RNG.uniform(-5, 8)), float(_SERIES_RNG.uniform(-0.5, 0.5)),
                  float(_SERIES_RNG.uniform(0.05, 2.5))) for _ in range(100)]


def test_series_matches_the_legendre_function():
    for xi, eta, y in SERIES_POINTS:
        got = sph._harish_chandra_series(xi, eta, y)
        want = _legendre_reference(xi, eta, y)
        assert got.path == "series"
        assert abs(got.value - want) <= 1e-13 * max(1.0, abs(want)), (xi, eta, y)


# (xi, eta, Y, order): random points, the tan pole's neighbourhood, eta near
# +-1/2 at small xi (nu near an integer), and derivatives
BOUND_CASES = [*((xi, eta, y, 0) for xi, eta, y in SERIES_POINTS[:12]),
               (1e-6, 0.0, 1.0, 0), (1e-3, 1e-7, 0.7, 0), (-2e-4, -3e-5, 2.0, 0),
               (1e-8, 0.5, 1.0, 0), (3e-5, -0.5, 0.4, 0), (1e-4, 0.49999, 1.5, 0),
               (3.8e-12, 0.4999999968314562, 1.95, 1), (1.2e-5, 0.49999999143, 1.9, 2),
               (5.9e-7, 0.4999996426018253, 0.64, 3), (63.5, 0.2, 1.2, 2), (150.0, -0.3, 0.9, 1),
               (2.0, 0.45, 2.4, 3), (0.3, -0.1, 0.3, 1)]


@pytest.mark.parametrize("xi, eta, y, order", BOUND_CASES)
def test_series_bound_covers_the_error(xi, eta, y, order):
    got = sph._harish_chandra_series(xi, eta, y, order)
    want = _legendre_reference(xi, eta, y, order)
    assert abs(got.value - want) <= got.estimated_error


@pytest.mark.parametrize("xi, eta, y", BENCH_POINTS)
def test_series_matches_the_mehler_rule_on_bench_points(xi, eta, y):
    got = spherical_sl2(SpectralParameter.rank1(xi, eta), y, BENCH_CONFIG)
    mehler = sph._mehler(xi, eta, y, 0, BENCH_CONFIG)
    assert (got.path, mehler.path) == ("series", "trapezoid")
    assert got.quadrature_nodes <= 40  # terms, against 2^9 .. 2^17 nodes
    assert got.estimated_error <= 1e-13 * max(1.0, abs(got.value))
    assert abs(got.value - mehler.value) <= 1e-13 * max(1.0, abs(mehler.value))


@pytest.mark.parametrize("xi, eta, y, path", [
    (1.0, 0.75, 1.0, "trapezoid"),  # |eta| > 1/2: no ratio bound
    (-2.0, -0.6, 2.0, "trapezoid"),
    (3.0, 0.2, 0.0, "small-y"),  # the identity
    (0.0, 0.0, 1.5, "trapezoid"),  # the tan pole
    (1e-9, 0.0, 1.5, "trapezoid"),  # next to it the bound fails the target
    (0.0, 0.5, 1.5, "trapezoid"),  # a pole of one Gamma ratio
    (0.0, -0.5, 1.5, "trapezoid"),
    (2.0, 0.5, 1.5, "series"),
    (2.0, -0.5, 1.5, "series"),
    (0.5, 0.2, 0.1, "small-y"),  # |xi Y|, |eta Y| <= 1 and |Y| <= 1/2
    (20.0, 0.2, 0.1, "trapezoid"),  # |xi Y| > 1: about 200 terms against 64 nodes
    (2.0 ** 13.75, 0.2, 1.25, "series"),
    (40.0, 0.0, -1.2, "series"),  # even in Y
])
def test_dispatch_takes_the_right_path_and_stays_finite(xi, eta, y, path):
    got = spherical_sl2(SpectralParameter.rank1(xi, eta), y, BIG)
    assert got.path == path
    assert math.isfinite(abs(got.value)) and got.estimated_error <= 1e-12
    if y == 0.0 or (xi == 0.0 and abs(eta) == 0.5):
        assert abs(got.value - 1.0) <= 1e-12  # P_0 = P_-1 = 1
    else:
        want = sph._mehler(xi, eta, y, 0, BIG).value
        assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want))


def test_series_at_eta_zero_is_real():
    for xi, y in [(0.3, 1.0), (40.0, 2.0), (1000.0, 4.9)]:
        got = spherical_sl2(SpectralParameter.rank1(xi), y)
        assert got.path == "series" and got.value.imag == 0.0


@pytest.mark.parametrize("z", [0.5j, 1e-3 + 2j, 0.3 + 7j, 0.9 - 11.5j, 1.0 + 20j, 0.25 + 1e4j])
def test_gamma_ratio_matches_mpmath(z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = complex(mpmath.gamma(z) / mpmath.gamma(z + mpmath.mpf(0.5)))
    # up to 12 shift factors round on the way: about 6 ulps on 2000 random points
    assert abs(sph._gamma_ratio(z) - want) <= 2e-15 * abs(want)


def test_series_derivatives_match_the_mehler_family():
    for xi, eta, y in [(2.4, 0.1, 1.1), (40.0, -0.3, 0.8), (300.0, 0.5, 2.0)]:
        for order in (1, 2, 3):
            got = sph.deriv_spherical_sl2(SpectralParameter.rank1(xi, eta), 1.0, y, order)
            want = sph._mehler(xi, eta, y, order, BIG).value
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (xi, eta, y, order)


def test_importing_spherical_pulls_in_neither_scipy_nor_mpmath():
    script = ("import sys\n"
              "import sphreg.spherical\n"
              "print(*sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


# Small Y: orders 0-3 from F(-nu, nu + 1; 1; -sinh^2 Y), with no coth 2Y step.


def test_small_y_derivatives_keep_their_limits():
    lam = SpectralParameter.rank1(3.0)  # nu (nu + 1) = -9.25
    assert sph.deriv_spherical_sl2(lam, 1.0, 1e-8, 3) == pytest.approx(5.50375e-6, rel=1e-9)
    for y in (1e-100, 1e-155, 1e-200):
        assert sph.deriv_spherical_sl2(lam, 1.0, y, 2) == pytest.approx(-18.5, rel=1e-15)
        third = sph.deriv_spherical_sl2(lam, 1.0, y, 3)
        assert math.isfinite(abs(third)) and abs(third) <= 1e-90
    # far out in the spectrum phi tends to J0(2 xi Y) (Mehler-Heine); unscaled,
    # the coefficients overflowed there and the sum never stopped
    for xi, y, orders in [(1e20, 1e-20, (0, 1)), (1e200, 1e-200, (0,))]:
        want = (j0(2.0), -2.0 * xi * j1(2.0))
        assert spherical_sl2(SpectralParameter.rank1(xi), y).value == pytest.approx(want[0])
        assert sph.spherical_sl2_sweep(xi, 0.0, y) == pytest.approx(want[0], rel=1e-14)
        for order in orders:
            got = sph.deriv_spherical_sl2(SpectralParameter.rank1(xi), 1.0, y, order)
            assert got == pytest.approx(want[order], rel=1e-14)


# (xi, eta, Y): eta = 0 with |xi Y| = 1, where the terms alternate most;
# |eta| = 0.75 and 1.5; the edge Y = 1/2; Y = 1e-8; and xi = eta = 0, the tan
# pole of the Harish-Chandra series, which this series does not have
@pytest.mark.parametrize("xi, eta, y", [
    *((xi, eta, y) for xi, eta in [(3.0, 0.0), (1.5, 0.4), (0.7, -0.5)] for y in (0.05, 0.3)),
    (2.0, 0.0, 0.5), (10.0, 0.0, 0.1), (0.5, 0.75, 0.3), (1.0, -0.75, 0.5), (0.3, -1.5, 0.2),
    (1.0, 1.5, 0.5), (3.0, 0.2, 1e-8), (0.0, 0.0, 0.3)])
def test_small_y_derivatives_match_the_legendre_function(xi, eta, y):
    for order in range(4):
        got = sph.deriv_spherical_sl2(SpectralParameter.rank1(xi, eta), 1.0, y, order)
        value, bound, _ = sph._small_y_series(complex(-eta, xi), y, order)
        want = _legendre_reference(xi, eta, y, order)
        assert got == value
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), order
        assert abs(value - want) <= bound, order


def test_values_say_which_path_produced_them():
    assert spherical_sl3(SpectralParameter.rank2((0.4, 0.7)), (1.0, 0.0)).path == "cubature"
    compact = sph._spherical_compact_su2(40, 1.0)
    assert compact.path == "trapezoid" and compact.quadrature_nodes >= 64
    assert compact.value == sph.spherical_compact_su2(40, 1.0)
    assert 0.0 <= compact.estimated_error <= 1e-12


# The sweep: the Harish-Chandra series summed on the whole grid wherever it
# is valid, spherical_sl2's own Mehler-Dirichlet fallback elsewhere.

_SWEEP_RNG = np.random.default_rng(18)
SWEEP_ETAS = (0.0, 0.5, -0.5, 0.31, -0.45)
SWEEP_XIS = 2.0 ** _SWEEP_RNG.uniform(-5, 8, 5) * _SWEEP_RNG.choice([-1.0, 1.0], 5)
SWEEP_YS = _SWEEP_RNG.uniform(0.05, 2.5, 4) * _SWEEP_RNG.choice([-1.0, 1.0], 4)


@pytest.mark.parametrize("eta", SWEEP_ETAS)
def test_series_sweep_matches_the_legendre_function_within_its_bound(eta):
    values, bounds = sph._harish_chandra_sweep(SWEEP_XIS, eta, SWEEP_YS)
    assert values.shape == bounds.shape == (len(SWEEP_YS), len(SWEEP_XIS))
    assert np.all(bounds <= 1e-13)
    if eta == 0.0:
        assert values.dtype == float
    for (i, j), value in np.ndenumerate(values):
        want = _legendre_reference(SWEEP_XIS[j], eta, SWEEP_YS[i])
        assert abs(value - want) <= bounds[i, j], (SWEEP_XIS[j], eta, SWEEP_YS[i])


@pytest.mark.parametrize("eta", [0.0, -0.3])
def test_series_sweep_blocks_change_values_by_roundoff_only(monkeypatch, eta):
    # about 2900 terms at Y = 0.003: one spectral value per block against all
    # in one; numpy's complex products may round differently in arrays of
    # other lengths
    xis = np.concatenate([SWEEP_XIS, [0.5, 40.0]])
    ys = np.concatenate([SWEEP_YS, [0.003, -0.3]])
    values, bounds = sph._harish_chandra_sweep(xis, eta, ys)
    monkeypatch.setattr(sph, "_SERIES_BLOCK", 1)
    block_values, block_bounds = sph._harish_chandra_sweep(xis, eta, ys)
    np.testing.assert_allclose(block_values, values, rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(block_bounds, bounds, rtol=1e-14, atol=0.0)


def test_series_sweep_memory_stays_bounded_at_small_y():
    # 2906 terms for 400 spectral values: about 19 MB per term array in one block
    tracemalloc.start()
    try:
        sph._harish_chandra_sweep(np.linspace(0.5, 200.0, 400), 0.0, np.array([0.003, 1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 << 20, peak


@pytest.mark.parametrize("eta", SWEEP_ETAS)
def test_sweep_matches_the_scalar_values_within_both_bounds(eta):
    got = sph.spherical_sl2_sweep(SWEEP_XIS, eta, SWEEP_YS)
    _, bounds = sph._harish_chandra_sweep(SWEEP_XIS, eta, SWEEP_YS)
    x, y = np.broadcast_arrays(SWEEP_XIS, SWEEP_YS[:, None])
    near = sph._small_y_valid(x, eta, np.abs(y))
    bounds[near] = sph._small_y_series(1j * x[near] - eta, y[near], 0)[1]
    for (i, j), value in np.ndenumerate(got):
        single = spherical_sl2(SpectralParameter.rank1(SWEEP_XIS[j], eta), SWEEP_YS[i])
        assert abs(value - single.value) <= bounds[i, j] + single.estimated_error


@pytest.mark.parametrize("eta", [0.0, 0.5, -0.5, 0.2, 0.75, -1.2])
def test_sweep_fallback_points_equal_the_mehler_rule_to_the_bit(monkeypatch, eta):
    # outside the small-Y region, which holds Y = +-0: |eta| > 1/2, the poles
    # at xi = 0 and bounds above the target (next to the tan pole at eta = 0)
    # take spherical_sl2's own fallback
    xis = np.array([[0.0, 0.5, 3.0], [40.0, -7.0, 1e-9]])
    ys = np.array([0.0, -0.0, 0.05, 0.2, -0.25, 0.6, 1.7])
    calls, mehler = [], sph._mehler

    def recorded(xi, eta, y, order, config):
        calls.append((xi, y))
        assert (order, config) == (0, None)
        return mehler(xi, eta, y, order, config)

    monkeypatch.setattr(sph, "_mehler", recorded)
    got = sph.spherical_sl2_sweep(xis, eta, ys)
    assert got.shape == (7, 2, 3) and got.dtype == complex
    if eta == 0.0:
        assert np.all(got.imag == 0.0)
    x, y = np.broadcast_arrays(xis, ys[:, None, None])
    values, bounds = sph._harish_chandra_sweep(xis.ravel(), eta, ys)
    missed = (bounds > sph.DEFAULT_CONFIG.target
              * np.maximum(1.0, np.abs(values))).reshape(got.shape)
    assert missed[2:, 1, 2].all() == (eta == 0.0)  # xi = 1e-9 by the tan pole
    near = sph._small_y_valid(x, eta, np.abs(y))
    fallback = ~near & ((abs(eta) > 0.5) | ((x == 0.0) & (abs(eta) in (0.0, 0.5))) | missed)
    assert near[:2].all() and np.all(got[:2] == 1.0)
    assert fallback[~near].all() == (abs(eta) > 0.5)
    assert sorted(calls) == sorted(zip(x[fallback].tolist(), y[fallback].tolist()))
    for index in zip(*np.nonzero(fallback)):
        want = mehler(x[index], eta, y[index], 0, sph._mehler_config(x[index], y[index])).value
        assert repr(complex(got[index])) == repr(want), index


def test_sweep_takes_the_series_where_the_scalar_cost_model_would_not(monkeypatch):
    # at xi = 0.5 both sum the small-Y series and agree within both bounds; at
    # xi = 30 (|xi Y| > 1) about 400 terms stand against 64 nodes, so
    # spherical_sl2 integrates and the sweep sums the Harish-Chandra series
    small = spherical_sl2(SpectralParameter.rank1(0.5), 0.05)
    assert small.path == "small-y"
    assert spherical_sl2(SpectralParameter.rank1(30.0), 0.05).path == "trapezoid"
    want = [_legendre_reference(0.5, 0.0, 0.05), _legendre_reference(30.0, 0.0, 0.05)]
    monkeypatch.setattr(sph, "_mehler", _refuse)
    monkeypatch.setattr(sph, "_mehler_integrand", _refuse)
    got = sph.spherical_sl2_sweep(np.array([0.5, 30.0]), 0.0, np.array([0.05, -0.05]))
    assert np.all(np.abs(got - want) <= 1e-13)
    _, bounds, _ = sph._small_y_series(np.array([0.5j, 0.5j]), np.array([0.05, -0.05]), 0)
    assert np.all(np.abs(got[:, 0] - small.value) <= bounds + small.estimated_error)


def test_sweep_sums_no_harish_chandra_series_inside_the_small_y_region(monkeypatch):
    # the row Y = 0.003 needs about 2900 terms of the Harish-Chandra series,
    # and every spectral value of it lies in the small-Y region
    xis, ys, calls = np.linspace(0.5, 200.0, 2000), np.array([0.003, 0.01, 0.5]), []
    harish_chandra = sph._harish_chandra_sweep

    def recorded(xs, eta, rows):
        calls.append((xs, rows))
        return harish_chandra(xs, eta, rows)

    monkeypatch.setattr(sph, "_harish_chandra_sweep", recorded)
    got = sph.spherical_sl2_sweep(xis, 0.0, ys)
    assert sph._small_y_valid(xis, 0.0, 0.003).all() and calls
    for xs, rows in calls:
        assert not (sph._small_y_valid(xs, 0.0, np.abs(rows)[:, None]) & (rows == 0.003)[:, None]).any()
    values, bounds, _ = sph._small_y_series(1j * xis, np.full(2000, 0.003), 0)
    assert np.all(np.abs(got[0] - values) <= 2.0 * bounds)


@pytest.mark.parametrize("eta", [0.0, -0.3])
def test_small_y_series_arrays_sum_the_largest_term_count_within_both_bounds(eta):
    # 2,000 points need about 5 terms and 16 about 29: an array call sums
    # every point to the largest count and agrees with the scalar series
    xis, ys = np.linspace(0.5, 200.0, 2000), np.array([0.003, 0.5])
    x, y = np.broadcast_arrays(xis, ys[:, None])
    near = sph._small_y_valid(x, eta, y)
    s = 1j * x[near] - eta
    for order in (0, 2):
        values, bounds, terms = sph._small_y_series(s, y[near], order)
        for i in range(0, len(s), 97):
            value, bound, count = sph._small_y_series(complex(s[i]), float(y[near][i]), order)
            assert terms >= count
            assert abs(values[i] - value) <= bounds[i] + bound


def test_scalar_small_y_series_runs_without_numpy(monkeypatch):
    # a one-point array pass costs about 20 times the pure-Python scalar loop
    s, lam = complex(-0.2, 1.5), SpectralParameter.rank1(1.5, 0.2)
    want = [sph._small_y_series(s, 0.45, order) for order in range(4)]
    value = spherical_sl2(lam, 0.45)
    monkeypatch.setattr(sph, "np", types.SimpleNamespace(ndarray=np.ndarray))
    assert [sph._small_y_series(s, 0.45, order) for order in range(4)] == want
    got = spherical_sl2(lam, 0.45)
    assert got.path == "small-y" and got == value


def test_sweep_rejects_chamber_points_out_of_range_before_any_value(monkeypatch):
    # the fallback's sinh would overflow at Y = 400 and return 0
    monkeypatch.setattr(sph, "_harish_chandra_sweep", _refuse)
    monkeypatch.setattr(sph, "_mehler", _refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside"):
            sph.spherical_sl2_sweep([0.0, 2.0], 0.75, [4.0, 400.0])
        with pytest.raises(ValueError, match="outside"):
            sph.spherical_sl2_sweep(1.0, 0.0, -5.5)


def _refuse(*args):
    raise AssertionError("called")


def _need_just_above(k):
    """The least spectral value whose phase node need at Y = 1 is above 2^k."""
    xi = 2.0 ** k / (4.0 * sph._SWEEP_SAFETY)
    while 4.0 * xi * sph._SWEEP_SAFETY <= 2.0 ** k:
        xi = math.nextafter(xi, math.inf)
    return xi


def test_phase_nodes_are_the_least_power_of_two_at_or_above_the_need():
    # needs a few ulps above 2^k, whose log2 rounds to k
    for k in (7, 12, 20):
        xi = _need_just_above(k)
        below = math.nextafter(xi, 0.0)
        for y in (1.0, -1.0):
            assert sph._phase_nodes(xi, y) == sph.sl2_sweep_nodes(xi, y) == 2 << k
            assert sph._phase_nodes(below, y) == sph.sl2_sweep_nodes(below, y) == 1 << k


def test_holder_family_and_decay_fit_need_no_mehler_rule(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Mehler-Dirichlet integrand was evaluated")

    monkeypatch.setattr(sph, "_mehler_integrand", refuse)
    family, grid = accept.holder_family()
    assert len(family) == len(accept.HOLDER_SWEEP) and len(grid) == accept.HOLDER_GRID_POINTS
    fit = accept.decay_envelope_fit(1.0, 1.0)
    assert abs(fit.slope + 0.5) <= 0.05
