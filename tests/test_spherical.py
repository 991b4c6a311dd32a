"""Spherical-function numerics against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_legendre

from sphreg import liegroup as lg
from sphreg import spherical as sph
from sphreg.spherical import (
    QuadratureConfig,
    QuadratureError,
    SpectralParameter,
    spherical_sl2,
    spherical_sl3,
)

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
        nu = 1j * (c + 1j * eta) - 0.5
        want = complex(mpmath.legenp(mpmath.mpc(nu), 0, mpmath.cosh(2 * y)))
        assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("xi,eta,y", [(30.0, 0.0, 2.0), (7.0, 0.4, 3.0), (150.0, -0.2, 4.5),
                                      (2000.0, 0.3, 2.5), (1000.0, 0.0, 4.9)])
def test_large_chamber_points_against_legendre_function(xi, eta, y):
    # at large Y the node count grows like |xi Y|; with Laplace's form it grows like xi e^{2Y}
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = complex(mpmath.legenp(mpmath.mpc(-0.5 - eta, xi), 0, mpmath.cosh(2 * y),
                                     type=3))
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
        spherical_sl2(SpectralParameter.rank1(500.0), 2.0, tight)


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
        got = spherical_sl2(SpectralParameter.rank1(xi, eta), y, _pinned(nodes))
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
        got = sph.deriv_spherical_sl2(SpectralParameter.rank1(xi, eta), scale, y, 1,
                                      _pinned(nodes))
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
    nodes = 8192
    xis = np.array([0.5, 9.0, 40.0])
    want = _mehler_full_turn(xis, -0.1, 1.3, nodes)
    got = sph.spherical_sl2_sweep(xis, -0.1, 1.3, nodes)
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("y", [1.3, -0.7])
def test_sweep_at_eta_zero_is_real_and_equals_the_two_product_form(y):
    xis, nodes = np.array([0.5, 9.0, 40.0]), 8192
    got = sph.spherical_sl2_sweep(xis, 0.0, y, nodes)
    theta, weights = sph._folded_grid(nodes, 4)
    s = 2.0 * y * np.cos(theta)
    amplitude = weights * sph.sl2_mehler_amplitude(y, theta)
    phase = np.outer(xis, s)
    want = (np.cos(phase) @ (amplitude * np.cosh(0.0 * s))
            - 1j * (np.sin(phase) @ (amplitude * np.sinh(0.0 * s))))
    assert got.dtype == complex and np.all(got.imag == 0.0)
    assert got.real.tobytes() == want.real.tobytes()


def _full_grid_nested_trapezoid(integrand, fold, config):
    """The doubling loop that slices each level's midpoints from the full
    folded grid: the oracle for the midpoint-only loop."""
    nodes = config.n_start
    theta, weights = sph._folded_grid(nodes, fold)
    current = integrand(theta) @ weights
    while True:
        previous, nodes = current, 2 * nodes
        theta, weights = sph._folded_grid(nodes, fold)
        current = 0.5 * previous + integrand(theta[1::2]) @ weights[1::2]
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
        def integrand(a):
            return np.cosh(w * np.cos(a)) * sph.sl2_mehler_amplitude(y, a)
        got = sph._nested_trapezoid(integrand, fold, config)
        want = _full_grid_nested_trapezoid(integrand, fold, config)
        assert repr(got) == repr(want)
    for n, theta in [(0, 1.0), (17, 2.2), (500, 0.4), (1000, 2.9)]:
        def integrand(phi):
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
    with pytest.raises(ValueError):
        sph.spherical_sl2_sweep(np.array([1.0]), 0.0, 1.0, 2)


def test_sweep_matches_single_evaluations():
    xis = np.array([3.0, 17.0, 40.0])
    swept = sph.spherical_sl2_sweep(xis, 0.0, 1.2, sph.sl2_sweep_nodes(40.0, 1.2))
    for xi, value in zip(xis, swept):
        single = spherical_sl2(SpectralParameter.rank1(xi), 1.2, BIG).value
        assert abs(value - single) <= 1e-9


def test_sl3_identity_and_boundedness():
    v = spherical_sl3(SpectralParameter.rank2((0.4, 0.7)), (0.0, 0.0), samples=10_000)
    assert abs(v.value - 1.0) <= 1e-12

    v = spherical_sl3(SpectralParameter.rank2((0.4, 0.7)), (1.0, 0.0),
                      samples=100_000, seed=3)
    assert abs(v.value) <= 1.0 + 3.0 * v.estimated_error


def test_sl3_matches_high_count_oracle():
    lam = SpectralParameter.rank2((0.0, 0.0))
    coarse = spherical_sl3(lam, (1.0, 0.0), samples=100_000, seed=11)
    oracle = spherical_sl3(lam, (1.0, 0.0), samples=1_000_000, seed=99)
    tolerance = 3.0 * math.hypot(coarse.estimated_error, oracle.estimated_error)
    assert abs(coarse.value - oracle.value) <= tolerance


def test_sl3_deterministic_per_seed():
    lam = SpectralParameter.rank2((0.5, 0.2), (0.1, 0.0))
    a = spherical_sl3(lam, (0.8, 0.1), samples=5_000, seed=7)
    b = spherical_sl3(lam, (0.8, 0.1), samples=5_000, seed=7)
    assert a.value == b.value and a.estimated_error == b.estimated_error


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
    ((1.3, -0.4), (0.2, -0.3), (2.5, -1.0), 2 * 7282 + 5, 5),  # last block partial
    ((0.5, 0.2), (0.1, 0.0), (0.8, 0.1), 5_000, 7),
    ((3.0, 1.0), (0.5, 0.5), (4.0, 1.0), 7282, 8),
    ((0.0, 0.0), (0.0, 0.0), (-1.5, 2.0), 20_001, 11),
]


@pytest.mark.parametrize("xi, eta, a_log, samples, seed", SL3_POINTS)
def test_sl3_matches_qr_oracle(xi, eta, a_log, samples, seed):
    lam = SpectralParameter.rank2(xi, eta)
    value, stderr = _sl3_qr_oracle(lam, a_log, samples, seed)
    got = spherical_sl3(lam, a_log, samples, seed)
    assert got.quadrature_nodes == samples
    assert abs(got.value - value) <= 1e-14
    assert abs(got.estimated_error - stderr) <= 1e-14


def test_sl3_calls_neither_qr_nor_rotation_sampler(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(lg, "haar_so_n_sample", refuse)
    v = spherical_sl3(SpectralParameter.rank2((0.4, 0.7)), (1.0, 0.5), samples=20_000)
    assert abs(v.value) <= 1.0 + 3.0 * v.estimated_error


@pytest.mark.parametrize("seed", [1, 2024])
def test_sl3_block_merge_matches_one_array(seed, monkeypatch):
    lam = SpectralParameter.rank2((0.3, 0.9), (0.1, -0.1))
    merged = spherical_sl3(lam, (1.0, 0.5), 100_003, seed)
    # the same stream as one block: one sum and one two-pass variance
    whole = np.concatenate([z for _, _, z in lg._gaussian_blocks(3, seed, 100_003)])
    monkeypatch.setattr(sph, "_gaussian_blocks", lambda n, s, count: [(0, count, whole)])
    one = spherical_sl3(lam, (1.0, 0.5), 100_003, seed)
    assert abs(merged.value - one.value) <= 1e-15 * abs(one.value)
    assert abs(merged.estimated_error - one.estimated_error) <= 1e-15 * one.estimated_error


def test_sl3_memory_does_not_grow_with_samples():
    lam = SpectralParameter.rank2((0.3, 0.9))
    peaks = []
    for samples in (40_000, 400_000):
        tracemalloc.start()
        try:
            spherical_sl3(lam, (1.0, 0.5), samples, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 6 << 20, peaks
    assert peaks[1] <= 1.2 * peaks[0], peaks


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
    xs = np.linspace(-1, 1, 41)
    degrees = [60, 0, 17, 2, 17, 1, 5]  # unsorted, repeated
    rows = sph.legendre_rows(degrees, xs)
    assert rows.shape == (len(degrees), len(xs))
    for n, row in zip(degrees, rows):
        assert np.allclose(row, eval_legendre(n, xs), rtol=0, atol=1e-12)
    for x in (0.41, -0.93, math.cos(2.2)):
        seq = sph.legendre_sequence(60, x)
        scalar = sph.legendre_rows(degrees, x)
        array = sph.legendre_rows(degrees, np.array([x, 0.5]))[:, 0]
        assert scalar.tobytes() == seq[degrees].tobytes() == array.tobytes()


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
        nu = mpmath.mpc(-0.5 - eta, xi)
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
