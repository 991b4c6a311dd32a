"""Decay fits, leading terms, Holder estimation, exponential sums."""

import math

import numpy as np
import pytest

from sphreg import asymptotics as asy
from sphreg import spherical as sph
from sphreg.accept import load_fixtures
from sphreg.spherical import QuadratureConfig, SpectralParameter


# ---------------------------------------------------------------------------
# decay_fit
# ---------------------------------------------------------------------------

def test_decay_fit_exact_half_power():
    ts = np.geomspace(1, 100, 12)
    fit = asy.decay_fit([(t, t ** -0.5) for t in ts])
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_with_prefactor():
    ts = np.geomspace(2, 50, 10)
    fit = asy.decay_fit([(t, 3.0 * t ** -2.0) for t in ts])
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_decay_fit_input_validation():
    with pytest.raises(ValueError):
        asy.decay_fit([(t, 1.0) for t in range(1, 8)])  # only 7 samples
    with pytest.raises(ValueError):
        asy.decay_fit([(float(t), 1.0) for t in [1, 2, 2, 3, 4, 5, 6, 7]])
    with pytest.raises(ValueError):
        asy.decay_fit([(float(t), -1.0 if t == 3 else 1.0) for t in range(1, 9)])


def test_legendre_envelope_slope():
    from sphreg.accept import legendre_envelope_fit
    fit = legendre_envelope_fit()
    assert abs(fit.slope + 0.5) <= 0.05
    assert fit.r_squared >= 0.95


# ---------------------------------------------------------------------------
# noncompact leading term
# ---------------------------------------------------------------------------

def test_leading_term_triangle_inequality():
    g = asy.spherical_amplitude_sl2(1.0)
    lead = asy.leading_term_sl2(1.0, 1.0, 200.0, g)
    bound = sum(abs(term.amplitude) for term in lead.terms) * 200.0 ** -0.5
    assert abs(lead.total) <= bound + 1e-15


def test_leading_term_zero_amplitude():
    lead = asy.leading_term_sl2(1.0, 1.0, 100.0, lambda theta: np.zeros_like(theta))
    assert lead.total == 0


def test_leading_term_guards():
    g = asy.spherical_amplitude_sl2(1.0)
    with pytest.raises(ValueError):
        asy.leading_term_sl2(0.0, 1.0, 10.0, g)
    with pytest.raises(ValueError):
        asy.leading_term_sl2(1.0, 0.0, 10.0, g)


def test_leading_term_error_order_unit_instance():
    # spectral direction 1, geodesic parameter 1, dyadic scales 50..400
    config = QuadratureConfig(n_start=1024, n_max=1 << 19, target=1e-12, fail=1e-8)
    g = asy.spherical_amplitude_sl2(1.0)
    recorded = load_fixtures()["statphase_sl2_xi1_weighted_max"]
    for t in (50, 100, 200, 400):
        quad = sph.spherical_sl2(SpectralParameter.rank1(t * 1.0), 1.0, config).value
        lead = asy.leading_term_sl2(1.0, 1.0, t, g).total
        assert abs(quad - lead) * t ** 1.5 <= 1.2 * recorded


def test_leading_term_negative_direction_symmetry():
    g = asy.spherical_amplitude_sl2(0.9)
    plus = asy.leading_term_sl2(0.7, 0.9, 120.0, g).total
    minus = asy.leading_term_sl2(-0.7, 0.9, 120.0, g).total
    assert plus == pytest.approx(minus, abs=1e-12)  # real family is even in xi


# ---------------------------------------------------------------------------
# critical angles
# ---------------------------------------------------------------------------

def test_stationary_points_are_quarter_turns():
    angles = asy.stationary_points_check_sl2(1.0, 1.0, tol=1e-3)
    assert angles
    grid_step = 2 * math.pi / 4096
    for angle in angles:
        nearest = round(angle / (math.pi / 2)) * (math.pi / 2)
        assert abs(angle - nearest) <= 2 * grid_step


def test_no_spurious_critical_point():
    d = np.cosh(2.0) + np.sinh(2.0) * math.cos(math.pi / 2)
    derivative = 2.0 * 1.0 * (-math.sinh(2.0) * math.sin(math.pi / 2)) / d
    assert abs(derivative) > 0.1
    angles = asy.stationary_points_check_sl2(1.0, 1.0, tol=0.1)
    assert all(min(abs(a - math.pi / 4), abs(a - 3 * math.pi / 4)) > 0.1 for a in angles)


def test_degenerate_tolerance_returns_all_angles():
    angles = asy.stationary_points_check_sl2(1.0, 1.0, tol=math.inf, grid_size=256)
    assert len(angles) == 256


# ---------------------------------------------------------------------------
# compact branch rules
# ---------------------------------------------------------------------------

def test_hessian_branch_example():
    value = asy.hessian_det_compact_rank1(1, math.pi / 2, +1)
    assert value == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_hessian_modulus_is_sign_independent():
    for y in (0.3, 1.0, 2.8):
        for n in (1, 5, 30):
            plus = asy.hessian_det_compact_rank1(n, y, +1)
            minus = asy.hessian_det_compact_rank1(n, y, -1)
            expected = n ** -0.5 * abs(math.sin(y)) ** -0.5
            assert abs(plus) == pytest.approx(expected, rel=1e-12)
            assert abs(minus) == pytest.approx(expected, rel=1e-12)
            assert minus == pytest.approx(np.conj(plus), abs=1e-15)


def test_hessian_domain_guard():
    with pytest.raises(ValueError):
        asy.hessian_det_compact_rank1(1, 0.0, +1)
    with pytest.raises(ValueError):
        asy.hessian_det_compact_rank1(1, math.pi, -1)
    with pytest.raises(ValueError):
        asy.hessian_det_compact_rank1(1, 1.0, 2)


def test_compact_leading_term_error_order():
    recorded = load_fixtures()["statphase_compact_weighted_max"]
    theta = 1.0
    seq = sph.legendre_sequence(800, math.cos(theta))
    for n in (100, 200, 400, 800):
        err = abs(seq[n] - asy.leading_term_compact(n, theta))
        assert err * n ** 1.5 <= 1.2 * recorded


# ---------------------------------------------------------------------------
# Holder estimation
# ---------------------------------------------------------------------------

def test_holder_constants_are_flat():
    grid = np.linspace(0, 1, 257)
    family = {t: np.full(grid.size, 2.5) for t in (1.0, 2.0, 4.0)}
    report = asy.holder_estimate(family, grid, 0, 0.5)
    assert report.sup_quotients == (0.0, 0.0, 0.0)
    assert report.verdict == "bounded"


def test_holder_linear_function_lipschitz_constant():
    grid = np.linspace(0, 1, 1025)
    report = asy.holder_estimate({1.0: grid.copy()}, grid, 0, 1.0)
    assert report.sup_quotients[0] == pytest.approx(1.0, rel=1e-12)


def test_holder_square_root_constant():
    grid = np.linspace(0, 1, 10_001)
    report = asy.holder_estimate({1.0: np.sqrt(grid)}, grid, 0, 0.5)
    assert 0.95 <= report.sup_quotients[0] <= 1.0 + 1e-12


def test_holder_cosine_family_dichotomy():
    grid = np.linspace(0.0, 1.0, 4097)
    family = {float(t): np.cos(t * grid) / t ** 0.5 for t in (2 ** k for k in range(4, 12))}
    bounded = asy.holder_estimate(family, grid, 0, 0.5)
    growing = asy.holder_estimate(family, grid, 0, 0.7)
    assert bounded.verdict == "bounded"
    assert growing.verdict == "growing"
    assert growing.growth_ratio > 2.0


def test_holder_region_restriction_and_guards():
    grid = np.linspace(0, 1, 129)
    family = {1.0: grid ** 2}
    inside = asy.holder_estimate(family, grid, 0, 1.0, region=(0.0, 0.5))
    assert inside.sup_quotients[0] == pytest.approx(1.0, rel=1e-2)
    with pytest.raises(ValueError):
        asy.holder_estimate(family, grid, 0, 1.5)
    with pytest.raises(ValueError):
        asy.holder_estimate(family, grid, 0, 0.5, region=(2.0, 3.0))
    with pytest.raises(ValueError):
        asy.holder_estimate({1.0: grid[:10]}, grid, 0, 0.5)
    with pytest.raises(ValueError):
        asy.holder_estimate(family, np.array([0.0, 0.1, 0.5]), 0, 0.5)


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

def test_exp_sum_identical_inputs_vanish():
    assert asy.exp_sum_separation([1, 2j], [1, 2j], [0.3, 0.9], [0.3, 0.9], 5, 200) == 0.0


def test_exp_sum_single_frequency():
    assert asy.exp_sum_separation([1], [0], [0.7], [0.7], 3, 50) == pytest.approx(1.0)


def test_exp_sum_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = rng.integers(1, 5)
        fx = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        fy = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        ux, uy = rng.uniform(-3, 3, k), rng.uniform(-3, 3, k)
        mean = asy.exp_sum_separation(fx, fy, ux, uy, 0, 64)
        assert mean >= -1e-12


def test_exp_sum_two_frequency_lower_bound():
    from sphreg.accept import cesaro_two_frequency
    recorded = load_fixtures()["cesaro_two_frequency_mean"]
    mean = cesaro_two_frequency()
    assert mean >= 0.5 * 2.0
    assert mean == pytest.approx(recorded, rel=1e-12)


def test_exp_sum_length_mismatch():
    with pytest.raises(ValueError):
        asy.exp_sum_separation([1], [1, 2], [0.1], [0.1], 0, 10)


# ---------------------------------------------------------------------------
# wall blow-up
# ---------------------------------------------------------------------------

def test_singular_blowup_degree_zero_is_flat():
    report = asy.singular_blowup_check(np.geomspace(1e-4, 0.4, 50), [0, 10])
    assert report.wall_quotients[0] == 0.0


def test_singular_blowup_growth_and_interior():
    thetas = np.geomspace(1e-8, 0.49, 300)
    degrees = [10, 100, 1000, 10_000]
    report = asy.singular_blowup_check(thetas, degrees)
    assert report.wall_growth >= 4.0
    assert all(b > a for a, b in zip(report.wall_quotients, report.wall_quotients[1:]))
    assert report.interior_ratio < 2.0


def _legendre_reference(n, x):
    """The three-term recurrence restarted from degree 0 for one degree."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p if p.ndim else float(p)


def _per_degree_blowup(thetas, n_list, alpha=0.5, interior_theta=0.3):
    """Wall and interior quotients with one recurrence per degree: the
    oracle for the single-pass table."""
    thetas = np.asarray(sorted(thetas), dtype=float)
    wall, interior = [], []
    for n in sorted(int(n) for n in n_list):
        values = _legendre_reference(n, np.cos(thetas))
        allowed = thetas >= (n ** -2 if n > 0 else 0.0)
        quot = np.abs(1.0 - values[allowed]) / thetas[allowed] ** alpha
        wall.append(float(quot.max()))
        p_fixed = _legendre_reference(n, math.cos(interior_theta))
        interior.append(float(abs(1.0 - p_fixed) / interior_theta ** alpha))
    return wall, interior


@pytest.mark.parametrize("thetas", [np.geomspace(1e-8, 0.49, 400), np.geomspace(1e-4, 0.4, 50),
                                    np.linspace(0.49, 0.01, 37)])
@pytest.mark.parametrize("degrees", [
    sorted({int(round(10 ** (1 + 3 * k / 12))) for k in range(13)}),
    [0, 10], [40, 5, 3, 3, 0], [3, 2000, 7, 2000]])
def test_singular_blowup_equals_per_degree_oracle(thetas, degrees):
    report = asy.singular_blowup_check(thetas, degrees)
    wall, interior = _per_degree_blowup(thetas, degrees)
    assert repr(report.wall_quotients) == repr(tuple(wall))
    assert repr(report.interior_quotients) == repr(tuple(interior))


@pytest.mark.parametrize("degrees", [[10, -1], [10 ** 7, 1], []])
def test_singular_blowup_validates_every_degree_before_the_recurrence(monkeypatch, degrees):
    def no_recurrence(*args):
        raise AssertionError("recurrence ran before the degrees were checked")

    monkeypatch.setattr(asy, "legendre_rows", no_recurrence)
    with pytest.raises(ValueError):
        asy.singular_blowup_check([0.01, 0.1], degrees)


def test_singular_blowup_guards():
    with pytest.raises(ValueError):
        asy.singular_blowup_check([0.6], [10])
    with pytest.raises(ValueError):
        asy.singular_blowup_check([0.1], [10], alpha=0.0)
    with pytest.raises(ValueError):
        # no approach angle has reached the n^-2 scale
        asy.singular_blowup_check([1e-4], [10])
