"""Numerical spherical functions.

Noncompact side: the rank-one Harish-Chandra series, with the circle
integral as its fallback, for the degree-2 special linear group, and a
product rule on the sphere over rank-one values for degree 3.
Compact side: the degree-``n`` spherical functions of the 2-sphere, by the
Legendre polynomials and by their oscillatory circle integral.

Spectral parameters are in simple-root coordinates, as in
``rootsys.Covector``.  At rank one ``c`` stands for ``c * alpha`` with
``alpha`` the positive root, so the half-sum of positive roots sits at 1/2
and the bounded region is ``|eta| <= 1/2``.  For degree 3, ``(c1, c2)``
pairs with a traceless diagonal ``(h1, h2, h3)`` as
``c1 (h1 - h2) + c2 (h2 - h3)``.

Rank one.  The abelian coordinate of ``a_Y k_theta``, ``a_Y = diag(e^Y, e^-Y)``,
is ``u = 0.5 log(cosh 2Y + sinh 2Y cos 2theta)`` in closed form.  Laplace's
integral of ``exp((2i xi - 2 eta - 1) u)`` defines the value
``phi = P_nu(cosh 2Y)``, ``nu = i xi - eta - 1/2``.  Values, sweeps and
derivatives follow one rule (``spherical_sl2``), each path with its error:
near the identity the germ ``F(-nu, nu + 1; 1; -sinh^2 Y)`` (DLMF 14.3);
else the Harish-Chandra expansion (Helgason, *Groups and Geometric
Analysis*, ch. IV), at rank one ``P_nu = tan(nu pi) / pi (Q_nu - Q_{-nu-1})``
(DLMF 14.9, Gamma ratios by DLMF 5.11); else the Mehler-Dirichlet form (DLMF
§14.12; the Abel transform of Koornwinder, "Jacobi functions and analysis on
noncompact semisimple Lie groups", 1984), with phase slope at most ``2 |xi
Y|``: ``phi = (1/pi) int_0^pi cosh((i xi - eta) 2Y cos a) / sqrt(sinhc(Y (1 -
cos a)) sinhc(Y (1 + cos a))) da``, ``sinhc x = sinh x / x``.  Laplace's form
remains in ``asymptotics`` and as the tests' oracle.

Rank two.  ``H(a k)`` is closed form: ``h1 = log |a u|``, ``h1 + h2 = log
|a^-1 v|``, ``u = k e1``, ``v = k e3``.  With ``l = (c1, c2 - c1, -c2)``, ``c' =
(l2 - l3) / 2`` and ``nu = i c' - 1/2``, Laplace's first integral (DLMF
§14.12) over ``v`` orthogonal to ``u`` leaves the mean over the sphere of
``r^p P_nu(cosh 2Y')``, ``r = u^T a^2 u``, ``p = (i (l1 - l2) - 1) / 2 + nu /
2``, ``cosh 2Y' = (tr D - u^T D u) / (2 sqrt r)``, ``D = a^-2``.  As it peaks
where ``r`` is smallest, ``u = a^(-1/2) w / |a^(-1/2) w|``, ``dsigma(u) =
|a^(-1/2) w|^-3 dsigma(w)`` (``det a = 1``): with ``q_m = sum a_i^m w_i^2``,
``r = q_1 / q_-1`` and ``cosh 2Y' = sum a_i^-1 (tr D - a_i^-2) w_i^2 / (2
sqrt(q_1 q_-1))``, a sum of positive terms.

Quadrature.  The fallback values, the derivatives' fallback and the compact
values are circle integrals.  Each is the trapezoid rule, which converges
exponentially for smooth periodic integrands (Trefethen and Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014).  The
noncompact integrands depend on the angle only through ``cos 2a`` and the
compact one only through ``cos phi``, so the full-turn rule on ``N`` nodes
equals the rule on a quarter (half) turn with ``N / 4`` (``N / 2``)
intervals and half-weight endpoints.  Doubling nests: each level evaluates
only the midpoints of the level before (``_nested_trapezoid``).  Each rule
(a level's folded grid, or its midpoints) is built once per ``(nodes,
fold)``, with its weights and the grid-only factors the integrands read
(``cos a``, ``sin a``, ``sin^2(a/2)``); its arrays are read-only, and rules
of at most 16384 points are kept for the process.  A non-finite level
estimate raises ``QuadratureError``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _ONE_THREAD_MADDS

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "SpectralParameter",
    "SphericalValue",
    "deriv_spherical_sl2",
    "legendre",
    "legendre_rows",
    "legendre_sequence",
    "sl2_chamber_coordinate",
    "sl2_sweep_nodes",
    "sl2_chamber_derivatives",
    "spherical_compact_su2",
    "spherical_sl2",
    "spherical_sl2_sweep",
    "spherical_sl3",
]


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within the configured node budget."""


@dataclass(frozen=True)
class SpectralParameter:
    """Spectral parameter xi + i eta, both in simple-root coordinates."""

    xi: tuple[float, ...]
    eta: tuple[float, ...]

    @staticmethod
    def rank1(xi: float, eta: float = 0.0) -> "SpectralParameter":
        return SpectralParameter((float(xi),), (float(eta),))

    @staticmethod
    def rank2(xi, eta=(0.0, 0.0)) -> "SpectralParameter":
        return SpectralParameter(tuple(map(float, xi)), tuple(map(float, eta)))


@dataclass(frozen=True)
class SphericalValue:
    """A spherical function value and how it was produced.  ``path`` names
    the method: ``"small-y"`` or ``"series"`` (a rank-one series; then
    ``quadrature_nodes`` holds its term count and ``estimated_error`` its
    tail-plus-rounding bound), ``"trapezoid"`` (a circle integral; the final
    full-turn node count and the last level difference) or ``"cubature"``
    (rank two; the integrand evaluations and the estimate of
    ``spherical_sl3``)."""

    value: complex
    quadrature_nodes: int
    estimated_error: float
    path: str


@dataclass(frozen=True)
class QuadratureConfig:
    """Node-doubling trapezoid control.

    Doubling starts at ``n_start`` nodes and stops when two consecutive
    levels agree to ``target`` (absolute, relative to max(1, |value|)) or at
    ``n_max`` nodes; a final disagreement above ``fail`` raises.  Node counts
    are full-turn nodes, of which the folded rule evaluates a quarter (a half
    for the compact integral); ``n_start`` must be a multiple of 4.
    """

    n_start: int = 64
    n_max: int = 8192
    target: float = 1e-12
    fail: float = 1e-7

    def __post_init__(self):
        if self.n_start < 4 or self.n_start % 4:
            raise ValueError(f"n_start {self.n_start} is not a positive multiple of 4")


DEFAULT_CONFIG = QuadratureConfig()
SWEEP_NODE_CEILING = 1 << 24  # full-turn nodes; sl2_sweep_nodes raises above it
T_GEO_MAX = 5.0  # chamber points with |Y| above it raise ValueError
LEGENDRE_MAX_DEGREE = 1 << 20  # legendre_rows and legendre_sequence raise above it, up front
_LEGENDRE_BLOCK = 64  # terms per block of legendre_rows, a power of two
_SWEEP_SAFETY = 1.3  # margin of sl2_sweep_nodes over the phase bandwidth
_SWEEP_FLOOR = 64  # full-turn nodes that resolve the amplitude at any Y


def sl2_chamber_coordinate(t_geo: float, theta) -> np.ndarray:
    """Abelian coordinate of a_Y k_theta in the factorization, closed form."""
    return 0.5 * np.log(np.cosh(2.0 * t_geo) + np.sinh(2.0 * t_geo) * np.cos(2.0 * theta))


def sl2_chamber_derivatives(t_geo: float, theta, order: int):
    """(u, u', u'', u''')[:order + 1] of the chamber coordinate with respect
    to the geodesic parameter, evaluated on an angle grid: the factors of
    Laplace's form of the derivatives, which no value or derivative here uses."""
    cos2 = np.cos(2.0 * theta)
    d = np.cosh(2.0 * t_geo) + np.sinh(2.0 * t_geo) * cos2
    u1 = (np.sinh(2.0 * t_geo) + np.cosh(2.0 * t_geo) * cos2) / d
    u2 = 2.0 - 2.0 * u1 ** 2
    return [0.5 * np.log(d), u1, u2, -4.0 * u1 * u2][:order + 1]


class _Rule:
    """A folded trapezoid rule: its angles and weights, and the grid-only
    factors of the integrands, each computed on first use.  Every array is
    read-only, since rules are shared."""

    def __init__(self, angles: np.ndarray, weights: np.ndarray):
        self.angles, self.weights = _read_only(angles), _read_only(weights)

    @cached_property
    def cos(self) -> np.ndarray:
        return _read_only(np.cos(self.angles))

    @cached_property
    def sin(self) -> np.ndarray:
        return _read_only(np.sin(self.angles))

    @cached_property
    def sin2_half(self) -> np.ndarray:
        """``sin^2(a / 2)``, the angle factor of the Mehler-Dirichlet amplitude."""
        return _read_only(np.sin(0.5 * self.angles) ** 2)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Rules of at most this many points (256 KiB of complex values) are kept for
# the process; a larger one is built at each use.
_ELIDE_POINTS = 1 << 14
_RULES: dict[tuple[int, int, bool], _Rule] = {}


def _folded_grid(nodes: int, fold: int, midpoints: bool = False) -> _Rule:
    """The full-turn ``nodes``-point trapezoid rule folded onto
    [0, 2 pi / fold], for integrands even about 0 and periodic with period
    4 pi / fold; the weights sum to one.  With ``midpoints``, only its points
    not in the rule on half as many nodes (the odd-numbered ones)."""
    key = (operator.index(nodes), fold, midpoints)
    rule = _RULES.get(key)
    if rule is None:
        m = nodes // fold
        if m < 1 or nodes % fold:
            raise ValueError(f"node count {nodes} is not a positive multiple of {fold}")
        if midpoints:
            angles = (2.0 * np.pi / fold) * np.arange(1, m, 2) / m
            weights = np.full(len(angles), 1.0 / m)
        else:
            weights = np.full(m + 1, 1.0 / m)
            weights[[0, -1]] *= 0.5
            angles = (2.0 * np.pi / fold) * np.arange(m + 1) / m
        rule = _Rule(angles, weights)
        if len(angles) <= _ELIDE_POINTS:
            _RULES[key] = rule
    return rule


def _nested_trapezoid(integrand, fold: int, config: QuadratureConfig):
    """Folded trapezoid rule over doubling levels: ``integrand(rule)`` on the
    folded grid of ``config.n_start`` nodes, then on the midpoint rule of each
    next level, added to half the level before, until two levels agree to
    ``config.target`` or ``config.n_max`` is reached.  ``.dot`` reaches the
    BLAS dot product that ``@`` does, without the ufunc dispatch that casts
    the weights per call.  A level whose estimate is not finite raises
    ``QuadratureError``.
    Returns (value, full-turn nodes, estimated_error)."""
    nodes = config.n_start
    rule = _folded_grid(nodes, fold)
    current = integrand(rule).dot(rule.weights)
    while True:
        previous, nodes = current, 2 * nodes
        rule = _folded_grid(nodes, fold, midpoints=True)
        current = 0.5 * previous + integrand(rule).dot(rule.weights)
        err = abs(current - previous)
        if not math.isfinite(err):
            raise QuadratureError(f"trapezoid rule estimate {err} at {nodes} nodes "
                                  "is not finite")
        scale = max(1.0, abs(current))
        if err <= config.target * scale:
            return current, nodes, err
        if nodes >= config.n_max:
            if err > config.fail * scale:
                raise QuadratureError(f"trapezoid rule did not converge: estimate "
                                      f"{err:.3e} at {nodes} nodes")
            return current, nodes, err


_TINY = np.finfo(float).tiny


def _mehler_amplitude(t_geo, sin2_half) -> np.ndarray:
    """``1 / sqrt(sinhc(x1) sinhc(x2))``, the Mehler-Dirichlet amplitude, from
    ``sin2_half = sin^2(a/2)``: ``x1 = Y (1 - cos a) = 2Y sin^2(a/2)`` and
    ``x2 = 2Y - x1``.  Both are clamped at the smallest normal float, so
    ``x / sinh x`` is 1 at ``x = 0``."""
    y = 2.0 * np.abs(t_geo)
    x1 = np.maximum(y * sin2_half, _TINY)
    x2 = np.maximum(y - x1, _TINY)
    return np.sqrt((x1 / np.sinh(x1)) * (x2 / np.sinh(x2)))


def _mehler_integrand(amplitude, s, xi, eta: float) -> np.ndarray:
    """``amplitude * cosh((i xi - eta) s)``, the Mehler-Dirichlet integrand at
    ``s = 2Y cos a``; at ``eta == 0`` it is the real ``amplitude * cos(xi s)``."""
    if eta == 0.0:
        return amplitude * np.cos(xi * s)
    return amplitude * np.cosh((1j * xi - eta) * s)


def _check_finite(lam: SpectralParameter, point: str, *coordinates: float) -> None:
    """Refuse a non-finite spectral value or chamber point; ``point`` is the
    format of the coordinates in the message, filled only when it raises."""
    if not all(map(math.isfinite, (*coordinates, *lam.xi, *lam.eta))):
        raise ValueError(f"non-finite spectral value {lam} or chamber point "
                         f"{point.format(*coordinates)}")


def _check_phase(lam: SpectralParameter, t_geo: float) -> None:
    """Refuse a rank-one value whose phase ``2 Y (i xi - eta)`` overflows."""
    y2 = 2.0 * abs(t_geo)
    if not (math.isfinite(y2 * abs(lam.xi[0])) and math.isfinite(y2 * abs(lam.eta[0]))):
        raise ValueError(f"phase 2 Y (i xi - eta) overflows at spectral value {lam}, "
                         f"Y={t_geo:g}")


def _phase_nodes(xi: float, t_geo: float) -> int:
    """The count rule of ``sl2_sweep_nodes`` without its checks: the least power
    of two at or above ``max(4 |xi Y| _SWEEP_SAFETY, _SWEEP_FLOOR)``, or twice
    ``SWEEP_NODE_CEILING`` where that need is above the ceiling or not finite."""
    need = max(4.0 * abs(xi) * abs(t_geo) * _SWEEP_SAFETY, float(_SWEEP_FLOOR))
    if not need <= SWEEP_NODE_CEILING:
        return 2 * SWEEP_NODE_CEILING
    mantissa, exponent = math.frexp(need)  # need = mantissa 2^exponent, 1/2 <= mantissa < 1
    return 1 << (exponent - 1 if mantissa == 0.5 else exponent)


# Coefficients of z^-1, z^-3, ..., z^-15 in log(sqrt(z) Gamma(z) / Gamma(z + 1/2)):
# (-1)^(k+1) (B_{k+1}(0) - B_{k+1}(1/2)) / (k (k + 1)), odd k (DLMF 5.11.8; the
# even-k coefficients vanish).  From |z| >= 12 the first omitted term is below 1e-19.
_GAMMA_RATIO_TERMS = (1 / 8, -1 / 192, 1 / 640, -17 / 14336, 31 / 18432, -691 / 180224,
                      5461 / 425984, -929569 / 15728640)
_EPS = 2.0 ** -52
_LOG_TAIL = math.log(0.125 * _EPS)  # a Q-series' tail is summed below eps / 8 of |a_0|
_SQRT_PI = math.sqrt(math.pi)
# Cost model, in units of one Mehler-Dirichlet node (about 20 ns): a value by
# quadrature costs its phase node count plus about 600 for the call and the
# doubling; a series term costs about 16.  Each Q-series needs about
# 10 / |Y| terms to reach roundoff, and at eta = 0 only one is summed.
_SERIES_TERM_COST = 16.0
_MEHLER_FIXED_COST = 600.0
_SERIES_TERMS_Y = 10.0
_SERIES_MAX_TERMS = 4096  # per Q-series; a bound that needs more is reported as inf
_SERIES_BLOCK = 1 << 20  # elements per array of a series sweep's block of spectral values


def _gamma_ratio(z):
    """``Gamma(z) / Gamma(z + 1/2)`` for ``Re z >= 0``, ``z != 0``: shifted up to
    ``|z| >= 12`` by ``Gamma(z) / Gamma(z + 1/2) = (z + 1/2) / z * Gamma(z + 1) /
    Gamma(z + 3/2)``, then ``z^-1/2 exp(sum)`` over ``_GAMMA_RATIO_TERMS``.  No
    log-gamma is formed, whose imaginary part (about ``|z| log |z|``) would
    round to an absolute error far above the ratio's.  ``z`` is a complex or
    a complex array, whose entries each take the shifts a scalar would."""
    if isinstance(z, np.ndarray):
        xp, z, factor = np, z.copy(), np.ones_like(z)
        while (small := np.abs(z) < 12.0).any():
            factor[small] *= (z[small] + 0.5) / z[small]
            z[small] += 1.0
    else:
        xp, factor = cmath, 1.0
        while abs(z) < 12.0:
            factor *= (z + 0.5) / z
            z += 1.0
    w, total = 1.0 / (z * z), 0.0
    for c in reversed(_GAMMA_RATIO_TERMS):
        total = total * w + c
    return factor * xp.exp(total / z) / xp.sqrt(z)


def _value_terms(t):
    """Terms of an order-0 Q-series at ``t = 2|Y| > 0`` (a float or an
    array), not yet rounded up: ``K`` terms leave a tail of at most
    ``|a_0| z^K / (1 - z)``, ``z = e^{-2t}``, and this ``K`` puts it below
    ``|a_0| eps / 8``."""
    xp = np if isinstance(t, np.ndarray) else math
    return (_LOG_TAIL + xp.log(-xp.expm1(-2.0 * t))) / (-2.0 * t)


def _value_weight_and_tail(first, last, z):
    """Rounding weight and tail bound of an order-0 Q-series summed to term
    ``K``, from ``first = |a_0|`` and ``last = |a_K|``: every term ratio is at
    most ``z``, so ``sum (k + 1) |a_k| <= |a_0| / (1 - z)^2`` and the terms from
    ``K`` on add up to at most ``|a_K| / (1 - z)``.  Floats or arrays."""
    return first / (1.0 - z) ** 2, last / (1.0 - z)


def _series_bound(factor, tail, weight, xi, t):
    """The error bound of ``_harish_chandra_series``: the Q-series' tails plus
    16 ulps of ``|tan(nu pi) / pi|`` times their rounding weights, with
    ``|xi t|`` ulps more for the rounded phase.  Floats or arrays."""
    return abs(factor) * (tail + _EPS * (16.0 + abs(xi) * t) * weight)


def _series_valid(xi, eta: float, y):
    """Whether the series and its bound hold at ``|Y| = y``: ``|eta| <= 1/2``
    (the ratio bound), ``y > 0``, and ``nu`` off the ``tan`` pole (``xi = eta
    = 0``) and the Gamma ratios' poles (``xi = 0``, ``eta = +-1/2``).
    Elementwise on arrays ``xi`` and ``y``."""
    return (abs(eta) <= 0.5) & (y > 0.0) & ((xi != 0.0) | (abs(eta) not in (0.0, 0.5)))


def _small_y_valid(xi, eta: float, y):
    """Whether ``_small_y_series`` is the rule at ``|Y| = y``, ``y = 0``
    included; elementwise on arrays ``xi`` and ``y``."""
    return (abs(xi) * y <= 1.0) & (abs(eta) * y <= 1.0) & (y <= 0.5)


def _small_y_series(s, y, order: int):
    """``phi^(order)`` (orders 0-3) at ``Y = y`` as ``(value, bound, terms)``
    from ``G(x) = F(-nu, nu + 1; 1; -x) = sum g_k x^k``, ``x = sinh^2 Y`` (DLMF
    14.3), ``s = nu + 1/2 = i xi - eta``: a complex and a float, or arrays of
    one shape.  As ``|g_{k+1} / g_k| = |(s - k - 1/2) (s + k + 1/2)| / (k +
    1)^2 <= 1 + |s|^2 / (K + 1)^2`` for ``k >= K``, the tail of ``G^(m) / m!``
    after term ``K`` is at most ``C(K, m) |g_K| x^(K-m) r_m / (1 - r_m)``, ``r_m
    = x (1 + |s|^2 / (K + 1)^2) (K + 1) / (K + 1 - m) > x``; terms are added
    until it is below ``|g_order|`` eps / 8 at ``m = order``.  Each ``G^(m) /
    m!`` is off by its tail plus 16 ulps of ``W_m = sum (k + 1) C(k, m) |g_k|
    x^(k-m) <= (m + 1) (|g_m| + x W_(m+1))``: term ``k`` carries roundings from
    each step, and at ``eta = 0`` the terms alternate, so the largest sets it.
    ``g_k`` and ``x`` are kept over ``scale^2k`` and times ``scale^2``, a power
    of two, to stay in range.  Chained through ``x' = sinh 2Y``, the
    derivatives need no ``coth 2Y``, so the limits at ``Y -> 0`` hold.  An
    array call sums every point to the call's largest ``K`` and bounds each
    point's tail at that ``K``; ``_small_y_valid`` keeps ``K`` small (under 40
    at orders 0-3)."""
    xp, every = (np, np.all) if isinstance(y, np.ndarray) else (math, bool)
    e, sinh = xp.frexp(0.25 * abs(s.real) + 0.25 * abs(s.imag))[1], xp.sinh(y)
    scale = xp.ldexp(1.0, e * (e > 0))  # above |s| / 4, at least 1
    s, x, x0 = s / scale, (scale * sinh) ** 2, sinh * sinh  # x0 unscaled
    size = abs(s) ** 2 * x  # |s|^2 sinh^2 Y

    def tail(m):  # r_m after term k, and term k of G^(m) / m! times r_m, from c = g_k
        r = (x0 + size / ((k + 1) * (k + 1))) * (k + 1) / (k + 1 - m)
        return r, math.comb(k, m) * abs(c) * x ** (k - m) * r
    c, g, k = 1.0, [1.0], 0  # c = g_k
    while True:
        if k >= order:
            if k == order:  # power = C(k, order) x^(k - order)
                power, weight, limit = 1.0, 0.0, 0.125 * _EPS * abs(c)
            term = power * abs(c)  # term k of G^(order) / order!
            weight = weight + (k + 1) * term
            if every(term * x0 <= limit * (1.0 - x0)):  # as r > x0
                r, t = tail(order)
                if every((r < 1.0) & (t <= limit * (1.0 - r))):
                    break
            power = power * (x * ((k + 1) / (k + 1 - order)))
        c = c * ((s - (k + 0.5) / scale) * (s + (k + 0.5) / scale)) / ((k + 1) * (k + 1))
        g.append(c)
        k += 1
    h = [0.0] * 4  # G^(m) / m!, by Horner's rule
    for coefficient in reversed(g):
        if order:
            h[3], h[2], h[1] = h[3] * x + h[2], h[2] * x + h[1], h[1] * x + h[0]
        h[0] = h[0] * x + coefficient
    grow = scale * scale if order else 1.0  # h_m lacks scale^2m, which x1, x2 supply
    x1, x2 = xp.sinh(2.0 * y) * grow, 2.0 * xp.cosh(2.0 * y) * grow  # x', x''
    factors = ((1.0,), (0.0, x1), (0.0, x2, 2.0 * x1 * x1),
               (0.0, 4.0 * x1, 6.0 * x1 * x2, 6.0 * x1 * x1 * x1))[order]  # of each G^(m) / m!
    value = bound = 0.0
    for m in range(order, min(order, 1) - 1, -1):
        r, t = tail(m)
        value = value + factors[m] * h[m]
        bound = bound + abs(factors[m]) * (t / (1.0 - r) + 16.0 * _EPS * weight)
        weight = m * (abs(g[m - 1]) + x * weight)  # a bound on W_(m-1)
    return value, bound, k + 1


def _q_series(b: complex, t: float, order: int) -> tuple[complex, float, float, int]:
    """``d^order/dY^order`` of ``Q_{b-1}(cosh t) / sqrt(pi)`` at ``t = 2Y``, as
    ``(sum, rounding weight, tail bound, terms)``.  Term ``k`` of
    ``Gamma(b) / Gamma(b + 1/2) e^{-bt} F(1/2, b; b + 1/2; e^{-2t})`` is
    ``a_k e^{-(b + 2k) t}``, and its derivative carries ``(-2 (b + 2k))^order``.
    With ``Re b >= 0`` and ``z = e^{-2t}``, ``|a_{k+1} / a_k| <= z``, and the
    ratio of derivative terms ``k + 1`` and ``k`` is at most
    ``r_k = z (1 + 2 / |b + 2k|)^order``, which does not grow with ``k``; so
    the tail after term ``k`` is at most ``|term_k| r_k / (1 - r_k)``.  The
    terms stop once that is below an eighth of an ulp of their absolute sum;
    for the value, whose ratio bound is ``z`` throughout, the count is known
    in advance.  The rounding weight bounds ``sum (k + 1) |term_k|``, since
    term ``k`` carries a few roundings from each step before it."""
    z = math.exp(-2.0 * t)
    coefficient = _SQRT_PI * _gamma_ratio(b) * cmath.exp(-b * t)
    total, h = 0j, b + 0.5
    if order == 0:
        count = _value_terms(t) if t > 0.0 else math.inf
        if not count <= _SERIES_MAX_TERMS:
            return total, math.inf, math.inf, 0
        count, first = math.ceil(count), abs(coefficient)
        for k in range(count):
            total += coefficient
            # b + k keeps the low bits of a small b, which b + 1/2 rounds away
            coefficient *= (b + k) / (h + k) * (z * (k + 0.5) / (k + 1))
        weight, tail = _value_weight_and_tail(first, abs(coefficient), z)
        return total, weight, tail, count
    weight = magnitude = 0.0
    for k in range(_SERIES_MAX_TERMS):
        term, factor, ratio = coefficient, -2.0 * (b + 2 * k), z
        growth = 1.0 + 2.0 / abs(b + 2 * k)
        for _ in range(order):  # products, not powers, which raise on overflow
            term *= factor
            ratio *= growth
        size = abs(term)
        total += term
        magnitude += size
        weight += (k + 1) * size
        if ratio < 1.0 and size * ratio <= 0.125 * _EPS * magnitude * (1.0 - ratio):
            return total, weight, size * ratio / (1.0 - ratio), k + 1
        coefficient *= (b + k) / (h + k) * (z * (k + 0.5) / (k + 1))
    return total, weight, math.inf, _SERIES_MAX_TERMS


def _tan_nu_pi(xi, eta: float):
    """``tan(nu pi)``, ``nu = i xi - eta - 1/2``, from an argument whose real
    part is reduced into [-1/4, 1/4] by the period and ``tan(x - pi/2) =
    -cot x``, so its zeros and poles at ``xi = 0`` are taken at small
    arguments, where they are accurate.  ``xi`` is a float or an array."""
    cot = abs(eta) <= 0.25
    real = -eta if cot else math.copysign(0.5, eta) - eta
    if isinstance(xi, np.ndarray):
        tan = np.tan(math.pi * (real + 1j * xi))
    else:
        tan = cmath.tan(math.pi * complex(real, xi))
    return -1.0 / tan if cot else tan


def _accepted_series(xi: float, eta: float, t_geo: float, order: int,
                     config: QuadratureConfig) -> SphericalValue | None:
    """The small-``Y`` series where ``_small_y_valid`` holds; else the
    Harish-Chandra series where ``_series_valid`` and a cost model favour it
    and its bound meets ``config.target`` relative to ``max(1, |value|)``;
    else None.  The model weighs about ``20 / |Y|`` terms against the phase
    node count and fixed cost of the quadrature: it refuses small ``|Y|``."""
    y = abs(t_geo)
    if _small_y_valid(xi, eta, y):
        value, bound, terms = _small_y_series(complex(-eta, xi), t_geo, order)
        return SphericalValue(complex(value), terms, bound, "small-y")
    if not _series_valid(xi, eta, y):
        return None
    cost = (1.0 if eta == 0.0 else 2.0) * _SERIES_TERM_COST * _SERIES_TERMS_Y
    if (cost > y * (_MEHLER_FIXED_COST + _SWEEP_FLOOR)
            and cost > y * (_MEHLER_FIXED_COST + _phase_nodes(xi, t_geo))):
        return None
    value = _harish_chandra_series(xi, eta, t_geo, order)
    if value.estimated_error <= config.target * max(1.0, abs(value.value)):
        return value
    return None


def _harish_chandra_series(xi: float, eta: float, t_geo: float,
                           order: int = 0) -> SphericalValue:
    """``phi^(order)`` at ``Y = t_geo`` from ``P_nu(cosh t) = tan(nu pi) / pi
    (Q_nu - Q_{-nu-1})`` (DLMF 14.9), ``nu = i xi - eta - 1/2``, ``t = 2|Y|``,
    each Q by ``_q_series`` (DLMF 14.3).  The error is the two tails plus a
    rounding term: 16 ulps of ``|tan(nu pi) / pi|`` times the Q-series'
    rounding weights, with ``|xi t|`` ulps more for the rounded phase.  At
    ``eta = 0`` the second series is the conjugate of the first and is not
    summed, so the value is real.  Requires ``|eta| <= 1/2`` (the ratio bound),
    ``nu`` off the poles at ``xi = 0`` (``eta = 0, +-1/2``) and, for
    ``order > 0``, ``Y > 0``.  A value or bound that leaves the float range, or
    a ``Y`` too small for ``_SERIES_MAX_TERMS``, is reported with an infinite
    bound."""
    t = 2.0 * abs(t_geo)
    try:
        q, weight, tail, terms = _q_series(complex(0.5 - eta, xi), t, order)
        if eta == 0.0:
            difference, weight, tail = 2j * q.imag, 2.0 * weight, 2.0 * tail
        else:
            q2, weight2, tail2, terms2 = _q_series(complex(0.5 + eta, -xi), t, order)
            difference, weight, tail, terms = (q - q2, weight + weight2, tail + tail2,
                                               terms + terms2)
        factor = _tan_nu_pi(xi, eta) / math.pi
        value = factor * difference
        bound = _series_bound(factor, tail, weight, xi, t)
    except OverflowError:  # abs() of a complex with finite parts above the float range
        value, bound, terms = complex(math.nan, math.nan), math.inf, 0
    if not (cmath.isfinite(value) and math.isfinite(bound)):
        bound = math.inf
    return SphericalValue(complex(value), terms, bound, "series")


def spherical_sl2(
    lam: SpectralParameter, t_geo: float, config: QuadratureConfig = DEFAULT_CONFIG
) -> SphericalValue:
    """Spherical function of the degree-2 special linear group at
    a_Y = diag(e^Y, e^-Y), Y = ``t_geo``; exact value 1 at the identity.
    One rule, shared with ``spherical_sl2_sweep`` and ``deriv_spherical_sl2``:
    where ``_small_y_valid`` holds, the series of ``F(-nu, nu + 1; 1; -sinh^2
    Y)`` (path ``"small-y"``); else, where ``_series_valid`` holds and about
    ``20 / |Y|`` terms cost less than the phase node count, the Harish-Chandra
    series (path ``"series"``) if its bound meets ``config.target``; else the
    Mehler-Dirichlet integral (path ``"trapezoid"``), which needs ``2
    sl2_sweep_nodes(xi, Y)`` nodes.  ``DEFAULT_CONFIG`` serves ``|xi Y|`` up to
    about 2000 (``xi = 1990`` returns and 2010 raises at ``eta = 0.75``, ``Y =
    1``), and ``_mehler_config(xi, Y)`` past it.  Levels still apart by more
    than ``config.fail`` at ``config.n_max`` raise ``QuadratureError``, which
    names that count.  A non-finite input, or one whose phase ``2 Y (i xi -
    eta)`` overflows, raises ``ValueError``."""
    if abs(t_geo) > T_GEO_MAX:
        raise ValueError(f"chamber point Y={t_geo:g} outside |Y| <= {T_GEO_MAX:g}")
    _check_finite(lam, "Y={:g}", t_geo)
    _check_phase(lam, t_geo)
    series = _accepted_series(lam.xi[0], lam.eta[0], t_geo, 0, config)
    try:
        return series or _spherical_sl2_mehler(lam, t_geo, config)
    except QuadratureError as exc:
        raise QuadratureError(f"{exc}; xi={lam.xi[0]:g} at Y={t_geo:g} needs "
                              f"{2 * _phase_nodes(lam.xi[0], t_geo)} nodes "
                              f"(2 sl2_sweep_nodes), n_max is {config.n_max}") from exc


def _spherical_sl2_mehler(lam: SpectralParameter, t_geo: float,
                          config: QuadratureConfig) -> SphericalValue:
    """``spherical_sl2`` by the Mehler-Dirichlet integral on the folded,
    nested trapezoid rule, for a checked input."""
    xi, eta = lam.xi[0], lam.eta[0]
    value, nodes, err = _nested_trapezoid(
        lambda rule: _mehler_integrand(_mehler_amplitude(t_geo, rule.sin2_half),
                                       2.0 * t_geo * rule.cos, xi, eta),
        4, config)
    return SphericalValue(complex(value), nodes, float(err), "trapezoid")


def sl2_sweep_nodes(xi_peak: float, t_geo: float) -> int:
    """Power-of-two full-turn node count for the Mehler-Dirichlet integrand at
    spectral values up to ``xi_peak``.  The phase ``2 xi Y cos a`` has Fourier
    modes ``J_n(2 |xi Y|)``, negligible past ``n = 2 |xi Y|``; the ``N``-node
    trapezoid rule is exact below mode ``N``, and ``_SWEEP_SAFETY`` times twice
    that covers it.  ``_SWEEP_FLOOR`` covers the amplitude, of width about
    ``1 / sqrt(Y)`` in ``a``.  A count above ``SWEEP_NODE_CEILING`` raises
    ``ValueError``."""
    if not (math.isfinite(xi_peak) and math.isfinite(t_geo)):
        raise ValueError(f"non-finite spectral value {xi_peak} or chamber point {t_geo}")
    nodes = _phase_nodes(xi_peak, t_geo)
    if nodes > SWEEP_NODE_CEILING:
        raise ValueError(f"spectral value {xi_peak:g} at Y={t_geo:g} needs more than "
                         f"{SWEEP_NODE_CEILING} quadrature nodes")
    return nodes


def _mehler_config(xi: float, y: float) -> QuadratureConfig:
    """Adaptive rank-one rule for spectral values up to ``xi`` at ``Y = y``:
    at most twice the count ``sl2_sweep_nodes`` gives, and at least 8192 nodes."""
    return QuadratureConfig(n_start=1024, n_max=max(8192, 2 * sl2_sweep_nodes(xi, y)),
                            target=1e-12, fail=1e-7)


def spherical_sl2_sweep(xis, eta: float, t_geo) -> np.ndarray:
    """Values at the real spectral values ``xis`` (any shape) plus ``i eta``, at
    the chamber points ``t_geo`` (a scalar or a 1-D grid); complex, of shape
    ``shape(t_geo) + shape(xis)``, with an imaginary part of exactly 0 at
    ``eta == 0``.  Each point takes the rule of ``spherical_sl2``: the
    small-``Y`` series in one array pass; the Harish-Chandra series for the
    whole grid (``_harish_chandra_sweep``; bounds within
    ``DEFAULT_CONFIG.target``, no cost model, as a vectorised term costs almost
    nothing); else ``_spherical_sl2_mehler`` under ``_mehler_config(xi, Y)``.
    A non-finite input, a count above ``SWEEP_NODE_CEILING`` or a chamber
    point with ``|Y| > T_GEO_MAX`` raises ``ValueError`` before any value."""
    xs, ys = np.asarray(xis, dtype=float), np.asarray(t_geo, dtype=float)
    if not (math.isfinite(eta) and np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("non-finite spectral value or chamber point in a sweep")
    # the count grows with |xi|, so the largest is the one to check
    y_max = float(np.abs(ys).max(initial=0.0))
    sl2_sweep_nodes(float(np.abs(xs).max(initial=0.0)), y_max)
    if y_max > T_GEO_MAX:
        raise ValueError(f"chamber point |Y|={y_max:g} outside |Y| <= {T_GEO_MAX:g}")
    row, column = xs.ravel(), ys.ravel()
    out = np.empty((column.size, row.size), dtype=complex)
    near = _small_y_valid(row, eta, np.abs(column)[:, None])
    if near.any():
        i, j = np.nonzero(near)
        values = _small_y_series(1j * row[j] - eta, column[i], 0)[0]
        out[i, j] = values.real if eta == 0.0 else values  # fused products leave ulps in Im
    series = _series_valid(row, eta, np.abs(column)[:, None]) & ~near
    rows, cols = series.any(axis=1), series.any(axis=0)
    if rows.any():
        grid = np.ix_(rows, cols)
        values, bounds = _harish_chandra_sweep(row[cols], eta, column[rows])
        series[grid] &= bounds <= DEFAULT_CONFIG.target * np.maximum(1.0, np.abs(values))
        out[grid] = np.where(series[grid], values, out[grid])
    for i, j in zip(*np.nonzero(~(near | series))):
        xi, y = float(row[j]), float(column[i])
        out[i, j] = _spherical_sl2_mehler(SpectralParameter.rank1(xi, eta), y,
                                          _mehler_config(xi, y)).value
    return out.reshape(ys.shape + xs.shape)


@np.errstate(all="ignore")
def _harish_chandra_sweep(xis: np.ndarray, eta: float,
                          ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_harish_chandra_series`` at order 0 on the grid ``ys x xis`` (both
    1-D): the values (real at ``eta == 0``) and their bounds, each of shape
    ``(len(ys), len(xis))``, under the scalar's requirements.  Term ``k`` of a
    Q-series is ``a_0 c_k z^k``, ``z = e^{-4|Y|}``, where ``c_k``, the product of
    the term ratios without their ``z``, does not depend on ``Y``: so the
    ``c_k`` are one cumulative product per spectral value, and each row sums
    its ``_value_terms`` of them by Horner's rule in ``z``, from the rows with
    the most terms down.  Every term ratio is still at most ``z``, so the
    weight, the tail and the bound are the scalar's.  A value or bound that
    is not finite, or a row that needs more than ``_SERIES_MAX_TERMS``, has
    an infinite bound.  Spectral values are taken a block at a time, with
    about ``_SERIES_BLOCK`` elements per array, so memory stays bounded
    however many terms the smallest ``|Y|`` needs."""
    t = 2.0 * np.abs(ys)
    z = np.exp(-2.0 * t)
    terms = np.ceil(_value_terms(t))
    terms = np.where(terms <= _SERIES_MAX_TERMS, terms, 0).astype(int)
    step = max(1, _SERIES_BLOCK // (2 * (terms.max(initial=0) + 1 + len(ys))))
    if len(xis) > step:
        blocks = [_harish_chandra_sweep(xis[i:i + step], eta, ys)
                  for i in range(0, len(xis), step)]
        return tuple(np.concatenate(parts, axis=1) for parts in zip(*blocks))
    b = (0.5 - eta) + 1j * xis
    if eta != 0.0:  # Q_nu and Q_{-nu-1}; at eta == 0 the second is the conjugate
        b = np.concatenate([b, (0.5 + eta) - 1j * xis])
    first = _SQRT_PI * _gamma_ratio(b) * np.exp(-b * t[:, None])
    ks = np.arange(terms.max(initial=0))
    ratios = (b + ks[:, None]) / (b + 0.5 + ks[:, None]) * ((ks + 0.5) / (ks + 1))[:, None]
    coefficients = np.ones((len(ks) + 1, len(b)), dtype=complex)
    np.cumprod(ratios, axis=0, out=coefficients[1:])
    order = np.argsort(-terms, kind="stable")
    rows = np.searchsorted(-terms[order], -ks, side="left")  # rows with more than k terms
    sums = np.zeros((len(t), len(b)), dtype=complex)
    # complex times real z, and complex plus complex, on the real views
    real_sums, real_coefficients = sums.view(float), coefficients.view(float)
    z_sorted = z[order, None]
    for k in reversed(ks):
        real_sums[:rows[k]] *= z_sorted[:rows[k]]
        real_sums[:rows[k]] += real_coefficients[k]
    q = np.empty_like(sums)
    q[order] = sums
    q *= first
    last = abs(first) * abs(coefficients[terms]) * z[:, None] ** terms[:, None]
    weight, tail = _value_weight_and_tail(abs(first), last, z[:, None])
    n = len(xis)
    factor = _tan_nu_pi(xis, eta) / math.pi
    if eta == 0.0:  # factor (i f) times the difference (2i Im q)
        values = -2.0 * factor.imag * q.imag
        weight, tail = 2.0 * weight, 2.0 * tail
    else:
        values = factor * (q[:, :n] - q[:, n:])
        weight, tail = weight[:, :n] + weight[:, n:], tail[:, :n] + tail[:, n:]
    bounds = _series_bound(factor, tail, weight, xis, t[:, None])
    finite = np.isfinite(values) & np.isfinite(bounds) & (terms > 0)[:, None]
    return values, np.where(finite, bounds, np.inf)


def deriv_spherical_sl2(
    lam: SpectralParameter,
    t_scale: float,
    t_geo: float,
    order: int,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> complex:
    """Derivative of order ``order`` (0..3) in the geodesic parameter of the
    chamber restriction of the spherical function at spectral value
    ``t_scale * xi + i eta``, by the rule of ``spherical_sl2``: the small-``Y``
    series; else the Harish-Chandra series, term ``k`` of each Q-series taking
    the factor ``(-2 (b + 2k))^order``; else the Mehler-Dirichlet family
    (``_deriv_spherical_sl2_mehler``): order 1 by one integral, orders 2 and
    3 from Legendre's equation.

    A non-finite spectral value, or one whose phase overflows, raises
    ``ValueError``.  For orders 1-3 so does one whose ``(2s - 1) / sinh 2Y``
    (the Mehler-Dirichlet prefactor) overflows, on every path."""
    if not 0 <= order <= 3:
        raise ValueError("order must be between 0 and 3")
    if not 0.0 < t_geo <= T_GEO_MAX:
        raise ValueError("geodesic parameter must lie in the open positive chamber")
    scaled = SpectralParameter.rank1(t_scale * lam.xi[0], lam.eta[0])
    _check_finite(scaled, "Y={:g}", t_geo)
    _check_phase(scaled, t_geo)
    xi, eta = scaled.xi[0], scaled.eta[0]
    if order and not cmath.isfinite((2j * xi - 2.0 * eta - 1.0) / math.sinh(2.0 * t_geo)):
        raise ValueError(f"prefactor (2s - 1) / sinh 2Y overflows at spectral value "
                         f"{scaled}, Y={t_geo:g}")
    if order == 0:
        return spherical_sl2(scaled, t_geo, config).value
    series = _accepted_series(xi, eta, t_geo, order, config)
    return series.value if series else _deriv_spherical_sl2_mehler(scaled, t_geo, order, config)


def _deriv_spherical_sl2_mehler(scaled: SpectralParameter, t_geo: float, order: int,
                                config: QuadratureConfig) -> complex:
    """Orders 1-3 of ``deriv_spherical_sl2`` from the Mehler-Dirichlet family,
    for a checked input at the scaled spectral value.

    With ``x = cosh 2Y`` and ``c = cos a``, order 1 is DLMF 14.10.5,
    ``(x^2 - 1) P_nu' = nu (x P_nu - P_{nu-1})``, in Mehler-Dirichlet form:
    ``phi' = (2 nu / sinh 2Y) (1/pi) int_0^pi [A sinh(2Ysc) sinh(2Yc) + 2Y^2
    sin^2 a cosh(2Ysc) / A] da`` with ``A`` the amplitude of
    ``_mehler_amplitude``; ``A^2 (cosh 2Y - cosh 2Yc) = 2Y^2 sin^2 a`` removes
    the 0/0 at the wall.  The prefactor sits inside the integrand, so the stop
    test sees the derivative's own scale.  Orders 2 and 3 follow from Legendre's equation,
    with no further quadrature: ``phi'' = -2 coth(2Y) phi' + (4 s^2 - 1) phi``
    and ``phi''' = -2 coth(2Y) phi'' + (4 csch^2(2Y) + 4 s^2 - 1) phi'``.
    These steps cancel as ``Y -> 0``, where ``deriv_spherical_sl2`` takes the
    small-``Y`` series instead."""
    s, y2 = 1j * scaled.xi[0] - scaled.eta[0], 2.0 * t_geo
    prefactor = (2.0 * s - 1.0) / math.sinh(y2)

    def integrand(rule):
        c, amplitude = rule.cos, _mehler_amplitude(t_geo, rule.sin2_half)
        # array first: numpy turns a long ``prefactor * array`` into ``array *=
        # prefactor``, which rounds differently, so a value would depend on the length
        return (amplitude * np.sinh(y2 * s * c) * np.sinh(y2 * c)
                + 0.5 * (y2 * rule.sin) ** 2 * np.cosh(y2 * s * c) / amplitude) * prefactor

    d1 = complex(_nested_trapezoid(integrand, 4, config)[0])
    if order == 1:
        return d1
    coth, k = 1.0 / math.tanh(y2), 4.0 * s * s - 1.0
    d2 = -2.0 * coth * d1 + k * spherical_sl2(scaled, t_geo, config).value
    if order == 2:
        return d2
    return -2.0 * coth * d2 + (4.0 / math.sinh(y2) ** 2 + k) * d1


_SL3_TARGET = 1e-10  # the rank-two rule stops at this step, relative to max(1, |value|)
SL3_MAX_EVALUATIONS = 50_000  # default ceiling on the integrand evaluations of spherical_sl3
_SL3_START = (64, 16)  # Clenshaw-Curtis intervals on [-1, 1] and alpha intervals, first level
_CC_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n + 1``-point Clenshaw-Curtis rule on [-1, 1] folded onto [0, 1]
    for even integrands: nodes ``cos(j pi / n)``, ``j <= n / 2``, and weights
    summing to one by one real FFT (Waldvogel, BIT 46, 2006).  Doubling ``n``
    adds the odd ``j``.  Rules are kept for the process."""
    if n not in _CC_RULES:
        k = np.arange(1, n // 2 + 1)
        d = np.zeros(n)
        d[k] = 2.0 / (4.0 * k * k - 1.0)
        d[n // 2] *= 0.5
        weights = (1.0 - np.fft.rfft(d).real) * (2.0 / n)
        weights[[0, -1]] *= 0.5  # x = 1 has no mirror image in [-1, 1], x = 0 is its own
        _CC_RULES[n] = (_read_only(np.cos(np.pi / n * np.arange(n // 2 + 1))),
                        _read_only(weights))
    return _CC_RULES[n]


def _sl3_evaluations(c_norm: float, spread: float) -> float:
    """A lower estimate of the evaluations ``spherical_sl3`` needs at ``|c| =
    c_norm`` and ``spread = max h - min h``: the phase grows like ``x = |c|
    spread`` in both directions, the poles' scale ``e^(-spread / 2)`` grows
    the rows.  Below every count measured for ``|c|`` in [0.1, 64] and
    spreads in [0.3, 9]."""
    x = c_norm * spread
    first = (_SL3_START[0] // 2 + 1) * (_SL3_START[1] + 1)
    return max(first, 15.0 * x, 150.0 * math.exp(0.5 * spread - 1.0), 0.2 * x * x)


def _sl3_image(l: np.ndarray) -> np.ndarray:
    """The permutation of ``l`` that ``spherical_sl3`` integrates: ``l``,
    unless ``c'`` is on the ``tan`` pole ``Re c' = 0`` or off the series'
    strip ``|Im c'| <= 1/2`` (the sweep's Mehler-Dirichlet fallback); then
    the image in the strip (the bounded region has one) of largest ``|Re c'|``."""
    def key(image):
        d = image[1] - image[2]
        return abs(d.imag) <= 1.0, abs(d.real)
    inside, width = key(l)
    if not (inside and width):
        l = max((l[list(order)] for order in itertools.permutations(range(3))), key=key)
    return l


def spherical_sl3(lam: SpectralParameter, a_log, max_evaluations: int = SL3_MAX_EVALUATIONS,
                  seed: int | None = None) -> SphericalValue:
    """Spherical function of the degree-3 special linear group at ``diag(e^h)``,
    ``h = (a_log[0], a_log[1], -a_log[0] - a_log[1])``: the module's rank-two
    reduction, with ``P_nu = spherical_sl2_sweep([Re c'], Im c', Y')`` and the
    image of ``_sl3_image``, on ``w = (s cos alpha, s sin alpha, t)`` by
    Clenshaw-Curtis in ``t`` times the trapezoid rule in ``alpha`` (path
    ``"cubature"``).  Each direction doubles while its level step is above
    half of ``_SL3_TARGET``, a level's new points in one sweep call, until
    the steps sum to ``_SL3_TARGET max(1, |value|)``.  The estimate adds
    ``DEFAULT_CONFIG.target`` (each sweep value's, relative to ``max(1,
    |P|)``) times ``sum w |outer| max(1, |P|)`` and 8 ulps of ``sum w |f|``;
    ``quadrature_nodes`` counts evaluations.  ``ValueError`` when
    ``_sl3_evaluations`` exceeds ``max_evaluations`` (before any grid), an
    input is not finite or ``Y' = spread / 2`` exceeds ``T_GEO_MAX``;
    ``QuadratureError`` when no level within the ceiling meets the target;
    ``FloatingPointError`` when an intermediate leaves the float64 range.
    ``seed``, for callers of the former Monte Carlo, is ignored."""
    y1, y2 = float(a_log[0]), float(a_log[1])
    _check_finite(lam, "({:g}, {:g})", y1, y2)
    c1, c2 = (complex(x, e) for x, e in zip(lam.xi, lam.eta))
    h = np.array([y1, y2, -y1 - y2])
    low, mid, high = np.argsort(h, kind="stable")
    # symmetric in the pairs (a_i, w_i^2): the extreme farther from the
    # middle goes to the pole t = 1, the other to alpha = 0
    pole, other = (high, low) if h[high] - h[mid] > h[mid] - h[low] else (low, high)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        a = np.exp(h[[other, mid, pole]])
        inverse = 1.0 / a
        tail = inverse * (np.sum(inverse * inverse) - inverse * inverse)  # a_i^-1 (tr D - a_i^-2)
    spread = float(h[high] - h[low])
    if spread > 2.0 * T_GEO_MAX:
        raise ValueError(f"sl3 chamber point ({y1:g}, {y2:g}) reaches Y' = {spread / 2:g} "
                         f"outside Y' <= {T_GEO_MAX:g}")
    need = _sl3_evaluations(math.hypot(abs(c1), abs(c2)), spread)
    if need > max_evaluations:
        raise ValueError(f"sl3 value at c = ({c1:g}, {c2:g}), a_log = ({y1:g}, {y2:g}) needs "
                         f"about {need:.3g} evaluations, above the ceiling {max_evaluations}")
    l1, l2, l3 = _sl3_image(np.array([c1, c2 - c1, -c2]))
    cp, p = 0.5 * (l2 - l3), 0.5j * (l1 - l2) + 0.25j * (l2 - l3) - 0.75

    def evaluate(t, alpha):  # the outer factor |a^(-1/2) w|^-3 r^p, and P_nu(cosh 2Y')
        s2 = (1.0 - t) * (1.0 + t)
        w2 = np.stack([s2 * np.cos(alpha) ** 2, s2 * np.sin(alpha) ** 2, t * t])
        q1, qm1 = a @ w2, inverse @ w2
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            z = (tail @ w2) / (2.0 * np.sqrt(q1 * qm1))
            outer = np.exp(p * np.log(q1 / qm1) - 1.5 * np.log(qm1))
        y = 0.5 * np.arccosh(np.maximum(z, 1.0))
        return outer, spherical_sl2_sweep([cp.real], cp.imag, y)[:, 0]

    (nt, m), grid = _SL3_START, None  # grid: the outer factors and the P_nu
    while True:
        t, wt = _clenshaw_curtis(nt)
        rule = _folded_grid(4 * m, 4)
        fresh = np.ones((len(t), m + 1), dtype=bool)
        level = np.empty((2,) + fresh.shape, dtype=complex)
        if grid is not None:  # the last level's points, every other row or column
            fresh[old] = False
            level[(slice(None),) + old] = grid
        i, j = np.nonzero(fresh)
        level[:, i, j] = evaluate(t[i], rule.angles[j])
        grid, f = level, level[0] * level[1]
        value = wt @ f @ rule.weights
        step_t = abs(value - _clenshaw_curtis(nt // 2)[1] @ f[::2] @ rule.weights)
        step_a = abs(value - wt @ f[:, ::2] @ _folded_grid(2 * m, 4).weights)
        goal = _SL3_TARGET * max(1.0, abs(value))
        if not step_t + step_a > goal:
            break
        grow_t, grow_a = step_t > 0.5 * goal, step_a > 0.5 * goal
        nt, m, old = nt << grow_t, m << grow_a, (slice(None, None, 1 + grow_t),
                                                 slice(None, None, 1 + grow_a))
        if (nt // 2 + 1) * (m + 1) > max_evaluations:
            raise QuadratureError(f"sl3 cubature step {step_t + step_a:.3e} above {goal:.1e} "
                                  f"at {f.size} evaluations; the next level exceeds the "
                                  f"ceiling {max_evaluations}")
    if not math.isfinite(step_t + step_a):
        raise QuadratureError(f"sl3 cubature step {step_t + step_a} is not finite")
    floor = DEFAULT_CONFIG.target * (wt @ (np.abs(grid[0]) * np.maximum(1.0, np.abs(grid[1])))
                                     @ rule.weights)
    return SphericalValue(complex(value), f.size, float(step_t + step_a + floor + 8.0 * _EPS
                                                        * (wt @ np.abs(f) @ rule.weights)),
                          "cubature")


def _check_top_degree(top: int) -> int:
    if top > LEGENDRE_MAX_DEGREE:
        raise ValueError(f"degree {top} above the supported maximum {LEGENDRE_MAX_DEGREE}")
    return top


def _legendre_points(x) -> np.ndarray:
    """``x`` as a float array, refused unless every entry lies in [-1, 1]."""
    x = np.asarray(x, dtype=float)
    outside = ~(np.abs(x) <= 1.0)  # NaN compares false
    if outside.any():
        raise ValueError(f"Legendre point {x[outside].flat[0]!r} outside [-1, 1]")
    return x


def legendre_rows(degrees, x) -> np.ndarray:
    """``P_n(x)`` for each ``n`` in ``degrees`` (any order, repeats allowed)
    at each point of ``x`` (a scalar is a 0-d array), stacked on a new first
    axis.  A point outside [-1, 1] or not finite raises ``ValueError``.

    With ``|x| = cos t`` and ``P_n(-x) = (-1)^n P_n(x)``, this is the
    Fourier-Legendre sum (DLMF §18.5) ``P_n(cos t) = sum_k a_k a_{n-k}
    cos((n - 2k) t)``, ``a_k = C(2k, k) / 4^k``, whose positive coefficients
    sum to 1, so no step amplifies earlier rounding as the three-term
    recurrence does near ``x = 1``.  Folded, it is ``Re[e^{i (n - 2h) t}
    sum_{q <= h} 2 a_{h-q} a_{n-h+q} e^{2iqt}]``, ``h = n // 2``, with the
    ``q = 0`` term of an even degree halved.  Each block of ``_LEGENDRE_BLOCK``
    terms (fewer when every ``h`` is smaller) is one real product of the live
    degrees' coefficients against a table of ``2 e^{2ijt}``, times the phase
    ``e^{2i q0 t}``.  The table is built once per chunk of points, from the exact
    angles ``2^m t`` by doubling, and its last row steps the phase.
    Products keep within ``_ONE_THREAD_MADDS`` multiply-adds by splitting
    the points.  ``P_0`` is exactly 1 and ``P_1`` exactly ``x``."""
    degrees = [operator.index(n) for n in degrees]
    if not degrees:
        raise ValueError("need at least one degree")
    if min(degrees) < 0:
        raise ValueError("degree must be nonnegative")
    _check_top_degree(max(degrees))
    x = _legendre_points(x)
    n, rows = np.unique(degrees, return_inverse=True)
    # decreasing, so the degrees still summing at a block are a prefix
    n, rows, h, odd = n[::-1], len(n) - 1 - rows, n[::-1] // 2, n[::-1] % 2 == 1
    width = min(_LEGENDRE_BLOCK, 1 << int(h[0]).bit_length())  # a power of two above h[0]
    a = np.zeros(n[0] + 1 + 2 * width)  # a_k at a[width + k], zeros either side
    a[width:width + n[0] + 1] = np.cumprod(  # a_k / a_{k-1} = (k - 1/2) / k
        np.r_[1.0, np.arange(0.5, n[0]) / np.arange(1, n[0] + 1)])
    lo = (width + h)[:, None] - np.arange(width)  # a_{h-q}, a_{n-h+q} at q = j
    hi = (width + n - h)[:, None] + np.arange(width)
    cos = np.abs(x).reshape(-1)
    out, chunk = np.empty((len(n), cos.size)), _ONE_THREAD_MADDS // (2 * width)
    for start in range(0, cos.size, chunk):
        c = cos[start:start + chunk]
        t, table = np.arccos(c), np.empty((width + 1, c.size), complex)
        table[0] = 1.0
        for m in range(width.bit_length()):  # rows 2^m.. are rows 0.. times e^{2i 2^m t}
            size = min(1 << m, width + 1 - (1 << m))
            np.multiply(table[:size], np.exp(1j * ((2 << m) * t)),
                        out=table[1 << m:(1 << m) + size])
        table[:width] *= 2.0
        pairs, step = table[:width].view(float), table[width]
        total, phase = np.zeros((len(n), c.size), complex), np.ones(c.size, complex)
        for q0 in range(0, h[0] + 1, width):
            live = np.count_nonzero(h >= q0)
            w = a[lo[:live] - q0] * a[hi[:live] + q0]
            if q0 == 0:
                w[~odd[:live], 0] *= 0.5
            span = max(1, _ONE_THREAD_MADDS // (2 * width * live))  # points per product
            for p in range(0, c.size, span):
                terms = (w @ pairs[:, 2 * p:2 * (p + span)]).view(complex)
                terms *= phase[p:p + span]
                total[:live, p:p + span] += terms
            phase *= step
        s = np.sqrt((1.0 - c) * (1.0 + c))
        out[:, start:start + chunk] = np.where(odd[:, None], c * total.real - s * total.imag,
                                               total.real)
    np.negative(out, out=out, where=odd[:, None] & np.signbit(x).reshape(-1))
    return out[rows].reshape((len(degrees),) + x.shape)


def legendre(n: int, x):
    """Classical degree-``n`` polynomial on [-1, 1]; the oracle for the
    compact rank-one spherical functions."""
    value = legendre_rows([n], x)[0]
    return value if value.ndim else float(value)


def legendre_sequence(n_max: int, x: float) -> np.ndarray:
    """Values of all degrees 0..n_max at one point ``x`` of [-1, 1], from the
    three-term recurrence on Python floats, the algorithm for every degree
    at one point.  An array, non-finite or out-of-range ``x`` raises
    ``ValueError``."""
    x = _legendre_points(x)
    if x.ndim:
        raise ValueError(f"legendre_sequence takes one point, not an array of shape {x.shape}")
    top, x = _check_top_degree(operator.index(n_max)), float(x)
    if top < 0:
        raise ValueError("degree must be nonnegative")
    seq = [1.0, x]
    for k in range(1, top):
        seq.append(((2 * k + 1) * x * seq[k] - k * seq[k - 1]) / (k + 1))
    return np.array(seq[:top + 1])


def spherical_compact_su2(
    n: int, theta: float, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Compact rank-one spherical function of degree ``n`` at angle ``theta``
    via its oscillatory integral over the circle.

    Powers are accumulated as exp(n log z) to keep large degrees stable; the
    imaginary part of the quadrature must vanish and is asserted to 1e-10.
    """
    return _spherical_compact_su2(n, theta, config).value.real


def _spherical_compact_su2(n: int, theta: float,
                           config: QuadratureConfig = DEFAULT_CONFIG) -> SphericalValue:
    """``spherical_compact_su2`` with its final node count and last level
    difference; the value's imaginary part is dropped after the check."""
    if n < 0 or n > 10_000:
        raise ValueError(f"degree {n} outside the supported range [0, 10000]")
    if not 0.0 < theta < np.pi:
        raise ValueError("theta must lie in the open interval (0, pi)")
    value, nodes, err = _nested_trapezoid(
        lambda rule: np.exp(n * np.log(np.cos(theta) + 1j * np.sin(theta) * rule.cos)),
        2, config)
    if abs(value.imag) > 1e-10:
        raise QuadratureError(f"imaginary part {value.imag:.3e} above tolerance; "
                              "quadrature failed")
    return SphericalValue(complex(float(value.real)), nodes, float(err), "trapezoid")
