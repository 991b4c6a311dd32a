"""Numerical spherical functions.

Noncompact side: the rank-one circle integral for the degree-2 special
linear group, and a Monte Carlo rotation-group integral for degree 3.
Compact side: the degree-``n`` spherical functions of the 2-sphere, by the
classical polynomial recurrence and by their oscillatory circle integral.

Spectral parameters are in simple-root coordinates, as in
``rootsys.Covector``.  At rank one ``c`` stands for ``c * alpha`` with
``alpha`` the positive root, so the half-sum of positive roots sits at 1/2
and the bounded region is ``|eta| <= 1/2``.  For degree 3, ``(c1, c2)``
pairs with a traceless diagonal ``(h1, h2, h3)`` as
``c1 (h1 - h2) + c2 (h2 - h3)``.

Rank one.  The abelian coordinate of ``a_Y k_theta``, ``a_Y = diag(e^Y, e^-Y)``,
is ``u = 0.5 log(cosh 2Y + sinh 2Y cos 2theta)`` in closed form.  Laplace's
integral of ``exp((2i xi - 2 eta - 1) u)`` defines the value, with phase slope
up to ``2 xi sinh 2Y``.  Values come from the Mehler-Dirichlet form instead
(DLMF §14.12; the Abel transform of Koornwinder, "Jacobi functions and
analysis on noncompact semisimple Lie groups", 1984), with slope at most
``2 |xi Y|``: ``phi = (1/pi) int_0^pi cosh((i xi - eta) 2Y cos a) /
sqrt(sinhc(Y (1 - cos a)) sinhc(Y (1 + cos a))) da``, ``sinhc x = sinh x / x``.
Derivatives come from the same family (``deriv_spherical_sl2``).  Laplace's
form remains in ``asymptotics`` and as the tests' oracle.

Rank two.  ``H(a k)`` is closed form too: with ``z1, z2`` the first two columns
of the Gaussian matrix that ``liegroup.haar_so_n_sample`` turns into ``k`` and
``w = z1 x z2``, ``h1 = log(|a z1|/|z1|)``, ``h1 + h2 = log(|a^-1 w|/|w|)`` and
``h3 = -(h1 + h2)``; both read one Gaussian stream, so a seed gives the same ``k``.

Quadrature.  Each rank-one circle integral is the trapezoid rule, which
converges exponentially for smooth periodic integrands (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 56,
2014).  The noncompact integrands depend on the angle only through
``cos 2a`` and the compact one only through ``cos phi``, so the
full-turn rule on ``N`` nodes equals the rule on a quarter (half) turn with
``N / 4`` (``N / 2``) intervals and half-weight endpoints.  Doubling nests:
each level evaluates only the midpoints of the level before.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .liegroup import _gaussian_blocks

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
    "sl2_mehler_amplitude",
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
    value: complex
    quadrature_nodes: int
    estimated_error: float


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


DEFAULT_CONFIG = QuadratureConfig()
SWEEP_NODE_CEILING = 1 << 24  # full-turn nodes; sl2_sweep_nodes raises above it
T_GEO_MAX = 5.0  # chamber points with |Y| above it raise ValueError


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


def _folded_grid(nodes: int, fold: int):
    """Angles and weights of the full-turn ``nodes``-point trapezoid rule
    folded onto [0, 2 pi / fold], for integrands even about 0 and periodic
    with period 4 pi / fold.  The weights sum to one."""
    m = nodes // fold
    if m < 1 or nodes % fold:
        raise ValueError(f"node count {nodes} is not a positive multiple of {fold}")
    weights = np.full(m + 1, 1.0 / m)
    weights[[0, -1]] *= 0.5
    return (2.0 * np.pi / fold) * np.arange(m + 1) / m, weights


def _nested_trapezoid(integrand, fold: int, config: QuadratureConfig):
    """Folded trapezoid rule over doubling levels; each level evaluates
    ``integrand(angles)`` only at the midpoints of the level before.
    Returns (value, full-turn nodes, estimated_error)."""
    nodes = config.n_start
    theta, weights = _folded_grid(nodes, fold)
    current = integrand(theta) @ weights
    while True:
        previous, nodes = current, 2 * nodes
        m = nodes // fold  # the new midpoints are the odd multiples of the step
        theta = (2.0 * np.pi / fold) * np.arange(1, m, 2) / m
        current = 0.5 * previous + integrand(theta) @ np.full(len(theta), 1.0 / m)
        err = abs(current - previous)
        scale = max(1.0, abs(current))
        if err <= config.target * scale:
            return current, nodes, err
        if nodes >= config.n_max:
            if err > config.fail * scale:
                raise QuadratureError(f"trapezoid rule did not converge: estimate "
                                      f"{err:.3e} at {nodes} nodes")
            return current, nodes, err


def sl2_mehler_amplitude(t_geo, theta) -> np.ndarray:
    """``1 / sqrt(sinhc(x1) sinhc(x2))``, the Mehler-Dirichlet amplitude, with
    ``x1 = Y (1 - cos a) = 2Y sin^2(a/2)`` and ``x2 = 2Y - x1``.  Both are
    clamped at the smallest normal float, so ``x / sinh x`` is 1 at ``x = 0``."""
    y, tiny = 2.0 * np.abs(t_geo), np.finfo(float).tiny
    x1 = np.maximum(y * np.sin(0.5 * theta) ** 2, tiny)
    x2 = np.maximum(y - x1, tiny)
    return np.sqrt((x1 / np.sinh(x1)) * (x2 / np.sinh(x2)))


def spherical_sl2(
    lam: SpectralParameter, t_geo: float, config: QuadratureConfig = DEFAULT_CONFIG
) -> SphericalValue:
    """Spherical function of the degree-2 special linear group at
    a_Y = diag(e^Y, e^-Y), Y = ``t_geo``, by the Mehler-Dirichlet integral;
    exact value 1 at the identity."""
    if abs(t_geo) > T_GEO_MAX:
        raise ValueError(f"chamber point Y={t_geo:g} outside |Y| <= {T_GEO_MAX:g}")
    w = 2.0 * t_geo * (1j * lam.xi[0] - lam.eta[0])
    value, nodes, err = _nested_trapezoid(
        lambda a: np.cosh(w * np.cos(a)) * sl2_mehler_amplitude(t_geo, a), 4, config)
    return SphericalValue(complex(value), nodes, float(err))


def sl2_sweep_nodes(xi_peak: float, t_geo: float, safety: float = 1.3,
                    floor: int = 64) -> int:
    """Power-of-two full-turn node count for the Mehler-Dirichlet integrand at
    spectral values up to ``xi_peak``.  The phase ``2 xi Y cos a`` has Fourier
    modes ``J_n(2 |xi Y|)``, negligible past ``n = 2 |xi Y|``; the ``N``-node
    trapezoid rule is exact below mode ``N``, and ``safety`` times twice that
    covers it.  The floor covers the amplitude, of width about ``1 / sqrt(Y)``
    in ``a``.  A count above ``SWEEP_NODE_CEILING`` raises ``ValueError``."""
    if not (math.isfinite(xi_peak) and math.isfinite(t_geo)):
        raise ValueError(f"non-finite spectral value {xi_peak} or chamber point {t_geo}")
    need = max(4.0 * abs(xi_peak) * abs(t_geo) * safety, float(floor))
    if need > SWEEP_NODE_CEILING:
        raise ValueError(f"spectral value {xi_peak:g} at Y={t_geo:g} needs more than "
                         f"{SWEEP_NODE_CEILING} quadrature nodes")
    return 1 << int(math.ceil(math.log2(need)))


def spherical_sl2_sweep(xis: np.ndarray, eta: float, t_geo: float, nodes: int) -> np.ndarray:
    """Fixed-node Mehler-Dirichlet values for many real spectral values; ``nodes``
    must resolve the largest (``sl2_sweep_nodes``).  Memory: ``len(xis) * nodes / 4``.
    At ``eta == 0`` the sine term vanishes and is not evaluated."""
    theta, weights = _folded_grid(nodes, 4)
    s = 2.0 * t_geo * np.cos(theta)
    amplitude = weights * sl2_mehler_amplitude(t_geo, theta)
    phase = np.outer(np.asarray(xis, dtype=float), s)
    if eta == 0.0:
        return np.cos(phase) @ amplitude + 0j
    return (np.cos(phase) @ (amplitude * np.cosh(eta * s))
            - 1j * (np.sin(phase) @ (amplitude * np.sinh(eta * s))))


def deriv_spherical_sl2(
    lam: SpectralParameter,
    t_scale: float,
    t_geo: float,
    order: int,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> complex:
    """Derivative of order ``order`` (0..3) in the geodesic parameter of the
    chamber restriction of the spherical function at spectral value
    ``t_scale * xi + i eta``.  Order 0 is ``spherical_sl2``.

    With ``s = i t_scale xi - eta``, ``nu = s - 1/2``, ``x = cosh 2Y`` and
    ``c = cos a``, order 1 is DLMF 14.10.5, ``(x^2 - 1) P_nu' = nu (x P_nu -
    P_{nu-1})``, in Mehler-Dirichlet form: ``phi' = (2 nu / sinh 2Y) (1/pi)
    int_0^pi [A sinh(2Ysc) sinh(2Yc) + 2Y^2 sin^2 a cosh(2Ysc) / A] da`` with
    ``A = sl2_mehler_amplitude``; ``A^2 (cosh 2Y - cosh 2Yc) = 2Y^2 sin^2 a``
    removes the 0/0 at the wall.  The prefactor sits inside the integrand, so
    the stop test sees the derivative's own scale.  Orders 2 and 3 follow from
    Legendre's equation, with no further quadrature:
    ``phi'' = -2 coth(2Y) phi' + (4 s^2 - 1) phi`` and
    ``phi''' = -2 coth(2Y) phi'' + (4 csch^2(2Y) + 4 s^2 - 1) phi'``."""
    if not 0 <= order <= 3:
        raise ValueError("order must be between 0 and 3")
    if not 0.0 < t_geo <= T_GEO_MAX:
        raise ValueError("geodesic parameter must lie in the open positive chamber")
    scaled = SpectralParameter.rank1(t_scale * lam.xi[0], lam.eta[0])
    if order == 0:
        return spherical_sl2(scaled, t_geo, config).value
    s, y2 = 1j * scaled.xi[0] - scaled.eta[0], 2.0 * t_geo
    prefactor = (2.0 * s - 1.0) / math.sinh(y2)

    def integrand(a):
        c, amplitude = np.cos(a), sl2_mehler_amplitude(t_geo, a)
        return prefactor * (amplitude * np.sinh(y2 * s * c) * np.sinh(y2 * c)
                            + 0.5 * (y2 * np.sin(a)) ** 2 * np.cosh(y2 * s * c) / amplitude)

    d1 = complex(_nested_trapezoid(integrand, 4, config)[0])
    if order == 1:
        return d1
    coth, k = 1.0 / math.tanh(y2), 4.0 * s * s - 1.0
    d2 = -2.0 * coth * d1 + k * spherical_sl2(scaled, t_geo, config).value
    if order == 2:
        return d2
    return -2.0 * coth * d2 + (4.0 / math.sinh(y2) ** 2 + k) * d1


def spherical_sl3(lam: SpectralParameter, a_log, samples: int = 10_000,
                  seed: int = 42) -> SphericalValue:
    """Monte Carlo spherical function of the degree-3 special linear group.

    ``a_log`` is the first two entries of the traceless diagonal (the third
    is implied).  Sample ``i`` is ``k = haar_so_n_sample(3, seed, samples)[i]``,
    never formed: ``k e1 = z1/|z1|`` and ``k e3 = +-w/|w|`` (Mezzadri, Notices
    AMS 54, 2007).  As ``det(a k) = 1`` and ``(a k)^-T = a^-1 k``, the Iwasawa
    diagonal has ``|r11| = |a k e1|``, ``|r11 r22| = |a^-1 k e3|`` and
    ``|r33| = 1/|r11 r22|``.  Block statistics are merged (Chan, Golub and
    LeVeque, 1979), so memory does not grow with ``samples``.  The error is
    the combined standard error of the real and imaginary parts, not a bound.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    y1, y2 = float(a_log[0]), float(a_log[1])
    a = np.exp([y1, y2, -y1 - y2])
    c1, c2 = (x + 1j * e for x, e in zip(lam.xi, lam.eta))
    n, total, m2 = 0, 0j, 0.0  # count, sum and summed squared deviation so far
    for _, _, z in _gaussian_blocks(3, seed, samples):
        z1 = z[:, :, 0]
        w = np.cross(z1, z[:, :, 1])
        sq1, sqw = z1 * z1, w * w  # squared coordinates
        h1 = 0.5 * np.log(sq1 @ a ** 2 / sq1.sum(axis=1))
        h12 = 0.5 * np.log(sqw @ a ** -2 / sqw.sum(axis=1))
        h2, h3 = h12 - h1, -h12
        pairing = c1 * (h1 - h2) + c2 * (h2 - h3)
        rho_pairing = h1 - h3
        values = np.exp(1j * pairing - rho_pairing)
        m, block_sum = len(values), values.sum()
        dev = values - block_sum / m
        m2 += np.vdot(dev, dev).real + abs(block_sum / m - total / max(n, 1)) ** 2 * n * m / (n + m)
        n, total = n + m, total + block_sum
    stderr = float(np.sqrt(m2 / (samples - 1) / samples)) if samples > 1 else float("inf")
    return SphericalValue(complex(total / samples), samples, stderr)


def legendre_rows(degrees, x) -> np.ndarray:
    """``P_n(x)`` on [-1, 1] for each ``n`` in ``degrees``, stacked on a new
    first axis, from one pass of the three-term recurrence to the largest
    degree; degrees may repeat and come in any order.  A scalar ``x`` runs on
    Python floats, an array in three rotating buffers, with the same
    operations in the same order either way."""
    degrees = [operator.index(n) for n in degrees]
    if not degrees:
        raise ValueError("need at least one degree")
    if min(degrees) < 0:
        raise ValueError("degree must be nonnegative")
    top = max(degrees)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = float(x)
        seq = [1.0, x]
        for k in range(1, top):
            seq.append(((2 * k + 1) * x * seq[k] - k * seq[k - 1]) / (k + 1))
        return np.array(seq)[degrees]
    rows_at = {}
    for i, n in enumerate(degrees):
        rows_at.setdefault(n, []).append(i)
    out = np.empty((len(degrees),) + x.shape)
    out[rows_at.get(0, [])] = 1.0
    out[rows_at.get(1, [])] = x
    p_prev, p, buf = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, top):
        np.multiply(2 * k + 1, x, out=buf)
        buf *= p
        p_prev *= k
        buf -= p_prev
        buf /= k + 1
        p_prev, p, buf = p, buf, p_prev
        for i in rows_at.get(k + 1, ()):
            out[i] = p
    return out


def legendre(n: int, x):
    """Classical degree-``n`` polynomial on [-1, 1]; the oracle for the
    compact rank-one spherical functions."""
    value = legendre_rows([n], x)[0]
    return value if value.ndim else float(value)


def legendre_sequence(n_max: int, x: float) -> np.ndarray:
    """Values of all degrees 0..n_max at a scalar point."""
    return legendre_rows(range(n_max + 1), x)


def spherical_compact_su2(
    n: int, theta: float, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Compact rank-one spherical function of degree ``n`` at angle ``theta``
    via its oscillatory integral over the circle.

    Powers are accumulated as exp(n log z) to keep large degrees stable; the
    imaginary part of the quadrature must vanish and is asserted to 1e-10.
    """
    if n < 0 or n > 10_000:
        raise ValueError(f"degree {n} outside the supported range [0, 10000]")
    if not 0.0 < theta < np.pi:
        raise ValueError("theta must lie in the open interval (0, pi)")
    value, _, _ = _nested_trapezoid(
        lambda phi: np.exp(n * np.log(np.cos(theta) + 1j * np.sin(theta) * np.cos(phi))),
        2, config)
    if abs(value.imag) > 1e-10:
        raise QuadratureError(f"imaginary part {value.imag:.3e} above tolerance; "
                              "quadrature failed")
    return float(value.real)
