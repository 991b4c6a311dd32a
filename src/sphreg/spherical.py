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

For ``a_Y = diag(e^Y, e^-Y)`` and the rotation by ``theta``, the abelian
coordinate ``u(Y, theta) = log |first column of a_Y k_theta|`` has the
closed form ``0.5 * log(cosh 2Y + sinh 2Y cos 2theta)``, used here instead
of per-node QR.  Its derivatives in ``Y`` close (``u'' = 2 - 2 u'^2``), so
derivatives of the integrand are analytic.

Quadrature.  Each rank-one circle integral is the trapezoid rule, which
converges exponentially for smooth periodic integrands (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 56,
2014).  The noncompact integrand depends on ``theta`` only through
``cos 2theta`` and the compact one only through ``cos phi``, so the
full-turn rule on ``N`` nodes equals the rule on a quarter (half) turn with
``N / 4`` (``N / 2``) intervals and half-weight endpoints.  Doubling nests:
each level evaluates only the midpoints of the level before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liegroup import haar_so_n_sample

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "SpectralParameter",
    "SphericalValue",
    "deriv_spherical_sl2",
    "legendre",
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
    t_geo_max: float = 5.0


DEFAULT_CONFIG = QuadratureConfig()


def sl2_chamber_coordinate(t_geo: float, theta) -> np.ndarray:
    """Abelian coordinate of a_Y k_theta in the factorization, closed form."""
    return 0.5 * np.log(np.cosh(2.0 * t_geo) + np.sinh(2.0 * t_geo) * np.cos(2.0 * theta))


def sl2_chamber_derivatives(t_geo: float, theta, order: int):
    """(u, u', u'', u''') of the chamber coordinate with respect to the
    geodesic parameter, evaluated on an angle grid."""
    d = np.cosh(2.0 * t_geo) + np.sinh(2.0 * t_geo) * np.cos(2.0 * theta)
    u = 0.5 * np.log(d)
    out = [u]
    if order >= 1:
        u1 = (np.sinh(2.0 * t_geo) + np.cosh(2.0 * t_geo) * np.cos(2.0 * theta)) / d
        out.append(u1)
    if order >= 2:
        out.append(2.0 - 2.0 * out[1] ** 2)
    if order >= 3:
        out.append(-4.0 * out[1] * out[2])
    return out


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
        theta, weights = _folded_grid(nodes, fold)
        current = 0.5 * previous + integrand(theta[1::2]) @ weights[1::2]
        err = abs(current - previous)
        scale = max(1.0, abs(current))
        if err <= config.target * scale:
            return current, nodes, err
        if nodes >= config.n_max:
            if err > config.fail * scale:
                raise QuadratureError(f"trapezoid rule did not converge: estimate "
                                      f"{err:.3e} at {nodes} nodes")
            return current, nodes, err


def spherical_sl2(
    lam: SpectralParameter, t_geo: float, config: QuadratureConfig = DEFAULT_CONFIG
) -> SphericalValue:
    """Spherical function of the degree-2 special linear group at
    a_Y = diag(e^Y, e^-Y), Y = ``t_geo``.

    The circle integral of exp((i lam - rho)(H(a_Y k))) with unit-mass
    invariant measure; exact value 1 at the identity.
    """
    if abs(t_geo) > config.t_geo_max:
        raise ValueError(f"chamber point Y={t_geo:g} outside |Y| <= {config.t_geo_max:g}")
    exponent = 2.0j * lam.xi[0] - 2.0 * lam.eta[0] - 1.0
    value, nodes, err = _nested_trapezoid(
        lambda theta: np.exp(exponent * sl2_chamber_coordinate(t_geo, theta)), 4, config)
    return SphericalValue(complex(value), nodes, float(err))


def sl2_sweep_nodes(xi_peak: float, t_geo: float, safety: float = 1.3,
                    floor: int = 8192) -> int:
    """Power-of-two node count resolving the rank-one integrand.

    The phase slope concentrates near the chamber-wall angle and peaks at
    ``2 |xi| sinh(2Y)``; alias-free trapezoid sampling needs twice that many
    nodes per full turn.  The floor covers the width-``e^{-2Y}`` amplitude
    dip even when the phase is slow.
    """
    if not (math.isfinite(xi_peak) and math.isfinite(t_geo)):
        raise ValueError(f"non-finite spectral value {xi_peak} or chamber point {t_geo}")
    need = max(4.0 * abs(xi_peak) * math.sinh(2.0 * abs(t_geo)) * safety,
               40.0 * math.exp(2.0 * abs(t_geo)), float(floor))
    return 1 << int(math.ceil(math.log2(need)))


def spherical_sl2_sweep(xis: np.ndarray, eta: float, t_geo: float, nodes: int) -> np.ndarray:
    """Fixed-grid evaluation of the rank-one integral for many real spectral
    values at once; the caller chooses a node count adequate for the largest
    frequency (total phase variation is about ``16 * |Y| * max(xi)``).
    Memory grows as ``len(xis) * nodes / 4``."""
    theta, weights = _folded_grid(nodes, 4)
    u = sl2_chamber_coordinate(t_geo, theta)
    phase = 2.0 * np.outer(np.asarray(xis, dtype=float), u)
    amplitude = weights * np.exp((-2.0 * eta - 1.0) * u)
    return np.cos(phase) @ amplitude + 1j * (np.sin(phase) @ amplitude)


def deriv_spherical_sl2(
    lam: SpectralParameter,
    t_scale: float,
    t_geo: float,
    order: int,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> complex:
    """Derivative of order ``order`` (0..3) in the geodesic parameter of the
    chamber restriction of the spherical function at spectral value
    ``t_scale * xi + i eta``.

    Differentiation happens under the integral via the closed-form chamber
    coordinate derivatives; no finite differencing.
    """
    if not 0 <= order <= 3:
        raise ValueError("order must be between 0 and 3")
    if not 0.0 < t_geo <= config.t_geo_max:
        raise ValueError("geodesic parameter must lie in the open positive chamber")
    c = 2.0j * t_scale * lam.xi[0] - 2.0 * lam.eta[0] - 1.0

    def integrand(theta):
        derivs = sl2_chamber_derivatives(t_geo, theta, order)
        core = np.exp(c * derivs[0])
        if order == 0:
            return core
        if order == 1:
            factor = c * derivs[1]
        elif order == 2:
            factor = c * derivs[2] + (c * derivs[1]) ** 2
        else:
            u1, u2, u3 = derivs[1], derivs[2], derivs[3]
            factor = c * u3 + 3.0 * c * c * u1 * u2 + (c * u1) ** 3
        return factor * core

    value, _, _ = _nested_trapezoid(integrand, 4, config)
    return complex(value)


def spherical_sl3(
    lam: SpectralParameter,
    a_log,
    samples: int = 10_000,
    seed: int = 42,
) -> SphericalValue:
    """Monte Carlo spherical function of the degree-3 special linear group.

    ``a_log`` is the first two entries of the traceless diagonal (the third
    is implied).  The reported error is the combined standard error of the
    real and imaginary parts; it is not a hard bound.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    y1, y2 = float(a_log[0]), float(a_log[1])
    diag = np.array([y1, y2, -y1 - y2])
    a = np.diag(np.exp(diag))
    rotations = haar_so_n_sample(3, seed, samples)

    values = np.empty(samples, dtype=complex)
    block = 1 << 16
    for start in range(0, samples, block):
        stop = min(start + block, samples)
        prod = a @ rotations[start:stop]
        _, r = np.linalg.qr(prod)
        d = np.abs(np.einsum("...ii->...i", r))
        h = np.log(d)
        c1 = lam.xi[0] + 1j * lam.eta[0]
        c2 = lam.xi[1] + 1j * lam.eta[1]
        pairing = c1 * (h[:, 0] - h[:, 1]) + c2 * (h[:, 1] - h[:, 2])
        rho_pairing = h[:, 0] - h[:, 2]
        values[start:stop] = np.exp(1j * pairing - rho_pairing)

    mean = values.mean()
    if samples > 1:
        var = values.real.var(ddof=1) + values.imag.var(ddof=1)
        stderr = float(np.sqrt(var / samples))
    else:
        stderr = float("inf")
    return SphericalValue(complex(mean), samples, stderr)


def legendre(n: int, x):
    """Classical degree-``n`` polynomial on [-1, 1] by the three-term
    recurrence; the oracle for the compact rank-one spherical functions."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = x.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p if p.ndim else float(p)


def legendre_sequence(n_max: int, x: float) -> np.ndarray:
    """Values of all degrees 0..n_max at a scalar point."""
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for k in range(1, n_max):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out


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
