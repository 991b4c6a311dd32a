"""Decay-rate fitting, stationary-phase leading terms, and empirical
Holder-norm estimation.

The rank-one leading terms are fully explicit.  For the noncompact integral
with real spectral value ``xi`` (simple-root coordinate, so the phase is
``2 xi u``) and geodesic parameter ``Y > 0``, the phase has critical points
exactly at the four quarter-turn angles; the two classes of critical points
carry Hessians ``-2 xi (1 - e^{-4Y})`` and ``+2 xi (e^{4Y} - 1)``, and each
class is a two-point orbit under the sign subgroup.  Stationary phase then
gives, per Weyl class w in {+1, -1},

    contribution_w = e^{2 i t w xi Y} t^{-1/2} c_w,
    c_w = e^{i pi sigma_w / 4} sqrt(2 / (pi |2 xi| |1 - e^{-4 w Y}|)) gbar_w,

with ``gbar_w`` the mean of the amplitude over the orbit and
``sigma_w = -sign(xi) * w`` (the signature convention that matches the
compact branch rules below).  The remainder is one power of t smaller.

On the compact side the degree-n functions satisfy

    P_n(cos Y) = 2 Re[(2 pi)^{-1/2} hess_root(n, Y, +1) e^{i n Y}] + O(n^{-3/2})

where ``hess_root`` is the inverse square root of the Hessian determinant
with the branch fixed by continuous deformation to the identity:
``e^{-i w pi/4} <a, mu>^{-1/2} e^{i w Y/2} |sin Y|^{-1/2}`` for ``w = +-1``,
normalized so the pairing of the weight with the root is the degree n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .spherical import legendre_rows, sl2_chamber_coordinate

__all__ = [
    "DecayFit",
    "HolderReport",
    "LeadingTerm",
    "SingularBlowupReport",
    "WeylTerm",
    "decay_fit",
    "envelope_samples",
    "exp_sum_separation",
    "hessian_det_compact_rank1",
    "holder_estimate",
    "leading_term_compact",
    "leading_term_sl2",
    "singular_blowup_check",
    "spherical_amplitude_sl2",
    "stationary_points_check_sl2",
]


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    samples: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    r_squared: float


def decay_fit(samples: Sequence[tuple[float, float]]) -> DecayFit:
    """Least-squares power-law fit in log-log space."""
    if len(samples) < 8:
        raise ValueError("need at least 8 samples")
    ts = np.array([s[0] for s in samples], dtype=float)
    mags = np.array([s[1] for s in samples], dtype=float)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("abscissas must be strictly increasing")
    if np.any(mags <= 0):
        raise ValueError("magnitudes must be positive")
    x = np.log(ts)
    y = np.log(mags)
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = y - y.mean()
    denom = float(total @ total)
    r2 = 1.0 if denom == 0.0 else 1.0 - float(residual @ residual) / denom
    return DecayFit(tuple((float(t), float(m)) for t, m in samples),
                    float(slope), float(intercept), float(r2))


def envelope_samples(
    evaluate: Callable[[np.ndarray], np.ndarray],
    targets: Sequence[float],
    half_period: float,
    points: int = 8,
) -> list[tuple[float, float]]:
    """Envelope of an oscillating magnitude.

    For each target abscissa, evaluates ``|f|`` on ``points`` offsets spanning
    one half period and keeps the argmax (with its true abscissa), so the
    sampled sequence tracks the envelope rather than the oscillation.
    """
    out = []
    for t in targets:
        grid = t + np.linspace(0.0, half_period, points)
        mags = np.abs(evaluate(grid))
        j = int(np.argmax(mags))
        out.append((float(grid[j]), float(mags[j])))
    return out


# ---------------------------------------------------------------------------
# stationary phase, noncompact rank one
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylTerm:
    weyl_sign: int
    phase_point_value: complex
    amplitude: complex


@dataclass(frozen=True)
class LeadingTerm:
    terms: tuple[WeylTerm, ...]
    decay_power: float
    total: complex


def spherical_amplitude_sl2(t_geo: float) -> Callable[[np.ndarray], np.ndarray]:
    """Amplitude on the circle group whose oscillatory integral is the
    spherical function itself: exp of minus the half-sum pairing."""

    def g(theta):
        return np.exp(-sl2_chamber_coordinate(t_geo, np.asarray(theta, dtype=float)))

    return g


def leading_term_sl2(
    lam_xi: float,
    t_geo: float,
    t: float,
    amplitude: Callable[[np.ndarray], np.ndarray],
) -> LeadingTerm:
    """Two-term stationary-phase approximation of the rank-one oscillatory
    integral with spectral value ``t * lam_xi`` and amplitude ``amplitude``.
    """
    if lam_xi == 0.0:
        raise ValueError("spectral direction must be nonzero")
    if t_geo <= 0.0:
        raise ValueError("geodesic parameter must be strictly positive "
                         "(the amplitude degenerates on the chamber wall)")
    sign_xi = 1.0 if lam_xi > 0 else -1.0
    terms = []
    total = 0.0 + 0.0j
    for w in (+1, -1):
        hess_mag = abs(2.0 * lam_xi * math.expm1(-4.0 * w * t_geo))
        if hess_mag == 0.0:
            raise ValueError(f"phase Hessian underflows at lam_xi={lam_xi}, t_geo={t_geo}")
        sigma = -sign_xi * w
        branch = np.exp(1j * math.pi * sigma / 4.0)
        orbit = np.array([0.0, math.pi]) if w == 1 else np.array([math.pi / 2, 3 * math.pi / 2])
        gbar = complex(np.mean(amplitude(orbit)))
        c_w = branch * math.sqrt(2.0 / math.pi) / math.sqrt(hess_mag) * gbar
        phase = np.exp(2.0j * t * lam_xi * w * t_geo)
        terms.append(WeylTerm(w, complex(phase), complex(c_w)))
        total += phase * c_w
    total *= t ** (-0.5)
    return LeadingTerm(tuple(terms), 0.5, complex(total))


def stationary_points_check_sl2(
    lam_xi: float, t_geo: float, tol: float, grid_size: int = 4096
) -> list[float]:
    """Grid angles where the phase derivative falls below ``tol``; for a
    regular geodesic these cluster at the four quarter-turn angles."""
    if t_geo <= 0.0:
        raise ValueError("geodesic parameter must be strictly positive")
    if lam_xi == 0.0:
        raise ValueError("spectral direction must be nonzero")
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    d = np.cosh(2.0 * t_geo) + np.sinh(2.0 * t_geo) * np.cos(2.0 * theta)
    derivative = 2.0 * lam_xi * (-np.sinh(2.0 * t_geo) * np.sin(2.0 * theta)) / d
    mask = np.abs(derivative) < tol
    return [float(a) for a in theta[mask]]


# ---------------------------------------------------------------------------
# stationary phase, compact rank one
# ---------------------------------------------------------------------------

def hessian_det_compact_rank1(n_weight: int, t_geo: float, w: int) -> complex:
    """Branch-fixed inverse square root of the compact Hessian determinant at
    the Weyl point labelled ``w`` in {+1, -1}.

    Normalization: the pairing of the root with the weight equals
    ``n_weight``.  At ``n_weight=1, Y=pi/2, w=+1`` the value is exactly 1.
    """
    if w not in (1, -1):
        raise ValueError("w must be +1 or -1")
    if n_weight <= 0:
        raise ValueError("weight must be positive")
    if not 0.0 < t_geo < math.pi:
        raise ValueError("requires 0 < Y < pi (the sine factor degenerates at the ends)")
    return (
        np.exp(-1j * w * math.pi / 4.0)
        * n_weight ** (-0.5)
        * np.exp(1j * w * t_geo / 2.0)
        * abs(math.sin(t_geo)) ** (-0.5)
    )


def leading_term_compact(n: int, t_geo: float) -> float:
    """Leading stationary-phase value of the degree-``n`` compact spherical
    function at angle ``t_geo``; remainder is O(n^{-3/2})."""
    plus = hessian_det_compact_rank1(n, t_geo, +1)
    return float(2.0 * ((2.0 * math.pi) ** -0.5 * plus * np.exp(1j * n * t_geo)).real)


# ---------------------------------------------------------------------------
# Holder estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderReport:
    exponent: float
    derivative_order: int
    family_params: tuple[float, ...]
    sup_quotients: tuple[float, ...]
    verdict: str
    growth_ratio: float


def holder_estimate(
    family: Mapping[float, np.ndarray],
    grid: np.ndarray,
    derivative_order: int,
    alpha: float,
    region: tuple[float, float] | None = None,
    threshold: float = 2.0,
) -> HolderReport:
    """Empirical Holder quotients of a family of sampled functions.

    ``family`` maps the family parameter t to samples of the derivative of
    order ``derivative_order`` on ``grid`` (derivatives are expected to be
    supplied analytically, not re-differenced here).  For each t the sup of
    ``|f(x) - f(y)| / |x - y|^alpha`` is taken over all pairs at dyadic
    separations ``h 2^k``; the sup over dyadic scales is within a bounded
    factor of the true sup for Holder quotients.  The verdict is ``growing``
    when the last sup exceeds the first by more than ``threshold``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("grid must contain at least two points")
    steps = np.diff(grid)
    h = steps[0]
    if np.any(np.abs(steps - h) > 1e-9 * abs(h)):
        raise ValueError("grid must be uniform")
    mask = slice(None)
    if region is not None:
        lo, hi = region
        idx = np.flatnonzero((grid >= lo) & (grid <= hi))
        if idx.size < 2:
            raise ValueError("region selects fewer than two grid points")
        mask = slice(idx[0], idx[-1] + 1)
    xs = grid[mask]
    n = xs.size

    params = sorted(family)
    sups = []
    for t in params:
        values = np.asarray(family[t])[mask]
        if values.shape != xs.shape:
            raise ValueError("sample array does not match the grid")
        best = 0.0
        k = 0
        while (1 << k) < n:
            sep = (1 << k)
            diffs = np.abs(values[sep:] - values[:-sep])
            q = float(diffs.max()) / (h * sep) ** alpha
            best = max(best, q)
            k += 1
        sups.append(best)

    first, last = sups[0], sups[-1]
    ratio = math.inf if first == 0.0 and last > 0.0 else (last / first if first else 0.0)
    verdict = "growing" if ratio > threshold else "bounded"
    return HolderReport(
        exponent=float(alpha),
        derivative_order=int(derivative_order),
        family_params=tuple(float(t) for t in params),
        sup_quotients=tuple(sups),
        verdict=verdict,
        growth_ratio=float(ratio),
    )


# ---------------------------------------------------------------------------
# exponential sums and wall behaviour
# ---------------------------------------------------------------------------

def exp_sum_separation(
    f_values_x: Sequence[complex],
    f_values_y: Sequence[complex],
    u_x: Sequence[float],
    u_y: Sequence[float],
    m: int,
    big_n: int,
) -> float:
    """Cesaro mean over t = m .. m+N-1 of the squared modulus of the
    difference of two finite exponential sums.  A phase or a square outside
    float64 range raises ``FloatingPointError``."""
    fx = np.asarray(f_values_x, dtype=complex)
    fy = np.asarray(f_values_y, dtype=complex)
    ux = np.asarray(u_x, dtype=float)
    uy = np.asarray(u_y, dtype=float)
    if not (fx.shape == fy.shape == ux.shape == uy.shape):
        raise ValueError("input arrays must have equal length")
    if big_n < 1:
        raise ValueError("N must be at least 1")
    if not all(np.isfinite(v).all() for v in (fx, fy, ux, uy)):
        raise ValueError("values and frequencies must be finite")
    ts = np.arange(m, m + big_n)[:, np.newaxis]
    with np.errstate(over="raise", invalid="raise"):
        sums = (fx * np.exp(1j * ts * ux) - fy * np.exp(1j * ts * uy)).sum(axis=1)
        return float(np.mean(np.abs(sums) ** 2))


@dataclass(frozen=True)
class SingularBlowupReport:
    degrees: tuple[int, ...]
    wall_quotients: tuple[float, ...]
    wall_growth: float
    interior_quotients: tuple[float, ...]
    interior_ratio: float


def singular_blowup_check(
    theta_wall_approach: Sequence[float],
    n_list: Sequence[int],
    alpha: float = 0.5,
    interior_theta: float = 0.3,
) -> SingularBlowupReport:
    """Holder quotients of the compact family against the chamber wall.

    For each degree n, the wall quotient is the sup of
    ``|P_n(1) - P_n(cos theta)| / theta^alpha`` over the supplied approach
    angles that have reached scale ``n^{-2}``; along that deepening approach
    the family blows up in every Holder class.  At a fixed interior angle the
    same quotient stays bounded.
    """
    thetas = np.asarray(sorted(theta_wall_approach), dtype=float)
    if np.any((thetas <= 0.0) | (thetas >= 0.5)):
        raise ValueError("approach angles must lie in (0, 0.5)")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    degrees = sorted(int(n) for n in n_list)
    if not degrees:
        raise ValueError("need at least one degree")
    if degrees[0] < 0:
        raise ValueError("degree must be nonnegative")
    scales = [n ** -2 if n > 0 else 0.0 for n in degrees]
    for n, scale in zip(degrees, scales):
        if not np.any(thetas >= scale):
            raise ValueError(f"no approach angle at scale n^-2 for n={n}")

    wall = []
    interior = []
    # one recurrence pass; the last column is the interior angle
    table = legendre_rows(degrees, np.append(np.cos(thetas), math.cos(interior_theta)))
    for row, scale in zip(table, scales):
        allowed = thetas >= scale
        quot = np.abs(1.0 - row[:-1][allowed]) / thetas[allowed] ** alpha
        wall.append(float(quot.max()))
        interior.append(float(abs(1.0 - row[-1]) / interior_theta ** alpha))

    wall_growth = wall[-1] / wall[0] if wall[0] else math.inf
    finite = [q for q in interior if q > 0]
    interior_ratio = (max(finite) / min(finite)) if finite else 1.0
    return SingularBlowupReport(
        degrees=tuple(degrees),
        wall_quotients=tuple(wall),
        wall_growth=float(wall_growth),
        interior_quotients=tuple(interior),
        interior_ratio=float(interior_ratio),
    )
