"""Independent checks of the program's outputs.

Every checker returns ``None`` when the value passes and a one-line message
when it does not.  References are computed apart from the program (closed
forms, Python integers, mpmath, scipy) or are properties the method must
have; none is a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import eval_legendre

# The adaptive rule stops when two levels agree to 1e-12; on the probed
# points the mpmath reference agreed to 4e-12.  A wrong branch, normalization
# or node count is off by 1e-6 or more.
SL2_TOL = 1e-10
DERIV_RTOL = 1e-9
COMPACT_TOL = 1e-9
SLOPE_TOL = 0.05
RECONSTRUCT_TOL = 1e-9


# ---------------------------------------------------------------------------
# exact layer
# ---------------------------------------------------------------------------

def weyl_order(family: str, rank: int) -> int:
    """Closed-form order of the Weyl group."""
    n = rank
    if family == "A":
        return math.factorial(n + 1)
    if family in ("B", "C", "BC"):
        return 2 ** n * math.factorial(n)
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}[family]


def positive_root_count(family: str, rank: int) -> int:
    """Closed-form number of positive roots; BC adds the n doubled roots."""
    n = rank
    if family == "A":
        return n * (n + 1) // 2
    if family in ("B", "C"):
        return n * n
    if family == "BC":
        return n * n + n
    if family == "D":
        return n * (n - 1)
    return {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}[family]


def cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """Closed-form Cartan matrix c[i][j] = 2 (a_i, a_j) / (a_j, a_j) in
    Bourbaki's labelling; BC_n has the Dynkin diagram of B_n."""
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j], c[j][i] = cij, cji

    if family in ("A", "B", "C", "BC"):
        for i in range(n - 1):
            bond(i, i + 1)
        if n >= 2 and family in ("B", "BC"):
            bond(n - 2, n - 1, -2, -1)  # a_n short
        if n >= 2 and family == "C":
            bond(n - 2, n - 1, -1, -2)  # a_n long
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        if n >= 3:
            bond(n - 3, n - 1)
    elif family == "G2":
        bond(0, 1, -1, -3)  # a_1 short
    elif family == "F4":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    else:  # E6, E7, E8: chain 1-3-4-5-..., node 2 attached to node 4
        for i, j in [(0, 2), (2, 3), (3, 4), (1, 3)] + [(i, i + 1) for i in range(4, n - 1)]:
            bond(i, j)
    return c


def positive_roots(family: str, rank: int) -> set[tuple[int, ...]]:
    """Positive roots as simple-root coefficients, grown by height from the
    closed-form Cartan matrix with root strings: a + a_i is a root iff
    p - <a, a_i^v> > 0, where p is the length of the a_i-string below a.
    BC_n adds 2 e_k for the short roots e_k = a_k + ... + a_n of B_n."""
    c, n = cartan_matrix(family, rank), rank
    layer = {tuple(int(i == k) for i in range(n)) for k in range(n)}
    roots = set(layer)
    while layer:
        grown = set()
        for a in layer:
            for i in range(n):
                p, below = 0, list(a)
                while True:
                    below[i] -= 1
                    if tuple(below) not in roots:
                        break
                    p += 1
                if p - sum(a[j] * c[j][i] for j in range(n)) > 0:
                    grown.add(tuple(a[j] + (j == i) for j in range(n)))
        roots |= grown
        layer = grown
    if family == "BC":
        roots |= {tuple(0 if j < k else 2 for j in range(n)) for k in range(n)}
    return roots


def check_roots(label: str, family: str, rank: int, gram, coeffs):
    """The program's Gram matrix gives the family's Cartan matrix, and its
    positive roots are the family's."""
    n = len(gram)
    cartan = [[Fraction(2 * gram[i][j]) / Fraction(gram[j][j]) for j in range(n)]
              for i in range(n)]
    if cartan != cartan_matrix(family, rank):
        return f"{label}: Cartan matrix {cartan} from the Gram matrix is not {family}{rank}'s"
    got, expected = {tuple(int(x) for x in v) for v in coeffs}, positive_roots(family, rank)
    if got != expected or len(coeffs) != len(expected):
        return f"{label}: positive roots differ from {family}{rank}'s: {sorted(got ^ expected)}"
    return None


def check_equal(what: str, got, expected):
    if got != expected:
        return f"{what}: got {got}, expected {expected}"
    return None


def check_root_count(label: str, family: str, rank: int, got: int):
    return check_equal(f"{label} positive roots", got, positive_root_count(family, rank))


def check_weyl_order(label: str, family: str, rank: int, got: int):
    return check_equal(f"{label} Weyl group order", got, weyl_order(family, rank))


def check_lower_bound(label: str, counts, kappa: Fraction):
    low = min(counts)
    if low < 2 * kappa:
        return f"{label}: n = {low} below 2*kappa = {2 * kappa}"
    return None


def check_attained(label: str, weight_counts, kappa: Fraction):
    return check_equal(f"{label} minimum of n over fundamental weights",
                       min(weight_counts), 2 * kappa)


def check_invariance(label: str, base: int, images):
    moved = [v for v in images if v != base]
    if moved:
        return f"{label}: n changed under the Weyl group ({base} -> {moved[0]})"
    return None


def _exact(x):
    """A Python integer when ``x`` is integral, else a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _gram_times(gram, covector) -> list:
    return [sum(_exact(g) * _exact(c) for g, c in zip(row, covector)) for row in gram]


def exact_count(roots, gram, covector) -> int:
    """Multiplicity-weighted count of roots not orthogonal to ``covector``,
    in Python integers and fractions (no fixed-width arithmetic).

    ``roots`` is a sequence of (coefficients, multiplicity) pairs."""
    g_lam = _gram_times(gram, covector)
    return sum(m for coeffs, m in roots if sum(c * x for c, x in zip(coeffs, g_lam)) != 0)


def hull_member(roots, gram, eta) -> bool:
    """Membership of ``eta`` in the convex hull of the Weyl orbit of the
    weighted half sum, by reflecting into the dominant chamber."""
    rank = len(gram)
    gram = [[_exact(g) for g in row] for row in gram]
    rho = [sum(Fraction(m * c[i], 2) for c, m in roots) for i in range(rank)]
    eta = [Fraction(x) for x in eta]
    while True:
        for i, pairing in enumerate(_gram_times(gram, eta)):
            if pairing < 0:
                eta[i] -= 2 * pairing / gram[i][i]
                break
        else:
            return all(r - e >= 0 for r, e in zip(rho, eta))


# ---------------------------------------------------------------------------
# rank-one quadrature
# ---------------------------------------------------------------------------

def sl2_reference(xi: float, eta: float, y: float, order: int = 0) -> complex:
    """``order``-th Y-derivative of the conical function P_nu(cosh 2Y),
    nu = -1/2 + i xi - eta; Laplace's integral of it is the rank-one
    spherical function.

    mpmath's ``legenp`` comes first.  Where its series reports slow
    convergence (near sinh Y = 1 with large xi) the identity
    P_nu(cosh 2Y) = cosh(Y)^(2 nu) 2F1(-nu, -nu; 1; tanh(Y)^2) is used, and
    both are retried at higher precision.  Where that still fails, the 2F1
    series is summed term by term at a precision above its largest term."""
    for dps in (30, 60, 90):
        with mpmath.workdps(dps):
            nu = mpmath.mpc(-0.5 - eta, xi) if xi else mpmath.mpf(-0.5 - eta)

            def legendre(s):
                return mpmath.legenp(nu, 0, mpmath.cosh(2 * s), type=3)

            def hypergeometric(s):
                return mpmath.cosh(s) ** (2 * nu) * mpmath.hyp2f1(-nu, -nu, 1, mpmath.tanh(s) ** 2)

            for f in (legendre, hypergeometric):
                try:
                    y_mp = mpmath.mpf(y)
                    return complex(f(y_mp) if order == 0 else mpmath.diff(f, y_mp, order))
                except mpmath.libmp.NoConvergence:
                    continue
    with mpmath.workdps(30):
        def series(s):
            return _conical_series(complex(-0.5 - eta, xi), s)

        y_mp = mpmath.mpf(y)
        return complex(series(y_mp) if order == 0 else mpmath.diff(series, y_mp, order))


def _conical_series(nu: complex, s) -> mpmath.mpc:
    """cosh(s)^(2 nu) 2F1(-nu, -nu; 1; tanh(s)^2), summed term by term.  The
    terms rise far above the sum before they fall (to 10^846 for a sum near
    0.01 at |nu| = 1168, s = 0.96), so a first pass in floating point finds
    the largest term and the number of terms, and the sum is taken with 40
    digits to spare above the largest."""
    z = math.tanh(float(s)) ** 2
    log10_term, peak, count = 0.0, 0.0, 0
    while count < abs(nu) + 10 or log10_term > -40.0:
        a = complex(-nu.real + count, -nu.imag)
        if a == 0:  # a polynomial: every later term vanishes
            break
        log10_term += 2 * math.log10(abs(a)) - 2 * math.log10(count + 1) + math.log10(z)
        peak, count = max(peak, log10_term), count + 1
    with mpmath.workdps(int(peak) + 40 + mpmath.mp.dps):
        a, w = -mpmath.mpc(nu.real, nu.imag), mpmath.tanh(s) ** 2
        term = total = mpmath.mpc(1)
        for k in range(count):
            term *= (a + k) ** 2 / (k + 1) ** 2 * w
            total += term
        result = mpmath.cosh(s) ** (-2 * a) * total
    return +result


def check_close(what: str, got: complex, reference: complex, tol: float):
    err = abs(got - reference)
    if not err <= tol:
        return f"{what}: |{got} - {reference}| = {err:.3e} above {tol:.1e}"
    return None


def check_sl2(xi: float, eta: float, y: float, value: complex):
    return check_close(f"spherical_sl2(xi={xi}, eta={eta}, Y={y})", value,
                       sl2_reference(xi, eta, y), SL2_TOL)


def check_sl2_modulus(xi: float, eta: float, y: float, value: complex):
    """|phi_{xi + i eta}(Y)| <= phi_{i eta}(Y): the integrand's modulus does
    not depend on xi."""
    bound = sl2_reference(0.0, eta, y).real
    if not abs(value) <= bound + SL2_TOL:
        return f"spherical_sl2(xi={xi}, eta={eta}, Y={y}): |{value}| above {bound}"
    return None


def check_sl2_derivative(xi: float, eta: float, y: float, order: int, value: complex):
    reference = sl2_reference(xi, eta, y, order)
    return check_close(f"deriv_spherical_sl2(xi={xi}, eta={eta}, Y={y}, order={order})",
                       value, reference, DERIV_RTOL * max(1.0, abs(reference)))


def check_compact(n: int, theta: float, value: float):
    return check_close(f"spherical_compact_su2(n={n}, theta={theta})", value,
                       float(eval_legendre(n, math.cos(theta))), COMPACT_TOL)


def check_slope(label: str, slope: float, expected: float = -0.5):
    if not abs(slope - expected) <= SLOPE_TOL:
        return f"{label}: decay slope {slope:+.4f} outside {expected} +- {SLOPE_TOL}"
    return None


def check_holder_verdicts(bounded_verdict: str, growing_verdict: str):
    if (bounded_verdict, growing_verdict) != ("bounded", "growing"):
        return (f"Holder verdicts {bounded_verdict!r} at alpha=1/2 and "
                f"{growing_verdict!r} at alpha=0.6, expected 'bounded' and 'growing'")
    return None


def check_error_decreases(label: str, errors):
    """The leading-term remainder is one power of t smaller than the term, so
    along a dyadic sweep the worst error of the second half must fall well
    below the worst of the first half (pointwise it oscillates)."""
    half = len(errors) // 2
    first, second = max(errors[:half]), max(errors[half:])
    if not second * 4.0 <= first:
        return (f"{label}: stationary-phase error does not decrease "
                f"(first half {first:.3e}, second half {second:.3e})")
    return None


def check_weyl_symmetric(label: str, a: complex, a_err: float, b: complex, b_err: float):
    """Spherical functions are invariant under the Weyl group acting on the
    spectral parameter; two Monte Carlo estimates must agree within their
    combined standard error."""
    return check_close(label, a, b, 8.0 * math.hypot(a_err, b_err))


def check_blowup(wall_quotients, wall_growth: float, interior_ratio: float):
    increasing = all(b > a for a, b in zip(wall_quotients, wall_quotients[1:]))
    if not (increasing and wall_growth >= 4.0 and interior_ratio < 2.0):
        return (f"wall quotients increasing={increasing}, growth {wall_growth:.2f}, "
                f"interior ratio {interior_ratio:.2f}")
    return None


# ---------------------------------------------------------------------------
# command-line outputs
# ---------------------------------------------------------------------------

def check_reconstruction(label: str, product: np.ndarray, g: np.ndarray):
    err = float(np.max(np.abs(product - g)))
    if not err <= RECONSTRUCT_TOL * max(1.0, float(np.max(np.abs(g)))):
        return f"{label}: printed factors rebuild the input with error {err:.3e}"
    return None


def cesaro_mean(fx, fy, ux, uy, m: int, big_n: int) -> float:
    """Direct sum over t of |sum fx e^{i t ux} - sum fy e^{i t uy}|^2 / N."""
    t = np.arange(m, m + big_n, dtype=float)[:, None]
    sx = (np.asarray(fx) * np.exp(1j * t * np.asarray(ux))).sum(axis=1)
    sy = (np.asarray(fy) * np.exp(1j * t * np.asarray(uy))).sum(axis=1)
    return float(np.mean(np.abs(sx - sy) ** 2))


def check_expsum(got: float, fx, fy, ux, uy, m: int, big_n: int):
    reference = cesaro_mean(fx, fy, ux, uy, m, big_n)
    return check_close("expsum", got, reference, 1e-9 * max(1.0, abs(reference)))


def log_log_slope(ts, magnitudes) -> float:
    return float(np.polyfit(np.log(ts), np.log(magnitudes), 1)[0])


def holder_sups(values: np.ndarray, h: float, alpha: float) -> float:
    """Sup of |f(x) - f(y)| / |x - y|^alpha over dyadic separations."""
    best, sep = 0.0, 1
    while sep < values.size:
        best = max(best, float(np.max(np.abs(values[sep:] - values[:-sep]))) / (h * sep) ** alpha)
        sep *= 2
    return best
