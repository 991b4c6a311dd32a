"""Acceptance gate: every shipped guarantee as an executable check.

``_CRITERIA`` lists each criterion once, as (title, time budget, check); a
criterion's number is its place in that list.  A check returns ``(maths,
detail)``, and ``run_all`` times it and makes the ``CriterionResult``.  The
same list backs the command-line ``selftest`` verb and the pytest acceptance
module, so CI and humans run one gate.

Quantities that are regression-frozen (stationary-phase error bounds, the
Cesaro-mean instance) live in ``data/fixtures.json``; they were recorded
once from oracle sweeps and are asserted with the slack stated in each
criterion.  ``python -m sphreg.accept record`` prints them recomputed, which
is how the file is regenerated; the gate itself runs as ``sphreg selftest``.

Instance notes.  Criterion 6 sweeps the spectral direction ``xi = 0.05``:
the Holder-quotient ratio of the bounded/growing dichotomy is measured over
t in {2^4 .. 2^11}, and a slow direction keeps the t = 16 end of the sweep
short of quotient saturation, which is what makes the genuine t^{alpha-1/2}
growth at alpha = 0.6 visible above the factor-2 threshold while the
alpha = 0.5 quotients stay within a factor 1.6.  Faster directions (for
example xi = 0.5) saturate immediately and the same growth only reaches a
factor of about 2^{0.7} across this sweep.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from . import asymptotics as asy
from . import catalog as cat
from . import liegroup as lg
from . import rootsys as rs
from . import spherical as sph
from .spherical import QuadratureConfig, SpectralParameter

__all__ = ["CriterionNumberError", "CriterionResult", "compute_fixtures", "load_fixtures",
           "run_all"]


class CriterionNumberError(ValueError):
    """``run_all`` was asked for a criterion number outside the list."""


@dataclass(frozen=True)
class CriterionResult:
    """A criterion's outcome: ``maths`` is the verdict of its checks and
    ``within_budget`` whether it finished inside its time budget; it
    ``passed`` if both hold."""

    index: int
    name: str
    maths: bool
    within_budget: bool
    detail: str
    seconds: float

    @property
    def passed(self) -> bool:
        return self.maths and self.within_budget

    @property
    def failure(self) -> str:
        """What failed: ``"maths"``, ``"budget"``, ``"maths and budget"``, or
        ``""`` if nothing did."""
        return " and ".join(part for part, ok in (("maths", self.maths),
                                                  ("budget", self.within_budget)) if not ok)


def load_fixtures() -> dict:
    text = resources.files(__package__).joinpath("data/fixtures.json").read_text("utf-8")
    return json.loads(text)


def _result(index: int, name: str, maths: bool, detail: str, t0: float,
            budget: float = math.inf) -> CriterionResult:
    """A criterion that takes its time ``budget`` or longer fails on the
    budget, whatever ``maths`` says, and its detail then says both."""
    seconds = time.perf_counter() - t0
    within_budget = seconds < budget
    if not within_budget:
        detail = f"maths {'ok' if maths else 'failed'}; {budget:g} s budget exceeded; {detail}"
    return CriterionResult(index, name, bool(maths), within_budget, detail, seconds)


# ---------------------------------------------------------------------------
# 1. full table reproduction
# ---------------------------------------------------------------------------

def criterion_1_table() -> tuple[bool, str]:
    catalog = cat.load_catalog(cat.default_catalog_text())
    rows = cat.kappa_table(catalog)
    bad = [r for r in rows if not r[5]]
    detail = f"{len(rows)} rows, {len(bad)} mismatches"
    if bad:
        detail += "; first: " + ", ".join(r[0] for r in bad[:5])
    return not bad and len(rows) >= 40, detail


# ---------------------------------------------------------------------------
# 2. Weyl invariance of the root-counting function
# ---------------------------------------------------------------------------

def _random_rational_coords(rng, count: int, rank: int) -> np.ndarray:
    """Nonzero rational covectors with denominators cleared.

    The orthogonality pattern against each root is invariant under positive
    scaling, so an exact integer representative of p/q coordinates gives the
    same value of the counting function.
    """
    numerators = rng.integers(-9, 10, size=(count, rank))
    denominators = rng.integers(1, 9, size=(count, rank))
    lcm = np.lcm.reduce(denominators, axis=1)
    scaled = numerators * (lcm[:, None] // denominators)
    zero = np.all(scaled == 0, axis=1)
    scaled[zero, 0] = 1
    return scaled.astype(np.int64)


def criterion_2_weyl_invariance() -> tuple[bool, str]:
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240917)
    per_system = 200
    systems = 0
    checks = 0
    for entry in cat.builtin_catalog().entries:
        if entry.rank > 4:
            continue
        system = cat.instantiate(entry)
        group = rs.weyl_group(system)
        lams = _random_rational_coords(rng, per_system, system.rank)
        base = rs.n_of_many(system, lams)
        mats = np.array([w.matrix for w in group], dtype=np.int64)
        images = np.einsum("wij,lj->wli", mats, lams).reshape(-1, system.rank)
        values = rs.n_of_many(system, images).reshape(len(group), per_system)
        if not np.all(values == base[None, :]):
            return False, f"violation in {entry.id}"
        systems += 1
        checks += values.size
    return True, (f"{checks} exact checks over {systems} systems in "
                  f"{time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# 3. infimum property of the invariant
# ---------------------------------------------------------------------------

def criterion_3_infimum() -> tuple[bool, str]:
    rng = np.random.default_rng(77002)
    per_system = 10_000
    for entry in cat.builtin_catalog().entries:
        system = cat.instantiate(entry)
        kap2 = 2 * rs.kappa(system)
        if kap2.denominator != 1:
            return False, f"2 * kappa is not an integer in {entry.id}"
        kap2 = int(kap2)
        lams = _random_rational_coords(rng, per_system, system.rank)
        if not np.all(rs.n_of_many(system, lams) >= kap2):
            return False, f"random covector below bound in {entry.id}"
        weight_values = [rs.n_of(system, w) for w in rs.fundamental_weights(system)]
        if min(weight_values) != kap2:
            return False, f"fundamental-weight minimum off in {entry.id}"
    return True, f"{per_system} covectors per system, equality at weights"


# ---------------------------------------------------------------------------
# 4. decomposition round trips
# ---------------------------------------------------------------------------

def _random_element(rng, n: int) -> lg.SpecialLinearElement:
    while True:
        a = rng.standard_normal((n, n))
        if np.linalg.det(a) < 0:
            a[:, 0] *= -1.0
        if np.linalg.cond(a) < 1e6 and np.linalg.det(a) > 1e-6:
            return lg.SpecialLinearElement.from_array(a)


def criterion_4_decompositions() -> tuple[bool, str]:
    rng = np.random.default_rng(5150)
    count = 500
    worst_iwa = worst_kak = worst_inv = 0.0
    for i in range(count):
        n = 2 if i % 2 == 0 else 3
        g = _random_element(rng, n)
        fac = lg.iwasawa(g)
        worst_iwa = max(worst_iwa, float(np.linalg.norm(fac.reconstruct() - g.entries)))
        kf = lg.kak(g)
        worst_kak = max(worst_kak, float(np.linalg.norm(kf.reconstruct() - g.entries)))
        k = lg.haar_so_n_sample(n, 9000 + i, 1)[0]
        kg = lg.SpecialLinearElement(n, k @ g.entries)
        worst_inv = max(worst_inv, float(np.max(np.abs(
            lg.iwasawa_projection(kg) - fac.h))))
    passed = worst_iwa <= 1e-10 and worst_kak <= 1e-10 and worst_inv <= 1e-9
    return passed, (f"worst errors: iwasawa {worst_iwa:.2e}, kak {worst_kak:.2e}, "
                    f"left invariance {worst_inv:.2e} over {count} elements")


# ---------------------------------------------------------------------------
# 5. spherical decay exponent
# ---------------------------------------------------------------------------

def decay_envelope_fit(xi: float, t_geo: float) -> asy.DecayFit:
    """Log-log fit of the envelope of the spherical magnitude over a
    geometric sweep of the spectral scale from 10 to 2000.

    The magnitude oscillates with half period pi/(2 xi Y) in the scale, so
    each sample is the maximum over one half-period window of 8 points (with
    its true abscissa); windows are spaced to stay disjoint.  One sweep call
    (``spherical.spherical_sl2_sweep``) evaluates every window.
    """
    t_min, t_max = 10.0, 2000.0
    half_period = math.pi / (2.0 * xi * t_geo)
    ratio = max(1.25, 1.0 + 1.1 * half_period / t_min)
    n_targets = max(min(28, int(math.log(t_max / t_min) / math.log(ratio))), 8)
    targets = np.geomspace(t_min, t_max / ratio, n_targets)
    samples = asy.envelope_samples(
        lambda ts: np.abs(sph.spherical_sl2_sweep(ts * xi, 0.0, t_geo)),
        targets, half_period)
    return asy.decay_fit(samples)


def criterion_5_decay() -> tuple[bool, str]:
    t0 = time.perf_counter()
    details = []
    passed = True
    for xi in (0.5, 1.0, 2.0):
        for t_geo in (0.5, 1.0, 2.0):
            fit = decay_envelope_fit(xi, t_geo)
            passed &= abs(fit.slope + 0.5) <= 0.05 and fit.r_squared >= 0.95
            details.append(f"xi={xi},Y={t_geo}: slope {fit.slope:+.3f} r2 {fit.r_squared:.3f}")
    return passed, "; ".join(details) + f" [{time.perf_counter() - t0:.0f}s]"


# ---------------------------------------------------------------------------
# 6. Holder dichotomy
# ---------------------------------------------------------------------------

HOLDER_XI = 0.05
HOLDER_REGION = (0.5, 2.5)
HOLDER_GRID_POINTS = 2049
HOLDER_SWEEP = tuple(2 ** k for k in range(4, 12))


def holder_family():
    """Chamber restrictions of the spherical family on ``HOLDER_GRID_POINTS``
    uniform points of ``HOLDER_REGION``: one sweep call (``spherical.spherical_sl2_sweep``)
    at the spectral values ``t * HOLDER_XI``, t in ``HOLDER_SWEEP``."""
    grid = np.linspace(HOLDER_REGION[0], HOLDER_REGION[1], HOLDER_GRID_POINTS)
    values = sph.spherical_sl2_sweep(HOLDER_XI * np.asarray(HOLDER_SWEEP, dtype=float), 0.0, grid)
    return dict(zip(HOLDER_SWEEP, values.real.T.copy())), grid


def criterion_6_holder_dichotomy() -> tuple[bool, str]:
    family, grid = holder_family()
    bounded = asy.holder_estimate(family, grid, 0, 0.5)
    growing = asy.holder_estimate(family, grid, 0, 0.6)
    q_bounded = np.array(bounded.sup_quotients)
    spread = float(q_bounded.max() / q_bounded.min())
    ok_bounded = spread < 2.0 and bounded.verdict == "bounded"
    ok_growing = growing.growth_ratio >= 2.0 and growing.verdict == "growing"
    detail = (f"alpha=0.5 spread {spread:.2f} ({bounded.verdict}); "
              f"alpha=0.6 growth {growing.growth_ratio:.2f} ({growing.verdict})")
    return ok_bounded and ok_growing, detail


# ---------------------------------------------------------------------------
# 7. stationary-phase leading term
# ---------------------------------------------------------------------------

STATPHASE_SWEEP = (50, 100, 200, 400, 800, 1600)
STATPHASE_SL2 = {"t_geo": 0.8, "xi": 0.5}
STATPHASE_COMPACT_THETA = 1.0


def statphase_errors(group: str, t_geo: float, xi: float = 0.0,
                     steps: Sequence[int] = STATPHASE_SWEEP) -> tuple[list[float], float]:
    """The leading term's errors at ``steps`` (``asymptotics.statphase_rows``,
    the rows ``sphreg statphase`` prints) and their maximum weighted by
    ``t^(3/2)``."""
    errors = [abs(value - lead) for _, value, lead in asy.statphase_rows(group, t_geo, steps, xi)]
    return errors, max(e * t ** 1.5 for e, t in zip(errors, steps))


def criterion_7_leading_term() -> tuple[bool, str]:
    fixtures = load_fixtures()
    results = []
    passed = True
    for label, (errors, weighted_max), fixture_key in (
        ("sl2", statphase_errors("sl2", **STATPHASE_SL2), "statphase_sl2_weighted_max"),
        ("compact", statphase_errors("su2", STATPHASE_COMPACT_THETA),
         "statphase_compact_weighted_max"),
    ):
        bound = fixtures[fixture_key] * 1.2
        monotone = all(b < a for a, b in zip(errors, errors[1:]))
        passed &= weighted_max <= bound and monotone
        results.append(f"{label}: weighted max {weighted_max:.4f} (bound {bound:.4f}), "
                       f"monotone={monotone}")
    return passed, "; ".join(results)


# ---------------------------------------------------------------------------
# 8. compact duality
# ---------------------------------------------------------------------------

def legendre_envelope_fit() -> asy.DecayFit:
    """Log-log fit of the envelope of the Legendre sequence at angle 1 over
    degrees 10 to 1000, each sample the maximum over four degrees (``envelope_samples``);
    windows overlap, so a sample whose degree does not pass the last one's is dropped."""
    theta, n_min, n_max = 1.0, 10, 1000
    sequence = sph.legendre_sequence(n_max + 10, math.cos(theta))
    targets = np.unique(np.geomspace(n_min, n_max, 24).astype(int))
    samples = []
    for sample in asy.envelope_samples(lambda n: sequence[n.astype(int)], targets, 3.0, 4):
        if not samples or sample[0] > samples[-1][0]:
            samples.append(sample)
    return asy.decay_fit(samples)


def criterion_8_compact_duality() -> tuple[bool, str]:
    thetas = np.linspace(0.05 * math.pi, 0.95 * math.pi, 50)
    worst = 0.0
    for theta in thetas:
        reference = sph.legendre_sequence(100, math.cos(theta))
        for n in range(0, 101, 4):
            worst = max(worst, abs(sph.spherical_compact_su2(n, theta) - reference[n]))
    fit = legendre_envelope_fit()
    slope_ok = abs(fit.slope + 0.5) <= 0.05
    return (worst <= 1e-9 and slope_ok,
            f"max deviation {worst:.2e}; slope {fit.slope:+.3f} r2 {fit.r_squared:.3f}")


# ---------------------------------------------------------------------------
# 9. blow-up at the chamber wall
# ---------------------------------------------------------------------------

def criterion_9_singular_blowup() -> tuple[bool, str]:
    thetas = np.geomspace(1e-8, 0.49, 400)
    degrees = sorted({int(round(10 ** (1 + 3 * k / 12))) for k in range(13)})
    report = asy.singular_blowup_check(thetas, degrees)
    monotone = all(b > a for a, b in zip(report.wall_quotients, report.wall_quotients[1:]))
    passed = report.wall_growth >= 4.0 and monotone and report.interior_ratio < 2.0
    return passed, (f"wall growth {report.wall_growth:.1f} (monotone={monotone}), "
                    f"interior ratio {report.interior_ratio:.2f}")


# ---------------------------------------------------------------------------
# 10. Cesaro separation of exponential sums
# ---------------------------------------------------------------------------

def cesaro_two_frequency() -> float:
    """Cesaro mean of the difference of two cosine sums at the frequencies 1
    and 1 + h, h = 0.01, over 10 / h terms."""
    h = 0.01
    big_n = int(math.ceil(10.0 / h))
    return asy.exp_sum_separation(
        [1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0 + h, -(1.0 + h)], 0, big_n)


def criterion_10_cesaro() -> tuple[bool, str]:
    fixtures = load_fixtures()
    mean = cesaro_two_frequency()
    recorded = fixtures["cesaro_two_frequency_mean"]
    lower = 0.5 * 2.0
    passed = mean >= lower and abs(mean - recorded) <= 0.10 * recorded
    return passed, f"mean {mean:.6f}, bound {lower}, recorded {recorded:.6f}"


# ---------------------------------------------------------------------------
# driver and fixture recording
# ---------------------------------------------------------------------------

_CRITERIA: tuple[tuple[str, float, Callable[[], tuple[bool, str]]], ...] = (
    ("classification table reproduced exactly", 5.0, criterion_1_table),
    ("Weyl invariance of n", 30.0, criterion_2_weyl_invariance),
    ("invariant is the infimum of n/2", math.inf, criterion_3_infimum),
    ("factorization round trips", math.inf, criterion_4_decompositions),
    ("decay exponent -1/2 across nine instances", 120.0, criterion_5_decay),
    ("Holder dichotomy at exponent 1/2", math.inf, criterion_6_holder_dichotomy),
    ("leading-term error is one order smaller", math.inf, criterion_7_leading_term),
    ("compact integral matches the recurrence; exponent -1/2", math.inf,
     criterion_8_compact_duality),
    ("wall quotients blow up, interior stays bounded", math.inf, criterion_9_singular_blowup),
    ("Cesaro-mean lower bound on the two-frequency instance", math.inf, criterion_10_cesaro),
)


def run_all(only: Sequence[int] | None = None,
            progress: Callable[[str], None] | None = None) -> list[CriterionResult]:
    """Runs the criteria numbered in ``only`` (all by default) in list order.
    A number outside the list raises ``CriterionNumberError`` before any
    criterion runs."""
    outside = [n for n in only or () if not 1 <= n <= len(_CRITERIA)]
    if outside:
        raise CriterionNumberError(f"no criterion {outside[0]}; the criteria are numbered "
                                   f"1..{len(_CRITERIA)}")
    results = []
    for index, (name, budget, check) in enumerate(_CRITERIA, start=1):
        if only is not None and index not in only:
            continue
        t0 = time.perf_counter()
        maths, detail = check()
        result = _result(index, name, maths, detail, t0, budget)
        results.append(result)
        if progress is not None:
            status = "pass" if result.passed else f"FAIL: {result.failure}"
            progress(f"criterion {result.index:2d} [{status}] {result.name}: "
                     f"{result.detail} ({result.seconds:.1f}s)")
    return results


def compute_fixtures() -> dict:
    """Recompute the regression-frozen quantities from their oracles."""
    _, sl2 = statphase_errors("sl2", **STATPHASE_SL2)
    _, compact = statphase_errors("su2", STATPHASE_COMPACT_THETA)
    growth = sph.spherical_sl2(
        SpectralParameter.rank1(0.0, 0.75), 4.0,
        QuadratureConfig(n_start=4096, n_max=1 << 20, target=1e-10, fail=1e-6)).value
    _, lead_example = statphase_errors("sl2", 1.0, 1.0, (50, 100, 200, 400))
    return {
        "statphase_sl2_weighted_max": sl2,
        "statphase_compact_weighted_max": compact,
        "statphase_sl2_xi1_weighted_max": lead_example,
        "cesaro_two_frequency_mean": cesaro_two_frequency(),
        "unbounded_parameter_magnitude_t4": abs(growth),
    }


def main(argv: Sequence[str] | None = None) -> int:
    """``record``: print the fixtures recomputed, as ``data/fixtures.json`` holds them.
    A usage error prints one line and exits 2, as the ``sphreg`` verbs do."""
    from .cli import _Parser

    parser = _Parser(prog="python -m sphreg.accept")
    parser.add_argument("mode", choices=("record",), metavar="record")
    parser.parse_args(argv)
    print(json.dumps(compute_fixtures(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
