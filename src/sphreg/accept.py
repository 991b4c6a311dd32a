"""Acceptance gate: every shipped guarantee as an executable check.

Each criterion function returns a ``CriterionResult``; ``run_all`` executes
them in order.  The same functions back the command-line ``selftest`` verb
and the pytest acceptance module, so CI and humans run one gate.

Quantities that are regression-frozen (stationary-phase error bounds, the
Cesaro-mean instance) live in ``data/fixtures.json``; they were recorded
once from oracle sweeps and are asserted with the slack stated in each
criterion.  ``python -m sphreg.accept record`` regenerates the file.

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
from typing import Callable, Iterable, Sequence

import numpy as np

from . import asymptotics as asy
from . import catalog as cat
from . import liegroup as lg
from . import rootsys as rs
from . import spherical as sph
from .spherical import QuadratureConfig, SpectralParameter

__all__ = ["CriterionResult", "compute_fixtures", "load_fixtures", "run_all"]


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

def criterion_1_table() -> CriterionResult:
    t0 = time.perf_counter()
    catalog = cat.load_catalog(cat.default_catalog_text())
    rows = cat.kappa_table(catalog)
    bad = [r for r in rows if not r[5]]
    detail = f"{len(rows)} rows, {len(bad)} mismatches"
    if bad:
        detail += "; first: " + ", ".join(r[0] for r in bad[:5])
    return _result(1, "classification table reproduced exactly",
                   not bad and len(rows) >= 40, detail, t0, budget=5.0)


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


def criterion_2_weyl_invariance(per_system: int = 200) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240917)
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
            return _result(2, "Weyl invariance of n", False,
                           f"violation in {entry.id}", t0)
        systems += 1
        checks += values.size
    return _result(2, "Weyl invariance of n", True, f"{checks} exact checks over {systems} "
                   f"systems in {time.perf_counter() - t0:.1f}s", t0, budget=30.0)


# ---------------------------------------------------------------------------
# 3. infimum property of the invariant
# ---------------------------------------------------------------------------

def criterion_3_infimum(per_system: int = 10_000) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(77002)
    for entry in cat.builtin_catalog().entries:
        system = cat.instantiate(entry)
        kap2 = 2 * rs.kappa(system)
        if kap2.denominator != 1:
            return _result(3, "invariant is the infimum of n/2", False,
                           f"2 * kappa is not an integer in {entry.id}", t0)
        kap2 = int(kap2)
        lams = _random_rational_coords(rng, per_system, system.rank)
        if not np.all(rs.n_of_many(system, lams) >= kap2):
            return _result(3, "invariant is the infimum of n/2", False,
                           f"random covector below bound in {entry.id}", t0)
        weight_values = [rs.n_of(system, w) for w in rs.fundamental_weights(system)]
        if min(weight_values) != kap2:
            return _result(3, "invariant is the infimum of n/2", False,
                           f"fundamental-weight minimum off in {entry.id}", t0)
    return _result(3, "invariant is the infimum of n/2", True,
                   f"{per_system} covectors per system, equality at weights", t0)


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


def criterion_4_decompositions(count: int = 500) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
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
    return _result(4, "factorization round trips", passed,
                   f"worst errors: iwasawa {worst_iwa:.2e}, kak {worst_kak:.2e}, "
                   f"left invariance {worst_inv:.2e} over {count} elements", t0)


# ---------------------------------------------------------------------------
# 5. spherical decay exponent
# ---------------------------------------------------------------------------

def decay_envelope_fit(xi: float, t_geo: float, t_min: float = 10.0,
                       t_max: float = 2000.0, points: int = 8) -> asy.DecayFit:
    """Log-log fit of the envelope of the spherical magnitude over a
    geometric sweep of the spectral scale.

    The magnitude oscillates with half period pi/(2 xi Y) in the scale, so
    each sample is the maximum over one half-period window (with its true
    abscissa); windows are spaced to stay disjoint.  One sweep call
    (``spherical.spherical_sl2_sweep``) evaluates every window.
    """
    half_period = math.pi / (2.0 * xi * t_geo)
    ratio = max(1.25, 1.0 + 1.1 * half_period / t_min)
    n_targets = max(min(28, int(math.log(t_max / t_min) / math.log(ratio))), 8)
    targets = np.geomspace(t_min, t_max / ratio, n_targets)
    samples = asy.envelope_samples(
        lambda ts: np.abs(sph.spherical_sl2_sweep(ts * xi, 0.0, t_geo)),
        targets, half_period, points)
    return asy.decay_fit(samples)


def criterion_5_decay() -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    passed = True
    for xi in (0.5, 1.0, 2.0):
        for t_geo in (0.5, 1.0, 2.0):
            fit = decay_envelope_fit(xi, t_geo)
            passed &= abs(fit.slope + 0.5) <= 0.05 and fit.r_squared >= 0.95
            details.append(f"xi={xi},Y={t_geo}: slope {fit.slope:+.3f} r2 {fit.r_squared:.3f}")
    return _result(5, "decay exponent -1/2 across nine instances", passed,
                   "; ".join(details) + f" [{time.perf_counter() - t0:.0f}s]", t0, budget=120.0)


# ---------------------------------------------------------------------------
# 6. Holder dichotomy
# ---------------------------------------------------------------------------

HOLDER_XI = 0.05
HOLDER_REGION = (0.5, 2.5)
HOLDER_GRID_POINTS = 2049
HOLDER_SWEEP = tuple(2 ** k for k in range(4, 12))


def holder_family(xi: float = HOLDER_XI,
                  region: tuple[float, float] = HOLDER_REGION,
                  grid_points: int = HOLDER_GRID_POINTS,
                  sweep: Sequence[float] = HOLDER_SWEEP):
    """Chamber restrictions of the spherical family on a uniform grid: one
    sweep call (``spherical.spherical_sl2_sweep``) at the spectral values
    ``t * xi`` of the sweep."""
    grid = np.linspace(region[0], region[1], grid_points)
    values = sph.spherical_sl2_sweep(xi * np.asarray(sweep, dtype=float), 0.0, grid)
    return dict(zip(sweep, values.real.T.copy())), grid


def criterion_6_holder_dichotomy() -> CriterionResult:
    t0 = time.perf_counter()
    family, grid = holder_family()
    bounded = asy.holder_estimate(family, grid, 0, 0.5)
    growing = asy.holder_estimate(family, grid, 0, 0.6)
    q_bounded = np.array(bounded.sup_quotients)
    spread = float(q_bounded.max() / q_bounded.min())
    ok_bounded = spread < 2.0 and bounded.verdict == "bounded"
    ok_growing = growing.growth_ratio >= 2.0 and growing.verdict == "growing"
    detail = (f"alpha=0.5 spread {spread:.2f} ({bounded.verdict}); "
              f"alpha=0.6 growth {growing.growth_ratio:.2f} ({growing.verdict})")
    return _result(6, "Holder dichotomy at exponent 1/2", ok_bounded and ok_growing,
                   detail, t0)


# ---------------------------------------------------------------------------
# 7. stationary-phase leading term
# ---------------------------------------------------------------------------

STATPHASE_SWEEP = (50, 100, 200, 400, 800, 1600)
STATPHASE_SL2 = {"xi": 0.5, "t_geo": 0.8}
STATPHASE_COMPACT_THETA = 1.0


def statphase_errors_sl2(xi: float, t_geo: float,
                         sweep: Sequence[int] = STATPHASE_SWEEP) -> list[float]:
    amplitude = asy.spherical_amplitude_sl2(t_geo)
    config = QuadratureConfig(n_start=1024, n_max=1 << 20, target=1e-12, fail=1e-8)
    errors = []
    for t in sweep:
        quad = sph.spherical_sl2(SpectralParameter.rank1(t * xi), t_geo, config).value
        lead = asy.leading_term_sl2(xi, t_geo, t, amplitude).total
        errors.append(abs(quad - lead))
    return errors


def statphase_errors_compact(theta: float = STATPHASE_COMPACT_THETA,
                             sweep: Sequence[int] = STATPHASE_SWEEP) -> list[float]:
    top = max(sweep)
    seq = sph.legendre_sequence(top, math.cos(theta))
    return [abs(seq[n] - asy.leading_term_compact(n, theta)) for n in sweep]


def criterion_7_leading_term() -> CriterionResult:
    t0 = time.perf_counter()
    fixtures = load_fixtures()
    results = []
    passed = True
    for label, errors, fixture_key in (
        ("sl2", statphase_errors_sl2(**STATPHASE_SL2), "statphase_sl2_weighted_max"),
        ("compact", statphase_errors_compact(), "statphase_compact_weighted_max"),
    ):
        weighted = [e * t ** 1.5 for e, t in zip(errors, STATPHASE_SWEEP)]
        bound = fixtures[fixture_key] * 1.2
        monotone = all(b < a for a, b in zip(errors, errors[1:]))
        ok = max(weighted) <= bound and monotone
        passed &= ok
        results.append(f"{label}: weighted max {max(weighted):.4f} (bound {bound:.4f}), "
                       f"monotone={monotone}")
    return _result(7, "leading-term error is one order smaller", passed,
                   "; ".join(results), t0)


# ---------------------------------------------------------------------------
# 8. compact duality
# ---------------------------------------------------------------------------

def legendre_envelope_fit(theta: float = 1.0, n_min: int = 10,
                          n_max: int = 1000) -> asy.DecayFit:
    sequence = sph.legendre_sequence(n_max + 10, math.cos(theta))
    targets = np.unique(np.geomspace(n_min, n_max, 24).astype(int))
    samples = []
    for n0 in targets:
        window = np.arange(n0, n0 + 4)
        values = np.abs(sequence[window])
        j = int(np.argmax(values))
        abscissa = float(window[j])
        if samples and abscissa <= samples[-1][0]:
            continue
        samples.append((abscissa, float(values[j])))
    return asy.decay_fit(samples)


def criterion_8_compact_duality() -> CriterionResult:
    t0 = time.perf_counter()
    thetas = np.linspace(0.05 * math.pi, 0.95 * math.pi, 50)
    worst = 0.0
    for theta in thetas:
        reference = sph.legendre_sequence(100, math.cos(theta))
        for n in range(0, 101, 4):
            worst = max(worst, abs(sph.spherical_compact_su2(n, theta) - reference[n]))
    fit = legendre_envelope_fit()
    slope_ok = abs(fit.slope + 0.5) <= 0.05
    passed = worst <= 1e-9 and slope_ok
    return _result(8, "compact integral matches the recurrence; exponent -1/2", passed,
                   f"max deviation {worst:.2e}; slope {fit.slope:+.3f} r2 {fit.r_squared:.3f}",
                   t0)


# ---------------------------------------------------------------------------
# 9. blow-up at the chamber wall
# ---------------------------------------------------------------------------

def criterion_9_singular_blowup() -> CriterionResult:
    t0 = time.perf_counter()
    thetas = np.geomspace(1e-8, 0.49, 400)
    degrees = sorted({int(round(10 ** (1 + 3 * k / 12))) for k in range(13)})
    report = asy.singular_blowup_check(thetas, degrees)
    monotone = all(b > a for a, b in zip(report.wall_quotients, report.wall_quotients[1:]))
    passed = report.wall_growth >= 4.0 and monotone and report.interior_ratio < 2.0
    return _result(9, "wall quotients blow up, interior stays bounded", passed,
                   f"wall growth {report.wall_growth:.1f} (monotone={monotone}), "
                   f"interior ratio {report.interior_ratio:.2f}", t0)


# ---------------------------------------------------------------------------
# 10. Cesaro separation of exponential sums
# ---------------------------------------------------------------------------

CESARO_H = 0.01


def cesaro_two_frequency(h: float = CESARO_H) -> float:
    big_n = int(math.ceil(10.0 / h))
    return asy.exp_sum_separation(
        [1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0 + h, -(1.0 + h)], 0, big_n)


def criterion_10_cesaro() -> CriterionResult:
    t0 = time.perf_counter()
    fixtures = load_fixtures()
    mean = cesaro_two_frequency()
    recorded = fixtures["cesaro_two_frequency_mean"]
    lower = 0.5 * 2.0
    passed = mean >= lower and abs(mean - recorded) <= 0.10 * recorded
    return _result(10, "Cesaro-mean lower bound on the two-frequency instance", passed,
                   f"mean {mean:.6f}, bound {lower}, recorded {recorded:.6f}", t0)


# ---------------------------------------------------------------------------
# driver and fixture recording
# ---------------------------------------------------------------------------

_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1_table,
    criterion_2_weyl_invariance,
    criterion_3_infimum,
    criterion_4_decompositions,
    criterion_5_decay,
    criterion_6_holder_dichotomy,
    criterion_7_leading_term,
    criterion_8_compact_duality,
    criterion_9_singular_blowup,
    criterion_10_cesaro,
)


def run_all(only: Iterable[int] | None = None,
            progress: Callable[[str], None] | None = None) -> list[CriterionResult]:
    wanted = set(only) if only is not None else None
    results = []
    for index, criterion in enumerate(_CRITERIA, start=1):
        if wanted is not None and index not in wanted:
            continue
        result = criterion()
        results.append(result)
        if progress is not None:
            status = "pass" if result.passed else f"FAIL: {result.failure}"
            progress(f"criterion {result.index:2d} [{status}] {result.name}: "
                     f"{result.detail} ({result.seconds:.1f}s)")
    return results


def compute_fixtures() -> dict:
    """Recompute the regression-frozen quantities from their oracles."""
    sl2 = statphase_errors_sl2(**STATPHASE_SL2)
    compact = statphase_errors_compact()
    growth = sph.spherical_sl2(
        SpectralParameter.rank1(0.0, 0.75), 4.0,
        QuadratureConfig(n_start=4096, n_max=1 << 20, target=1e-10, fail=1e-6)).value
    lead_example = statphase_errors_sl2(1.0, 1.0, (50, 100, 200, 400))
    return {
        "statphase_sl2_weighted_max": max(e * t ** 1.5 for e, t in zip(sl2, STATPHASE_SWEEP)),
        "statphase_compact_weighted_max": max(
            e * t ** 1.5 for e, t in zip(compact, STATPHASE_SWEEP)),
        "statphase_sl2_xi1_weighted_max": max(
            e * t ** 1.5 for e, t in zip(lead_example, (50, 100, 200, 400))),
        "cesaro_two_frequency_mean": cesaro_two_frequency(),
        "unbounded_parameter_magnitude_t4": abs(growth),
    }


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m sphreg.accept")
    parser.add_argument("mode", nargs="?", default="run", choices=("run", "record"))
    args = parser.parse_args(argv)
    if args.mode == "record":
        values = compute_fixtures()
        print(json.dumps(values, indent=2, sort_keys=True))
        return 0
    results = run_all(progress=print)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
