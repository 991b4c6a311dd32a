"""Spans around the package's public functions, kept in memory.

``Tracer.install`` replaces each traced function by a wrapper in every loaded
``sphreg`` module that holds it, including names bound with ``from ...
import``.  A span is ``[name, start, end, parent, count]``: ``parent`` is the
index of the enclosing traced span (-1 at top level) and ``count`` is the
work the call did, where the call has a natural count (group elements,
covectors, quadrature nodes, angle points, samples).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

TRACED = {
    "catalog": ("load_catalog", "kappa_table", "instantiate"),
    "rootsys": ("build_root_system", "kappa", "fundamental_weights", "n_of", "n_of_many",
                "in_bounded_region", "weyl_group"),
    "liegroup": ("iwasawa", "kak", "haar_so_n_sample"),
    "spherical": ("spherical_sl2", "spherical_sl2_sweep", "deriv_spherical_sl2",
                  "spherical_compact_su2", "spherical_sl3", "sl2_chamber_coordinate",
                  "sl2_chamber_derivatives"),
    "asymptotics": ("envelope_samples", "holder_estimate", "decay_fit", "leading_term_sl2",
                    "singular_blowup_check"),
    "accept": ("holder_family", "decay_envelope_fit"),
}


def _points(args, kwargs, result):
    return int(np.prod(np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))))


COUNTS = {
    "rootsys.weyl_group": lambda args, kwargs, result: len(result),
    "rootsys.n_of_many": lambda args, kwargs, result: len(result),
    "spherical.spherical_sl2": lambda args, kwargs, result: result.quadrature_nodes,
    "spherical.spherical_sl3": lambda args, kwargs, result: result.quadrature_nodes,
    "spherical.sl2_chamber_coordinate": _points,
    "spherical.sl2_chamber_derivatives": _points,
    "liegroup.haar_so_n_sample": lambda args, kwargs, result: len(result),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.grams: list[str] = []
        self._stack: list[int] = []
        self.enabled = True

    def _wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if name == "rootsys.weyl_group":
                self.grams.append(repr(args[0].gram))
            return result

        return wrapper

    def install(self) -> None:
        import sphreg.accept  # noqa: F401  (loads every traced module)

        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"sphreg.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                wrappers[id(original)] = self._wrap(f"{module}.{fname}", original)
        for modname, mod in list(sys.modules.items()):
            if modname == "sphreg" or modname.startswith("sphreg."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers:
                        setattr(mod, attr, wrappers[id(value)])

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "grams": self.grams, **extra}, handle)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CLI_VERBS = ("kappa", "table", "weights", "region", "iwasawa", "kak", "spherical",
             "statphase", "decay", "holder", "expsum")

# name, unit, better
PER_LAYER = [
    ("catalog.load_catalog.ms", "ms", "lower"),
    ("catalog.kappa_table.ms", "ms", "lower"),
    ("catalog.instantiate.self_ms", "ms", "lower"),
    ("rootsys.weyl_group.calls", "count", "lower"),
    ("rootsys.weyl_group.distinct_grams", "count", "lower"),
    ("rootsys.weyl_group.s", "s", "lower"),
    ("rootsys.weyl_group.elements_per_s", "1/s", "higher"),
    ("rootsys.n_of.calls", "count", "lower"),
    ("rootsys.n_of.us_p50", "us", "lower"),
    ("rootsys.n_of.s", "s", "lower"),
    ("rootsys.n_of_many.covectors", "count", "lower"),
    ("rootsys.n_of_many.covectors_per_s", "1/s", "higher"),
    ("rootsys.build_root_system.calls", "count", "lower"),
    ("rootsys.build_root_system.ms", "ms", "lower"),
    ("rootsys.fundamental_weights.ms", "ms", "lower"),
    ("rootsys.in_bounded_region.us_p50", "us", "lower"),
    ("rootsys.kappa.us_p50", "us", "lower"),
    ("liegroup.iwasawa.us_p50", "us", "lower"),
    ("liegroup.kak.us_p50", "us", "lower"),
    ("liegroup.haar_so_n_sample.samples_per_s", "1/s", "higher"),
    ("spherical.spherical_sl2.calls", "count", "lower"),
    ("spherical.spherical_sl2.ms_p50", "ms", "lower"),
    ("spherical.spherical_sl2.ms_p90", "ms", "lower"),
    ("spherical.spherical_sl2.nodes_final", "count", "lower"),
    ("spherical.chamber_points", "count", "lower"),
    ("spherical.chamber_points_per_s", "1/s", "higher"),
    ("spherical.spherical_sl2_sweep.s", "s", "lower"),
    ("spherical.spherical_sl3.samples_per_s", "1/s", "higher"),
    ("spherical.deriv_spherical_sl2.us_p50", "us", "lower"),
    ("spherical.spherical_compact_su2.us_p50", "us", "lower"),
    ("asymptotics.envelope_samples.self_s", "s", "lower"),
    ("asymptotics.holder_estimate.ms", "ms", "lower"),
    ("asymptotics.decay_fit.us_p50", "us", "lower"),
    ("asymptotics.leading_term_sl2.us_p50", "us", "lower"),
    ("asymptotics.singular_blowup_check.ms", "ms", "lower"),
    ("accept.holder_family.s", "s", "lower"),
    ("accept.holder_family.self_s", "s", "lower"),
    ("accept.decay_envelope_fit.s", "s", "lower"),
    ("cli.import.ms", "ms", "lower"),
    *((f"cli.{verb}.ms", "ms", "lower") for verb in CLI_VERBS),
    ("trace.overhead_s", "s", "lower"),
]


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def merge(traces: list[dict]) -> tuple[list[list], list[str]]:
    """Concatenate the spans of several processes, re-basing parent indices."""
    spans, grams = [], []
    for trace in traces:
        offset = len(spans)
        spans.extend([n, s, e, p + offset if p >= 0 else -1, c] for n, s, e, p, c in trace["spans"])
        grams.extend(trace["grams"])
    return spans, grams


def layer_metrics(spans: list[list], grams: list[str]) -> dict[str, float]:
    """Per-layer values from traced spans.  A layer the workload does not
    call reads 0."""
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        name, start, end, parent, count = span
        durations.setdefault(name, []).append(end - start)
        counts[name] = counts.get(name, 0) + count
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        selfs[name] = selfs.get(name, 0.0) + (end - start) - child_time[i]

    def total(name):
        return math.fsum(durations.get(name, ()))

    def rate(names):
        """Work counted in the spans of ``names`` per second spent in them."""
        seconds = math.fsum(total(n) for n in names)
        return sum(counts.get(n, 0) for n in names) / seconds if seconds else 0.0

    def p(name, q):
        return _percentile(durations.get(name, []), q)

    chamber = ("spherical.sl2_chamber_coordinate", "spherical.sl2_chamber_derivatives")
    m = {
        "catalog.load_catalog.ms": total("catalog.load_catalog") * 1e3,
        "catalog.kappa_table.ms": total("catalog.kappa_table") * 1e3,
        "catalog.instantiate.self_ms": selfs.get("catalog.instantiate", 0.0) * 1e3,
        "rootsys.weyl_group.calls": len(durations.get("rootsys.weyl_group", [])),
        "rootsys.weyl_group.distinct_grams": len(set(grams)),
        "rootsys.weyl_group.s": total("rootsys.weyl_group"),
        "rootsys.weyl_group.elements_per_s": rate(["rootsys.weyl_group"]),
        "rootsys.n_of.calls": len(durations.get("rootsys.n_of", [])),
        "rootsys.n_of.us_p50": p("rootsys.n_of", 50) * 1e6,
        "rootsys.n_of.s": total("rootsys.n_of"),
        "rootsys.n_of_many.covectors": counts.get("rootsys.n_of_many", 0),
        "rootsys.n_of_many.covectors_per_s": rate(["rootsys.n_of_many"]),
        "rootsys.build_root_system.calls": len(durations.get("rootsys.build_root_system", [])),
        "rootsys.build_root_system.ms": total("rootsys.build_root_system") * 1e3,
        "rootsys.fundamental_weights.ms": total("rootsys.fundamental_weights") * 1e3,
        "rootsys.in_bounded_region.us_p50": p("rootsys.in_bounded_region", 50) * 1e6,
        "rootsys.kappa.us_p50": p("rootsys.kappa", 50) * 1e6,
        "liegroup.iwasawa.us_p50": p("liegroup.iwasawa", 50) * 1e6,
        "liegroup.kak.us_p50": p("liegroup.kak", 50) * 1e6,
        "liegroup.haar_so_n_sample.samples_per_s": rate(["liegroup.haar_so_n_sample"]),
        "spherical.spherical_sl2.calls": len(durations.get("spherical.spherical_sl2", [])),
        "spherical.spherical_sl2.ms_p50": p("spherical.spherical_sl2", 50) * 1e3,
        "spherical.spherical_sl2.ms_p90": p("spherical.spherical_sl2", 90) * 1e3,
        "spherical.spherical_sl2.nodes_final": counts.get("spherical.spherical_sl2", 0),
        "spherical.chamber_points": sum(counts.get(n, 0) for n in chamber),
        "spherical.chamber_points_per_s": rate(chamber),
        "spherical.spherical_sl2_sweep.s": total("spherical.spherical_sl2_sweep"),
        "spherical.spherical_sl3.samples_per_s": rate(["spherical.spherical_sl3"]),
        "spherical.deriv_spherical_sl2.us_p50": p("spherical.deriv_spherical_sl2", 50) * 1e6,
        "spherical.spherical_compact_su2.us_p50": p("spherical.spherical_compact_su2", 50) * 1e6,
        "asymptotics.envelope_samples.self_s": selfs.get("asymptotics.envelope_samples", 0.0),
        "asymptotics.holder_estimate.ms": total("asymptotics.holder_estimate") * 1e3,
        "asymptotics.decay_fit.us_p50": p("asymptotics.decay_fit", 50) * 1e6,
        "asymptotics.leading_term_sl2.us_p50": p("asymptotics.leading_term_sl2", 50) * 1e6,
        "asymptotics.singular_blowup_check.ms": total("asymptotics.singular_blowup_check") * 1e3,
        "accept.holder_family.s": total("accept.holder_family"),
        "accept.holder_family.self_s": selfs.get("accept.holder_family", 0.0),
        "accept.decay_envelope_fit.s": total("accept.decay_envelope_fit"),
    }
    return m
