"""Benchmark entry point.

    python3 bench/run.py --workload {exact,quadrature,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src``.  Workers run one at a time.  A run is a fixed number of rounds of
identical make-up: ``--seconds`` over the workload's nominal round length
(at least one).  The count does not depend on the measured time, so every
run does the same work and reports the same ``attempted`` and ``failed``
whatever the speed of the host or of the program.  Set-up probes run half
before and half after the rounds.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` one untraced and one traced round run and the object holds
the per-layer metrics.  Outputs and traces go to ``.bench_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out")
WORKER_TIMEOUT = 150
SETUP_PROBES = 10
# Length of one round of each workload on the reference machine (see README).
ROUND_SECONDS = {"exact": 20.0, "quadrature": 20.0, "cli": 4.0}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("call_p50_ms", "ms"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repeat(workload: str, seconds: float, one_round) -> list:
    """Runs the workload's fixed number of rounds for ``seconds``."""
    count = max(1, int(seconds / ROUND_SECONDS[workload]))
    return [one_round(index) for index in range(count)]


def call_times(calls, average=statistics.median) -> list[float]:
    """Each call's average over its measurements, from (key, seconds) pairs.
    A key names the same call in every round and every process that times
    it.  With the median, one slow moment or process moves a call's value by
    at most half a step."""
    times: dict = {}
    for key, seconds in calls:
        times.setdefault(key, []).append(seconds)
    return [average(values) for values in times.values()]


class Tally:
    """Operations attempted and failed, and check errors, across rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, failures: list[str], errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.errors += errors
        for message in failures:
            print(f"failed: {message}", file=sys.stderr)
        for message in errors:
            print(f"check: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# exact and quadrature: cold worker processes, one per part of a round
# ---------------------------------------------------------------------------

def worker(workload: str, seed: int, round_index: int, part: str, trace: bool) -> dict:
    out = os.path.join(OUT, f"{workload}-{seed}-{round_index}-{part}-{int(trace)}.json")
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
                    str(round_index), part, "1" if trace else "0", out],
                   env=child_env(), check=True, timeout=WORKER_TIMEOUT)
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup"] = result["setup_end"] - start
    return result


def run_workers(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import exact
    import quadrature

    work = {"exact": exact, "quadrature": quadrature}[workload]
    tally = Tally()

    def round_(index: int, traced: bool) -> dict:
        """One round: the parts' workers in turn, their results combined."""
        results = [worker(workload, seed, index, part, traced) for part in work.PARTS]
        for r in results:
            tally.add(r["attempted"], r["failures"], r["errors"])
        return {"wall": sum(r["wall"] for r in results),
                "calls": [c for r in results for c in r["calls"]],
                "rss_mb": max(r["rss_mb"] for r in results),
                "setups": [r["setup"] for r in results],
                "traces": [r["trace"] for r in results if "trace" in r]}

    if trace:
        plain, traced = round_(0, False), round_(0, True)
        import tracing

        metrics = tracing.layer_metrics(*tracing.merge(traced["traces"]))
        metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
        return finish(tally, metrics, trace=True)

    def probes():
        return [worker(workload, seed, -1, "-", False)["setup"]
                for _ in range(SETUP_PROBES // 2)]

    setups = probes()
    rounds = repeat(workload, seconds, lambda index: round_(index, False))
    setups += probes()
    metrics = {
        "setup_s": statistics.median(setups + [t for r in rounds for t in r["setups"]]),
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "call_p50_ms": statistics.median(call_times((c for r in rounds for c in r["calls"]),
                                                    work.CALL_AVERAGE)) * 1e3,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    return finish(tally, metrics, trace=False)


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per invocation
# ---------------------------------------------------------------------------

def run_cli(seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import clirun

    env = child_env()
    tally = Tally()

    def round_(index: int, trace_dir: str | None = None):
        invocations = clirun.make_round(seed, index, OUT)
        latencies, outputs = clirun.run_round(invocations, env, trace_dir)
        return invocations, latencies, outputs

    def check(rounds) -> None:
        for invocations, _, outputs in rounds:
            failures, errors = [], []
            for inv, text in zip(invocations, outputs):
                if text is None:
                    failures.append(" ".join(inv["argv"]))
                else:
                    errors += clirun.check_output(inv, text, checks)
            tally.add(len(invocations), failures, errors)

    if trace:
        import tracing

        plain = round_(0)
        trace_dir = os.path.join(OUT, f"cli-trace-{seed}")
        os.makedirs(trace_dir, exist_ok=True)
        traced = round_(0, trace_dir)
        check([plain, traced])
        traces = []
        for k in range(len(plain[0])):
            with open(os.path.join(trace_dir, f"trace-{k}.json"), encoding="utf-8") as handle:
                traces.append(json.load(handle))
        metrics = tracing.layer_metrics(*tracing.merge(traces))
        metrics["cli.import.ms"] = statistics.median(t["import_ms"] for t in traces)
        for verb, values in clirun.verb_latencies(plain[0], plain[1]).items():
            metrics[f"cli.{verb}.ms"] = statistics.median(values) * 1e3
        metrics["trace.overhead_s"] = sum(traced[1]) - sum(plain[1])
        return finish(tally, metrics, trace=True)

    # one import probe before each round, the rest after the last
    setups = []

    def probed_round(index: int):
        setups.append(clirun.import_probe(env))
        return round_(index)

    rounds = repeat("cli", seconds, probed_round)
    while len(setups) < SETUP_PROBES:
        setups.append(clirun.import_probe(env))
    check(rounds)
    typical = call_times((k, t) for _, latencies, _ in rounds for k, t in enumerate(latencies))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(typical),
        "call_p50_ms": statistics.median(typical) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return finish(tally, metrics, trace=False)


# ---------------------------------------------------------------------------

def finish(tally: Tally, values: dict, trace: bool) -> dict:
    if trace:
        import tracing

        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        units = dict(END_TO_END)
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    return {"correct": not tally.errors, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=("exact", "quadrature", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sphreg", "__init__.py")):
        print("error: run from the root of a checkout that holds src/sphreg", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)

    if args.workload == "cli":
        result = run_cli(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workers(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:10s} {name:42s} {metric['value']:16.6f} {metric['unit']}")
    print(f"{args.workload:10s} attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
