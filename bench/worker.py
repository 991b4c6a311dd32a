"""One cold process of the ``exact`` or ``quadrature`` workload.

    python3 bench/worker.py WORKLOAD SEED ROUND PART TRACE OUT_JSON

Imports the package, loads its data, then (unless ROUND is -1, a set-up
probe) runs one part of a round of timed work, measures peak memory, and only then
runs the independent checks.  The result goes to OUT_JSON.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    workload, seed, round_index, part, out_path = argv[1], int(argv[2]), int(argv[3]), \
        argv[4], argv[6]
    trace = argv[5] == "1"
    if workload == "exact":
        import exact as work
    else:
        import quadrature as work
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    state = work.setup()
    result = {"setup_end": time.perf_counter()}

    if round_index >= 0:
        if tracer is not None:
            tracer.enabled = False  # input generation is not the workload's work
        inputs = work.make_inputs(state, seed, round_index)
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        calls, outputs = work.run(state, inputs, part)
        result["wall"] = time.perf_counter() - start
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.enabled = False
            result["trace"] = {"spans": tracer.spans, "grams": tracer.grams}
        import checks  # mpmath and scipy load only after the timed work

        errors, failures = work.check(state, inputs, outputs, checks, part)
        result.update(calls=calls, attempted=work.operations(state, inputs, part),
                      errors=errors, failures=failures)

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
