"""Traced command-line invocation: ``python3 bench/launcher.py TRACE_JSON
VERB ...`` imports the CLI, wraps the package's public functions, runs
``sphreg.cli.main`` on the remaining arguments and writes the spans."""

import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    import sphreg.cli

    import_ms = (time.perf_counter() - start) * 1e3
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return sphreg.cli.main(argv[2:])
    finally:
        tracer.dump(argv[1], import_ms=import_ms)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
