"""Run the lslimaging CLI with the benchmark's tracer installed.

Usage: python perfbench/cli_launcher.py SPANS_FILE CLI_ARGS...
with `src` on PYTHONPATH. Records the package import and the CLI's main()
as spans of layer `cli`, writes every span to SPANS_FILE as JSON when main()
returns, and exits with main()'s status.
"""
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import lslimaging.cli

    tracer.add("import", "cli", start, time.perf_counter())
    tracer.install(lslimaging)
    with tracer.span("main", "cli"):
        code = lslimaging.cli.main(argv)
    tracer.finish()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
