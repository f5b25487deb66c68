"""Command-line interface: simulate, reconstruct, experiment.

Importing this module loads no numpy. main(), when numpy is not loaded yet (a
`python -m lslimaging.cli` or `lslimaging` process), loads it with
OPENBLAS_NUM_THREADS=1 and then puts the variable back as it was. OpenBLAS reads
the variable only when it loads, so the process keeps one BLAS thread and starts
no worker thread, which would spin on another core for OpenBLAS's thread_timeout
waiting for a job: the pipeline runs its BLAS calls on one thread anyway
(_lapack.one_blas_thread).

main() is the library call. A process enters through run(), which exits with
main()'s status after gc.freeze() (see run).
"""
from __future__ import annotations

import gc
import os
import sys

from .errors import ExperimentError

_BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def _load_numpy_on_one_blas_thread() -> None:
    """Import numpy with OPENBLAS_NUM_THREADS=1, then restore the variable, or unset it if it was unset."""
    saved = os.environ.get(_BLAS_THREADS)
    os.environ[_BLAS_THREADS] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if saved is None:
            del os.environ[_BLAS_THREADS]
        else:
            os.environ[_BLAS_THREADS] = saved


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        _load_numpy_on_one_blas_thread()
    from ._commands import build_parser

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExperimentError as exc:
        print(f"error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry of `python -m lslimaging.cli` and of the `lslimaging` script:
    main() on sys.argv, then exit with its status.

    However main() ends, argparse's SystemExit included, gc.freeze() first moves
    every tracked object to the collector's permanent generation, which the
    collections at interpreter shutdown skip: they would otherwise walk all of
    numpy's and the package's objects for nothing. atexit handlers, stdio
    flushing and module teardown still run.
    """
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
