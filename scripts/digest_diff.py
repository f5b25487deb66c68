"""Compare the output digests of two source trees, for checking that a change keeps the outputs.

Runs output_digest.py, the one next to this script, with each tree on
PYTHONPATH, at OPENBLAS_NUM_THREADS=1 and =2 (four runs of about 7 s each on
a 2-core machine). It prints a unified diff for every pair of digests that
differ: the old tree against the new at each thread count, and the new tree
at one thread against two. A digest run that exits other than 0 has its
stderr printed. The exit status is 1 on any difference or any such run,
else 0:

    python scripts/digest_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories of two checkouts.
"""
from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

DIGEST = Path(__file__).resolve().with_name("output_digest.py")
THREADS = ("1", "2")


def digest(src: str, threads: str) -> Tuple[List[str], int]:
    """The digest's lines for the tree src at the thread count, and its exit status."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, str(DIGEST)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"{src} at OPENBLAS_NUM_THREADS={threads}: digest exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return proc.stdout.splitlines(keepends=True), proc.returncode


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Diff two trees' output digests at one and two BLAS threads.")
    parser.add_argument("old_src", help="the src directory of the tree before the change")
    parser.add_argument("new_src", help="the src directory of the tree after it")
    args = parser.parse_args(argv)
    runs = {(src, threads): digest(src, threads) for src in (args.old_src, args.new_src) for threads in THREADS}
    pairs = [((args.old_src, t), (args.new_src, t)) for t in THREADS] + [((args.new_src, "1"), (args.new_src, "2"))]
    differ = False
    for a, b in pairs:
        diff = list(difflib.unified_diff(runs[a][0], runs[b][0], fromfile=f"{a[0]} OPENBLAS_NUM_THREADS={a[1]}",
                                         tofile=f"{b[0]} OPENBLAS_NUM_THREADS={b[1]}"))
        sys.stdout.writelines(diff)
        differ = differ or bool(diff)
    return 1 if differ or any(status != 0 for _, status in runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
