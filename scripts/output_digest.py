"""Digest of the command line's outputs, for checking that a change keeps them.

Runs a fixed set of `lslimaging` commands in a temporary directory: seven
preset experiments, six `simulate` runs, both `reconstruct` methods, the
top-level and each subcommand's `--help` at 80 columns, thirteen failure cases
and one usage error per subcommand (a required option left out), so a parser
change that alters help or usage text shows too. Two more runs read an input
that starts with a UTF-8 byte-order mark, a copy of `gaussian.cfg` for
`simulate` and of `true.txt` for the LSL `reconstruct`; their output files
must hash as `true.txt` and `rec-lsl.txt` do. Then, in this process, it runs
the gaussian and the step preset back to back on one sampling plan and keeps
the second run's files (`inproc-step/`): the step run reuses the background model the gaussian run
cached, so its files must hash as `exp-step/`'s do. A third run on that plan,
the gaussian preset at another internal_lambda (`inproc-gaussian-lambda/`),
must hash as the cold `exp-gaussian-lambda/`, so a background field kept for
a stale internal_lambda shows. Last, `inproc-step-n40-2threads/` reruns
`exp-step-n40` (m = 160) with OpenBLAS's thread count set to 2, and restored
afterwards; its files must hash as `exp-step-n40/`'s do, so bytes that depend
on the caller's BLAS thread count show. (A CLI process always runs OpenBLAS
on one thread, whatever OPENBLAS_NUM_THREADS says, so only an in-process run
can set another count.) `inproc-gaussian-L2.5/` runs the gaussian preset at
L = 2.5 with rel_threshold 1e-3 on a small grid, so a change to how the
summary writes a non-default L, threshold or error shows. Last,
`robustness-table` hashes the 140 lines of robustness_table.py's table, so a
change that moves an error on noisy, off-grid or continuum data shows too,
and `contrast-sweep` its contrast sweep, which does the same for strong media.
Prints one sorted `sha256  name` line per output file, per stdout, per stderr
plus exit code, and for the table and the sweep. Then it checks the five
"must hash as" pairs above: for each file of a pair (each of the five output
files of an in-process run) whose hashes differ, it writes one stderr line
naming the file, and it exits 1, with the printed lines unchanged. Paths in
the outputs are relative to the temporary directory, so two trees give
comparable lines:

    PYTHONPATH=<tree>/src python scripts/output_digest.py > digest.txt

`scripts/digest_diff.py OLD_SRC NEW_SRC` runs it on two trees at OPENBLAS_NUM_THREADS=1
and =2 and diffs the results.
Bytes are promised only on one machine and library stack, so no reference
digest is kept. The digest, not the test suite, catches a change in the
memory layout of a BLAS operand, which picks another kernel and so other
roundoff: passing rom.lsl_fields' eigenvector matrix to its product in C order
instead of Fortran order changed 26 of the 114 lines (18 output files, 8
stdouts) while all 491 tests then in the suite passed.
"""
from __future__ import annotations

import codecs
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# an internal_lambda other than the default, between the background's first two resonances
LAMBDA = -30.0
CONFIG = "potential = {}\nL = 1.0\nn = 2001\nN = 10\nf = 4\n"
# config files written next to gaussian.cfg and bad.cfg: the medium keys of each kind
CONFIGS = {
    "step.cfg": CONFIG.format("step") + "step_pieces = 0.2:0.35:3;0.6:0.8:-1.5\n",
    "gaussian-keys.cfg": CONFIG.format("gaussian")
    + "gaussian_amplitude = 3.0\ngaussian_center = 0.4\ngaussian_width = 0.15\n",
    # wider than the resonance gaps, so no sample is cleared without a Sturm count
    "gaussian-strong.cfg": CONFIG.format("gaussian") + "gaussian_amplitude = 400\n",
}

# in-process run directory: the CLI run whose files it must reproduce byte for byte
SAME_FILES = {"inproc-step": "exp-step", "inproc-gaussian-lambda": "exp-gaussian-lambda",
              "inproc-step-n40-2threads": "exp-step-n40"}
# a run whose input starts with a byte-order mark: (its input, the plain file copied into it just before the run)
BOM_INPUTS = {"sim-true-bom": ("gaussian-bom.cfg", "gaussian.cfg"), "rec-lsl-bom": ("true-bom.txt", "true.txt")}
# output file of a run in BOM_INPUTS: the plain run's output file it must reproduce byte for byte
SAME_BYTES = {"true-from-bom.txt": "true.txt", "rec-lsl-from-bom.txt": "rec-lsl.txt"}

# (name, arguments); each writes into the working directory
RUNS = [
    ("exp-gaussian", ["experiment", "gaussian", "--outdir", "exp-gaussian"]),
    ("exp-step", ["experiment", "step", "--outdir", "exp-step"]),
    ("exp-zero", ["experiment", "zero", "--outdir", "exp-zero"]),
    ("exp-step-n40", ["experiment", "step", "--intervals", "40", "--outdir", "exp-step-n40"]),
    ("exp-gaussian-lsl", ["experiment", "gaussian", "--methods", "lsl", "--outdir", "exp-gaussian-lsl"]),
    ("exp-step-born", ["experiment", "step", "--methods", "born", "--outdir", "exp-step-born"]),
    ("exp-gaussian-lambda", ["experiment", "gaussian", "--internal-lambda", str(LAMBDA),
                             "--outdir", "exp-gaussian-lambda"]),
    ("sim-true", ["simulate", "--config", "gaussian.cfg", "--out", "true.txt"]),
    ("sim-background", ["simulate", "--config", "gaussian.cfg", "--set", "potential=zero",
                        "--out", "background.txt"]),
    ("sim-step-pieces", ["simulate", "--config", "step.cfg", "--out", "step-pieces.txt"]),
    ("sim-gaussian-keys", ["simulate", "--config", "gaussian-keys.cfg", "--out", "gaussian-keys.txt"]),
    ("sim-gaussian-keys-zero", ["simulate", "--config", "gaussian-keys.cfg", "--set", "potential=zero",
                                "--out", "gaussian-keys-zero.txt"]),
    ("sim-gaussian-strong", ["simulate", "--config", "gaussian-strong.cfg", "--out", "gaussian-strong.txt"]),
    ("rec-born", ["reconstruct", "--data", "true.txt", "--background", "background.txt",
                  "--method", "born", "--out", "rec-born.txt"]),
    ("rec-lsl", ["reconstruct", "--data", "true.txt", "--background", "background.txt",
                 "--method", "lsl", "--out", "rec-lsl.txt"]),
    ("sim-true-bom", ["simulate", "--config", "gaussian-bom.cfg", "--out", "true-from-bom.txt"]),
    ("rec-lsl-bom", ["reconstruct", "--data", "true-bom.txt", "--background", "background.txt",
                     "--method", "lsl", "--out", "rec-lsl-from-bom.txt"]),
    # the parser's text: the top-level help and each subcommand's
    ("help", ["--help"]),
    ("help-simulate", ["simulate", "--help"]),
    ("help-reconstruct", ["reconstruct", "--help"]),
    ("help-experiment", ["experiment", "--help"]),
]

_REC = ["reconstruct", "--data", "true.txt", "--background", "background.txt", "--method", "lsl"]
FAILURES = [
    ("fail-reconstruct-load-data", ["reconstruct", "--data", "absent.txt", "--background",
                                    "background.txt", "--method", "born", "--out", "o.txt"]),
    ("fail-reconstruct-reconstruct", _REC + ["--nodes", "2", "--out", "o.txt"]),
    ("fail-reconstruct-write-output", _REC + ["--out", "missing/o.txt"]),
    ("fail-reconstruct-bad-row", ["reconstruct", "--data", "bad-row.txt", "--background",
                                  "background.txt", "--method", "lsl", "--out", "o.txt"]),
    ("fail-reconstruct-not-utf8", ["reconstruct", "--data", "not-utf8.txt", "--background",
                                   "background.txt", "--method", "lsl", "--out", "o.txt"]),
    ("fail-simulate-load-config", ["simulate", "--config", "bad.cfg", "--out", "o.txt"]),
    ("fail-simulate-not-utf8", ["simulate", "--config", "not-utf8.cfg", "--out", "o.txt"]),
    ("fail-simulate-write-output", ["simulate", "--config", "gaussian.cfg", "--out", "missing/o.txt"]),
    ("fail-simulate-set-unknown-key", ["simulate", "--config", "gaussian.cfg", "--set", "nodes=5",
                                       "--out", "o.txt"]),
    ("fail-experiment-configure", ["experiment", "zero", "--nodes", "2", "--outdir", "o"]),
    ("fail-experiment-nan-lambda", ["experiment", "zero", "--internal-lambda", "nan", "--outdir", "o"]),
    ("fail-experiment-resonance", ["experiment", "zero", "--internal-lambda", "0", "--nodes", "401",
                                   "--intervals", "3", "--f", "3", "--outdir", "o"]),
    ("fail-experiment-empty-methods", ["experiment", "zero", "--methods", "", "--outdir", "o"]),
    # usage errors: each subcommand without one of its required options
    ("fail-simulate-usage", ["simulate", "--out", "o.txt"]),
    ("fail-reconstruct-usage", ["reconstruct", "--data", "true.txt", "--background", "background.txt",
                                "--out", "o.txt"]),
    ("fail-experiment-usage", ["experiment", "zero"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    # the commands run in the temporary directory, so a relative PYTHONPATH is resolved here
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    # argparse wraps help and usage text at COLUMNS
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(os.path.abspath(e) for e in entries if e), "COLUMNS": "80"}
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "gaussian.cfg").write_text(CONFIG.format("gaussian"))
        (work / "bad.cfg").write_text("no_such_key = 1\n")
        # a dataset whose second row holds a token that is not a number
        (work / "bad-row.txt").write_text("# L=1 m=2 label=bad\n-9 0.5 -0.1\n-4 abc -0.2\n")
        # a dataset with a line that is not UTF-8
        (work / "not-utf8.txt").write_bytes(b"# L=1 m=2 label=bad\n-9 0.5 -0.1\n\xff\xfe\n-4 0.6 -0.2\n")
        (work / "not-utf8.cfg").write_bytes(b"L = 1.0\n\xff\xfe\n")
        for name, text in CONFIGS.items():
            (work / name).write_text(text)
        for name, args in RUNS + FAILURES:
            if name in BOM_INPUTS:
                copy, plain = BOM_INPUTS[name]
                (work / copy).write_bytes(codecs.BOM_UTF8 + (work / plain).read_bytes())
            proc = subprocess.run([sys.executable, "-m", "lslimaging.cli", *args],
                                  cwd=work, env=env, capture_output=True)
            if name.startswith("fail-"):
                lines.append(f"{_sha(proc.stderr + b'exit=%d' % proc.returncode)}  {name}:stderr+exit")
            elif proc.returncode != 0:
                sys.stderr.write(f"{name} failed:\n{proc.stderr.decode()}")
                return 1
            lines.append(f"{_sha(proc.stdout)}  {name}:stdout")
        import robustness_table
        from lslimaging import preset_config, run_experiment
        from lslimaging._lapack import one_blas_thread
        from lslimaging.experiment import OUTPUT_FILES

        with tempfile.TemporaryDirectory() as first:
            run_experiment(preset_config("gaussian", outdir=first))
        run_experiment(preset_config("step", outdir=work / "inproc-step"))
        # run_experiment now keeps the background field at the default internal_lambda
        run_experiment(preset_config("gaussian", internal_lambda=LAMBDA, outdir=work / "inproc-gaussian-lambda"))
        saved = one_blas_thread.get()
        one_blas_thread.set(2)
        try:
            run_experiment(preset_config("step", N=40, outdir=work / "inproc-step-n40-2threads"))
        finally:
            one_blas_thread.set(saved)
        run_experiment(preset_config("gaussian", L=2.5, rel_threshold=1e-3, n=401, N=3, f=3,
                                     outdir=work / "inproc-gaussian-L2.5"))
        for path in work.rglob("*"):
            if path.is_file() and path.suffix != ".cfg":
                lines.append(f"{_sha(path.read_bytes())}  {path.relative_to(work)}")
    # the bytes `python scripts/robustness_table.py` prints
    table = "".join(f"{line}\n" for line in robustness_table.table())
    lines.append(f"{_sha(table.encode())}  robustness-table")
    sweep = "".join(f"{line}\n" for line in robustness_table.contrast())
    lines.append(f"{_sha(sweep.encode())}  contrast-sweep")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    sha = {name: digest for digest, name in (line.split("  ", 1) for line in lines)}
    pairs = [(f"{copy}/{name}", f"{run}/{name}") for copy, run in SAME_FILES.items() for name in OUTPUT_FILES]
    differ = [(copy, run) for copy, run in pairs + list(SAME_BYTES.items()) if sha[copy] != sha[run]]
    for copy, run in differ:
        sys.stderr.write(f"{copy} does not hash as {run}\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
