"""scripts/robustness_table.py: a few of its cases, in this process."""
import importlib.util
import re
import sys
from pathlib import Path

import lslimaging
from lslimaging import ImagingError

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "robustness_table.py"

CELLS = re.compile(r"^step +(\S.*?) +(default|tol1e-8) +lsl (err=\S+ k=\d+ k0=\d+ rank=\d+|(\w+))"
                   r"  born (err=\S+ rank=\d+|(\w+))$")


def _script():
    spec = importlib.util.spec_from_file_location("robustness_table", SCRIPT)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_cases_print_one_line_each_and_the_same_twice():
    script = _script()
    media = {"step": script.MEDIA["step"]}
    lines = list(script.table(media, levels=(1e-6,), seeds=(1,)))
    assert lines == list(script.table(media, levels=(1e-6,), seeds=(1,)))
    kinds = ["exact", "noise=1e-06 seed=1", "n=8001", "continuum"]
    matches = [CELLS.match(line) for line in lines]
    assert all(matches), lines
    assert [(m[1], m[2]) for m in matches] == [(kind, s) for kind in kinds for s in ("default", "tol1e-8")]
    for m in matches:
        for raised in (m[4], m[6]):  # the class a method raised, if any, is the package's
            assert raised is None or issubclass(getattr(lslimaging, raised), ImagingError)
