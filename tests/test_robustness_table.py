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


# today's LSL error on each noise-free row that does not collapse; the default-setting n = 8001 and
# continuum rows (0.309, 0.3746 and 0.2982) are left out, since they record the collapse
LSL_ERRORS = {
    ("two-gaussians", "exact", "default"): 0.004845,
    ("two-gaussians", "exact", "tol1e-8"): 0.006921,
    ("two-gaussians", "n=8001", "tol1e-8"): 0.02483,
    ("staircase", "exact", "default"): 0.004521,
    ("staircase", "exact", "tol1e-8"): 0.0043,
    ("staircase", "n=8001", "tol1e-8"): 0.02121,
    ("staircase", "continuum", "tol1e-8"): 0.02253,
}
ERRORS = re.compile(r"^(\S+) +(\S+) +(\S+) +lsl err=(\S+) .*  born err=(\S+) rank=\d+$")


def test_two_gaussians_and_staircase_image_better_by_lsl_than_born():
    script = _script()
    media = {name: script.MEDIA[name] for name in ("two-gaussians", "staircase")}
    rows = {}
    for line in script.table(media, levels=(), seeds=()):
        m = ERRORS.match(line)
        assert m, line
        rows[m[1], m[2], m[3]] = float(m[4]), float(m[5])
    assert set(LSL_ERRORS) < set(rows)
    for key, today in LSL_ERRORS.items():
        lsl, born = rows[key]
        assert lsl < born and lsl <= 1.1 * today, (key, lsl, born)


# today's LSL error at each Gaussian amplitude of the contrast sweep that does not collapse; beyond
# these (-150 and below, 200 and above) k falls to 17 against k0 = 27, or the error is not monotone
CONTRAST_LSL_ERRORS = {-100: 0.05698, -50: 0.0241, -20: 0.01263, 5: 0.002311, 20: 0.003996, 50: 0.0164,
                       100: 0.03475, 150: 0.07968}
CONTRAST = re.compile(r"^amplitude=(\S+) +lsl err=(\S+) k=\d+ k0=\d+ rank=\d+ misfit=\S+ subst=\S+"
                      r"  born err=(\S+) rank=\d+ misfit=\S+$")


def test_contrast_sweep_images_weak_and_moderate_media_better_by_lsl_than_born():
    lines = _script().contrast(tuple(CONTRAST_LSL_ERRORS))
    matches = [CONTRAST.match(line) for line in lines]
    assert all(matches), lines
    assert [float(m[1]) for m in matches] == list(CONTRAST_LSL_ERRORS)
    for m in matches:
        lsl, born = float(m[2]), float(m[3])
        assert lsl < born and lsl <= 1.1 * CONTRAST_LSL_ERRORS[float(m[1])], m[0]
