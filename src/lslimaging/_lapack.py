"""The three LAPACK routines the package calls, from scipy's compiled wrappers.

This relies on one piece of scipy's layout: its f2py LAPACK wrappers are the
extension module `scipy/linalg/_flapack<EXT_SUFFIX>` (`scipy/linalg/_flapack*`,
present at least since scipy 1.8, so inside the `scipy>=1.10` requirement of
pyproject.toml). The module is loaded by file path. `find_spec("scipy")`
locates the package without executing `scipy/__init__`, so neither scipy's
nor scipy.linalg's package initialization runs; that initialization was most
of the command line's start-up time. A missing file raises ImportError
naming the directory searched; there is no other route to these routines.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path


def _load_flapack():
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed; lslimaging needs its compiled LAPACK wrappers")
    linalg_dir = Path(spec.submodule_search_locations[0]) / "linalg"
    path = linalg_dir / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not path.is_file():
        raise ImportError(f"scipy's compiled LAPACK wrappers (_flapack) not found in {linalg_dir}")
    # scipy's own name: the module's init symbol follows it, and a later
    # `import scipy.linalg` finds this module loaded instead of loading a copy
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dstebz = _flapack.dstebz
dgtsv = _flapack.dgtsv
dstevd = _flapack.dstevd
