"""Experiment orchestration: configuration, presets, and file outputs."""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import stage
from .forward import solve_forward
from .grid import Grid, _check_fraction, _check_length, _check_number
from .imaging import (
    DEFAULT_GRID_NODES,
    DEFAULT_REL_THRESHOLD,
    METHODS,
    ReconstructionResult,
    _background,
    reconstruct,
    relative_l2_error,
)
from .potentials import GaussianPotential, Potential, StepPotential, ZeroPotential
from .rom import DEFAULT_TRUNCATION_TOL, lsl_internal
from .sampling import weyl_sample
from .transfer import (DataSet, _check_label, _read_text, _reconstruction_table, _Text, _write_rows, generate_dataset,
                       save_dataset)

#: File names written by run_experiment, in a fixed order.
OUTPUT_FILES = (
    "dataset_true.txt",
    "dataset_background.txt",
    "reconstruction.txt",
    "internal_solution.txt",
    "summary.txt",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, validated up front."""

    potential: Potential
    L: float = 1.0
    n: int = DEFAULT_GRID_NODES
    N: int = 10
    f: int = 4
    methods: Tuple[str, ...] = METHODS
    rel_threshold: float = DEFAULT_REL_THRESHOLD
    truncation_tol: float = DEFAULT_TRUNCATION_TOL
    internal_lambda: Optional[float] = None
    outdir: Path = field(default_factory=lambda: Path("."))
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.potential, Potential):
            raise ValueError(f"potential must be a Potential, got {self.potential!r}")
        if self.internal_lambda is not None and not np.isfinite(_check_number("internal_lambda", self.internal_lambda)):
            raise ValueError(f"internal_lambda must be finite, got {self.internal_lambda}")
        object.__setattr__(self, "outdir", Path(self.outdir))
        if isinstance(self.methods, str):  # tuple() would split it into letters
            raise ValueError(f"methods must be a sequence of method names, got the string {self.methods!r}")
        if not isinstance(self.methods, Iterable):
            raise ValueError(f"methods must be a sequence of method names, got {self.methods!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.label:
            object.__setattr__(self, "label", self.potential.label)
        _check_label(self.label)
        if not self.methods:
            raise ValueError(f"empty method list; choose from {METHODS}")
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}; choose from {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate entries in method list")
        # fail fast, with the modules' own checks
        self.potential.evaluate(Grid(self.L, self.n))
        weyl_sample(self.N, self.f, self.L)
        for name in ("n", "N", "f"):  # integral, as checked: stored as int, so 401.0 is written as 401
            object.__setattr__(self, name, int(getattr(self, name)))
        _check_fraction("rel_threshold", self.rel_threshold)
        _check_fraction("truncation_tol", self.truncation_tol)


PRESETS = ("gaussian", "step", "zero")


def preset_potential(name: str, L: float = 1.0) -> Potential:
    """Built-in test media. The parameter values are illustrative defaults."""
    if name == "gaussian":
        return GaussianPotential(amplitude=5.0, center=0.5 * L, width=0.1 * L)
    if name == "step":
        return StepPotential(((0.4 * L, 0.6 * L, 4.0),))
    if name == "zero":
        return ZeroPotential()
    raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")


# -- plain-text key=value configuration ------------------------------------

def _parse_methods(text: str) -> Tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_internal_lambda(text: str) -> Optional[float]:
    return None if text.strip() in ("", "auto") else float(text)


def _parse_step_pieces(text: str) -> Tuple[Tuple[float, ...], ...]:
    return tuple(tuple(float(tok) for tok in piece.split(":")) for piece in text.split(";"))


#: Every config key and its text parser, in the order error messages list them.
#: The ExperimentConfig fields among them keep the dataclass default when
#: absent; `potential` and the keys after it describe the medium.
_CONFIG_KEYS = {
    "L": float, "n": int, "N": int, "f": int, "methods": _parse_methods,
    "rel_threshold": float, "truncation_tol": float,
    "internal_lambda": _parse_internal_lambda, "outdir": Path, "label": str,
    "potential": str, "gaussian_amplitude": float, "gaussian_center": float,
    "gaussian_width": float, "step_pieces": _parse_step_pieces,
}
_MEDIUM_KEYS = ("gaussian_amplitude", "gaussian_center", "gaussian_width", "step_pieces")


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored, a repeated key refused."""
    out: Dict[str, str] = {}
    seen: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        _check_key(key, f"config line {lineno}: ")
        if key in seen:
            raise ValueError(f"config line {lineno}: key {key!r} repeats line {seen[key]}")
        out[key], seen[key] = value, lineno
    return out


def _check_key(key: str, where: str = "") -> None:
    if key not in _CONFIG_KEYS:
        raise ValueError(f"{where}unknown key {key!r} (valid: {', '.join(_CONFIG_KEYS)})")


def _parse_value(key: str, text: str):
    """The config value of `key` parsed from its text; a ValueError names the key."""
    try:
        return _CONFIG_KEYS[key](text)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def _potential_from_values(values: Mapping[str, object], L: float) -> Potential:
    """The preset medium of kind `potential` (default zero), with its parsed keys applied.

    Keys that describe another kind of medium are ignored. A Potential is
    taken as it is, and may come with none of these keys.
    """
    kind = values.get("potential", "zero")
    if isinstance(kind, Potential):
        keys = [key for key in _MEDIUM_KEYS if key in values]
        if keys:
            raise ValueError(f"a Potential is taken as it is; {', '.join(keys)} cannot modify it")
        return kind
    if kind not in PRESETS:
        raise ValueError(f"unknown potential kind {kind!r}")
    medium = preset_potential(kind, L)
    if kind == "gaussian":
        keys = {f.name: f"gaussian_{f.name}" for f in fields(medium)}
        return replace(medium, **{name: values[key] for name, key in keys.items() if key in values})
    if kind == "step" and "step_pieces" in values:
        return StepPotential(values["step_pieces"])
    return medium


def config_from_mapping(mapping: Mapping[str, object], **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from config keys; an unknown key raises ValueError.

    Overrides win; text values are parsed as in a file, others taken as they are.
    """
    merged = {**mapping, **overrides}
    for key in merged:
        _check_key(key)
    values = {key: _parse_value(key, merged[key]) if isinstance(merged[key], str) else merged[key]
              for key in _CONFIG_KEYS if key in merged}
    # before the preset medium, which scales with L and would blame its own parameters
    values["potential"] = _potential_from_values(values, _check_length(values.get("L", ExperimentConfig.L)))
    return ExperimentConfig(**{f.name: values[f.name]
                               for f in fields(ExperimentConfig) if f.name in values})


def load_config(path: Union[str, Path], **overrides) -> ExperimentConfig:
    return config_from_mapping(parse_config_text(_read_text(path)), **overrides)


def preset_config(name: str, **overrides) -> ExperimentConfig:
    """The config with `potential` and `label` set to `name`; the medium scales with L."""
    return config_from_mapping({"potential": name, "label": name}, **overrides)


# -- output writers ---------------------------------------------------------

def write_table(path: Union[str, Path], names: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Whitespace-separated table: one header line, then rows of '%.17g' cells.

    A column is an array, whose cells are its transfer._Text, or a _Text written
    as is, as run_experiment passes the node and background-field text it keeps.
    Raises ValueError unless there is one equal-length 1D column per name.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} column names for {len(columns)} columns")
    _write_rows(path, " ".join(names), columns)


def default_internal_lambda(lambdas: np.ndarray) -> float:
    """Midpoint of the middle pair of sample points: between, never on, samples."""
    if lambdas.size == 1:
        return float(lambdas[0] * 0.5)
    j = lambdas.size // 2 - 1
    return float(0.5 * (lambdas[j] + lambdas[j + 1]))


@lru_cache(maxsize=1)
def _background_columns(grid: Grid, lam: float) -> Tuple[_Text, np.ndarray, _Text]:
    """Columns no medium changes: the node text and the read-only background field at lam, with its text."""
    u = solve_forward(ZeroPotential(), lam, grid).values
    u.flags.writeable = False
    return _Text(grid.nodes), u, _Text(u)


def run_experiment(config: ExperimentConfig) -> Dict[str, Path]:
    """Run the full pipeline and write the output files into config.outdir.

    Outputs: the measured datasets of the true and background media, the
    reconstruction table (x, p_true, p_born, p_lsl), the internal-solution
    table (x, u_true, u_background, u_lsl) at one intermediate spectral
    parameter, and a key=value summary with errors and singular values.
    Columns of methods that were not requested are filled with nan.
    Raises ExperimentError naming the failing stage.

    The background comes from the background model the process keeps for
    one sampling plan (see reconstruct), whose key leaves out the medium: a
    run after the first with the same L, n, N and f solves only for the true
    medium (and the background at a new internal_lambda), bytes unchanged.
    """
    # the config has built these once already, so they cannot fail here
    grid = Grid(config.L, config.n)
    p_true = config.potential.evaluate(grid)
    plan = weyl_sample(config.N, config.f, config.L)
    with stage("simulate-true"):
        data = generate_dataset(config.potential, plan.lambdas, grid,
                                label=f"{config.label}-true")
    with stage("simulate-background"):
        background = _background(grid, plan.lambdas)
        d = background.data0
        data0 = DataSet(d.L, np.column_stack((d.lambdas, d.F, d.dF)), label=f"{config.label}-background")

    results: Dict[str, ReconstructionResult] = {}
    for method in config.methods:
        with stage(f"reconstruct-{method}"):
            results[method] = reconstruct(
                data, data0, method, grid=grid,
                rel_threshold=config.rel_threshold,
                truncation_tol=config.truncation_tol,
            )

    with stage("internal-solution"):
        lam_star = default_internal_lambda(plan.lambdas) if config.internal_lambda is None else config.internal_lambda
        u_true = solve_forward(config.potential, lam_star, grid).values
        nodes_text, u_bg, u_bg_text = _background_columns(grid, lam_star)
        u_lsl = (lsl_internal(background.V0, *results["lsl"].factors, lam_star).values
                 if "lsl" in results else np.full(grid.n, np.nan))

    with stage("write-outputs"):
        outdir = config.outdir
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {name.split(".")[0]: outdir / name for name in OUTPUT_FILES}
        save_dataset(data, paths["dataset_true"])
        save_dataset(data0, paths["dataset_background"])
        write_table(paths["reconstruction"],
                    *_reconstruction_table(nodes_text, p_true, {m: r.p_est for m, r in results.items()}, METHODS))
        write_table(
            paths["internal_solution"],
            ("x", "u_true", "u_background", "u_lsl"),
            (nodes_text, u_true, u_bg_text, u_lsl),
        )

        summary = {
            "label": config.label, "L": config.L, "n": config.n, "N": config.N, "f": config.f, "m": plan.m,
            "methods": ",".join(config.methods), "rel_threshold": config.rel_threshold,
            "truncation_tol": config.truncation_tol, "internal_lambda": lam_star,
            "err_internal_background": relative_l2_error(u_bg, u_true, grid),
            "err_internal_lsl": relative_l2_error(u_lsl, u_true, grid),
        }
        for method in METHODS:
            res = results.get(method)
            err, residual, rank = (np.nan, np.nan, 0) if res is None else (
                relative_l2_error(res.p_est, p_true, grid), res.residual_norm, res.rank)
            summary.update({f"err_{method}": err, f"residual_{method}": residual, f"rank_{method}": rank})
        for method in METHODS:
            summary[f"singular_values_{method}"] = results[method].singular_values if method in results else ()
        # text as is; a number or a sequence of them as its _Text, space-separated
        paths["summary"].write_text("".join(
            f"{key} = {value if isinstance(value, str) else ' '.join(_Text(np.ravel(value)))}\n"
            for key, value in summary.items()), encoding="utf-8")
    return paths

def read_summary(path: Union[str, Path]) -> Dict[str, str]:
    """Parse a summary file back into a key -> raw string mapping."""
    out = {}
    for line in _read_text(path).splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out
