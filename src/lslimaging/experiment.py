"""Experiment orchestration: configuration, presets, and file outputs."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ExperimentError, ImagingError
from .forward import compute_snapshot_matrix, solve_forward
from .grid import Grid
from .imaging import (
    DEFAULT_GRID_NODES,
    DEFAULT_REL_THRESHOLD,
    METHODS,
    ReconstructionResult,
    reconstruct,
    relative_l2_error,
)
from .potentials import GaussianPotential, Potential, StepPotential, ZeroPotential
from .rom import DEFAULT_TRUNCATION_TOL, lsl_internal
from .sampling import weyl_sample
from .transfer import _FMT, _write_rows, generate_dataset, measure_dataset, save_dataset

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
    methods: Tuple[str, ...] = ("born", "lsl")
    rel_threshold: float = DEFAULT_REL_THRESHOLD
    truncation_tol: float = DEFAULT_TRUNCATION_TOL
    internal_lambda: Optional[float] = None
    outdir: Path = field(default_factory=lambda: Path("."))
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "outdir", Path(self.outdir))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.label:
            object.__setattr__(self, "label", self.potential.label)
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}; choose from {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate entries in method list")
        # fail fast with the same messages the modules would produce
        Grid(self.L, self.n)
        if int(self.N) != self.N or self.N < 1 or int(self.f) != self.f or self.f < 1:
            raise ValueError(f"N and f must be integers >= 1, got N={self.N} f={self.f}")
        if not (0.0 < self.rel_threshold < 1.0):
            raise ValueError(f"rel_threshold must lie in (0, 1), got {self.rel_threshold}")
        if not (0.0 < self.truncation_tol < 1.0):
            raise ValueError(f"truncation_tol must lie in (0, 1), got {self.truncation_tol}")


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


def preset_config(name: str, f: int = 4, outdir: Union[str, Path] = ".", **overrides) -> ExperimentConfig:
    """Experiment configuration for one of the named presets."""
    base = ExperimentConfig(
        potential=preset_potential(name),
        f=f,
        outdir=Path(outdir),
        label=name,
    )
    return replace(base, **overrides) if overrides else base


# -- plain-text key=value configuration ------------------------------------

_CONFIG_KEYS = (
    "L", "n", "N", "f", "methods", "rel_threshold", "truncation_tol",
    "internal_lambda", "outdir", "label", "potential",
    "gaussian_amplitude", "gaussian_center", "gaussian_width", "step_pieces",
)


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r} "
                             f"(valid: {', '.join(_CONFIG_KEYS)})")
        out[key] = value
    return out


def _potential_from_mapping(mapping: Mapping[str, str], L: float) -> Potential:
    kind = mapping.get("potential", "zero")
    if kind == "zero":
        return ZeroPotential()
    if kind == "gaussian":
        return GaussianPotential(
            amplitude=float(mapping.get("gaussian_amplitude", 5.0)),
            center=float(mapping.get("gaussian_center", 0.5 * L)),
            width=float(mapping.get("gaussian_width", 0.1 * L)),
        )
    if kind == "step":
        spec = mapping.get("step_pieces", f"{0.4 * L}:{0.6 * L}:4")
        pieces = []
        for piece in spec.split(";"):
            lo, hi, val = (float(tok) for tok in piece.split(":"))
            pieces.append((lo, hi, val))
        return StepPotential(tuple(pieces))
    raise ValueError(f"unknown potential kind {kind!r}")


def config_from_mapping(mapping: Mapping[str, str], **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed key=value strings."""
    merged = dict(mapping)
    merged.update({k: str(v) for k, v in overrides.items()})
    L = float(merged.get("L", 1.0))
    internal = merged.get("internal_lambda", "auto").strip()
    return ExperimentConfig(
        potential=_potential_from_mapping(merged, L),
        L=L,
        n=int(merged.get("n", DEFAULT_GRID_NODES)),
        N=int(merged.get("N", 10)),
        f=int(merged.get("f", 4)),
        methods=tuple(tok.strip() for tok in merged.get("methods", "born,lsl").split(",") if tok.strip()),
        rel_threshold=float(merged.get("rel_threshold", DEFAULT_REL_THRESHOLD)),
        truncation_tol=float(merged.get("truncation_tol", DEFAULT_TRUNCATION_TOL)),
        internal_lambda=None if internal in ("", "auto") else float(internal),
        outdir=Path(merged.get("outdir", ".")),
        label=merged.get("label", ""),
    )


def load_config(path: Union[str, Path], **overrides) -> ExperimentConfig:
    return config_from_mapping(parse_config_text(Path(path).read_text()), **overrides)


# -- output writers ---------------------------------------------------------

def write_table(path: Union[str, Path], names: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Whitespace-separated table: one header line, 17-significant-digit rows.

    Raises ValueError unless there is one equal-length column per name.
    """
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} column names for {len(columns)} columns")
    _write_rows(path, " ".join(names), columns)


def default_internal_lambda(lambdas: np.ndarray) -> float:
    """Midpoint of the middle pair of sample points: between, never on, samples."""
    j = lambdas.size // 2 - 1 if lambdas.size > 1 else 0
    if lambdas.size == 1:
        return float(lambdas[0] * 0.5)
    return float(0.5 * (lambdas[j] + lambdas[j + 1]))


def run_experiment(config: ExperimentConfig) -> Dict[str, Path]:
    """Run the full pipeline and write the output files into config.outdir.

    Outputs: the measured datasets of the true and background media, the
    reconstruction table (x, p_true, p_born, p_lsl), the internal-solution
    table (x, u_true, u_background, u_lsl) at one intermediate spectral
    parameter, and a key=value summary with errors and singular values.
    Columns of methods that were not requested are filled with nan.
    Raises ExperimentError naming the failing stage; a non-finite
    internal_lambda fails its stage before any forward sweep runs.
    """
    lam = config.internal_lambda
    if lam is not None and not np.isfinite(lam):
        raise ExperimentError("internal-solution", ValueError(f"internal_lambda must be finite, got {lam}"))
    stage = "validate"
    try:
        grid = Grid(config.L, config.n)
        p_true = config.potential.evaluate(grid)

        stage = "sampling"
        plan = weyl_sample(config.N, config.f, config.L)

        stage = "simulate-true"
        data = generate_dataset(config.potential, plan.lambdas, grid,
                                label=f"{config.label}-true")
        stage = "simulate-background"
        V0 = compute_snapshot_matrix(ZeroPotential(), plan.lambdas, grid)
        data0 = measure_dataset(V0, label=f"{config.label}-background")

        results: Dict[str, ReconstructionResult] = {}
        for method in config.methods:
            stage = f"reconstruct-{method}"
            results[method] = reconstruct(
                data, data0, method, grid=grid,
                rel_threshold=config.rel_threshold,
                truncation_tol=config.truncation_tol, background=V0,
            )

        stage = "internal-solution"
        lam_star = (default_internal_lambda(plan.lambdas)
                    if config.internal_lambda is None else config.internal_lambda)
        u_true = solve_forward(config.potential, lam_star, grid).values
        u_bg = solve_forward(ZeroPotential(), lam_star, grid).values
        nan_col = np.full(grid.n, np.nan)
        u_lsl = (lsl_internal(V0, *results["lsl"].factors, lam_star).values
                 if "lsl" in results else nan_col)

        stage = "write-outputs"
        outdir = config.outdir
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {name.split(".")[0]: outdir / name for name in OUTPUT_FILES}
        save_dataset(data, paths["dataset_true"])
        save_dataset(data0, paths["dataset_background"])

        write_table(
            paths["reconstruction"],
            ("x", "p_true", "p_born", "p_lsl"),
            (grid.nodes, p_true,
             results["born"].p_est if "born" in results else nan_col,
             results["lsl"].p_est if "lsl" in results else nan_col),
        )
        write_table(
            paths["internal_solution"],
            ("x", "u_true", "u_background", "u_lsl"),
            (grid.nodes, u_true, u_bg, u_lsl),
        )

        lines = [
            f"label = {config.label}",
            "L = " + _FMT % config.L,
            f"n = {config.n}",
            f"N = {config.N}",
            f"f = {config.f}",
            f"m = {plan.m}",
            f"methods = {','.join(config.methods)}",
            "rel_threshold = " + _FMT % config.rel_threshold,
            "truncation_tol = " + _FMT % config.truncation_tol,
            "internal_lambda = " + _FMT % lam_star,
            "err_internal_background = " + _FMT % relative_l2_error(u_bg, u_true, grid),
            "err_internal_lsl = " + _FMT % relative_l2_error(u_lsl, u_true, grid),
        ]
        for method in METHODS:
            if method in results:
                res = results[method]
                err = relative_l2_error(res.p_est, p_true, grid)
                lines.append(f"err_{method} = " + _FMT % err)
                lines.append(f"residual_{method} = " + _FMT % res.residual_norm)
                lines.append(f"rank_{method} = {res.rank}")
            else:
                lines.append(f"err_{method} = nan")
                lines.append(f"residual_{method} = nan")
                lines.append(f"rank_{method} = 0")
        for method in METHODS:
            values = (" ".join(_FMT % v for v in results[method].singular_values)
                      if method in results else "")
            lines.append(f"singular_values_{method} = {values}")
        paths["summary"].write_text("\n".join(lines) + "\n")
        return paths
    except ExperimentError:
        raise
    except (ImagingError, ValueError, OSError) as exc:
        raise ExperimentError(stage, exc) from exc


def read_summary(path: Union[str, Path]) -> Dict[str, str]:
    """Parse a summary file back into a key -> raw string mapping."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key] = value
    return out
