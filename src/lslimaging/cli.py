"""Command-line interface: simulate, reconstruct, experiment."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ExperimentError, stage
from .experiment import (
    _CONFIG_KEYS,
    PRESETS,
    ExperimentConfig,
    _write_reconstruction,
    load_config,
    preset_config,
    read_summary,
    run_experiment,
)
from .grid import Grid
from .imaging import DEFAULT_REL_THRESHOLD, DEFAULT_GRID_NODES, METHODS, reconstruct
from .rom import DEFAULT_TRUNCATION_TOL
from .transfer import generate_dataset, load_dataset, save_dataset
from .sampling import weyl_sample


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _cmd_simulate(args) -> int:
    with stage("load-config"):
        config = load_config(args.config, **_parse_overrides(args.set))
    with stage("sampling"):
        plan = weyl_sample(config.N, config.f, config.L)
    with stage("simulate"):
        grid = Grid(config.L, config.n)
        data = generate_dataset(config.potential, plan.lambdas, grid, label=config.label)
    with stage("write-output"):
        save_dataset(data, args.out)
    print(f"wrote {data.m} samples for medium '{data.label}' to {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    with stage("load-data"):
        data = load_dataset(args.data)
        data0 = load_dataset(args.background)
    with stage("reconstruct"):
        grid = Grid(data.L, args.nodes)
        result = reconstruct(
            data, data0, args.method, grid=grid,
            rel_threshold=args.threshold, truncation_tol=args.truncation_tol,
        )
    with stage("write-output"):
        _write_reconstruction(args.out, grid.nodes, np.full(grid.n, np.nan), {args.method: result})
    print(
        f"method={result.method} rank={result.rank} "
        f"residual={result.residual_norm:.6e} -> {args.out}"
    )
    return 0


def _cmd_experiment(args) -> int:
    with stage("configure"):
        # a flag left out is absent from args; the rest are text, parsed as in a config file
        config = preset_config(args.preset, **{k: v for k, v in vars(args).items() if k in _CONFIG_KEYS})
    paths = run_experiment(config)
    summary = read_summary(paths["summary"])
    for key in ("label", "m", "internal_lambda", "err_internal_background",
                "err_internal_lsl", "err_born", "err_lsl"):
        print(f"{key} = {summary[key]}")
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lslimaging",
        description="1D potential imaging from boundary spectral data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a transfer-function dataset")
    p_sim.add_argument("--config", required=True, help="key=value configuration file")
    p_sim.add_argument("--out", required=True, help="output dataset file")
    p_sim.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration key (repeatable)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rec = sub.add_parser("reconstruct", help="reconstruct a potential from datasets")
    p_rec.add_argument("--data", required=True, help="dataset of the unknown medium")
    p_rec.add_argument("--background", required=True, help="dataset of the background medium")
    p_rec.add_argument("--method", required=True, choices=METHODS)
    p_rec.add_argument("--threshold", type=float, default=DEFAULT_REL_THRESHOLD,
                       help="relative singular-value cutoff (default %(default)g)")
    p_rec.add_argument("--out", required=True, help="output reconstruction table")
    p_rec.add_argument("--nodes", type=int, default=DEFAULT_GRID_NODES,
                       help="grid nodes for the reconstruction (default %(default)s)")
    p_rec.add_argument("--truncation-tol", type=float, default=DEFAULT_TRUNCATION_TOL,
                       help="reduced-model truncation tolerance (default %(default)g)")
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_exp = sub.add_parser("experiment", help="run a full preset experiment",
                           argument_default=argparse.SUPPRESS)
    p_exp.add_argument("preset", choices=PRESETS)
    p_exp.add_argument("--outdir", required=True, help="directory for output files")
    for flag, name, text in (
        ("--f", "f", "sample points per resonance interval"),
        ("--intervals", "N", "number of resonance intervals"),
        ("--nodes", "n", "grid nodes"),
        ("--threshold", "rel_threshold", "relative singular-value cutoff"),
        ("--truncation-tol", "truncation_tol", "reduced-model truncation tolerance"),
        ("--internal-lambda", "internal_lambda", "spectral parameter for the internal-solution table"),
        ("--methods", "methods", "comma-separated subset of " + ",".join(METHODS)),
    ):
        default = getattr(ExperimentConfig, name)
        shown = ",".join(default) if name == "methods" else "auto" if default is None else default
        p_exp.add_argument(flag, dest=name, metavar=flag[2:].upper().replace("-", "_"),
                           help=f"{text} (default {shown})")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExperimentError as exc:
        print(f"error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
