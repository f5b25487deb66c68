"""The command line's parser and its three commands: simulate, reconstruct, experiment.

A command loads only the modules it runs: `reconstruct` never loads `experiment` or
`sampling`, and a subcommand's parser gets its arguments only when it parses (_Subparser).
"""
from __future__ import annotations

import argparse

import numpy as np

from .errors import stage
from .grid import Grid
from .imaging import DEFAULT_REL_THRESHOLD, DEFAULT_GRID_NODES, METHODS, reconstruct
from .rom import DEFAULT_TRUNCATION_TOL
from .transfer import _reconstruction_table, _write_rows, generate_dataset, load_dataset, save_dataset


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _cmd_simulate(args) -> int:
    from .experiment import load_config
    from .sampling import weyl_sample

    with stage("load-config"):
        config = load_config(args.config, **_parse_overrides(args.set))
    with stage("simulate"):
        plan = weyl_sample(config.N, config.f, config.L)
        data = generate_dataset(config.potential, plan.lambdas, Grid(config.L, config.n), label=config.label)
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
        names, columns = _reconstruction_table(grid.nodes, np.full(grid.n, np.nan), {args.method: result.p_est}, METHODS)
        _write_rows(args.out, " ".join(names), columns)
    print(
        f"method={args.method} rank={result.rank} "
        f"residual={result.residual_norm:.6e} -> {args.out}"
    )
    return 0


def _cmd_experiment(args) -> int:
    from .experiment import _CONFIG_KEYS, preset_config, read_summary, run_experiment

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


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="key=value configuration file")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a configuration key (repeatable)")


def _reconstruct_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset of the unknown medium")
    p.add_argument("--background", required=True, help="dataset of the background medium")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--threshold", type=float, default=DEFAULT_REL_THRESHOLD,
                   help="relative singular-value cutoff (default %(default)g)")
    p.add_argument("--out", required=True, help="output reconstruction table")
    p.add_argument("--nodes", type=int, default=DEFAULT_GRID_NODES,
                   help="grid nodes for the reconstruction (default %(default)s)")
    p.add_argument("--truncation-tol", type=float, default=DEFAULT_TRUNCATION_TOL,
                   help="reduced-model truncation tolerance (default %(default)g)")


def _experiment_arguments(p: argparse.ArgumentParser) -> None:
    from .experiment import PRESETS, ExperimentConfig

    p.add_argument("preset", choices=PRESETS)
    p.add_argument("--outdir", required=True, help="directory for output files")
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
        p.add_argument(flag, dest=name, metavar=flag[2:].upper().replace("-", "_"),
                       help=f"{text} (default {shown})")


class _Subparser(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments, by calling arguments(self), when it
    first parses (-h included): a module that only they need loads only for that command."""

    def __init__(self, *, arguments, **kwargs):
        super().__init__(**kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            arguments, self._arguments = self._arguments, None
            arguments(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lslimaging",
        description="1D potential imaging from boundary spectral data",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)
    sub.add_parser("simulate", help="generate a transfer-function dataset",
                   arguments=_simulate_arguments).set_defaults(func=_cmd_simulate)
    sub.add_parser("reconstruct", help="reconstruct a potential from datasets",
                   arguments=_reconstruct_arguments).set_defaults(func=_cmd_reconstruct)
    sub.add_parser("experiment", help="run a full preset experiment", argument_default=argparse.SUPPRESS,
                   arguments=_experiment_arguments).set_defaults(func=_cmd_experiment)
    return parser
