"""Measured data of the inverse problem: transfer values and derivatives.

The transfer function is F(lambda) = u(0, lambda); its lambda-derivative
equals -<u, u> by the resolvent identity, which holds exactly at the
discrete level, so one forward solve per sample point suffices.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .forward import SnapshotMatrix, compute_snapshot_matrix
from .grid import Grid, _check_length
from .potentials import Potential

# 17 significant digits: every double round-trips, though a shorter text may too.
_FMT = "%.17g"


_FIELDS = ("lam", "F", "dF")


def _checked_rows(samples) -> np.ndarray:
    """Rows (lam, F, dF) as one m x 3 float array; every entry finite, dF < 0, lam increasing."""
    rows = np.array(samples, dtype=float, order="F")  # contiguous columns
    if rows.size == 0:
        raise ValueError("a dataset needs at least one sample")
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"samples must be rows (lam, F, dF), got shape {rows.shape}")
    # dF/dlambda = -||u||^2 < 0 for real lambda off the spectrum
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1) | (rows[:, 2] >= 0.0))
    if bad.size:
        row = rows[bad[0]].tolist()
        for name, v in zip(_FIELDS, row):
            if not np.isfinite(v):
                raise ValueError(f"sample field {name} must be finite, got {v}")
        raise ValueError(f"dF must be negative, got {row[2]} at lam={row[0]}")
    if np.any(rows[1:, 0] <= rows[:-1, 0]):
        raise ValueError("sample points must be strictly increasing and distinct")
    return rows


def _check_label(label: str) -> None:
    """Reject a label that is not text or that str.splitlines would split: a dataset file keeps it on its header line."""
    if not isinstance(label, str) or "".join(label.splitlines()) != label:
        raise ValueError(f"label must be one line of text, got {label!r}")


class SpectralSample(namedtuple("SpectralSample", _FIELDS)):
    """One measurement record: (lambda, F(lambda), dF/dlambda(lambda)), checked as a DataSet row."""

    __slots__ = ()

    def __new__(cls, lam: float, F: float, dF: float):
        return super().__new__(cls, *_checked_rows([(lam, F, dF)])[0].tolist())


@dataclass(frozen=True, eq=False, init=False)
class DataSet:
    """Ordered transfer-function samples measured on one medium.

    Built from rows (lam, F, dF), given as SpectralSample records or as an
    m x 3 array, and checked once as a whole. The columns lambdas, F and dF
    are stored as read-only arrays. The label must be one line, since the
    file format keeps it on the header line.
    """

    L: float
    lambdas: np.ndarray
    F: np.ndarray
    dF: np.ndarray
    label: str = ""

    def __init__(self, L: float, samples: Union[Sequence[SpectralSample], np.ndarray], label: str = ""):
        L = _check_length(L)
        _check_label(label)
        rows = _checked_rows(samples)
        rows.flags.writeable = False
        for name, value in (("L", L), ("label", label), *zip(("lambdas", "F", "dF"), rows.T)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.lambdas.size


def measure_dataset(V: SnapshotMatrix, label: str) -> DataSet:
    """The boundary data (F, dF) of one medium, read off its snapshot columns.

    F is the first row of V (the boundary-node values) and dF = -sum(weights
    * u * u) for each column u (the resolvent identity), each column summed
    alone in numpy's pairwise order, whatever V's memory layout.
    """
    dF = [-(V.grid.weights * u * u).sum() for u in V.V.T]
    return DataSet(L=V.grid.L, samples=np.column_stack((V.lambdas, V.V[0], dF)), label=label)


def generate_dataset(
    p: Potential,
    lambdas: Sequence[float],
    grid: Grid,
    label: Optional[str] = None,
) -> DataSet:
    """Measure (F, dF) at each sample point by forward solves on the grid.

    The sample points are sorted ascending; duplicates or an empty list are
    rejected (see compute_snapshot_matrix). The sweep's V is measured by
    measure_dataset, column by column.
    """
    return measure_dataset(compute_snapshot_matrix(p, lambdas, grid), p.label if label is None else label)


def save_dataset(dataset: DataSet, path: Union[str, Path]) -> None:
    """Write a dataset as text: one header line, then rows "lambda F dF".

    All numbers use 17 significant digits, so a load/save round trip
    reproduces the file byte-for-byte.
    """
    header = f"# L={_Text((dataset.L,))[0]} m={dataset.m} label={dataset.label}"
    _write_rows(path, header, (dataset.lambdas, dataset.F, dataset.dF))


class _Text(tuple):
    """The _FMT text of a 1D array's values, one per value: the one route from a number to an output file."""

    def __new__(cls, values: np.ndarray):
        values = np.asarray(values, dtype=float).tolist()  # one % for all of them; no _FMT text holds a space
        return super().__new__(cls, (" ".join([_FMT] * len(values)) % tuple(values)).split())


def _write_rows(path: Union[str, Path], header: str, columns: Sequence[np.ndarray]) -> None:
    """Write the header line, then one line per row: each column as its _Text (a _Text column
    as it is), the cells of a row joined by single spaces."""
    shapes = [(len(c),) if isinstance(c, _Text) else np.shape(c) for c in columns]
    if not shapes or any(len(s) != 1 or s != shapes[0] for s in shapes):
        raise ValueError(f"columns must be 1D and of equal length, got shapes {shapes}")
    cells = (c if isinstance(c, _Text) else _Text(c) for c in columns)
    Path(path).write_text("\n".join([header, *map(" ".join, zip(*cells))]) + "\n", encoding="utf-8")


def _reconstruction_table(x, p_true, estimates: Mapping[str, np.ndarray], methods: Sequence[str]):
    """The reconstruction table's column names and columns: x, p_true, p_<method> for each of
    `methods`; nan for a method not in `estimates`."""
    nan_col = np.full(len(p_true), np.nan)
    return ("x", "p_true", *(f"p_{m}" for m in methods)), (x, p_true, *(estimates.get(m, nan_col) for m in methods))


def _read_text(path: Union[str, Path]) -> str:
    """A UTF-8 file's text less one leading byte-order mark; bytes not UTF-8 raise a ValueError naming the offset."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte offset {exc.start}: not {exc.encoding} text ({exc.reason})") from None
    return text.removeprefix("\ufeff")


def load_dataset(path: Union[str, Path]) -> DataSet:
    """Read a dataset written by save_dataset; every fault names the file, and a row's fault its line."""
    text = _read_text(path)
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("#"):
        raise ValueError(f"{path}: missing dataset header line")
    header = lines[0][1][1:].lstrip()  # the label runs to the end of the line
    if "label=" not in header or not header.startswith("L="):
        raise ValueError(f"{path}: malformed header {header!r}")
    meta, label = header.split("label=", 1)
    bad = [tok for tok in meta.split() if "=" not in tok]
    if bad:
        raise ValueError(f"{path}: header token {bad[0]!r} is not key=value")
    fields = {}
    for key, value in (tok.split("=", 1) for tok in meta.split()):
        if key in fields:
            raise ValueError(f"{path}: header key {key!r} is repeated")
        fields[key] = value
    numbers = {}
    for key, parse, kind in (("L", float, "a number"), ("m", int, "an integer")):
        try:
            numbers[key] = parse(fields[key]) if key in fields else None
        except ValueError:
            raise ValueError(f"{path}: header token '{key}={fields[key]}' is not {kind}") from None
    rows = [ln.split() for _, ln in lines[1:]]
    for (lineno, ln), row in zip(lines[1:], rows):
        if len(row) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 numbers 'lambda F dF', got {ln.strip()!r}")
    if numbers["m"] not in (None, len(rows)):
        raise ValueError(f"{path}: header declares m={fields['m']} but found {len(rows)} rows")
    try:
        # the text rows go to DataSet's float conversion, which parses as float() does
        return DataSet(L=numbers["L"], samples=rows, label=label)
    except ValueError as exc:
        # name the first row rejected alone or after the row before it, else the file
        for i, (lineno, _) in enumerate(lines[1:]):
            try:
                _checked_rows(rows[max(i - 1, 0):i + 1])
            except ValueError as fault:
                raise ValueError(f"{path}: line {lineno}: {fault}") from None
        raise ValueError(f"{path}: {exc}") from None
