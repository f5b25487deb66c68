"""Measured data of the inverse problem: transfer values and derivatives.

The transfer function is F(lambda) = u(0, lambda); its lambda-derivative
equals -<u, u> by the resolvent identity, which holds exactly at the
discrete level, so one forward solve per sample point suffices.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .forward import Snapshot, SnapshotMatrix, compute_snapshot_matrix
from .grid import Grid
from .potentials import Potential

# Shortest decimal that round-trips a double exactly.
_FMT = "%.17g"


@dataclass(frozen=True)
class SpectralSample:
    """One measurement record: (lambda, F(lambda), dF/dlambda(lambda))."""

    lam: float
    F: float
    dF: float

    def __post_init__(self):
        for name, v in (("lam", self.lam), ("F", self.F), ("dF", self.dF)):
            if not np.isfinite(v):
                raise ValueError(f"sample field {name} must be finite, got {v}")
        if self.dF >= 0.0:
            # dF/dlambda = -||u||^2 < 0 for real lambda off the spectrum
            raise ValueError(f"dF must be negative, got {self.dF} at lam={self.lam}")


@dataclass(frozen=True)
class DataSet:
    """Ordered transfer-function samples measured on one medium."""

    L: float
    samples: Tuple[SpectralSample, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"domain length must be positive, got {self.L}")
        if len(self.samples) < 1:
            raise ValueError("a dataset needs at least one sample")
        lams = [s.lam for s in self.samples]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("sample points must be strictly increasing and distinct")

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([s.lam for s in self.samples])

    @property
    def F(self) -> np.ndarray:
        return np.array([s.F for s in self.samples])

    @property
    def dF(self) -> np.ndarray:
        return np.array([s.dF for s in self.samples])


def measure_transfer(snapshot: Snapshot, grid: Grid) -> float:
    """Transfer value F(lambda) = u(x_0, lambda), the boundary-node value."""
    if snapshot.values.shape != (grid.n,):
        raise ValueError("snapshot is not defined on this grid")
    return float(snapshot.values[0])


def transfer_derivative(snapshot: Snapshot, grid: Grid) -> float:
    """dF/dlambda via the resolvent identity: minus the weighted squared norm."""
    if snapshot.values.shape != (grid.n,):
        raise ValueError("snapshot is not defined on this grid")
    u = snapshot.values
    return float(-np.sum(grid.weights * u * u))


def measure_dataset(V: SnapshotMatrix, label: str) -> DataSet:
    """The boundary data (F, dF) of one medium, read off its snapshot columns.

    F is the first row of V and dF = -sum(weights * u * u) per column u, as
    transfer_derivative computes it: each column is summed as one contiguous
    row of V^T, which keeps numpy's pairwise order, so the bits are the same.
    """
    Vt = np.ascontiguousarray(V.V.T)
    dF = -(V.grid.weights * Vt * Vt).sum(axis=1)
    samples = [SpectralSample(*row) for row in zip(V.lambdas.tolist(), Vt[:, 0].tolist(), dF.tolist())]
    return DataSet(L=V.grid.L, samples=tuple(samples), label=label)


def generate_dataset(
    p: Potential,
    lambdas: Sequence[float],
    grid: Grid,
    label: Optional[str] = None,
) -> DataSet:
    """Measure (F, dF) at each sample point by forward solves on the grid.

    The sample points are sorted ascending; duplicates or an empty list are
    rejected (see compute_snapshot_matrix).
    """
    V = compute_snapshot_matrix(p, lambdas, grid)
    return measure_dataset(V, p.label if label is None else label)


def save_dataset(dataset: DataSet, path: Union[str, Path]) -> None:
    """Write a dataset as text: one header line, then rows "lambda F dF".

    All numbers use 17 significant digits, so a load/save round trip
    reproduces the file byte-for-byte.
    """
    header = "# L=" + _FMT % dataset.L + f" m={dataset.m} label={dataset.label}"
    _write_rows(path, header, (dataset.lambdas, dataset.F, dataset.dF))


def _write_rows(path: Union[str, Path], header: str, columns: Sequence[np.ndarray]) -> None:
    """Write the header line, then row i of the equal-length columns per line, in _FMT."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if not cols or any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ValueError(f"columns must be 1D and of equal length, got shapes {[c.shape for c in cols]}")
    row = " ".join([_FMT] * len(cols))
    lines = [header] + [row % tuple(r) for r in np.column_stack(cols).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path: Union[str, Path]) -> DataSet:
    """Read a dataset written by save_dataset."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing dataset header line")
    header = lines[0][1:].strip()
    if "label=" not in header or not header.startswith("L="):
        raise ValueError(f"{path}: malformed header {header!r}")
    meta, label = header.split("label=", 1)
    fields = dict(tok.split("=", 1) for tok in meta.split())
    L = float(fields["L"])
    samples = []
    for ln in lines[1:]:
        lam, F, dF = (float(tok) for tok in ln.split())
        samples.append(SpectralSample(lam=lam, F=F, dF=dF))
    if "m" in fields and int(fields["m"]) != len(samples):
        raise ValueError(
            f"{path}: header declares m={fields['m']} but found {len(samples)} rows"
        )
    return DataSet(L=L, samples=tuple(samples), label=label)
