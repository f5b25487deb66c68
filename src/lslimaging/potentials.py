"""Potential functions evaluated on a grid."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .grid import Grid, _check_number


class Potential:
    """Base class: a scalar coefficient p(x) evaluable on a Grid."""

    def evaluate(self, grid: Grid) -> np.ndarray:
        raise NotImplementedError

    @property
    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroPotential(Potential):
    """The background medium, p(x) = 0."""

    def evaluate(self, grid: Grid) -> np.ndarray:
        return np.zeros(grid.n)

    @property
    def label(self) -> str:
        return "zero"


@dataclass(frozen=True)
class GaussianPotential(Potential):
    """Smooth bump p(x) = amplitude * exp(-(x - center)^2 / (2 width^2)).

    Args:
        amplitude: Peak value.
        center: Location of the peak.
        width: Standard deviation of the bump (must be positive).
    """

    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        for name in ("amplitude", "center", "width"):
            _check_number(name, getattr(self, name))
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValueError(f"width must be positive, got {self.width}")
        if not (np.isfinite(self.amplitude) and np.isfinite(self.center)):
            raise ValueError("amplitude and center must be finite")

    def evaluate(self, grid: Grid) -> np.ndarray:
        x = grid.nodes
        return self.amplitude * np.exp(-((x - self.center) ** 2) / (2.0 * self.width**2))

    @property
    def label(self) -> str:
        return f"gaussian(amplitude={self.amplitude:g},center={self.center:g},width={self.width:g})"


@dataclass(frozen=True)
class StepPotential(Potential):
    """Piecewise-constant potential given as (lo, hi, value) pieces.

    Pieces are applied in order onto a zero baseline; node x_i receives a
    piece's value when lo <= x_i <= hi, later pieces overriding earlier ones.
    """

    pieces: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        pieces = []
        for piece in self.pieces:
            try:
                lo, hi, val = (float(_check_number("step piece entry", v)) for v in piece)  # float() takes "1", True
            except (TypeError, ValueError):
                raise ValueError(f"step piece must be three numbers (lo, hi, value), got {piece!r}") from None
            if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(val)):
                raise ValueError(f"non-finite step piece ({lo}, {hi}, {val})")
            if lo >= hi:
                raise ValueError(f"step piece needs lo < hi, got ({lo}, {hi})")
            pieces.append((lo, hi, val))
        object.__setattr__(self, "pieces", tuple(pieces))

    def evaluate(self, grid: Grid) -> np.ndarray:
        x = grid.nodes
        p = np.zeros(grid.n)
        for lo, hi, val in self.pieces:
            p[(x >= lo) & (x <= hi)] = val
        return p

    @property
    def label(self) -> str:
        body = ";".join(f"{lo:g}:{hi:g}:{val:g}" for lo, hi, val in self.pieces)
        return f"step({body})"


@dataclass(frozen=True, eq=False)
class TabulatedPotential(Potential):
    """Potential given by nodal values on the target grid."""

    values: np.ndarray

    def evaluate(self, grid: Grid) -> np.ndarray:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(
                f"tabulated potential has {values.shape} values, grid has {grid.n} nodes"
            )
        return values.copy()

    @property
    def label(self) -> str:
        return f"tabulated(n={np.asarray(self.values).size})"
