"""Uniform 1D grid with trapezoid quadrature weights."""
from __future__ import annotations

import numpy as np


def _check_length(L: float) -> float:
    """L as a float; raises ValueError unless it is positive and finite."""
    L = float(L)
    if not np.isfinite(L) or L <= 0.0:
        raise ValueError(f"domain length must be positive and finite, got {L}")
    return L


class Grid:
    """Uniform discretization of the interval (0, L) with n nodes.

    Nodes are x_i = i*h for i = 0..n-1 with h = L/(n-1), so the endpoints
    0 and L are included. The quadrature weights are the trapezoid rule's:
    h/2 at the two boundary nodes, h in the interior.
    """

    def __init__(self, L: float, n: int):
        L = _check_length(L)
        if not np.isfinite(n) or int(n) != n or n < 3:
            raise ValueError(f"node count must be an integer >= 3, got {n}")
        self.L = L
        self.n = int(n)
        self.h = L / (self.n - 1)
        self.nodes = np.linspace(0.0, L, self.n)
        weights = np.full(self.n, self.h)
        weights[0] = weights[-1] = 0.5 * self.h
        self.weights = weights

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """Quadrature-weighted L2 inner product of two nodal functions."""
        return float(np.sum(self.weights * f * g))

    def norm(self, f: np.ndarray) -> float:
        """Quadrature-weighted L2 norm."""
        return float(np.sqrt(np.sum(self.weights * f * f)))

    def __repr__(self) -> str:
        return f"Grid(L={self.L!r}, n={self.n!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.L == self.L and other.n == self.n

    def __hash__(self) -> int:
        return hash((self.L, self.n))
