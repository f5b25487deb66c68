"""Uniform 1D grid with trapezoid quadrature weights."""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np


def _check_number(name: str, value) -> Real:
    """value; raises ValueError unless it is a real number, which text such as "2" and a bool are not."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _check_count(name: str, value, minimum: int) -> int:
    """value as an int; raises ValueError unless it is a whole number >= minimum."""
    _check_number(name, value)
    if not np.isfinite(value) or int(value) != value or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


def _check_fraction(name: str, value) -> None:
    _check_number(name, value)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _check_length(L: float) -> float:
    """L as a float; raises ValueError unless it is a positive and finite number."""
    L = float(_check_number("domain length", L))
    if not np.isfinite(L) or L <= 0.0:
        raise ValueError(f"domain length must be positive and finite, got {L}")
    return L


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of the interval (0, L) with n nodes.

    Nodes are x_i = i*h for i = 0..n-1 with h = L/(n-1), so the endpoints
    0 and L are included. The quadrature weights are the trapezoid rule's:
    h/2 at the two boundary nodes, h in the interior. A grid is immutable,
    its nodes and weights read-only; it equals and hashes as (L, n).
    """

    L: float
    n: int
    h: float = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L, n = _check_length(self.L), _check_count("node count", self.n, 3)
        h = L / (n - 1)
        nodes = np.linspace(0.0, L, n)
        weights = np.full(n, h)
        weights[0] = weights[-1] = 0.5 * h
        nodes.flags.writeable = weights.flags.writeable = False
        for name, value in (("L", L), ("n", n), ("h", h), ("nodes", nodes), ("weights", weights)):
            object.__setattr__(self, name, value)

    def norm(self, f: np.ndarray) -> float:
        """Quadrature-weighted L2 norm."""
        return float(np.sqrt(np.sum(self.weights * f * f)))
