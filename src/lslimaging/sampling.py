"""Sample-point selection in the resonance frequency domain.

The Neumann eigenvalues of the background operator on (0, L) are
(k pi / L)^2, so the transfer function has poles ("approximate resonances")
at lambda = -(k pi / L)^2. Counting eigenvalues per Weyl's asymptotic law,
the plan places f equally spaced points strictly inside each of the N
intervals between consecutive resonances, endpoints excluded so that no
sample lands on a pole.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import _check_count, _check_length


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """N resonance intervals, f points per interval, m = N*f samples."""

    N: int
    f: int
    L: float
    lambdas: np.ndarray

    @property
    def m(self) -> int:
        return self.lambdas.size


def approximate_resonances(N: int, L: float) -> np.ndarray:
    """The first N+1 background resonances r_k = -(k pi / L)^2, k = 0..N."""
    N, L = _check_count("resonance index N", N, 0), _check_length(L)
    with np.errstate(over="ignore"):
        r = -((np.arange(N + 1) * np.pi / L) ** 2)
    if not np.isfinite(r[-1]):
        raise ValueError(f"domain length must be long enough for {N} finite resonances, got {L}")
    return r


def weyl_sample(N: int, f: int, L: float) -> SamplingPlan:
    """Place f interior points in each of the first N resonance intervals.

    Interval k (for k = 0..N-1) is (r_{k+1}, r_k); its points are
    r_k + (i/(f+1)) (r_{k+1} - r_k) for i = 1..f. All N*f points are
    returned sorted ascending; every point is strictly negative and at
    least |r_{k+1} - r_k|/(f+1) away from its interval's endpoints.
    """
    N, f = _check_count("interval count N", N, 1), _check_count("points per interval f", f, 1)
    r = approximate_resonances(N, L)
    fractions = np.arange(1, f + 1) / (f + 1)
    lambdas = (r[:-1, None] + fractions[None, :] * (r[1:, None] - r[:-1, None])).ravel()
    return SamplingPlan(N=N, f=f, L=float(L), lambdas=np.sort(lambdas))
