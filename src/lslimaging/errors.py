"""Exception types raised by the imaging pipeline."""
from contextlib import contextmanager


class ImagingError(Exception):
    """Base class for domain-specific failures (as opposed to bad arguments)."""


class _NearResonanceError(ImagingError):
    """A spectral parameter too close to a resonance; `what` ends the message."""

    what = ""

    def __init__(self, lam: float, distance: float):
        self.lam = lam
        self.distance = distance
        super().__init__(f"lambda = {lam:.17g} is within {distance:.3e} of {self.what}")


class ResonanceProximityError(_NearResonanceError):
    """The shifted operator is (near-)singular: lambda sits on a discrete resonance.

    Carries the offending spectral parameter and the distance to the nearest
    eigenvalue of the discretized operator.
    """

    what = "a discrete resonance; the shifted system is numerically singular"


class DegenerateMassError(ImagingError):
    """Mass matrix is indefinite or rank-zero beyond what flooring can absorb."""


class DegenerateSourceError(ImagingError):
    """Source vector has no component in the retained range of the mass matrix."""


class RomResonanceError(_NearResonanceError):
    """Reduced model evaluated at an eigenvalue of its own tridiagonal matrix."""

    what = "a reduced-model resonance (eigenvalue of -T)"


class SampleAlignmentError(ImagingError):
    """Two datasets that must share identical sample points do not."""


class DimensionMismatchError(ImagingError):
    """Array shapes of paired factorizations or snapshots are incompatible."""


class DegenerateSystemError(ImagingError):
    """Imaging system matrix is identically zero; nothing to invert."""


class ExperimentError(ImagingError):
    """A pipeline stage failed; names the stage for CLI diagnostics."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


@contextmanager
def stage(name: str):
    """Run a block as pipeline stage `name`: its failures become ExperimentError(name, cause).

    An ExperimentError raised by an inner stage passes through unchanged.
    """
    try:
        yield
    except ExperimentError:
        raise
    except (ImagingError, ValueError, OSError) as exc:
        raise ExperimentError(name, exc) from exc
