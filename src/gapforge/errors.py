"""Exception types shared across the package."""

from __future__ import annotations


class GapForgeError(Exception):
    """Base class for all package errors."""


class IntervalError(GapForgeError):
    """Malformed interval set (unsorted, overlapping, negative endpoints)."""


class GapSpecError(GapForgeError):
    """Invalid gap specification.

    ``code`` identifies the violated rule so callers can distinguish
    failure modes: one of ``empty_interval``, ``nonpositive_edge``,
    ``overlap``, ``bad_dimension``, ``bad_delta``, ``bad_horizon``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class GeometryError(GapForgeError):
    """Geometry violates a standing assumption (duplicate resonances,
    hole not smaller than bubble, degenerate trial denominator, ...)."""


class PoleError(GapForgeError):
    """Dispersion function evaluated at (or too close to) a pole."""


class ScaleError(GapForgeError):
    """A scale leaves the floating-point range: a scaled radius or mesh
    spacing underflows (advise larger eps), a root bracket overflows or a
    sphere volume's Gamma factor overflows (dimension too high)."""


class ResolutionError(GapForgeError):
    """Grid too coarse for the requested geometry or eigenvalue count."""


class QuadratureError(GapForgeError):
    """Quadrature failed to reach the requested accuracy."""


class ConfigError(GapForgeError):
    """Invalid run configuration; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
