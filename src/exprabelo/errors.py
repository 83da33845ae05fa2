"""Exception and warning types shared across the package."""

from __future__ import annotations


class GridAlignmentError(ValueError):
    """Domain endpoints do not place x = 0 on a cell interface."""


class GridSizeError(ValueError):
    """Grid resolution below the minimum the schemes support."""


class DomainTooSmallError(ValueError):
    """Initial data carries non-negligible mass outside the domain."""


class ShapeError(ValueError):
    """Array length inconsistent with the grid it is paired with."""


class StateError(RuntimeError):
    """A field or diagnostic is non-finite or otherwise unusable."""


class BlowUpError(RuntimeError):
    """Time stepping produced a non-finite value."""

    def __init__(self, cell_index: int, time: float):
        self.cell_index = int(cell_index)
        self.time = float(time)
        super().__init__(
            f"non-finite value in cell {self.cell_index} at t = {self.time:.6g}"
        )


class DataGapError(ValueError):
    """A diagnostics series does not cover the requested time window."""


class SparseSnapshotsError(ValueError):
    """Snapshot spacing too coarse for the requested space-time quadrature."""


class DomainError(ValueError):
    """A verifier was asked to evaluate outside its admissible domain."""


class ConfigError(ValueError):
    """Config document rejected; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class BoundaryFluxWarning(UserWarning):
    """Flux through a domain boundary exceeded the leak threshold."""
