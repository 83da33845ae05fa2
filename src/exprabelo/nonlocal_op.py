"""The nonlocal prefix integral P(t, x) = integral of v from 0 to x.

The integral is signed: it is accumulated outward from the interface pinned
at x = 0, so it is negative for x < 0 whenever v > 0. Interface values are
exact prefix sums of cell masses; cell values average the two bounding
interfaces, which collocates P at cell midpoints to second order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .grid_field import FieldV, GridSpec, _readonly


@dataclass(frozen=True)
class NonlocalP:
    """Prefix integral sampled on interfaces (n+1) and cell midpoints (n)."""

    interface_values: np.ndarray
    cell_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "interface_values", _readonly(self.interface_values))
        object.__setattr__(self, "cell_values", _readonly(self.cell_values))


def _prefix_arrays(
    grid: GridSpec, v: np.ndarray, interface: np.ndarray, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fill the n+1 interface and n cell buffers; ``cells`` first holds the
    cell masses v dx."""
    anchor = grid.anchor_index
    interface[0] = 0.0
    np.add.accumulate(np.multiply(v, grid.dx, out=cells), out=interface[1:])
    interface -= interface[anchor]  # x - x is +0.0 for any finite x: anchored exactly
    np.add(interface[:-1], interface[1:], out=cells)
    cells *= 0.5
    return interface, cells


def prefix_integral(grid: GridSpec, fv: FieldV) -> NonlocalP:
    """Signed prefix integral of a v field, anchored at the x = 0 interface."""
    if fv.values.shape != (grid.n_cells,):
        raise ShapeError(
            f"field has {fv.values.shape[0]} cells, grid has {grid.n_cells}"
        )
    n = grid.n_cells
    return NonlocalP(*_prefix_arrays(grid, fv.values, np.empty(n + 1), np.empty(n)))


def p_sup(p: NonlocalP) -> float:
    """Max |P| over cell midpoints; feeds the source branch of the CFL bound.

    P of a field v >= 0 is nondecreasing in floating point, not only in exact
    arithmetic: the prefix sums add nonnegative masses, and subtracting the
    anchor value and averaging neighbours are monotone roundings. So max |P|
    is |P| at one of the two end cells, and this equals
    ``np.abs(p.cell_values).max()`` bit for bit; the outer abs turns the -0.0
    that max(-0.0, 0.0) gives on an all-zero P into 0.0.
    """
    cells = p.cell_values
    return abs(max(-float(cells[0]), float(cells[-1])))
