"""Finite-volume laboratory for the exp-Rabelo equation, evolved in v = e^u.

Written in v = e^u, the anchored form of the equation is a Burgers flux
plus the nonlocal source -v * int_0^x v dy and an optional viscosity. The
scheme conserves v. That matches the paper while the solution is smooth, but
not past the breaking time: a shock of the scheme moves at (v_l + v_r)/2,
while the paper's entropy solutions conserve u and move a shock at
(v_l - v_r)/ln(v_l/v_r). Stock runs stop at T = 1, before the stock gaussian
breaks. The default two-bump preset breaks earlier, at t = 0.868, so at
T = 1 `verify entropy` on it exits 1 at 4096 cells.

Solutions are bounded from above, so v = 0 is admissible: a step sets only
negative values to 0, and counts them.

Modules: grids and presets (grid_field), the prefix integral (nonlocal_op),
fluxes and time stepping (scheme), the run loop (solver), the estimate
checkers (verifiers), and the CLI (cli_io).
"""

from .errors import (
    BlowUpError,
    BoundaryFluxWarning,
    ConfigError,
    DataGapError,
    DomainError,
    DomainTooSmallError,
    GridAlignmentError,
    GridSizeError,
    ShapeError,
    SparseSnapshotsError,
    StateError,
)
from .grid_field import (
    FieldV,
    GridSpec,
    InitialDataSpec,
    build_grid,
    init_field,
    u_from_v,
)
from .nonlocal_op import NonlocalP, p_sup, prefix_integral
from .scheme import (
    SchemeConfig,
    cfl_dt,
    godunov_flux,
    interface_fluxes,
    rusanov_flux,
    step,
)
from .solver import (
    DiagnosticsSeries,
    RunConfig,
    RunResult,
    Snapshot,
    evolve,
    landings,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "BoundaryFluxWarning",
    "ConfigError",
    "DataGapError",
    "DomainError",
    "DomainTooSmallError",
    "GridAlignmentError",
    "GridSizeError",
    "ShapeError",
    "SparseSnapshotsError",
    "StateError",
    "FieldV",
    "GridSpec",
    "InitialDataSpec",
    "build_grid",
    "init_field",
    "u_from_v",
    "NonlocalP",
    "p_sup",
    "prefix_integral",
    "SchemeConfig",
    "cfl_dt",
    "godunov_flux",
    "interface_fluxes",
    "rusanov_flux",
    "step",
    "DiagnosticsSeries",
    "RunConfig",
    "RunResult",
    "Snapshot",
    "evolve",
    "landings",
    "run_simulation",
    "__version__",
]
