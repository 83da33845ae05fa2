"""Finite-volume laboratory for the exp-Rabelo equation, evolved in v = e^u.

The conservative variable is v = e^u, which turns the anchored form of the
equation into a Burgers flux plus the nonlocal source -v * int_0^x v dy and
an optional viscosity. Subpackages: grids and presets (grid_field), the
prefix integral (nonlocal_op), fluxes and time stepping (scheme), the driver
(solver), the estimate checkers (verifiers), and the CLI (cli_io).
"""

from .errors import (
    AmplitudeError,
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
    FieldU,
    FieldV,
    GridSpec,
    InitialDataSpec,
    build_grid,
    init_field,
    u_from_v,
    v_from_u,
)
from .nonlocal_op import NonlocalP, p_sup, prefix_integral
from .scheme import (
    SchemeConfig,
    cfl_dt,
    godunov_flux,
    interface_fluxes,
    rusanov_flux,
    semi_discrete_rhs,
    step,
)
from .solver import (
    DiagnosticsSeries,
    RunConfig,
    RunResult,
    Snapshot,
    evolve,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeError",
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
    "FieldU",
    "FieldV",
    "GridSpec",
    "InitialDataSpec",
    "build_grid",
    "init_field",
    "u_from_v",
    "v_from_u",
    "NonlocalP",
    "p_sup",
    "prefix_integral",
    "SchemeConfig",
    "cfl_dt",
    "godunov_flux",
    "interface_fluxes",
    "rusanov_flux",
    "semi_discrete_rhs",
    "step",
    "DiagnosticsSeries",
    "RunConfig",
    "RunResult",
    "Snapshot",
    "evolve",
    "run_simulation",
    "__version__",
]
