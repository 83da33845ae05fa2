"""Shared fixtures: the stock run configurations, a session-level cache so
expensive ladders are computed once for the whole suite, a guard that fails
a test which runs a simulation, the scheme's right-hand side written out part
by part for the tests that check against it, a diagnostics row computed one
block of rows per alpha set for the tests of the one-row recorder, the
Kruzhkov pairs of the v-form law that the scheme conserves, and the numpy and
OpenBLAS kernels that a golden digest mismatch names."""

from __future__ import annotations

import ctypes
import glob
import math
import os

import numpy as np
import pytest

import exprabelo.solver
from exprabelo import InitialDataSpec, RunConfig, SchemeConfig, build_grid, prefix_integral
from exprabelo.scheme import interface_fluxes
from exprabelo.grid_field import V_TINY
from exprabelo.solver import CHAIN_MAX_POWER, run_simulation
from exprabelo.verifiers import run_ladder

STOCK_DOMAIN = (-8.0, 8.0)


def stock_config(
    n_cells: int = 512,
    epsilon: float = 0.0,
    final_time: float = 1.0,
    snapshot_times: tuple = (),
    alphas: tuple = (0.0, 1.0, 2.0),
    init: InitialDataSpec | None = None,
    source_enabled: bool = True,
) -> RunConfig:
    return RunConfig(
        grid=build_grid(*STOCK_DOMAIN, n_cells),
        init=init if init is not None else InitialDataSpec.gaussian(),
        scheme=SchemeConfig(epsilon=epsilon, source_enabled=source_enabled),
        final_time=final_time,
        snapshot_times=snapshot_times,
        diagnostic_alphas=alphas,
    )


def perturbed_gaussian() -> InitialDataSpec:
    """The stock gaussian plus a bump of relative size 0.01 centered at 1."""
    return InitialDataSpec.two_bump(
        amplitude1=0.0,
        center1=0.0,
        sigma1=1.0,
        amplitude2=math.log(0.01),
        center2=1.0,
        sigma2=1.0,
    )


@pytest.fixture
def no_evolve(monkeypatch):
    """Fail the test if anything runs a simulation: every run, recorded by
    ``evolve``, streamed by ``landings`` or sampled by the entropy
    certificate, goes through ``solver._march``."""

    def no_run(*args, **kwargs):
        raise AssertionError("rejected input ran a simulation")

    monkeypatch.setattr(exprabelo.solver, "_march", no_run)


@pytest.fixture(scope="session")
def stock_ladder_runs():
    """Stock gaussian runs on {512, 1024, 2048} for epsilon in {0, 1e-2},
    keyed by (n_cells, epsilon)."""
    runs = {}
    for eps in (0.0, 1e-2):
        base = stock_config(512, epsilon=eps)
        for result in run_ladder(base, (512, 1024, 2048)):
            runs[(result.grid.n_cells, eps)] = result
    return runs


@pytest.fixture(scope="session")
def stock_run_256():
    """Small, quick stock run with snapshots, reused by solver and IO tests."""
    cfg = stock_config(256, final_time=0.5, snapshot_times=(0.0, 0.25, 0.5))
    return run_simulation(cfg)


def semi_discrete_rhs(grid, fv, p, cfg):
    """The scheme's spatial operator at ``fv``, whose prefix integral is
    ``p``, split into (flux divergence, source, viscous) parts and written
    out here independently of the scheme's stepping code: the flux
    divergence from ``interface_fluxes``, the source -v P plus any forcing
    (zeros with the source off), and the viscous part eps v D+D-v with zero
    ghosts, zeros when epsilon is zero."""
    v = fv.values
    flux = interface_fluxes(v, cfg.flux)
    flux_div = (flux[:-1] - flux[1:]) / grid.dx
    source = -v * p.cell_values if cfg.source_enabled else np.zeros(v.size)
    if cfg.forcing is not None:
        source = source + cfg.forcing(fv.time, grid.centers)
    padded = np.concatenate(([0.0], v, [0.0]))
    lap = padded[:-2] - 2.0 * v + padded[2:]
    return flux_div, source, cfg.epsilon * v * lap / (grid.dx * grid.dx)


def cancelling_forcing(grid, v0, cfg):
    """Forcing that freezes v0: g = -(flux divergence + source + viscous)(v0)."""
    flux_div, source, viscous = semi_discrete_rhs(grid, v0, prefix_integral(grid, v0), cfg)
    g = -(flux_div + source + viscous)

    def forcing(t, x):
        return g

    return forcing


def reference_diagnostics_row(grid, fv, p, flux, cfg, dt, alphas):
    """A diagnostics row as ``record_diagnostics`` built it from one
    (alphas x n) block per quantity: every power row first, each row of
    v^(a+1) chained from the row before it when that row holds v^a, and
    each block reduced along its rows. The one-row recorder must give these
    bits."""
    v = fv.values
    n, dx = v.size, grid.dx
    imax = int(v.argmax())
    mass = float(v.sum()) * dx
    pad = np.zeros((len(alphas), n + 2))
    powers = pad[:, 1:-1]
    for j, a in enumerate(alphas):
        k = a + 1.0
        if not (k.is_integer() and k <= CHAIN_MAX_POWER):
            np.power(v, k, out=powers[j])
        elif j and alphas[j - 1] + 1.0 == k - 1.0:
            np.multiply(powers[j - 1], v, out=powers[j])
        else:
            np.copyto(powers[j], v)
            for _ in range(int(k) - 1):
                powers[j] *= v
    skip = 1 if alphas[0] == 0.0 else 0
    lp = [mass] * skip + [s * dx for s in np.add.reduce(powers[skip:], axis=1).tolist()]
    if cfg.epsilon > 0.0:
        dv = np.diff(np.concatenate(([0.0], v, [0.0])))
        sums = np.add.reduce((pad[:, 1:] - pad[:, :-1]) * dv, axis=1).tolist()
        diss = [cfg.epsilon * (a + 1.0) * s / dx for a, s in zip(alphas, sums)]
    else:
        diss = [0.0] * len(alphas)
    if cfg.source_enabled:
        sums = np.add.reduce(powers * p.cell_values, axis=1).tolist()
        src = [(a + 1.0) * s * dx for a, s in zip(alphas, sums)]
    else:
        src = [0.0] * len(alphas)
    row = [fv.time, float(dt), math.log(max(float(v[imax]), V_TINY)), float(grid.centers[imax]),
           mass, float(abs(flux[0]) + abs(flux[-1])),
           float(p.interface_values[0]), float(p.interface_values[-1]), fv.clip_count]
    for block in zip(lp, diss, src):
        row += block
    return row


def v_form_kruzhkov_pair(levels):
    """The Kruzhkov pairs of the law the scheme conserves, v_t + (v^2/2)_x =
    -v P, one row per level k, laid out as the u-form pairs that
    ``verifiers._hat_sums`` takes but fed v: |v - k|, sgn(v - k)(v^2 -
    k^2)/2 and the source weight sgn(v - k) v in place of eta'(u)."""
    k = np.array(levels, dtype=np.float64)[:, None]

    def pair(v):
        sgn = np.sign(v - k)
        return np.abs(v - k), sgn * (v * v - k * k) / 2.0, sgn * v

    return pair


# numpy's exp, log and power and OpenBLAS's matrix products give different
# last bits on different kernels, so the golden digests pin these kernels too
GOLDEN_HOST = "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, OpenBLAS SkylakeX"


def _simd_targets() -> str:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def _openblas_core() -> str:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))[0])
    corename = lib.scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def host_kernels() -> str:
    """numpy's version, the SIMD targets it dispatches and the OpenBLAS core
    of numpy's bundled library, each "unknown" where its lookup fails; laid
    out as ``GOLDEN_HOST``."""
    facts = []
    for label, lookup in (("numpy", lambda: np.__version__), ("SIMD", _simd_targets),
                          ("OpenBLAS", _openblas_core)):
        try:
            facts.append(f"{label} {lookup()}")
        except (ImportError, AttributeError, OSError, IndexError):
            facts.append(f"{label} unknown")
    return ", ".join(facts)


def golden_host_note() -> str:
    """The assertion message of a golden digest: the pins' host and this one."""
    return f"pins taken on {GOLDEN_HOST}; this host: {host_kernels()}"
