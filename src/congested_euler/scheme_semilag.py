"""Density-variable scheme with semi-Lagrangian congestion transport.

The finite-volume stage advances (rho, q) only, through the condensed stage
of :mod:`scheme_conservative`: this scheme condenses rho against the capacity
field rho_star frozen for the stage, solves for the new density with the
congestion pressure pi(rho / rho_star) as the nonlinear map, and projects the
density below rho_star.  rho_star itself moves along characteristics: each
cell traces its foot backward through the velocity field and reads the old
field through Lagrange interpolation on 2r + 2 neighboring nodes.

The time discretization is :func:`scheme_conservative._advance`, shared with
the conservative scheme: predictor, corrector, relaxation of the momentum
toward rho times a desired velocity (evacuation runs) and the step's
diagnostics.  This scheme supplies :func:`_fv_substep` against a frozen
rho_star and the transport around it.  Second order combines MUSCL fluxes
with Strang splitting that advects rho_star a half step on either side of
the finite-volume stage; first order advects it a full step after it.  The
last advection uses the relaxed velocity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from congested_euler.elliptic import EllipticProblem, solve_newton
from congested_euler.grid import (
    Grid,
    GridState,
    Periodic,
    _shifted,
    dirichlet_values,
    pad_field,
)
from congested_euler.pressure import singular_pressure, singular_pressure_deriv
# RelaxationConfig and relaxation_update are re-exported for callers of this module
from congested_euler.scheme_conservative import (
    DENSITY_FLOOR,
    RelaxationConfig,
    SubstepResult,
    _advance,
    _axes,
    _offset,
    _stage,
    relaxation_update,
)

# Newton iterates and the projected density stay below this fraction of
# rho_star so the pressure law is always evaluated inside its domain.
CONGESTION_GUARD = 1e-10


@dataclass(frozen=True)
class SemiLagConfig:
    """Interpolation half-width r in {0, 1} and backtracking order in {1, 2}."""

    r: int = 1
    time_order: int = 1

    def __post_init__(self):
        if self.r not in (0, 1):
            raise ValueError(f"interpolation half-width must be 0 or 1, got {self.r}")
        if self.time_order not in (1, 2):
            raise ValueError(f"backtracking order must be 1 or 2, got {self.time_order}")


def _lagrange_weights(theta, r: int):
    """Weights on nodes j - r .. j + r + 1 for a query at fraction theta past node j."""
    if r == 0:
        return [1.0 - theta, theta]
    tm, t0, t1, t2 = theta + 1.0, theta, theta - 1.0, theta - 2.0
    return [
        -t0 * t1 * t2 / 6.0,
        tm * t1 * t2 / 2.0,
        -tm * t0 * t2 / 2.0,
        tm * t0 * t1 / 6.0,
    ]


def _foot_base(u, n: int, bc_pair):
    """Base node and fractional offset of continuous index positions.

    Periodic axes wrap the position; other axes clamp it to the node range,
    which freezes characteristics that would leave the domain at the wall.
    """
    if isinstance(bc_pair[0], Periodic):
        u = np.mod(u, n)
    else:
        u = np.clip(u, 0.0, n - 1.0)
    base = np.minimum(np.floor(u).astype(np.int64), n - 1)
    return base, u - base


def _upwind_slope(grid: Grid, v, kind: str, axis: int, h: float):
    """One-sided difference of a velocity component against its own sign."""
    vb = dirichlet_values(grid, kind) / dirichlet_values(grid, "rho")
    vp = pad_field(grid, v, 1, kind, vb)
    ctr, west, east = (_shifted(grid, vp, 1, _offset(grid, axis, k)) for k in (0, -1, 1))
    return np.where(v > 0.0, (ctr - west) / h, (east - ctr) / h)


def _foot_positions(grid: Grid, v, dt: float, cfg: SemiLagConfig, kind: str, axis: int, h: float):
    """Continuous foot indices along one array axis for every cell."""
    disp = v * dt
    if cfg.time_order == 2:
        a = _upwind_slope(grid, v, kind, axis, h)
        disp = v * dt - 0.5 * a * v * dt * dt
    return np.indices(grid.shape, dtype=float)[axis] - disp / h


def semilag_advect(rho_star, velocity, dt: float, grid: Grid, cfg: SemiLagConfig):
    """Trace characteristics backward and interpolate the congestion density.

    ``velocity`` holds one component per direction, x first; a bare array is
    the 1D velocity.  The interpolation is the tensor product of the 1D
    Lagrange stencils of each axis.
    """
    r = cfg.r
    W = r + 1
    dvals = dirichlet_values(grid, "rho_star") if grid.has_dirichlet else None
    pad = pad_field(grid, rho_star, W, "scalar", dvals)
    if not isinstance(velocity, (tuple, list)):
        velocity = (velocity,)
    feet = []
    for (axis, h, qn), v, bcs in zip(_axes(grid), velocity, grid.bcs):
        u = _foot_positions(grid, v, dt, cfg, qn, axis, h)
        base, theta = _foot_base(u, grid.shape[axis], bcs)
        feet.append((base + W - r, _lagrange_weights(theta, r)))
    # array-axis order, so the weights multiply as w_y * w_x
    bases, weights = zip(*feet[::-1])
    out = np.zeros(grid.shape)
    for ks in itertools.product(range(2 * r + 2), repeat=grid.ndim):
        w = math.prod(wt[k] for wt, k in zip(weights, ks))
        out += w * pad[tuple(b + k for b, k in zip(bases, ks))]
    return out


def _project_density(rho, rho_star, q1, q2, time):
    """The state with rho clipped into [floor, (1 - guard) rho_star].

    Returns ``(state, clamp count)``.
    """
    ceiling = (1.0 - CONGESTION_GUARD) * rho_star
    clamps = int(np.count_nonzero(rho < DENSITY_FLOOR))
    clamps += int(np.count_nonzero(rho > ceiling))
    rho = np.clip(rho, DENSITY_FLOOR, ceiling)
    state = GridState(rho=rho, q1=q1, Z=rho / rho_star, rho_star=rho_star, q2=q2,
                      time=time)
    return state, clamps


def _fv_substep(grid, state_init, state_flux, rho_star, dt, law, mode, *, order):
    """One congestion-implicit update of (rho, q) against a frozen rho_star.

    ``mode`` selects the weight of the new pressure: "implicit" applies
    pi(rho_new / rho_star) in full, "semi" the average with the pressure of
    the initial density.  The condensed elliptic unknown is the new density.
    """
    if mode not in ("implicit", "semi"):
        raise ValueError(f"unknown substep mode {mode!r}")
    w_new = 1.0 if mode == "implicit" else 0.5
    rs = np.asarray(rho_star, dtype=float).ravel()
    ceiling = (1.0 - CONGESTION_GUARD) * rs
    if mode == "implicit":
        pmap = lambda u: singular_pressure(u / rs, law)
        dpmap = lambda u: singular_pressure_deriv(u / rs, law) / rs
    else:
        po = singular_pressure(
            np.minimum(state_init.rho.ravel(), ceiling) / rs, law
        )
        pmap = lambda u: 0.5 * (po + singular_pressure(u / rs, law))
        dpmap = lambda u: 0.5 * singular_pressure_deriv(u / rs, law) / rs

    def solve(op, phi):
        problem = EllipticProblem(
            op=op,
            rhs=phi,
            f=lambda u: u,
            fprime=lambda u: np.ones_like(u),
            h=pmap,
            hprime=dpmap,
        )
        rho_u, report = solve_newton(
            problem, state_flux.rho, lower=DENSITY_FLOOR, upper=ceiling
        )
        return pmap(rho_u.ravel()).reshape(grid.shape), report

    new, q_new, Pi, report, max_speed = _stage(
        grid, state_init, state_flux, dt, w_new, law,
        order=order, masses=("rho",), solve=solve,
    )
    state, clamps = _project_density(
        new["rho"], rs.reshape(grid.shape), q_new["q1"], q_new.get("q2"),
        state_init.time + dt,
    )
    return SubstepResult(state, Pi, report, clamps, max_speed)


def step(grid, state, dt, law, *, order=2, slcfg=None, relaxation=None):
    """Advance one time step; returns ``(new_state, StepInfo)``.

    ``order=1`` runs the fully implicit donor-cell stage and then advects
    rho_star with the updated velocity.  ``order=2`` wraps the midpoint
    predictor and time-averaged corrector between two half-step advections
    of rho_star.  ``relaxation`` drags momentum toward rho w after the
    finite-volume stage, before the last advection.
    """
    if order not in (1, 2):
        raise ValueError(f"unsupported order {order}")
    if slcfg is None:
        slcfg = SemiLagConfig(r=1, time_order=order)
    st0, clamps0 = state, 0
    if order == 2:
        rs = semilag_advect(state.rho_star, state.velocity, 0.5 * dt, grid, slcfg)
        st0, clamps0 = _project_density(state.rho, rs, state.q1, state.q2, state.time)

    def substep(state_flux, h, mode, sub_order):
        return _fv_substep(
            grid, st0, state_flux, st0.rho_star, h, law, mode, order=sub_order
        )

    fv, info = _advance(
        substep, st0, dt, order=order, time_order=order, relaxation=relaxation
    )
    rs = semilag_advect(st0.rho_star, fv.velocity, dt / order, grid, slcfg)
    out, clamps = _project_density(fv.rho, rs, fv.q1, fv.q2, fv.time)
    return out, replace(info, clamps=clamps0 + info.clamps + clamps)
