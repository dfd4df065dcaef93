"""Density-variable scheme with semi-Lagrangian congestion transport.

The finite-volume stage advances (rho, q) only, through the condensed stage
of :mod:`scheme_conservative`: this scheme condenses rho against the capacity
field rho_star frozen for the stage, solves for the new density with the
congestion pressure pi(rho / rho_star) as the nonlinear map, and projects the
density below rho_star.  rho_star itself moves along characteristics: each
cell traces its foot backward through the velocity field and reads the old
field through Lagrange interpolation on 2r + 2 neighboring nodes.

Second order combines MUSCL fluxes, a midpoint predictor with a
time-averaged pressure corrector, and Strang splitting that advects
rho_star a half step on either side of the finite-volume stage.  An
optional relaxation stage drags momentum toward rho times a desired
velocity field, for evacuation runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from congested_euler.elliptic import EllipticProblem, solve_newton
from congested_euler.grid import (
    Dirichlet,
    Grid,
    GridState,
    Periodic,
    dirichlet_values,
    pad_field,
)
from congested_euler.pressure import singular_pressure, singular_pressure_deriv
from congested_euler.scheme_conservative import (
    DENSITY_FLOOR,
    StepInfo,
    SubstepResult,
    _stage,
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


@dataclass(frozen=True)
class RelaxationConfig:
    """Relaxation time beta and unit desired-velocity components."""

    beta: float
    w: tuple

    @classmethod
    def toward_exit(cls, grid: Grid, beta: float, center=(0.5, 0.0)):
        """Unit field pointing at ``center``; zero at the singular point."""
        if grid.ndim == 1:
            d1 = grid.centers_x - center[0]
            norm = np.abs(d1)
        else:
            X, Y = grid.cell_centers()
            d1 = X - center[0]
            d2 = Y - center[1]
            norm = np.hypot(d1, d2)
        safe = np.where(norm > 0.0, norm, 1.0)
        w1 = np.where(norm > 0.0, -d1 / safe, 0.0)
        if grid.ndim == 1:
            return cls(beta, (w1,))
        w2 = np.where(norm > 0.0, -d2 / safe, 0.0)
        return cls(beta, (w1, w2))


def relaxation_update(q_star, rho_next, rc: RelaxationConfig, dt: float):
    """Implicit relaxation of momentum toward rho w; contraction by 1/(1 + dt/beta)."""
    fac = dt / rc.beta
    return tuple(
        (q + fac * rho_next * w) / (1.0 + fac) for q, w in zip(q_star, rc.w)
    )


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


def _dirichlet_velocity(grid: Grid, name: str):
    vals = np.full(4, np.nan)
    for side, bc in enumerate(grid.boundaries):
        if isinstance(bc, Dirichlet):
            vals[side] = bc.value(name) / bc.rho
    return vals


def _upwind_slope(grid: Grid, v, kind: str, axis: int):
    """One-sided difference of a velocity component against its own sign."""
    vb = _dirichlet_velocity(grid, kind) if grid.has_dirichlet else None
    vp = pad_field(grid, v, 1, kind, vb)
    if grid.ndim == 1:
        ctr, west, east = vp[1:-1], vp[:-2], vp[2:]
        h = grid.dx
    elif axis == 1:
        ctr, west, east = vp[1:-1, 1:-1], vp[1:-1, :-2], vp[1:-1, 2:]
        h = grid.dx
    else:
        ctr, west, east = vp[1:-1, 1:-1], vp[:-2, 1:-1], vp[2:, 1:-1]
        h = grid.dy
    return np.where(v > 0.0, (ctr - west) / h, (east - ctr) / h)


def _foot_positions(grid: Grid, v, dt: float, cfg: SemiLagConfig, kind: str, axis: int, h: float):
    """Continuous foot indices along one axis for every cell."""
    disp = v * dt
    if cfg.time_order == 2:
        a = _upwind_slope(grid, v, kind, axis)
        disp = v * dt - 0.5 * a * v * dt * dt
    if grid.ndim == 1:
        idx = np.arange(grid.nx, dtype=float)
    elif axis == 1:
        idx = np.broadcast_to(np.arange(grid.nx, dtype=float), grid.shape)
    else:
        idx = np.broadcast_to(np.arange(grid.ny, dtype=float)[:, None], grid.shape)
    return idx - disp / h


def semilag_advect(rho_star, velocity, dt: float, grid: Grid, cfg: SemiLagConfig):
    """Trace characteristics backward and interpolate the congestion density."""
    r = cfg.r
    W = r + 1
    dvals = dirichlet_values(grid, "rho_star") if grid.has_dirichlet else None
    pad = pad_field(grid, rho_star, W, "scalar", dvals)
    if grid.ndim == 1:
        v1 = velocity[0] if isinstance(velocity, (tuple, list)) else velocity
        u = _foot_positions(grid, v1, dt, cfg, "q1", 0, grid.dx)
        base, theta = _foot_base(u, grid.nx, grid.bc_x)
        weights = _lagrange_weights(theta, r)
        out = np.zeros(grid.shape)
        for k, wk in enumerate(weights):
            out += wk * pad[base + (k - r) + W]
        return out
    v1, v2 = velocity
    ux = _foot_positions(grid, v1, dt, cfg, "q1", 1, grid.dx)
    uy = _foot_positions(grid, v2, dt, cfg, "q2", 0, grid.dy)
    bx, tx = _foot_base(ux, grid.nx, grid.bc_x)
    by, ty = _foot_base(uy, grid.ny, grid.bc_y)
    wx = _lagrange_weights(tx, r)
    wy = _lagrange_weights(ty, r)
    out = np.zeros(grid.shape)
    for ky, wky in enumerate(wy):
        for kx, wkx in enumerate(wx):
            out += wky * wkx * pad[by + (ky - r) + W, bx + (kx - r) + W]
    return out


def _project_density(rho, rho_star):
    """Clip into [floor, (1 - guard) rho_star]; returns (field, clamp count)."""
    ceiling = (1.0 - CONGESTION_GUARD) * np.asarray(rho_star, dtype=float)
    clamps = int(np.count_nonzero(rho < DENSITY_FLOOR))
    clamps += int(np.count_nonzero(rho > ceiling))
    return np.clip(rho, DENSITY_FLOOR, ceiling), clamps


def _fv_substep(grid, state_init, state_flux, rho_star, dt, law, mode, *, order,
                cg_rtol=1e-13):
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
            problem, state_flux.rho, lower=DENSITY_FLOOR, upper=ceiling,
            cg_rtol=cg_rtol,
        )
        return pmap(rho_u.ravel()).reshape(grid.shape), report

    new, q_new, Pi, report, max_speed = _stage(
        grid, state_init, state_flux, dt, w_new, law,
        order=order, masses=("rho",), solve=solve,
    )
    rs_field = rs.reshape(grid.shape)
    rho_new, clamps = _project_density(new["rho"], rs_field)
    state = GridState(
        rho=rho_new,
        q1=q_new["q1"],
        Z=rho_new / rs_field,
        rho_star=rs_field,
        q2=q_new.get("q2"),
        time=state_init.time + dt,
    )
    return SubstepResult(state, Pi, report, clamps, max_speed)


def _velocity(state):
    if state.q2 is None:
        return (state.q1 / state.rho,)
    return (state.q1 / state.rho, state.q2 / state.rho)


def _finish(grid, fv, rho_star_new, q_comps, time, clamps_extra):
    rho, clamps = _project_density(fv.state.rho, rho_star_new)
    rs = np.asarray(rho_star_new, dtype=float).reshape(grid.shape)
    state = GridState(
        rho=rho,
        q1=q_comps[0],
        Z=rho / rs,
        rho_star=rs,
        q2=q_comps[1] if len(q_comps) == 2 else None,
        time=time,
    )
    return state, clamps + clamps_extra


def step(grid, state, dt, law, *, order=2, slcfg=None, relaxation=None,
         cg_rtol=1e-13):
    """Advance one time step; returns ``(new_state, StepInfo)``.

    ``order=1`` runs the fully implicit donor-cell stage and then advects
    rho_star with the updated velocity.  ``order=2`` wraps the midpoint
    predictor and time-averaged corrector between two half-step advections
    of rho_star.  ``relaxation`` drags momentum toward rho w after the
    finite-volume stage.
    """
    if slcfg is None:
        slcfg = SemiLagConfig(r=1, time_order=2 if order == 2 else 1)
    if order == 1:
        fv = _fv_substep(
            grid, state, state, state.rho_star, dt, law, "implicit",
            order=1, cg_rtol=cg_rtol,
        )
        q = [fv.state.q1] if fv.state.q2 is None else [fv.state.q1, fv.state.q2]
        if relaxation is not None:
            q = list(relaxation_update(tuple(q), fv.state.rho, relaxation, dt))
        vel = tuple(qc / fv.state.rho for qc in q)
        rs_new = semilag_advect(state.rho_star, vel, dt, grid, slcfg)
        out, clamps = _finish(grid, fv, rs_new, q, state.time + dt, fv.clamps)
        return out, StepInfo((fv.report,), False, clamps, fv.max_speed)
    if order != 2:
        raise ValueError(f"unsupported order {order}")

    rs_half = semilag_advect(state.rho_star, _velocity(state), 0.5 * dt, grid, slcfg)
    rho0, clamps0 = _project_density(state.rho, rs_half)
    st0 = GridState(
        rho=rho0,
        q1=state.q1,
        Z=rho0 / rs_half,
        rho_star=rs_half,
        q2=state.q2,
        time=state.time,
    )
    half = _fv_substep(
        grid, st0, st0, rs_half, 0.5 * dt, law, "implicit", order=2,
        cg_rtol=cg_rtol,
    )
    full = _fv_substep(
        grid, st0, half.state, rs_half, dt, law, "semi", order=2, cg_rtol=cg_rtol
    )
    q = [full.state.q1] if full.state.q2 is None else [full.state.q1, full.state.q2]
    if relaxation is not None:
        q = list(relaxation_update(tuple(q), full.state.rho, relaxation, dt))
    vel = tuple(qc / full.state.rho for qc in q)
    rs_new = semilag_advect(rs_half, vel, 0.5 * dt, grid, slcfg)
    out, clamps = _finish(
        grid, full, rs_new, q, state.time + dt,
        clamps0 + half.clamps + full.clamps,
    )
    info = StepInfo(
        (half.report, full.report),
        False,
        clamps,
        max(half.max_speed, full.max_speed),
    )
    return out, info
