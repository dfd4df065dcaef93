"""Experiment definitions plus the run and refinement-study harnesses.

A Scenario bundles everything needed to reproduce a run: initial profile,
grid, scheme selection, law parameters, and time stepping.  run_scenario
integrates it and keeps each step's record; run_convergence_study measures L1
errors against a fine second-order reference and fits log-log slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import scheme_conservative, scheme_semilag
from .elliptic import LinearSolveError, NewtonError
from .grid import (
    GHOST,
    Grid,
    GridState,
    OutflowWindow,
    Periodic,
    Wall,
    total_mass,
)
from .pressure import DomainError, PressureLaw
from .riemann import PrimState
from .scheme_conservative import RelaxationConfig

_KINDS = ("riemann1d", "smooth1d", "collide2d", "evacuate2d")
_PROFILES = ("constant", "linear", "step", "random")
_2D_KINDS = ("collide2d", "evacuate2d")
# kinds with mirrored (reflecting or zero-gradient) sides, whose GHOST ghost
# layers need at least GHOST cells a side
_MIRRORED_KINDS = ("riemann1d", "evacuate2d")

# colliding-shocks data: (rho, q, rho_star) on each side of x = 0.5
RIEMANN_LEFT = (0.7, 0.8, 1.2)
RIEMANN_RIGHT = (0.7, -0.8, 1.0)

# group density inside the four squares and ambient density outside; the
# inward momentum of 0.5 is prescribed, the densities are free parameters
COLLIDE_RHO_IN = 0.7
COLLIDE_RHO_OUT = 0.2

# the room starts at rest at this density, under the chosen ceiling
EVACUATION_RHO = 0.6
EVACUATION_BETA = 0.1
EXIT_WINDOW = (0.4, 0.6)


@dataclass(frozen=True)
class Scenario:
    """A fully resolved experiment: profile, grid, scheme, law, stepping."""

    kind: str
    nx: int
    ny: int | None = None
    scheme: str = "zq"
    order: int = 2
    epsilon: float = 1e-2
    alpha: float = 2.0
    gamma: float = 2.0
    t_end: float = 0.1
    dt_factor: float = 0.1
    dt: float | None = None
    frames_every: int = 0
    case: int = 1
    profile: str = "constant"
    rho_star_const: float = 1.0
    beta: float | None = None
    seed: int = 0
    time_order: int | None = None  # zq only: 1 with order=2 is space-only accuracy

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.scheme not in ("zq", "sl"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.time_order is not None:
            if self.time_order not in (1, 2) or self.time_order > self.order:
                raise ValueError("time_order must be 1 or 2 and at most order")
            if self.scheme == "sl" and self.time_order != self.order:
                raise ValueError("the sl scheme has no space-only variant")
        if self.case not in (1, 2, 3):
            raise ValueError("collision case must be 1, 2 or 3")
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown congestion profile {self.profile!r}")
        for name in ("nx", "epsilon", "alpha", "gamma", "t_end", "dt_factor", "dt"):
            v = getattr(self, name)
            if v is not None and not (0 < v < math.inf):  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        object.__setattr__(self, "_law", PressureLaw(self.epsilon, self.alpha, self.gamma))
        if self.frames_every < 0:
            raise ValueError("frames_every must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not math.isfinite(self.rho_star_const):
            raise ValueError("rho_star_const must be finite")
        if self.kind in _2D_KINDS:
            if self.ny is None:
                object.__setattr__(self, "ny", self.nx)
            elif self.ny < 1:
                raise ValueError("ny must be positive")
        elif self.ny is not None:
            raise ValueError(f"{self.kind} is one-dimensional; ny is not allowed")
        if self.kind in _MIRRORED_KINDS and min(self.nx, self.ny or self.nx) < GHOST:
            raise ValueError(f"the sides of {self.kind} need at least {GHOST} cells a side")
        if self.kind == "evacuate2d":
            if self.beta is None:
                object.__setattr__(self, "beta", EVACUATION_BETA)
            if not (0 < self.beta < math.inf):
                raise ValueError("beta must be positive and finite")
            if self.profile == "constant" and self.rho_star_const <= EVACUATION_RHO:
                raise ValueError(
                    f"rho_star_const must exceed the initial density {EVACUATION_RHO}"
                )

    @property
    def law(self) -> PressureLaw:
        return self._law


def riemann_states() -> tuple[PrimState, PrimState]:
    """Left/right primitive states of the colliding-shocks setup."""
    (rl, ql, sl), (rr, qr, sr) = RIEMANN_LEFT, RIEMANN_RIGHT
    return PrimState(rl, ql / rl, rl / sl), PrimState(rr, qr / rr, rr / sr)


def build_grid(s: Scenario) -> Grid:
    if s.kind == "riemann1d":
        # zero-gradient sides: exact until the first wave reaches one
        return Grid(nx=s.nx, bc_x=(OutflowWindow(0.0, 1.0),) * 2)
    if s.kind == "smooth1d":
        return Grid(nx=s.nx)
    if s.kind == "collide2d":
        per = (Periodic(), Periodic())
        return Grid(nx=s.nx, bc_x=per, ny=s.ny, bc_y=per)
    return Grid(
        nx=s.nx,
        bc_x=(Wall(), Wall()),
        ny=s.ny,
        bc_y=(OutflowWindow(*EXIT_WINDOW), Wall()),
    )


def _square_mask(xx, yy, cx, cy, side=0.2):
    return (np.abs(xx - cx) <= side / 2) & (np.abs(yy - cy) <= side / 2)


def build_initial_state(s: Scenario, grid: Grid) -> GridState:
    if s.kind == "riemann1d":
        x = grid.centers_x
        left = x <= 0.5
        (rl, ql, sl), (rr, qr, sr) = RIEMANN_LEFT, RIEMANN_RIGHT
        rho = np.where(left, rl, rr)
        q1 = np.where(left, ql, qr)
        rho_star = np.where(left, sl, sr)
        return GridState(rho=rho, q1=q1, Z=rho / rho_star, rho_star=rho_star)

    if s.kind == "smooth1d":
        x = grid.centers_x
        rho = 0.6 + 0.2 * np.exp(-((x - 0.5) ** 2) / 0.01)
        q1 = np.exp(-((x - 0.5) ** 2) / 0.01)
        rho_star = 1.2 + 0.2 * (1 - np.cos(8 * np.pi * (x - 0.5)))
        return GridState(rho=rho, q1=q1, Z=rho / rho_star, rho_star=rho_star)

    xx, yy = grid.cell_centers()
    if s.kind == "collide2d":
        west = _square_mask(xx, yy, 0.2, 0.5)
        east = _square_mask(xx, yy, 0.8, 0.5)
        south = _square_mask(xx, yy, 0.5, 0.2)
        north = _square_mask(xx, yy, 0.5, 0.8)
        inside = west | east | south | north
        rho = np.where(inside, COLLIDE_RHO_IN, COLLIDE_RHO_OUT)
        q1 = 0.5 * west - 0.5 * east
        q2 = 0.5 * south - 0.5 * north
        if s.case == 1:
            rho_star = np.ones(grid.shape)
        elif s.case == 2:
            rho_star = np.ones(grid.shape)
            rho_star[west | east] = 0.8
            rho_star[south | north] = 1.2
        else:
            rho_star = 1 + 0.05 * (
                np.cos(10 * np.pi * xx) + np.cos(24 * np.pi * xx)
            ) * (np.cos(6 * np.pi * yy) + np.cos(34 * np.pi * yy))
        return GridState(rho=rho, q1=q1, Z=rho / rho_star, rho_star=rho_star, q2=q2)

    rho = np.full(grid.shape, EVACUATION_RHO)
    zero = np.zeros(grid.shape)
    if s.profile == "constant":
        rho_star = np.full(grid.shape, s.rho_star_const)
    elif s.profile == "linear":
        rho_star = 1.1 - 0.2 * yy
    elif s.profile == "step":
        rho_star = np.where(xx > 0.5, 1.1, 0.9)
    else:
        rng = np.random.default_rng(s.seed)
        rho_star = rng.uniform(0.9, 1.1, grid.shape)
    return GridState(
        rho=rho, q1=zero, Z=rho / rho_star, rho_star=rho_star, q2=zero.copy()
    )


def make_relaxation(s: Scenario, grid: Grid) -> RelaxationConfig | None:
    if s.kind != "evacuate2d":
        return None
    exit_center = ((EXIT_WINDOW[0] + EXIT_WINDOW[1]) / 2, 0.0)
    return RelaxationConfig.toward_exit(grid, s.beta, center=exit_center)


class ScenarioError(RuntimeError):
    """A step failed; carries its 1-based index, start time and, as ``result``,
    the ScenarioResult of the steps that returned."""

    def __init__(self, step: int, time: float, message: str, result=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.result = result


@dataclass
class ScenarioResult:
    scenario: Scenario
    grid: Grid
    frames: list  # (time, GridState) pairs
    times: np.ndarray  # time of each level, 0 first
    mass: np.ndarray  # rho mass at each time level
    steps: list  # the scheme's StepInfo of each step

    @property
    def final(self) -> GridState:
        return self.frames[-1][1]

    @property
    def newton_max(self) -> np.ndarray:  # worst Newton iteration count of each step
        return np.array([i.newton_iterations for i in self.steps], dtype=int)

    @property
    def max_speed(self) -> np.ndarray:  # explicit-part wave speed of each step
        return np.array([i.max_speed for i in self.steps], dtype=float)


def resolved_dt(s: Scenario, grid: Grid) -> float:
    return s.dt if s.dt is not None else s.dt_factor * grid.dx


def run_scenario(s: Scenario) -> ScenarioResult:
    grid = build_grid(s)
    state = build_initial_state(s, grid)
    law = s.law
    scheme = scheme_conservative if s.scheme == "zq" else scheme_semilag
    options = dict(order=s.order, relaxation=make_relaxation(s, grid))
    if s.scheme == "zq":
        options["time_order"] = s.time_order
    h_min = min(grid.spacing)
    cfl = None  # background CFL number of the last completed step

    dt0 = resolved_dt(s, grid)
    steps = max(1, math.ceil(s.t_end / dt0 - 1e-9))
    frames = [(0.0, state.copy())]
    times, mass, infos = [0.0], [total_mass(grid, state.rho)], []

    def record():
        return ScenarioResult(s, grid, frames, np.array(times), np.array(mass), infos)

    for k in range(1, steps + 1):
        t_prev = (k - 1) * dt0
        dt = dt0 if k < steps else s.t_end - (steps - 1) * dt0
        try:
            # looked up at call time, so a rebound ``step`` is the one called
            state, info = scheme.step(grid, state, dt, law, **options)
        except (NewtonError, LinearSolveError, DomainError) as exc:
            last = "no step completed" if cfl is None else f"{cfl:.6g}"
            raise ScenarioError(
                k, t_prev, f"step {k} failed at t={t_prev:.6g}: {exc}; "
                f"background CFL of the last completed step: {last}", record(),
            ) from exc
        t = k * dt0 if k < steps else s.t_end
        state.time = t
        times.append(t)
        mass.append(total_mass(grid, state.rho))
        infos.append(info)
        cfl = info.max_speed * dt / h_min
        if cfl > 1.0:
            raise ScenarioError(k, t_prev, f"step {k} failed at t={t_prev:.6g}: "
                                f"background CFL {cfl:.6g} exceeds 1", record())
        if k == steps or (s.frames_every and k % s.frames_every == 0):
            frames.append((t, state.copy()))

    return record()


# ---------------------------------------------------------------------------
# refinement study


def restrict(fine: np.ndarray, factor: int) -> np.ndarray:
    """Block-average a fine 1D field onto a coarser grid."""
    if fine.size % factor:
        raise ValueError("restriction factor must divide the fine resolution")
    return fine.reshape(-1, factor).mean(axis=1)


@dataclass
class ConvergenceReport:
    dxs: list  # spacings that ran, 1 / nx, coarse to fine
    dts: list  # time step used at each spacing
    errors: dict  # variable -> L1 error array aligned with dxs
    slopes: dict  # variable -> least-squares log-log slope
    ref_dx: float
    ref_dt: float


_STUDY_VARS = ("rho", "q1", "Z", "rho_star")


def run_convergence_study(
    base: Scenario, refinements, *, ref_dx=None, ref_state=None
) -> ConvergenceReport:
    """L1 errors and fitted orders against a fine second-order reference.

    The reference is computed with the conservative scheme at order 2 and
    CFL-scaled dt, whatever `base` uses, at the finest requested spacing
    unless ``ref_dx`` says otherwise; pass ``ref_state`` to reuse a solution
    already computed at that spacing.  Each spacing dx runs nx = round(1 / dx)
    cells, and the report and the slope fit use the 1 / nx that ran.  A
    refinement whose resolved parameters coincide with the reference's is the
    reference itself, so its error is exactly zero and it is left out of the
    slope fit.
    """
    nxs = sorted(round(1 / float(d)) for d in refinements)
    if len(nxs) < 3:
        raise ValueError("need at least three refinements")
    nx_ref = nxs[-1] if ref_dx is None else round(1 / ref_dx)
    dxs, ref_dx = [1 / nx for nx in nxs], 1 / nx_ref
    for nx in nxs:
        if nx_ref % nx:
            raise ValueError(f"reference resolution {nx_ref} not divisible by {nx}")

    cache = {}

    def solve(scn: Scenario):
        key = (scn.nx, scn.scheme, scn.order, scn.time_order, scn.dt)
        if key not in cache:
            res = run_scenario(scn)
            cache[key] = (res.grid, res.final, resolved_dt(scn, res.grid))
        return cache[key]

    ref_scn = replace(
        base, nx=nx_ref, ny=None, scheme="zq", order=2, time_order=None, dt=None
    )
    if ref_state is None:
        _, ref_state, ref_dt = solve(ref_scn)
    else:
        ref_dt = base.dt_factor * ref_dx

    errors = {name: [] for name in _STUDY_VARS}
    dts = []
    for nx in nxs:
        grid, state, dt_used = solve(replace(base, nx=nx, ny=None))
        dts.append(dt_used)
        factor = nx_ref // nx
        for name in _STUDY_VARS:
            ref_coarse = restrict(getattr(ref_state, name), factor)
            err = float(np.sum(np.abs(getattr(state, name) - ref_coarse)) * grid.dx)
            errors[name].append(err)

    fit = [k for k, dx in enumerate(dxs) if dx > ref_dx]
    log_dx = np.log([dxs[k] for k in fit])
    slopes = {}
    for name in _STUDY_VARS:
        errors[name] = np.array(errors[name])
        slopes[name] = float(
            np.polyfit(log_dx, np.log(errors[name][fit]), 1)[0]
        )
    return ConvergenceReport(
        dxs=dxs, dts=dts, errors=errors, slopes=slopes, ref_dx=ref_dx, ref_dt=ref_dt
    )
