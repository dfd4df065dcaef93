"""Conservative finite-volume scheme with implicit congestion pressure.

One step advances (rho, q, Z) with Rusanov transport of the convective terms
and the background pressure, while the congestion pressure acts at the new
time level (first order) or as a time average (second order).

Both schemes share one condensed implicit stage, :func:`_stage`: explicit
fluxes, elimination of the momentum from the mass updates, one nonlinear
elliptic solve for the pressure, back-substitution.  This scheme condenses
both Z and rho, solves for the pressure with Z = Z(pi) as the nonlinear map,
and clamps both masses at a density floor.  Keeping the new pressure
implicit keeps the admissible time step bounded away from zero as the
stiffness parameter vanishes.

Both schemes also share one time discretization, :func:`_advance`: one
implicit substep at first order in time; at second order an implicit midpoint
predictor and a corrector for the time-averaged pressure P = (pi_old +
pi_new) / 2, redone with the implicit weighting when some cell would need
pi_new < 0 (:class:`PressureSwitchTriggered`, congestion releasing into near
vacuum).  It holds the only relaxation toward a desired velocity, after the
finite-volume stage, and builds the :class:`StepInfo`.  Each ``step`` checks
its orders and supplies the substep; here :func:`_substep` with pi_old = p(Z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from congested_euler.elliptic import (
    DiffusionOperator,
    EllipticProblem,
    _shifted,
    solve_newton,
)
from congested_euler.fluxes import (
    div_from_faces,
    face_states,
    max_wave_speed,
    rusanov_flux,
)
from congested_euler.grid import (
    Dirichlet,
    Grid,
    GridState,
    dirichlet_values,
    pad_field,
)
from congested_euler.pressure import (
    background_pressure,
    inverse_slope_floor,
    singular_pressure,
    singular_pressure_inverse,
    singular_pressure_inverse_deriv,
)

GHOST_WIDTH = 2
DENSITY_FLOOR = 1e-10


class PressureSwitchTriggered(RuntimeError):
    """The time-averaged pressure unknown dipped below its admissible floor."""


@dataclass(frozen=True)
class StepInfo:
    """Per-step diagnostics: one Newton report per elliptic solve."""

    reports: tuple
    switched: bool
    clamps: int
    max_speed: float

    @property
    def newton_iterations(self) -> int:
        return max(r.iterations for r in self.reports)


@dataclass(frozen=True)
class SubstepResult:
    """Updated state plus the elliptic unknown and solver diagnostics."""

    state: GridState
    pi: np.ndarray
    report: object
    clamps: int
    max_speed: float


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


def _axes(grid: Grid):
    """(array axis, spacing, normal momentum name) for each direction."""
    if grid.ndim == 1:
        return [(0, grid.dx, "q1")]
    return [(1, grid.dx, "q1"), (0, grid.dy, "q2")]


def _offset(grid: Grid, axis: int, k: int):
    if grid.ndim == 1:
        return k
    return (0, k) if axis == 1 else (k, 0)


def _pi_boundary(grid: Grid, law):
    """Per-side exterior congestion pressure on fixed-state sides."""
    if not grid.has_dirichlet:
        return None
    vals = np.full(4, np.nan)
    for side, bc in enumerate(grid.boundaries):
        if isinstance(bc, Dirichlet):
            vals[side] = singular_pressure(bc.Z, law)
    return vals


def _stage(grid, state_init, state_flux, dt, w_new, law, *, order, masses, solve):
    """The condensed implicit stage that both schemes share.

    Rusanov fluxes at ``state_flux`` advance the momentum explicitly to mt,
    and the new momentum is q_new = mt - dt grad Pi.  Substituting it into
    the update of each mass m in ``masses`` ("Z" or "rho") leaves
    m_new = phi_m + L_m Pi, with phi_m explicit and L_m the stride-2 second
    difference weighted by w_new dt^2 / (4 h^2) * m / rho.  ``solve(L, phi)``
    of the first mass returns Pi and its Newton report.  Returns the new
    masses and momenta by name, Pi, the report and the largest wave speed.
    """
    W = GHOST_WIDTH
    two_d = grid.ndim == 2

    mass_p = {m: state_flux.padded(grid, m, W) for m in ("rho", "Z")}
    mom_p = {"q1": state_flux.padded(grid, "q1", W)}
    if two_d:
        mom_p["q2"] = state_flux.padded(grid, "q2", W)

    div_q = {name: np.zeros(grid.shape) for name in mom_p}
    div_d = {m: np.zeros(grid.shape) for m in masses}
    max_speed = 0.0
    for axis, h, qn in _axes(grid):
        faces = {m: face_states(mass_p[m], W, axis, order) for m in ("rho", "Z")}
        (rl, rr), (zl, zr) = faces["rho"], faces["Z"]
        ql, qr = face_states(mom_p[qn], W, axis, order)
        c = np.maximum(
            max_wave_speed(rl, ql, zl, law), max_wave_speed(rr, qr, zr, law)
        )
        max_speed = max(max_speed, float(c.max()))
        gl = ql * ql / rl + background_pressure(zl, law)
        gr = qr * qr / rr + background_pressure(zr, law)
        div_q[qn] += div_from_faces(rusanov_flux(gl, gr, c, ql, qr), axis, h)
        if two_d:
            qt = "q2" if qn == "q1" else "q1"
            tl, tr = face_states(mom_p[qt], W, axis, order)
            flux_t = rusanov_flux(ql * tl / rl, qr * tr / rr, c, tl, tr)
            div_q[qt] += div_from_faces(flux_t, axis, h)
        for m in masses:
            ml, mr = faces[m]
            div_d[m] += div_from_faces(-0.5 * c * (mr - ml), axis, h)

    mt = {name: getattr(state_init, name) - dt * div_q[name] for name in div_q}
    r_p = {}
    for name in mt:
        r = (1.0 - w_new) * getattr(state_init, name) + w_new * mt[name]
        dvals = dirichlet_values(grid, name) if grid.has_dirichlet else None
        r_p[name] = pad_field(grid, r, W, name, dvals)

    pi_b = _pi_boundary(grid, law)

    def condense(m):
        a_p = mass_p[m] / mass_p["rho"]
        phi = getattr(state_init, m) - dt * div_d[m]
        terms = []
        for axis, h, qn in _axes(grid):
            ar = a_p * r_p[qn]
            east = _offset(grid, axis, 1)
            west = _offset(grid, axis, -1)
            phi -= dt * (
                _shifted(grid, ar, W, east) - _shifted(grid, ar, W, west)
            ) / (2.0 * h)
            s = w_new * dt * dt / (4.0 * h * h)
            terms.append((_offset(grid, axis, 2), s * _shifted(grid, a_p, W, east)))
            terms.append((_offset(grid, axis, -2), s * _shifted(grid, a_p, W, west)))
        return DiffusionOperator(grid, W, terms, g_boundary=pi_b), phi

    # Evaluating the condensed form once more makes each mass update
    # telescope exactly, so total mass is conserved to rounding regardless
    # of the Newton stopping residual.
    op, phi = condense(masses[0])
    Pi, report = solve(op, phi)
    new = {masses[0]: phi + op.apply(Pi)}

    Pi_p = pad_field(grid, Pi, W, "scalar", pi_b)
    q_new = {}
    for axis, h, qn in _axes(grid):
        grad = (
            _shifted(grid, Pi_p, W, _offset(grid, axis, 1))
            - _shifted(grid, Pi_p, W, _offset(grid, axis, -1))
        ) / (2.0 * h)
        q_new[qn] = mt[qn] - dt * grad

    # The other masses are condensed only now.  Holding their arrays through
    # the solve, or building them before the back-substitution, raised the
    # minor page faults of a smooth1d run by 40 % and its wall time by 10 %.
    for m in masses[1:]:
        op, phi = condense(m)
        new[m] = phi + op.apply(Pi)
    return new, q_new, Pi, report, max_speed


def _substep(grid, state_init, state_flux, dt, law, mode, *, order, pi_old=None):
    """One implicit-pressure update from ``state_init`` with fluxes at ``state_flux``.

    ``mode`` selects the weight of the new pressure: "implicit" solves for
    pi_new itself, "semi" for the average (pi_old + pi_new) / 2.  The
    condensed unknown is that pressure, and Z = Z(pi) is the nonlinear map.
    """
    if mode not in ("implicit", "semi"):
        raise ValueError(f"unknown substep mode {mode!r}")
    w_new = 1.0 if mode == "implicit" else 0.5
    if mode == "semi" and pi_old is None:
        raise ValueError("semi mode needs the previous pressure field")

    floor = inverse_slope_floor(law)
    hook = None
    if mode == "implicit":
        zmap = lambda u: singular_pressure_inverse(u, law)
        dzmap = lambda u: singular_pressure_inverse_deriv(np.maximum(u, floor), law)
        lower = 0.0
        u0 = singular_pressure(state_flux.Z, law)
    else:
        po = np.asarray(pi_old, dtype=float).ravel()
        zmap = lambda u: singular_pressure_inverse(2.0 * u - po, law)
        dzmap = lambda u: 2.0 * singular_pressure_inverse_deriv(
            np.maximum(2.0 * u - po, floor), law
        )
        lower = 0.5 * po
        u0 = 0.5 * (po + singular_pressure(state_flux.Z, law).ravel())
        slack = 1e-13 * max(1.0, float(po.max()))
        lb = lower.reshape(grid.shape)

        def hook(u_raw):
            if np.any(u_raw < lb - slack):
                raise PressureSwitchTriggered(
                    "averaged pressure fell below pi_old / 2"
                )

    def solve(op, phi):
        problem = EllipticProblem(
            op=op,
            rhs=phi,
            f=zmap,
            fprime=dzmap,
            h=lambda u: u,
            hprime=lambda u: np.ones_like(u),
        )
        return solve_newton(problem, u0, lower=lower, iterate_hook=hook)

    new, q_new, Pi, report, max_speed = _stage(
        grid, state_init, state_flux, dt, w_new, law,
        order=order, masses=("Z", "rho"), solve=solve,
    )
    clamps = sum(int(np.count_nonzero(m < DENSITY_FLOOR)) for m in new.values())
    rho_new, Z_new = (np.maximum(new[m], DENSITY_FLOOR) for m in ("rho", "Z"))
    state = GridState(
        rho=rho_new,
        q1=q_new["q1"],
        Z=Z_new,
        rho_star=rho_new / Z_new,
        q2=q_new.get("q2"),
        time=state_init.time + dt,
    )
    return SubstepResult(state, Pi, report, clamps, max_speed)


def _advance(substep, state, dt, *, order, time_order, relaxation):
    """The time discretization both schemes share; returns ``(state, StepInfo)``.

    ``substep(state_flux, dt, mode, order)`` runs one condensed stage from the
    step's start state with fluxes at ``state_flux``.  ``time_order=1`` is one
    implicit substep.  ``time_order=2`` is a midpoint predictor over dt / 2
    and a corrector over dt with fluxes at the predictor state and the
    time-averaged pressure, redone with the implicit weighting when the
    corrector raises :class:`PressureSwitchTriggered`.  ``relaxation`` then
    drags the momenta toward rho w, using the stage's density.
    """
    switched = False
    if time_order == 1:
        subs = [substep(state, dt, "implicit", order)]
    else:
        half = substep(state, 0.5 * dt, "implicit", order)
        try:
            full = substep(half.state, dt, "semi", order)
        except PressureSwitchTriggered:
            switched = True
            full = substep(half.state, dt, "implicit", order)
        subs = [half, full]
    new = subs[-1].state
    if relaxation is not None:
        q = (new.q1,) if new.q2 is None else (new.q1, new.q2)
        q = relaxation_update(q, new.rho, relaxation, dt)
        new.q1 = q[0]
        if new.q2 is not None:
            new.q2 = q[1]
    return new, StepInfo(
        tuple(s.report for s in subs), switched,
        sum(s.clamps for s in subs), max(s.max_speed for s in subs),
    )


def step(grid, state, dt, law, *, order=2, time_order=None, relaxation=None):
    """Advance one time step; returns ``(new_state, StepInfo)``.

    ``order=1`` is the fully implicit donor-cell step.  ``order=2`` combines
    minmod reconstruction with a midpoint predictor and a time-averaged
    pressure corrector, falling back to the implicit weighting for the whole
    step when the corrector's pressure floor is hit.  ``time_order=1`` with
    ``order=2`` keeps the minmod faces but steps fully implicitly (second
    order in space only).  ``relaxation`` drags momentum toward rho w after
    the finite-volume stage.
    """
    if time_order is None:
        time_order = order
    if order not in (1, 2) or time_order not in (1, 2) or time_order > order:
        raise ValueError(f"unsupported order pair ({order}, {time_order})")

    def substep(state_flux, h, mode, sub_order):
        pi_old = singular_pressure(state.Z, law) if mode == "semi" else None
        return _substep(
            grid, state, state_flux, h, law, mode, order=sub_order, pi_old=pi_old
        )

    return _advance(substep, state, dt, order=order, time_order=time_order,
                    relaxation=relaxation)
