"""Conservative finite-volume scheme with implicit congestion pressure.

One step advances (rho, q, Z) with Rusanov transport of the convective terms
and the background pressure, while the congestion pressure acts at the new
time level (first order) or as a time average (second order).

Both schemes share one condensed implicit stage, :func:`_stage`, the whole
of each substep: explicit fluxes, elimination of the momentum from the mass
updates, one nonlinear elliptic solve for the pressure, back-substitution
and the density floor.  The pressure is the Newton unknown of both schemes,
with one mass map cap Z(pi).  This scheme condenses both Z and rho and takes
capacity 1 (its first mass is Z itself).  Keeping the new pressure implicit
keeps the admissible time step bounded away from zero as the stiffness
parameter vanishes.

Both schemes also share one time discretization, :func:`_advance`, the only
place that knows the time weighting.  It hands every substep a pair
(w, p_old): the stage's pressure unknown is P = p_old + w pi_new, with p_old
= (1 - w) pi_old the explicit part.  First order in time is one implicit
substep, (1, 0); second order an implicit midpoint predictor and a corrector
for the time-averaged pressure, (1/2, p(Z) / 2), redone implicitly when some
cell would need pi_new < 0 (:class:`PressureSwitchTriggered`, congestion
releasing into near vacuum).  It holds the only relaxation toward a desired
velocity, after the finite-volume stage, and builds the :class:`StepInfo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from congested_euler.elliptic import (
    DiffusionOperator,
    EllipticProblem,
    solve_newton,
)
from congested_euler.fluxes import (
    div_from_faces,
    face_states,
    max_wave_speed,
    rusanov_flux,
)
from congested_euler.grid import (
    Grid,
    GridState,
    _axes,
    _offset,
    _shifted,
    pad_field,
)
from congested_euler.pressure import (
    background_pressure,
    inverse_slope_floor,
    singular_pressure,
    singular_pressure_inverse,
    singular_pressure_inverse_deriv,
)

DENSITY_FLOOR = 1e-10
# Newton starts from the stage's explicit mass phi / cap where it lies in
# (0, FREE_START_MAX), and from the flux state's Z elsewhere.  The zq
# order-2 tube at eps 1e-4 (nx 200, dt 0.1 dx) fails where rounding sends
# it, at step 117 from the flux state's Z alone.  An upper end of 0.99 moves
# that failure to step 91, inside criterion 5's 100 steps; 0.9 moves it to
# 109 and 0.8 to 113, with about the same cut in Newton iterations (smooth1d
# 2 -> 1 per stage); 0.5 leaves smooth1d at 2.
FREE_START_MAX = 0.9


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
        """Unit field pointing at ``center`` (x first); zero at the singular point."""
        d = [x - c for x, c in zip(grid.cell_centers(), center)]
        norm = np.hypot.reduce(d, axis=0, initial=0.0)  # |d1| in 1D
        safe = np.where(norm > 0.0, norm, 1.0)
        return cls(beta, tuple(np.where(norm > 0.0, -di / safe, 0.0) for di in d))


def relaxation_update(q_star, rho_next, rc: RelaxationConfig, dt: float):
    """Implicit relaxation of momentum toward rho w; contraction by 1/(1 + dt/beta)."""
    fac = dt / rc.beta
    return tuple(
        (q + fac * rho_next * w) / (1.0 + fac) for q, w in zip(q_star, rc.w)
    )


def _stage(grid, state_init, state_flux, dt, w, p_old, law, *, order, cap=None):
    """One substep of either scheme: the condensed implicit stage.

    Rusanov fluxes at ``state_flux`` advance the momentum explicitly to mt,
    and the new momentum is q_new = mt - dt grad Pi.  Substituting it into
    the update of each condensed mass m ("Z" or "rho") leaves
    m_new = phi_m + L_m Pi, with phi_m explicit and L_m the stride-2 second
    difference weighted by w dt^2 / (4 h^2) * m / rho, where ``w`` weights
    q_new against the initial momentum in the mass fluxes.

    ``cap=None`` condenses Z and rho with capacity 1 (the conservative
    scheme); an array ``cap``, the advected ceiling rho_star of the
    semi-Lagrangian scheme, condenses rho alone.  The one Newton unknown is
    the pressure Pi = p_old + w pi_new, with the first mass cap Z((Pi -
    p_old) / w) as its map.  Newton starts from the congestion pressure of
    the explicit mass phi / cap in free cells, 0 < phi / cap <
    ``FREE_START_MAX``, where the small pressure moves little mass, and of
    ``state_flux``'s Z elsewhere.  It keeps Pi >= p_old; when w < 1 a raw
    iterate below that bound raises :class:`PressureSwitchTriggered`, at
    w = 1 it is only clipped.  Returns the :class:`SubstepResult`, masses
    floored at ``DENSITY_FLOOR`` (Z = rho / cap when ``cap`` is given).
    """
    masses = ("Z", "rho") if cap is None else ("rho",)
    mass_p = {m: state_flux.padded(grid, m) for m in ("rho", "Z")}
    mom_p = {qn: state_flux.padded(grid, qn) for _, _, qn in _axes(grid)}

    div_q = {name: np.zeros(grid.shape) for name in mom_p}
    div_d = {m: np.zeros(grid.shape) for m in masses}
    max_speed = 0.0
    for axis, h, qn in _axes(grid):
        faces = {m: face_states(mass_p[m], axis, order) for m in ("rho", "Z")}
        (rl, rr), (zl, zr) = faces["rho"], faces["Z"]
        ql, qr = face_states(mom_p[qn], axis, order)
        c = np.maximum(
            max_wave_speed(rl, ql, zl, law), max_wave_speed(rr, qr, zr, law)
        )
        max_speed = max(max_speed, float(c.max()))
        gl = ql * ql / rl + background_pressure(zl, law)
        gr = qr * qr / rr + background_pressure(zr, law)
        div_q[qn] += div_from_faces(rusanov_flux(gl, gr, c, ql, qr), axis, h)
        for qt in [t for t in mom_p if t != qn]:
            tl, tr = face_states(mom_p[qt], axis, order)
            flux_t = rusanov_flux(ql * tl / rl, qr * tr / rr, c, tl, tr)
            div_q[qt] += div_from_faces(flux_t, axis, h)
        for m in masses:
            ml, mr = faces[m]
            div_d[m] += div_from_faces(-0.5 * c * (mr - ml), axis, h)

    mt = {name: getattr(state_init, name) - dt * div_q[name] for name in div_q}
    r_p = {}
    for name in mt:
        r = (1.0 - w) * getattr(state_init, name) + w * mt[name]
        r_p[name] = pad_field(grid, r, name)

    def condense(m):
        a_p = mass_p[m] / mass_p["rho"]
        phi = getattr(state_init, m) - dt * div_d[m]
        terms = []
        for axis, h, qn in _axes(grid):
            ar = a_p * r_p[qn]
            east = _offset(grid, axis, 1)
            west = _offset(grid, axis, -1)
            phi -= dt * (_shifted(grid, ar, east) - _shifted(grid, ar, west)) / (2.0 * h)
            s = w * dt * dt / (4.0 * h * h)
            terms.append((_offset(grid, axis, 2), s * _shifted(grid, a_p, east)))
            terms.append((_offset(grid, axis, -2), s * _shifted(grid, a_p, west)))
        return DiffusionOperator(grid, terms), phi

    # Evaluating the condensed form once more makes each mass update
    # telescope exactly, so total mass is conserved to rounding regardless
    # of the Newton stopping residual.
    op, phi = condense(masses[0])
    po, capacity = np.ravel(p_old), np.ravel(1.0 if cap is None else cap)
    floor = inverse_slope_floor(law)
    problem = EllipticProblem(
        op=op,
        rhs=phi,
        f=lambda u: capacity * singular_pressure_inverse((u - po) / w, law),
        fprime=lambda u: capacity * singular_pressure_inverse_deriv(
            np.maximum((u - po) / w, floor), law
        ) / w,
    )
    hook = None
    if w < 1.0:
        slack = 1e-13 * max(1.0, float(np.max(p_old)) / (1.0 - w))

        def hook(u_raw):
            if np.any(u_raw < p_old - slack):
                raise PressureSwitchTriggered(
                    "time-weighted pressure fell below its explicit part"
                )

    z0 = phi / (1.0 if cap is None else cap)
    z0 = np.where((z0 > 0.0) & (z0 < FREE_START_MAX), z0, state_flux.Z)
    u0 = p_old + w * singular_pressure(z0, law)
    Pi, report = solve_newton(problem, u0, lower=p_old, iterate_hook=hook)
    new = {masses[0]: phi + op.apply(Pi)}

    Pi_p = pad_field(grid, Pi)
    q_new = {}
    for axis, h, qn in _axes(grid):
        grad = (
            _shifted(grid, Pi_p, _offset(grid, axis, 1))
            - _shifted(grid, Pi_p, _offset(grid, axis, -1))
        ) / (2.0 * h)
        q_new[qn] = mt[qn] - dt * grad

    # The other masses are condensed only now.  Holding their arrays through
    # the solve, or building them before the back-substitution, raised the
    # minor page faults of a smooth1d run by 40 % and its wall time by 10 %.
    for m in masses[1:]:
        op, phi = condense(m)
        new[m] = phi + op.apply(Pi)
    clamps = sum(int(np.count_nonzero(m < DENSITY_FLOOR)) for m in new.values())
    rho = np.maximum(new["rho"], DENSITY_FLOOR)
    if cap is None:
        Z = np.maximum(new["Z"], DENSITY_FLOOR)
        rho_star = rho / Z
    else:
        Z, rho_star = rho / cap, cap
    state = GridState(rho=rho, q1=q_new["q1"], Z=Z, rho_star=rho_star,
                      q2=q_new.get("q2"), time=state_init.time + dt)
    return SubstepResult(state, Pi, report, clamps, max_speed)


def _advance(grid, state, dt, law, *, order, time_order, relaxation, advect=None):
    """The time discretization both schemes share; returns ``(state, StepInfo)``.

    Every substep is one :func:`_stage` from the step's start state with
    fluxes at a flux state, for the pressure P = p_old + w pi_new; this is
    the only place that chooses ``(w, p_old)``.  ``advect``, when given,
    carries the start rho_star over each substep with the flux state's
    velocity, and the stage condenses rho under that ``cap``.
    ``time_order=1`` is one implicit substep, (1, 0).  ``time_order=2`` is a
    midpoint predictor over dt / 2, (1, 0), and a corrector over dt with
    fluxes at the predictor state and the time-averaged pressure,
    (1/2, p(Z) / 2) with Z the start state's, redone implicitly when the
    corrector raises :class:`PressureSwitchTriggered`.  ``relaxation`` then
    drags the momenta toward rho w, using the stage's density.
    """

    def sub(flux, h, w, p_old):
        cap = None if advect is None else advect(state.rho_star, flux.velocity, h, grid, order)
        return _stage(grid, state, flux, h, w, p_old, law, order=order, cap=cap)

    switched = False
    if time_order == 1:
        subs = [sub(state, dt, 1.0, 0.0)]
    else:
        half = sub(state, 0.5 * dt, 1.0, 0.0)
        try:
            full = sub(half.state, dt, 0.5, 0.5 * singular_pressure(state.Z, law))
        except PressureSwitchTriggered:
            switched = True
            full = sub(half.state, dt, 1.0, 0.0)
        subs = [half, full]
    new = subs[-1].state
    if relaxation is not None:
        names = [n for n in ("q1", "q2") if getattr(new, n) is not None]
        relaxed = relaxation_update([getattr(new, n) for n in names], new.rho, relaxation, dt)
        for name, q in zip(names, relaxed):
            setattr(new, name, q)
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
    return _advance(grid, state, dt, law, order=order,
                    time_order=time_order, relaxation=relaxation)
