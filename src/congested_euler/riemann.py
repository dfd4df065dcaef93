"""Exact similarity solutions of the 1D congestion system, for validation.

Given two constant states, the solution of the corresponding initial-value
problem is a fan of three waves: genuinely nonlinear 1- and 3-waves (shock or
rarefaction) separated by a contact.  The congestion density rho* = rho/Z is
constant along the nonlinear waves and jumps only at the contact, so each
nonlinear wave curve lives in the (Z, v) plane at fixed rho*.  The middle
state is the unique intersection of the forward curve from the left state
(strictly decreasing in Z) with the backward curve from the right state
(strictly increasing).

:func:`solve_riemann` builds the fan for a positive stiffness epsilon;
:func:`limit_congested_solution` builds the epsilon -> 0 fan of a collision
strong enough to congest, where the middle region sits exactly on the bound
Z = 1 and carries a finite residual pressure p_bar.  Both find only the middle
state and share one assembly of the fan around it; with the middle on the
bound, each nonlinear wave of the limit fan is a shock.

scipy's ``integrate`` and ``optimize`` load on first use, inside the functions
that call them, so importing the package does not pay for them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from congested_euler.pressure import (
    PressureLaw,
    background_pressure,
    total_pressure,
    total_pressure_deriv,
)

Z_FLOOR = 1e-8
Z_CEIL = 1.0 - 1e-12
_QUAD_TOL = 1e-12
_RESIDUAL_TOL = 1e-10
_Z_XTOL = 1e-15


class VacuumError(RuntimeError):
    """The wave curves only intersect below the congestion floor."""


class CongestionLimitError(RuntimeError):
    """The middle state sits too close to Z = 1 to resolve; use the limit fan."""


class NotCongestedError(RuntimeError):
    """Limit fan requested but the collision never reaches the bound Z = 1."""


@dataclass(frozen=True)
class PrimState:
    """Primitive constant state (density, velocity, congestion ratio)."""

    rho: float
    v: float
    Z: float

    def __post_init__(self):
        if not (self.rho > 0.0):
            raise ValueError("density must be positive")
        if not (self.Z > 0.0):
            raise ValueError("congestion ratio must be positive")

    @property
    def rho_star(self) -> float:
        return self.rho / self.Z

    @property
    def q(self) -> float:
        return self.rho * self.v


@dataclass(frozen=True)
class Wave:
    family: int  # 1 or 3 for the nonlinear waves, 2 for the contact
    kind: str  # "shock", "rarefaction", or "contact"
    speed_lo: float
    speed_hi: float
    left: PrimState
    right: PrimState


def _family_sign(family: int) -> float:
    if family == 1:
        return -1.0
    if family == 3:
        return 1.0
    raise ValueError("nonlinear wave family must be 1 or 3")


def hugoniot_velocity(Z, hat: PrimState, law: PressureLaw, family: int) -> float:
    """Velocity on the family-1/3 jump locus through ``hat``, at congestion Z."""
    if Z == hat.Z:
        return hat.v
    jump = total_pressure(Z, law) - total_pressure(hat.Z, law)
    disc = (Z - hat.Z) * jump / (hat.rho_star * Z * hat.Z)
    return hat.v + _family_sign(family) * np.sign(Z - hat.Z) * np.sqrt(disc)


def rarefaction_velocity(Z, hat: PrimState, law: PressureLaw, family: int) -> float:
    """Velocity on the family-1/3 integral curve through ``hat``, at congestion Z."""
    from scipy.integrate import IntegrationWarning, quad
    rstar = hat.rho_star

    # dv = sqrt(P'(s) / rho*) / s ds grows like s^((gamma - 3) / 2) at s = 0;
    # in t = sqrt(s) it is t^(gamma - 2), bounded for gamma >= 2.
    def dv_dt(t):
        return 2.0 * np.sqrt(total_pressure_deriv(t * t, law) / rstar) / t

    # Near-machine tolerances trip quad's roundoff warning while its result
    # is still good; keep the estimate but fail loudly if it really is bad.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(dv_dt, np.sqrt(hat.Z), np.sqrt(Z), epsabs=_QUAD_TOL,
                        epsrel=_QUAD_TOL, limit=200)
    if err > 1e-7 * max(1.0, abs(val)):
        raise RuntimeError(f"integral-curve quadrature error estimate {err:.3e}")
    return hat.v + _family_sign(family) * val


def wave_curve_velocity(Z, hat: PrimState, law: PressureLaw, family: int) -> float:
    """Velocity reachable from ``hat`` by one admissible family-1/3 wave.

    Compressive side (Z above the base state) follows the jump locus,
    expansive side the integral curve; the two meet tangentially at ``hat``.
    """
    if Z > hat.Z:
        return hugoniot_velocity(Z, hat, law, family)
    return rarefaction_velocity(Z, hat, law, family)


def shock_speed(Z, hat: PrimState, law: PressureLaw, family: int) -> float:
    """Propagation speed of the family-1/3 jump through ``hat`` at congestion Z."""
    if Z == hat.Z:
        dP = total_pressure_deriv(hat.Z, law)
        return hat.v + _family_sign(family) * np.sqrt(hat.Z * dP / hat.rho)
    jump = total_pressure(Z, law) - total_pressure(hat.Z, law)
    flux = np.sqrt(Z * jump / (hat.rho * (Z - hat.Z)))
    return hat.v + _family_sign(family) * flux


def _sound_speed(state: PrimState, law: PressureLaw) -> float:
    dP = total_pressure_deriv(state.Z, law)
    return float(np.sqrt(dP / state.rho_star))


@dataclass
class RiemannFan:
    """Self-similar three-wave solution, sampled by xi = (x - x0) / t."""

    law: PressureLaw
    left: PrimState
    mid_left: PrimState
    mid_right: PrimState
    right: PrimState
    waves: tuple
    pressures: tuple  # total pressure of (left, middle, right) regions
    residual: float

    def _fan_state(self, family: int, xi: float) -> PrimState:
        from scipy.optimize import brentq
        if family == 1:
            hat, z_in, z_out = self.left, self.mid_left.Z, self.left.Z
        else:
            hat, z_in, z_out = self.right, self.mid_right.Z, self.right.Z

        def speed(Z):
            v = rarefaction_velocity(Z, hat, self.law, family)
            dP = total_pressure_deriv(Z, self.law)
            c = np.sqrt(dP / hat.rho_star)
            return (v - c if family == 1 else v + c) - xi

        lo, hi = sorted((z_in, z_out))
        Z = brentq(speed, lo, hi, xtol=1e-15)
        v = rarefaction_velocity(Z, hat, self.law, family)
        return PrimState(rho=hat.rho_star * Z, v=v, Z=Z)

    def sample(self, xi: float) -> PrimState:
        w1, wc, w3 = self.waves
        if xi < w1.speed_lo:
            return self.left
        if xi < w1.speed_hi:
            return self._fan_state(1, xi)
        if xi < wc.speed_lo:
            return self.mid_left
        if xi < w3.speed_lo:
            return self.mid_right
        if xi < w3.speed_hi:
            return self._fan_state(3, xi)
        return self.right

    def sample_profile(self, x, t: float, x0: float = 0.5) -> dict:
        """Fields at time t on points x, for data split at x0."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rho = np.empty_like(x)
        v = np.empty_like(x)
        Z = np.empty_like(x)
        for k, xk in enumerate(x):
            if t > 0.0:
                s = self.sample((xk - x0) / t)
            else:
                s = self.left if xk < x0 else self.right
            rho[k], v[k], Z[k] = s.rho, s.v, s.Z
        return {"rho": rho, "v": v, "q1": rho * v, "Z": Z, "rho_star": rho / Z}


def _nonlinear_wave(family: int, hat: PrimState, mid: PrimState, law: PressureLaw) -> Wave:
    lstate, rstate = (hat, mid) if family == 1 else (mid, hat)
    dz = mid.Z - hat.Z
    if abs(dz) <= 1e-14 * max(mid.Z, hat.Z):
        lam = hat.v + _family_sign(family) * _sound_speed(hat, law)
        return Wave(family, "rarefaction", lam, lam, lstate, rstate)
    if dz > 0.0:
        sigma = (rstate.q - lstate.q) / (rstate.rho - lstate.rho)
        return Wave(family, "shock", sigma, sigma, lstate, rstate)
    lam_hat = hat.v + _family_sign(family) * _sound_speed(hat, law)
    lam_mid = mid.v + _family_sign(family) * _sound_speed(mid, law)
    lo, hi = sorted((lam_hat, lam_mid))
    return Wave(family, "rarefaction", lo, hi, lstate, rstate)


def _fan(law, left, right, z_mid, v_mid, pressures, residual) -> RiemannFan:
    """The fan around middle states at (z_mid, v_mid), each at its own side's rho*."""
    mid_left = PrimState(rho=left.rho_star * z_mid, v=v_mid, Z=z_mid)
    mid_right = PrimState(rho=right.rho_star * z_mid, v=v_mid, Z=z_mid)
    waves = (
        _nonlinear_wave(1, left, mid_left, law),
        Wave(2, "contact", v_mid, v_mid, mid_left, mid_right),
        _nonlinear_wave(3, right, mid_right, law),
    )
    return RiemannFan(law, left, mid_left, mid_right, right, waves, pressures, residual)


def solve_riemann(left: PrimState, right: PrimState, law: PressureLaw) -> RiemannFan:
    """Intersect the two wave curves and assemble the fan.

    Raises :class:`VacuumError` when the curves only meet below Z_FLOOR and
    :class:`CongestionLimitError` when they only meet above Z_CEIL (the
    velocities diverge there, so this means the middle state is numerically
    indistinguishable from the congested limit).
    """
    from scipy.optimize import brentq
    for s in (left, right):
        if not s.Z < Z_CEIL:
            raise ValueError("input states must satisfy Z < 1")

    def g(Z):
        return wave_curve_velocity(Z, left, law, 1) - wave_curve_velocity(Z, right, law, 3)

    z_lo = Z_FLOOR
    if g(z_lo) < 0.0:
        raise VacuumError("wave curves intersect below the congestion floor")
    z_hi = Z_CEIL
    if g(z_hi) > 0.0:
        raise CongestionLimitError(
            "middle state within 1e-12 of Z = 1; use limit_congested_solution"
        )

    z_mid = brentq(g, z_lo, z_hi, xtol=_Z_XTOL, maxiter=200)
    v_left = wave_curve_velocity(z_mid, left, law, 1)
    v_right = wave_curve_velocity(z_mid, right, law, 3)
    residual = abs(v_left - v_right)
    # brentq pins z_mid only to within _Z_XTOL + 4 eps z_mid, and near Z = 1
    # the curves are steep enough that this alone leaves a velocity gap of
    # their slope times that width
    h = 1e-6 * min(z_mid, 1.0 - z_mid)
    slope = abs(g(z_mid + h) - g(z_mid - h)) / (2.0 * h)
    width = _Z_XTOL + 4.0 * np.finfo(float).eps * z_mid
    if residual > max(_RESIDUAL_TOL, slope * width):
        raise RuntimeError(f"middle-state velocities differ by {residual:.3e}")
    pressures = tuple(float(total_pressure(Z, law)) for Z in (left.Z, z_mid, right.Z))
    return _fan(law, left, right, z_mid, 0.5 * (v_left + v_right), pressures, residual)


def limit_congested_solution(left: PrimState, right: PrimState,
                             law: PressureLaw) -> RiemannFan:
    """Vanishing-stiffness fan of a congesting collision: shock, contact, shock.

    The middle region sits exactly on Z = 1 with densities equal to the
    incoming congestion densities and carries the residual total pressure
    p_bar > max of the adjacent background pressures.  Raises
    :class:`NotCongestedError` when the background-law fan alone resolves the
    data (its middle state stays below Z = 1), vacuum data included.
    """
    from scipy.optimize import brentq
    for s in (left, right):
        if not s.Z < 1.0:
            raise ValueError("input states must satisfy Z < 1")

    p0_l = float(background_pressure(left.Z, law))
    p0_r = float(background_pressure(right.Z, law))

    def gap(p_bar):
        v_from_left = left.v - np.sqrt((1.0 - left.Z) * (p_bar - p0_l) / left.rho)
        v_from_right = right.v + np.sqrt((1.0 - right.Z) * (p_bar - p0_r) / right.rho)
        return v_from_left - v_from_right

    # At p_bar = p(1), gap is the mismatch of the background-law shock curves
    # at Z = 1; gap decreases in p_bar, so the background middle state reaches
    # Z = 1 exactly when it is positive there.
    if gap(float(background_pressure(1.0, law))) <= 0.0:
        raise NotCongestedError(
            "the background-law middle state stays below Z = 1; the limit fan is the plain one"
        )
    p_lo = max(p0_l, p0_r)
    p_hi = p_lo + 1.0
    while gap(p_hi) > 0.0:
        p_hi = p_lo + 2.0 * (p_hi - p_lo)
        if p_hi > 1e15:
            raise RuntimeError("no pressure balances the plateau")
    p_bar = brentq(gap, p_lo, p_hi, xtol=1e-14, maxiter=200)
    residual = abs(gap(p_bar))
    if residual > _RESIDUAL_TOL:
        raise RuntimeError(f"plateau velocities differ by {residual:.3e}")
    v_bar = left.v - np.sqrt((1.0 - left.Z) * (p_bar - p0_l) / left.rho)

    return _fan(law, left, right, 1.0, v_bar, (p0_l, float(p_bar), p0_r), residual)


def rh_residuals(fan: RiemannFan) -> list:
    """Max conservation defect of each shock: sigma*[w] - [flux(w)], all three rows.

    Total pressures come from the fan's stored region values so the same
    check applies to the vanishing-stiffness fan, whose plateau pressure is
    not a pointwise function of Z.
    """
    out = []
    # the 1-wave joins the left and middle regions, the 3-wave middle and right
    for w, (Pa, Pb) in zip(fan.waves[::2], (fan.pressures[:2], fan.pressures[1:])):
        if w.kind != "shock":
            continue
        a, b = w.left, w.right
        sigma = w.speed_lo
        r1 = sigma * (b.rho - a.rho) - (b.q - a.q)
        r2 = sigma * (b.q - a.q) - ((b.q * b.v + Pb) - (a.q * a.v + Pa))
        r3 = sigma * (b.Z - a.Z) - (b.Z * b.v - a.Z * a.v)
        out.append(max(abs(r1), abs(r2), abs(r3)))
    return out
