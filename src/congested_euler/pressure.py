"""Pressure laws for flow with a congestion constraint.

Two pressures act on the momentum equation: a smooth background law
``p(Z) = Z**gamma`` and a singular congestion law
``pi_eps(Z) = eps * (Z / (1 - Z))**alpha`` that blows up as the congestion
ratio Z approaches 1.  All functions here are pure maps; they accept scalars
or numpy arrays elementwise and know nothing about grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Evaluations of the singular law reject Z this close to (or beyond) 1.
DELTA_GUARD = 1e-14


class DomainError(ValueError):
    """Argument outside the physical domain of a pressure map."""


class CongestionGuardError(DomainError):
    """Z too close to 1 for the singular pressure to be evaluated."""


@dataclass(frozen=True)
class PressureLaw:
    """Parameters (eps, alpha, gamma) of the combined pressure law."""

    epsilon: float
    alpha: float = 2.0
    gamma: float = 2.0

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.alpha > 0.0):
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not (self.gamma > 1.0):
            raise DomainError(f"gamma must exceed 1, got {self.gamma}")


def _check_fraction(Z, allow_above_one: bool):
    if (np.asarray(Z) < 0.0).any():
        raise DomainError("congestion fraction Z must be nonnegative")
    if not allow_above_one and (np.asarray(Z) >= 1.0 - DELTA_GUARD).any():
        raise CongestionGuardError(
            "Z within the guard distance of 1; singular pressure undefined"
        )


def background_pressure(Z, law: PressureLaw):
    """Smooth background pressure p(Z) = Z**gamma (defined for any Z >= 0)."""
    _check_fraction(Z, allow_above_one=True)
    return Z**law.gamma


def background_pressure_deriv(Z, law: PressureLaw):
    _check_fraction(Z, allow_above_one=True)
    return law.gamma * Z ** (law.gamma - 1.0)


def singular_pressure(Z, law: PressureLaw):
    """Congestion pressure pi_eps(Z) = eps * (Z/(1-Z))**alpha, for Z in [0, 1)."""
    _check_fraction(Z, allow_above_one=False)
    return law.epsilon * (Z / (1.0 - Z)) ** law.alpha


def singular_pressure_deriv(Z, law: PressureLaw):
    """d/dZ of the congestion pressure; positive for Z > 0."""
    _check_fraction(Z, allow_above_one=False)
    return (
        law.epsilon
        * law.alpha
        * Z ** (law.alpha - 1.0)
        / (1.0 - Z) ** (law.alpha + 1.0)
    )


def singular_pressure_inverse(pi, law: PressureLaw):
    """Analytic inverse of pi_eps: Z(pi) = s/(1+s) with s = (pi/eps)**(1/alpha).

    Maps [0, inf) onto [0, 1); the congestion bound Z < 1 holds for any
    nonnegative argument, which is what makes solving in the pi variable safe.
    """
    if (np.asarray(pi) < 0.0).any():
        raise DomainError("congestion pressure must be nonnegative")
    s = (pi / law.epsilon) ** (1.0 / law.alpha)
    return s / (1.0 + s)


def singular_pressure_inverse_deriv(pi, law: PressureLaw):
    """dZ/dpi along the inverse map; +inf at pi = 0 when alpha > 1."""
    Z = singular_pressure_inverse(pi, law)
    with np.errstate(divide="ignore"):
        return np.true_divide(1.0, singular_pressure_deriv(Z, law))


def inverse_slope_floor(law: PressureLaw) -> float:
    """Smallest pressure at which Newton slopes of the inverse map are evaluated.

    Below this value (the congestion pressure of Z = 1e-8) the slope dZ/dpi
    grows without bound for alpha > 1; freezing it keeps iterates pinned near
    zero mobile instead of numerically stuck.
    """
    return float(singular_pressure(1e-8, law))


def total_pressure(Z, law: PressureLaw):
    """p(Z) + pi_eps(Z)."""
    return background_pressure(Z, law) + singular_pressure(Z, law)


def total_pressure_deriv(Z, law: PressureLaw, include_singular: bool = True):
    dp = background_pressure_deriv(Z, law)
    if include_singular:
        dp = dp + singular_pressure_deriv(Z, law)
    return dp


def eigenvalues(rho, q1, Z, law: PressureLaw, include_singular: bool = True):
    """Characteristic speeds (lam1, lam2, lam3) in one space direction.

    lam2 is the transport speed q1/rho; lam1/lam3 subtract/add the sound
    speed sqrt((Z/rho) * p'(Z)), where p is the background law alone when
    ``include_singular`` is False (the relevant speeds for Rusanov diffusion
    and time-step bounds) and the full stiff law otherwise.
    """
    if (np.asarray(rho) <= 0.0).any():
        raise DomainError("density must be positive")
    v = q1 / rho
    c = np.sqrt((Z / rho) * total_pressure_deriv(Z, law, include_singular))
    return v - c, v, v + c
