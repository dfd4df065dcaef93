"""Scheme on (rho, q) with semi-Lagrangian congestion transport.

The finite-volume stage advances (rho, q) only, through the condensed stage
of :mod:`scheme_conservative`.  Each substep first carries rho_star along
characteristics: every cell traces its foot backward through the velocity
field and reads the old field through cubic Lagrange interpolation on the
four nearest nodes per axis, clipped to the range of the nodes of the cell
that holds the foot, so the advected ceiling stays within its data.  The
stage then condenses rho against that advected ceiling and solves for the
pressure with rho = rho_star Z(pi) as the mass map, which keeps rho below
rho_star without any projection.

The time discretization is :func:`scheme_conservative._advance`, shared with
the conservative scheme: it picks each substep's weight w of the new pressure,
its explicit part p_old and its flux state, whose velocity sets the
characteristic feet, and does the relaxation of the momentum toward rho times
a desired velocity (evacuation runs) and the step's diagnostics.  This scheme
supplies only the transport of rho_star, :func:`semilag_advect`; the stage
takes the advected field as the capacity of its one mass, rho.
Second order combines MUSCL fluxes with a second-order Taylor backtracking;
first order uses donor-cell fluxes and Euler backtracking.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from congested_euler.grid import (
    GHOST,
    Grid,
    Periodic,
    _axes,
    _offset,
    _shifted,
    pad_field,
)
from congested_euler.scheme_conservative import _advance


def _lagrange_weights(theta):
    """Cubic weights on nodes j - 1 .. j + 2 for a query at fraction theta past node j."""
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
    vp = pad_field(grid, v, kind)
    ctr, west, east = (_shifted(grid, vp, _offset(grid, axis, k)) for k in (0, -1, 1))
    return np.where(v > 0.0, (ctr - west) / h, (east - ctr) / h)


def _foot_positions(grid: Grid, v, dt: float, order: int, kind: str, axis: int, h: float):
    """Continuous foot indices along one array axis for every cell."""
    disp = v * dt
    if order == 2:
        a = _upwind_slope(grid, v, kind, axis, h)
        disp = v * dt - 0.5 * a * v * dt * dt
    return np.indices(grid.shape, dtype=float)[axis] - disp / h


def semilag_advect(rho_star, velocity, dt: float, grid: Grid, order: int):
    """Trace characteristics backward and interpolate the congestion density.

    ``velocity`` is a tuple of one component per direction, x first.
    ``order`` 1 backtracks by Euler, 2 by a Taylor step with the upwind
    velocity slope.  The interpolation is the tensor product of the 1D cubic
    Lagrange stencils on each axis, clipped to the range of the 2^d nodes of
    the cell that holds the foot (Bermejo and Staniforth, Mon. Wea. Rev. 120,
    1992): it stays within the range of its data and is exact on cubics
    wherever the clip does not bind.
    """
    if order not in (1, 2):
        raise ValueError(f"backtracking order must be 1 or 2, got {order}")
    pad = pad_field(grid, rho_star)
    feet = []
    for (axis, h, qn), v, bcs in zip(_axes(grid), velocity, grid.bcs, strict=True):
        u = _foot_positions(grid, v, dt, order, qn, axis, h)
        base, theta = _foot_base(u, grid.shape[axis], bcs)
        feet.append((base + GHOST - 1, _lagrange_weights(theta)))
    # array-axis order, so the weights multiply as w_y * w_x; node ks sits
    # sum(k * stride) past the flat base index in the padded array
    bases, weights = zip(*feet[::-1])
    base, flat = np.ravel_multi_index(bases, pad.shape), pad.ravel()
    strides = [math.prod(pad.shape[a + 1:]) for a in range(grid.ndim)]
    out = np.zeros(grid.shape)
    lo, hi = np.inf, -np.inf
    for ks in itertools.product(range(4), repeat=grid.ndim):
        w = math.prod(wt[k] for wt, k in zip(weights, ks))
        node = flat[sum(k * s for k, s in zip(ks, strides)):].take(base)
        out += w * node
        if all(k in (1, 2) for k in ks):  # a node of the foot's cell
            lo, hi = np.minimum(lo, node), np.maximum(hi, node)
    return np.clip(out, lo, hi, out=out)


def step(grid, state, dt, law, *, order=2, relaxation=None):
    """Advance one time step; returns ``(new_state, StepInfo)``.

    ``order=1`` is the fully implicit donor-cell step, which advects rho_star
    over dt with the start velocity.  ``order=2`` is the midpoint predictor,
    advecting over dt / 2 with the start velocity, and the time-averaged
    corrector, advecting over dt with the predictor's velocity.  Each
    advection backtracks at the same ``order``.  ``relaxation`` drags
    momentum toward rho w after the finite-volume stage.
    """
    if order not in (1, 2):
        raise ValueError(f"unsupported order {order}")
    return _advance(grid, state, dt, law, order=order, time_order=order,
                    relaxation=relaxation, advect=semilag_advect)
