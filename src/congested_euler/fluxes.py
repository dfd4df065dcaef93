"""Face reconstruction and Rusanov flux pieces shared by the volume schemes.

Reconstruction is piecewise constant at first order and minmod-limited
piecewise linear at second order.  The Rusanov dissipation coefficient is a
bound on the non-singular characteristic speeds only; the stiff pressure
never enters the explicit stability constraint because the schemes treat it
implicitly.
"""

from __future__ import annotations

import numpy as np

from congested_euler.grid import GHOST
from congested_euler.pressure import eigenvalues


def minmod(a, b):
    """Smaller-magnitude argument where signs agree, zero otherwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def face_states(padded, axis, order):
    """Left and right states at the n + 1 cell faces along ``axis``.

    ``padded`` carries ``GHOST`` layers on every side; any other axis is
    cropped to its interior cells.  Face ``i`` separates cells ``i - 1`` and
    ``i``, so faces 0 and n sit on the domain boundary.  Both returned arrays
    hold the face axis last.
    """
    a = np.asarray(padded, dtype=float).swapaxes(axis, -1)
    a = a[(slice(GHOST, -GHOST),) * (a.ndim - 1)]
    n = a.shape[-1] - 2 * GHOST
    if order == 1:
        return a[..., GHOST - 1 : GHOST + n], a[..., GHOST : GHOST + n + 1]
    if order != 2:
        raise ValueError(f"unsupported reconstruction order {order}")
    d = a[..., 1:] - a[..., :-1]
    mm = minmod(d[..., :-1], d[..., 1:])
    ctr = a[..., 1:-1]
    left = ctr + 0.5 * mm
    right = ctr - 0.5 * mm
    return left[..., GHOST - 2 : GHOST - 1 + n], right[..., GHOST - 1 : GHOST + n]


def div_from_faces(flux, axis, h):
    """Per-cell divergence (F_{i+1} - F_i) / h of a face array (face axis last)."""
    d = (flux[..., 1:] - flux[..., :-1]) / h
    return d.swapaxes(-1, axis)


def max_wave_speed(rho, qn, Z, law):
    """Largest non-singular characteristic speed magnitude, elementwise."""
    lam_minus, _, lam_plus = eigenvalues(rho, qn, Z, law, include_singular=False)
    return np.maximum(np.abs(lam_minus), np.abs(lam_plus))


def rusanov_flux(gl, gr, c, wl, wr):
    """Central average of the physical flux with local speed-c dissipation."""
    return 0.5 * (gl + gr) - 0.5 * c * (wr - wl)
