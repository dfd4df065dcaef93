"""Newton solver for the implicit pressure subsystems.

Each implicit substep of either scheme reduces to one nonlinear system over
the interior cells,

    f(u_c) - sum_k w_k(c) * (u_{c+o_k} - u_c) = rhs_c,

with the unknown u the pressure, f an increasing pointwise map (pressure ->
mass) and nonnegative weights w_k.  Neighbor values resolve through the
grid's ghost maps, so the implicit operator sees exactly the boundary
treatment of the explicit stencils.

Newton with projection onto a lower bound and residual line search solves
the system.  The coupling matrix A is assembled once per operator into the
grid's fixed pattern for the stencil, and each linear stage only sets the
Newton diagonal of -A.  -A is a weighted graph Laplacian and the Newton
diagonal is positive, so every linear stage is symmetric positive definite:
in one dimension the pattern's paths and cycles are solved by one LDL^T
factorization (LAPACK ptsv) with a rank-one correction per cycle, in two by a
Jacobi-preconditioned conjugate gradient.

The Newton iteration is inexact in 2D, with the forcing terms of Eisenstat
and Walker (SIAM J. Sci. Comput. 17, 1996, choice 2): CG stops at a relative
tolerance that follows the Newton convergence rate, 0.9 (r_k / r_{k-1})^2 in
the max-norm residual, at most 0.1, and never looser than the last step
needs to land on the exact-Newton root (see :func:`solve_newton`).  The
first tolerance comes from a one-point probe, the quantity of their choice
1: how far the residual departs from its linear model at the Jacobi step.
A linear problem departs by nothing and still lands in one step.  The 1D
solves are direct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dptsv
from scipy.sparse.linalg import LinearOperator, cg

from congested_euler.grid import Grid, _shifted, pad_field

# max-norm residual at which a Newton solve has converged
TOL_ABS = 1e-10
# Newton iterations after which a solve gives up
MAX_ITER = 100
# tightest relative residual at which the 2D conjugate-gradient solve stops
CG_RTOL = 1e-13
# share of TOL_ABS that the linear residual of a Newton step may leave
FORCING_FLOOR = 1e-3


@dataclass(frozen=True)
class NewtonReport:
    iterations: int
    residual: float
    converged: bool


class NewtonError(RuntimeError):
    def __init__(self, message: str, report: NewtonReport):
        super().__init__(
            f"{message} (iterations={report.iterations}, "
            f"residual={report.residual:.3e})"
        )
        self.report = report


class LinearSolveError(RuntimeError):
    """A linear stage failed; carries the solver's info code, the diagonal range
    and, for CG, the relative tolerance it was asked for."""

    def __init__(self, message: str, info: int, diagonal, rtol: float | None = None):
        self.info, self.diag_min, self.diag_max = info, np.min(diagonal), np.max(diagonal)
        self.rtol = rtol
        tol = "" if rtol is None else f", rtol={rtol:.3e}"
        super().__init__(
            f"{message} (info={info}{tol}, "
            f"diagonal in [{self.diag_min:.3e}, {self.diag_max:.3e}])"
        )


@dataclass(eq=False)
class DiffusionOperator:
    """Weighted-difference operator sum_k w_k (g_{c+o_k} - g_c).

    ``terms`` holds (offset, weight) pairs with field-shaped nonnegative
    weights; offsets are tuples with one entry per array axis, (di,) in 1D
    and (dj, di) in 2D.  Ghost neighbors alias interior cells through the
    grid's ghost map, so the operator is linear: A g.
    """

    grid: Grid
    terms: list

    def __post_init__(self):
        offsets = tuple(off for off, _ in self.terms)
        self.pattern = self.grid.stencil_pattern(offsets)
        self._built = None
        self._neg = None

    def apply(self, g):
        """A g through ghost padding: each stage's back-substitution of its masses."""
        gp = pad_field(self.grid, g)
        g = np.asarray(g, dtype=float).reshape(self.grid.shape)
        out = np.zeros(self.grid.shape)
        for off, w in self.terms:
            out += np.asarray(w) * (_shifted(self.grid, gp, off) - g)
        return out

    def matrix(self):
        """A with apply(g).ravel() == A @ g.ravel()."""
        if self._built is None:
            p, n = self.pattern, self.grid.size
            w = np.stack([np.asarray(wk, dtype=float).ravel() for _, wk in self.terms])
            data = np.bincount(p.scatter, np.stack([w, -w], axis=1).ravel(), p.indices.size)
            self._built = sp.csr_matrix((data, p.indices, p.indptr), shape=(n, n))
        return self._built

    def _negated(self):
        """(diagonal, coupling) of -A as the linear stage takes it: in 2D the
        diagonal and -A in CSR, whose diagonal each stage overwrites; in 1D the
        diagonal and the ``up`` couplings in chain order (A is symmetric)."""
        if self._neg is None:
            A = self.matrix()
            p = self.pattern
            if self.grid.ndim == 2:
                S = -A
                self._neg = (S.data[p.diag], S)
            else:
                neg = np.append(-A.data, 0.0)
                self._neg = (neg[p.diag[p.order]], neg[p.up])
        return self._neg


@dataclass(eq=False)
class EllipticProblem:
    """f(u) - L u = rhs over the interior cells.

    Both callables act elementwise on flat arrays.
    """

    op: DiffusionOperator
    rhs: np.ndarray
    f: Callable
    fprime: Callable

    def residual(self, u):
        return self.f(u) - self.op.matrix() @ u - np.asarray(self.rhs, float).ravel()


def _solve_cyclic_tridiagonal(d, up, b, first, last):
    """Solve positive-definite tridiagonal chains laid end to end, the tail of
    them closed into cycles.

    ``up[p]`` couples position p to p+1, both ways, and is 0 at the end of an
    open chain.  Cycle j runs over positions first[j]..last[j], the cycles
    fill the tail of the layout, and ``up[last[j]]`` couples the cycle's last
    position to its first.  Cutting each cycle there, doubling its first
    diagonal entry and adding c^2/d_first to its last (c the cut coupling)
    leaves a positive-definite tridiagonal matrix; one LDL^T solve (LAPACK
    ptsv) with a second right-hand side gives each cycle the rank-one
    correction that closes it.  Without cycles that solve is all.  The few
    cycles are closed one by one on scalars, which costs less than array
    operations over them.
    """
    # (first, last, cut coupling c, sigma) of each cycle
    cycles = [(i, k, up[k], -d[i]) for i, k in zip(first.tolist(), last.tolist())]
    # Fortran order, so that ptsv works in place on both right-hand sides
    rhs = np.zeros((d.size, 1 + bool(cycles)), order="F")
    rhs[:, 0] = b
    dt, e = d.copy(), up.copy()
    for i, k, c, sigma in cycles:
        e[k] = 0.0
        dt[i] -= sigma
        dt[k] -= c * c / sigma
        rhs[i, 1], rhs[k, 1] = sigma, c
    # ptsv's wrapper wants one off-diagonal entry even for a single position
    *_, sol, info = dptsv(
        dt, e[:max(d.size - 1, 1)], rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1
    )
    if info != 0:
        msg = f"tridiagonal system not positive definite at chain position {info - 1}"
        raise LinearSolveError(msg, info, d)
    y = sol[:, 0]
    for i, k, c, sigma in cycles:
        z, frac = sol[i:k + 1, 1], c / sigma
        y[i:k + 1] -= (y[i] + frac * y[k]) / (1.0 + z[0] + frac * z[-1]) * z
    return y


def _solve_linear(op: DiffusionOperator, fp, b, rtol=CG_RTOL):
    """Solve [diag(fp) - A] delta = b.

    In 2D, CG stops once the residual is below ``rtol`` times ||b||_2; the 1D
    solve is direct and ignores it.
    """
    p = op.pattern
    if op.grid.ndim == 2:
        # only the diagonal changes, so each stage writes it into the cached
        # -A, and the Jacobi preconditioner is an elementwise product
        dn, S = op._negated()
        diag = dn + fp
        S.data[p.diag] = diag
        inv = 1.0 / diag
        M = LinearOperator(S.shape, matvec=lambda v: inv * v, dtype=float)
        x, info = cg(S, b, rtol=rtol, atol=0.0, M=M)
        if info != 0:
            raise LinearSolveError("inner pressure solve stalled in cg", info, diag, rtol)
        return x
    dn, up = op._negated()
    x = np.empty_like(b)
    x[p.order] = _solve_cyclic_tridiagonal(
        dn + fp[p.order], up, b[p.order], p.first, p.last
    )
    return x


def solve_newton(problem: EllipticProblem, u0, *, lower=None, iterate_hook=None):
    """Projected Newton iteration on an :class:`EllipticProblem`.

    Converges when the max-norm residual falls below ``TOL_ABS``; there is
    no relative test, which a start far from the root would let accept large
    residuals.  Each step backtracks by halving until the residual falls,
    and the solve fails as soon as 31 halvings do not make it fall.  After
    every update the iterate is raised to at least ``lower`` (None, a
    scalar, or a field); ``iterate_hook`` sees each accepted iterate
    *before* that clip, which is where bound violations carry information.
    Returns ``(u, NewtonReport)`` and raises :class:`NewtonError` on a
    stalled line search or when ``MAX_ITER`` iterations do not converge.

    Each linear stage is solved only as far as the next step can use: its
    relative tolerance starts at eta_land = max(CG_RTOL, c TOL_ABS / r_0)
    and, after each accepted iterate, becomes 0.9 (r_k / r_{k-1})^2 clipped
    to [max(c TOL_ABS / r_k, CG_RTOL), 0.1], with r the max-norm residual and
    c = ``FORCING_FLOOR``.  Only the 2D CG solve reads it, so only a 2D solve
    raises the first one to min(0.1, max(eta_land, m / r_0)), m the max-norm
    of f(u_j) - f(u_0) - f'(u_0) (u_j - u_0) at CG's first (Jacobi) step u_j.
    The operator part of F is linear, so m is F's whole departure from its
    linear model there: 0 on a linear problem, whose first step still lands.
    """
    grid = problem.op.grid
    lo = None if lower is None else np.asarray(lower, dtype=float).ravel()

    def clip(u):
        return u if lo is None else np.maximum(u, lo)

    u = clip(np.asarray(u0, dtype=float).ravel().copy())
    F = problem.residual(u)
    res = float(np.max(np.abs(F)))
    if res <= TOL_ABS:
        return u.reshape(grid.shape), NewtonReport(0, res, True)

    eta = max(CG_RTOL, FORCING_FLOOR * TOL_ABS / res)
    for it in range(1, MAX_ITER + 1):
        fp = np.asarray(problem.fprime(u), dtype=float).ravel()
        if it == 1 and grid.ndim == 2:
            # F's departure from its linear model at CG's first (Jacobi) step
            u_j = clip(u - F / (problem.op._negated()[0] + fp))
            miss = np.max(np.abs(problem.f(u_j) - problem.f(u) - fp * (u_j - u)))
            eta = min(0.1, max(eta, float(miss) / res))
        delta = _solve_linear(problem.op, fp, -F, eta)
        if not np.all(np.isfinite(delta)):
            raise NewtonError("non-finite Newton step", NewtonReport(it, res, False))
        step = 1.0
        for _ in range(31):
            u_raw = u + step * delta
            u_try = clip(u_raw)
            F_try = problem.residual(u_try)
            res_try = float(np.max(np.abs(F_try)))
            if res_try < res or res_try <= TOL_ABS:
                break
            step *= 0.5
        else:
            raise NewtonError("line search stalled", NewtonReport(it, res, False))
        res_prev = res
        u, F, res = u_try, F_try, res_try
        if iterate_hook is not None:
            iterate_hook(u_raw.reshape(grid.shape))
        if res <= TOL_ABS:
            return u.reshape(grid.shape), NewtonReport(it, res, True)
        eta = 0.9 * (res / res_prev) ** 2
        eta = min(0.1, max(eta, FORCING_FLOOR * TOL_ABS / res, CG_RTOL))
    raise NewtonError("no convergence", NewtonReport(MAX_ITER, res, False))
