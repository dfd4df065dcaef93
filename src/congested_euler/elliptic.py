"""Newton solver for the implicit pressure subsystems.

Each implicit substep of either scheme reduces to one nonlinear system over
the interior cells,

    f(u_c) - sum_k w_k(c) * (h(u)_{c+o_k} - h(u)_c) = rhs_c,

with f and h increasing pointwise maps and nonnegative weights w_k.  The
pressure-variable form has nonlinear f (pressure -> congestion ratio) and
h = identity; the density form has f = identity and nonlinear h (density ->
congestion pressure).  Neighbor values resolve through the grid's ghost
maps, so the implicit operator sees exactly the boundary treatment of the
explicit stencils.

Newton with projection onto box bounds and residual line search solves the
system.  The coupling matrix A is assembled once per operator into the
grid's fixed pattern for the stencil, and each linear stage only adds the
Newton diagonal to -A: in one dimension the pattern's paths and cycles are
solved by one tridiagonal solve with a rank-one correction per cycle, in two
by a Jacobi-preconditioned conjugate gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import cg

from congested_euler.grid import Grid, _shifted, pad_field

# relative residual at which the 2D conjugate-gradient inner solve stops
CG_RTOL = 1e-13


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
    """A linear stage failed; carries the solver's info code and the diagonal range."""

    def __init__(self, message: str, info: int, diagonal):
        self.info, self.diag_min, self.diag_max = info, np.min(diagonal), np.max(diagonal)
        super().__init__(
            f"{message} (info={info}, diagonal in [{self.diag_min:.3e}, {self.diag_max:.3e}])"
        )


@dataclass(eq=False)
class DiffusionOperator:
    """Weighted-difference operator sum_k w_k (g_{c+o_k} - g_c).

    ``terms`` holds (offset, weight) pairs with field-shaped nonnegative
    weights; offsets have one entry per array axis, (di,) in 1D (a bare int
    also works) and (dj, di) in 2D.  Ghost neighbors alias interior cells
    through the grid's ghost map; neighbors beyond a fixed-state side read
    the per-side values in ``g_boundary``.
    """

    grid: Grid
    width: int
    terms: list
    g_boundary: np.ndarray | None = None

    def __post_init__(self):
        offsets = tuple(off for off, _ in self.terms)
        self.pattern = self.grid.stencil_pattern(self.width, offsets)
        self._built = None
        self._neg = None

    def apply(self, g):
        """Reference evaluation through ghost padding."""
        gp = pad_field(self.grid, g, self.width, "scalar", self.g_boundary)
        g = np.asarray(g, dtype=float).reshape(self.grid.shape)
        out = np.zeros(self.grid.shape)
        for off, w in self.terms:
            out += np.asarray(w) * (_shifted(self.grid, gp, self.width, off) - g)
        return out

    def matrix(self):
        """(A, b) with apply(g).ravel() == A @ g.ravel() + b."""
        if self._built is None:
            p, n = self.pattern, self.grid.size
            w = np.stack([np.asarray(wk, dtype=float).ravel() for _, wk in self.terms])
            data = np.bincount(p.scatter, np.stack([w, -w], axis=1).ravel(),
                               p.indices.size + 1)
            A = sp.csr_matrix((data[:-1], p.indices, p.indptr), shape=(n, n))
            # b = apply(0), which only neighbours beyond fixed-state sides reach
            b = self.apply(np.zeros(n)).ravel() if self.grid.has_dirichlet else np.zeros(n)
            self._built = (A, b)
        return self._built

    def _negated(self):
        """-A as the linear stage takes it: CSR in 2D, chain (diagonal, lo, up) in 1D."""
        if self._neg is None:
            A, _ = self.matrix()
            if self.grid.ndim == 2:
                self._neg = -A
            else:
                p = self.pattern
                neg = np.append(-A.data, 0.0)
                self._neg = (neg[p.diag[p.order]], neg[p.lo], neg[p.up])
        return self._neg


@dataclass(eq=False)
class EllipticProblem:
    """f(u) - L h(u) = rhs over the interior cells.

    The pressure unknown has h = identity, the density unknown f = identity.
    All callables act elementwise on flat arrays.
    """

    op: DiffusionOperator
    rhs: np.ndarray
    f: Callable
    fprime: Callable
    h: Callable
    hprime: Callable

    def residual(self, u):
        A, b = self.op.matrix()
        return self.f(u) - (A @ self.h(u) + b) - np.asarray(self.rhs, float).ravel()


def _solve_cyclic_tridiagonal(d, lo, up, b, first, last):
    """Solve tridiagonal chains laid end to end, the tail of them closed into cycles.

    ``lo[p]`` couples position p to p-1 and ``up[p]`` to p+1; both are 0 at
    the ends of an open chain.  Cycle j runs over positions first[j]..last[j],
    the cycles fill the tail of the layout, and at a cycle's ends ``lo`` and
    ``up`` couple its first and last positions to each other.  One
    tridiagonal solve with a second right-hand side gives each cycle the
    rank-one correction that closes it.
    """
    beta, gamma = lo[first], up[last]
    sigma = -d[first]
    dt = d.copy()
    dt[first] -= sigma
    dt[last] -= gamma * beta / sigma
    lo, up = lo.copy(), up.copy()
    lo[first] = 0.0
    up[last] = 0.0
    rhs = np.zeros((d.size, 2))
    rhs[:, 0] = b
    rhs[first, 1] = sigma
    rhs[last, 1] = gamma
    *_, sol, info = dgtsv(lo[1:], dt, up[:-1], rhs, overwrite_d=1, overwrite_b=1)
    if info != 0:
        raise LinearSolveError("tridiagonal solve hit a zero pivot", info, d)
    y, z = sol[:, 0], sol[:, 1]
    frac = beta / sigma
    scale = (y[first] + frac * y[last]) / (1.0 + z[first] + frac * z[last])
    sizes = last - first + 1
    tail = d.size - sizes.sum()
    y[tail:] -= z[tail:] * np.repeat(scale, sizes)
    return y


def _solve_linear(op: DiffusionOperator, fp, hp, b):
    """Solve [diag(fp) - A diag(hp)] delta = b through the symmetrized form."""
    p = op.pattern
    d = fp / hp
    if op.grid.ndim == 2:
        S = op._negated().copy()
        S.data[p.diag] += d
        diag = S.data[p.diag]
        x, info = cg(S, b, rtol=CG_RTOL, atol=0.0, M=sp.diags(1.0 / diag))
        if info != 0:
            raise LinearSolveError("inner pressure solve stalled in cg", info, diag)
        return x / hp
    dn, lo, up = op._negated()
    x = np.empty_like(d)
    x[p.order] = _solve_cyclic_tridiagonal(
        dn + d[p.order], lo, up, b[p.order], p.first, p.last
    )
    return x / hp


def _check_diagonal_dominance(problem: EllipticProblem, fp, hp):
    A, _ = problem.op.matrix()
    J = (sp.diags(fp) - A @ sp.diags(hp)).tocsr()
    # rows when h is the identity, columns when it scales them
    M = J if np.all(hp == 1.0) else J.T.tocsr()
    diag = M.diagonal()
    offsum = np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(diag)
    slack = 1e-12 * np.maximum(1.0, np.abs(diag))
    if np.any(diag <= 0.0) or np.any(offsum > diag + slack):
        worst = int(np.argmax(offsum - diag))
        raise AssertionError(
            f"lost diagonal dominance at cell {worst}: "
            f"diag={diag[worst]:.3e}, off-diagonal sum={offsum[worst]:.3e}"
        )


def solve_newton(
    problem: EllipticProblem,
    u0,
    *,
    tol_abs: float = 1e-10,
    tol_rel: float = 1e-12,
    max_iter: int = 100,
    lower=None,
    upper=None,
    iterate_hook=None,
    debug: bool = False,
):
    """Projected Newton iteration on an :class:`EllipticProblem`.

    Converges when the max-norm residual falls below ``tol_abs`` or shrinks
    by ``tol_rel`` relative to the start.  After every update the iterate is
    clipped into [lower, upper] (either bound may be None, a scalar, or a
    field); ``iterate_hook`` sees each accepted iterate *before* clipping,
    which is where bound violations carry information.  Returns
    ``(u, NewtonReport)`` and raises :class:`NewtonError` when stuck.
    """
    grid = problem.op.grid
    lo = None if lower is None else np.asarray(lower, dtype=float).ravel()
    hi = None if upper is None else np.asarray(upper, dtype=float).ravel()

    def clip(u):
        if lo is not None:
            u = np.maximum(u, lo)
        if hi is not None:
            u = np.minimum(u, hi)
        return u

    u = clip(np.asarray(u0, dtype=float).ravel().copy())
    F = problem.residual(u)
    res = float(np.max(np.abs(F)))
    res0 = res
    if res <= tol_abs:
        return u.reshape(grid.shape), NewtonReport(0, res, True)

    stalls = 0
    recent = [res]
    for it in range(1, max_iter + 1):
        fp = np.asarray(problem.fprime(u), dtype=float).ravel()
        hp = np.asarray(problem.hprime(u), dtype=float).ravel()
        if debug:
            _check_diagonal_dominance(problem, fp, hp)
        delta = _solve_linear(problem.op, fp, hp, -F)
        if not np.all(np.isfinite(delta)):
            raise NewtonError("non-finite Newton step", NewtonReport(it, res, False))
        step = 1.0
        accepted = None
        full_trial = None
        for _ in range(31):
            u_raw = u + step * delta
            u_try = clip(u_raw)
            F_try = problem.residual(u_try)
            res_try = float(np.max(np.abs(F_try)))
            if full_trial is None:
                full_trial = (u_raw, u_try, F_try, res_try)
            if res_try < res or res_try <= tol_abs:
                accepted = (u_raw, u_try, F_try, res_try)
                stalls = 0
                break
            step *= 0.5
        if accepted is None:
            # A cell pinned near a bound freezes the max norm for a few
            # iterations, and can even let it creep up while its neighbors
            # settle; accept full steps within a nonmonotone window so the
            # pinned cell keeps healing, but refuse genuine divergence.
            if full_trial[3] <= 1.5 * max(recent):
                accepted = full_trial
                stalls += 1
            if accepted is None or stalls > 50:
                raise NewtonError("line search stalled", NewtonReport(it, res, False))
        u_raw, u, F, res = accepted
        recent.append(res)
        del recent[:-10]
        if iterate_hook is not None:
            iterate_hook(u_raw.reshape(grid.shape))
        if res <= tol_abs or res <= tol_rel * res0:
            return u.reshape(grid.shape), NewtonReport(it, res, True)
    raise NewtonError("no convergence", NewtonReport(max_iter, res, False))
