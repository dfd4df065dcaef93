"""Uniform grids, boundary conditions, and ghost-cell maps.

A :class:`Grid` covers [0, 1] in one dimension or [0, 1]^2 in two, with cell
centers at (i + 1/2) * dx.  Fields live on numpy arrays shaped ``(nx,)`` or
``(ny, nx)``; the flat index of cell (i, j) is ``j * nx + i``.

Axis convention: array axes run ``(y, x)``, so ``grid.shape`` and stencil
offsets (tuples, one entry per array axis, ``(dj, di)`` in 2D and ``(di,)``
in 1D) list y first, while per-direction sequences (``grid.spacing``,
``grid.bcs``, momentum names q1, q2) list x first.  Every stencil is written
once as a loop over the axes.

Boundaries are handled through one ghost map per grid: a padded field
carries ``GHOST`` = 2 layers on every side, and every ghost cell aliases an
interior cell (periodic wrap, or mirror for reflecting and zero-gradient
sides) together with a sign for each momentum component.  A mirrored side
needs at least ``GHOST`` cells.  Ghost indices resolve x first,
so at a corner a window on an x side tests the virtual y coordinate of the
ghost, and a window on a y side the aliased x coordinate.  Explicit stencils,
the implicit pressure systems, and characteristic-foot interpolation all read
the same map, so every part of a scheme sees the same boundary values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# Ghost layers on every side of a padded field: the second-order (MUSCL)
# faces and the condensed stride-2 pressure operator both reach two cells out.
GHOST = 2


@dataclass(frozen=True)
class Periodic:
    pass


@dataclass(frozen=True)
class Wall:
    """Reflecting side: normal momentum flips sign, everything else mirrors."""


@dataclass(frozen=True)
class OutflowWindow:
    """Zero-gradient where the tangential coordinate lies in [lo, hi], wall outside.

    A 1D side has no tangential coordinate and is zero-gradient throughout.
    """

    lo: float
    hi: float


def _alias(v, n, bcs, t=None):
    """Alias the virtual indices ``v`` (possibly outside [0, n)) along one axis.

    Returns (index, normal_sign) arrays.  ``t`` is the tangential coordinate
    that window tests read; None on an axis with no tangential direction.
    """
    idx, sign = v.copy(), np.ones(v.shape)
    for s, bc in enumerate(bcs):
        out = v < 0 if s == 0 else v >= n
        if isinstance(bc, Periodic):
            idx[out] = v[out] % n
        else:
            mirror = -v[out] - 1 if s == 0 else 2 * n - 1 - v[out]
            if np.any((mirror < 0) | (mirror >= n)):
                raise ValueError("ghost width exceeds grid size at a mirrored side")
            idx[out] = mirror
            if isinstance(bc, Wall):
                sign[out] = -1.0
            elif not isinstance(bc, OutflowWindow):
                raise TypeError(f"unknown boundary condition {bc!r}")
            elif t is not None:
                sign[out] = np.where((bc.lo <= t[out]) & (t[out] <= bc.hi), 1.0, -1.0)
    return idx, sign


@dataclass(frozen=True)
class GhostMap:
    """Padded-index resolution of one grid's ``GHOST`` layers.

    ``src`` holds, per padded cell, the flat interior index it aliases,
    which is what padding reads.  The sign arrays apply to the x and y
    momentum components respectively.
    """

    src: np.ndarray
    sign_q1: np.ndarray
    sign_q2: np.ndarray


@dataclass(frozen=True)
class StencilPattern:
    """CSR structure of sum_k w_k (g_{c+o_k} - g_c) for one stencil on one grid.

    The data are ``np.bincount(scatter, weights)`` for the weights laid out
    term by term as (w_k, -w_k); ``diag`` holds the diagonal slots.  In 1D
    every cell has at most two neighbours: ``order`` lists the cells path by
    path, then cycle by cycle, ``up`` holds the slots coupling each position
    to the next one of its chain (one past the last slot at path ends, the
    chain's first position at a cycle's end), and cycle j runs over
    positions first[j]..last[j].
    """

    indptr: np.ndarray
    indices: np.ndarray
    scatter: np.ndarray
    diag: np.ndarray
    order: np.ndarray | None = None
    up: np.ndarray | None = None
    first: np.ndarray | None = None
    last: np.ndarray | None = None


@dataclass(eq=False)
class Grid:
    nx: int
    bc_x: tuple = (Periodic(), Periodic())
    ny: int | None = None
    bc_y: tuple | None = None
    _ghost_map: GhostMap | None = field(default=None, repr=False, compare=False)
    _patterns: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.nx < 1:
            raise ValueError("nx must be at least 1")
        if self.ny is not None and self.ny < 1:
            raise ValueError("ny must be at least 1")
        if self.ny is not None and self.bc_y is None:
            self.bc_y = (Periodic(), Periodic())
        if self.ny is None and self.bc_y is not None:
            raise ValueError("bc_y given for a one-dimensional grid")
        for pair in self.bcs:
            if isinstance(pair[0], Periodic) != isinstance(pair[1], Periodic):
                raise ValueError("periodic sides must come in opposite pairs")

    @property
    def ndim(self) -> int:
        return 1 if self.ny is None else 2

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dy(self) -> float:
        return 1.0 / self.ny

    @property
    def shape(self):
        return (self.nx,) if self.ny is None else (self.ny, self.nx)

    @property
    def spacing(self) -> tuple:
        """Cell widths, x first."""
        return tuple(1.0 / n for n in self.shape[::-1])

    @property
    def bcs(self) -> tuple:
        """Boundary pairs (low, high) per direction, x first."""
        return (self.bc_x,) if self.ny is None else (self.bc_x, self.bc_y)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def centers_x(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx

    @property
    def centers_y(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.dy

    def cell_centers(self) -> list:
        """Cell-center coordinates, one field-shaped array per direction, x first."""
        return [(i + 0.5) * h for i, h in zip(np.indices(self.shape)[::-1], self.spacing)]

    def ghost_map(self) -> GhostMap:
        if self._ghost_map is None:
            self._ghost_map = self._build_ghost_map()
        return self._ghost_map

    def stencil_pattern(self, offsets: tuple) -> StencilPattern:
        if offsets not in self._patterns:
            self._patterns[offsets] = _build_pattern(self, offsets)
        return self._patterns[offsets]

    def _build_ghost_map(self) -> GhostMap:
        # virtual indices of every padded cell, x first
        v = [u - GHOST for u in np.indices([n + 2 * GHOST for n in self.shape])[::-1]]
        signs = [np.ones(v[0].shape), np.ones(v[0].shape)]
        for k, (n, bcs) in enumerate(zip(self.shape[::-1], self.bcs)):
            t = [(u + 0.5) * h for m, (u, h) in enumerate(zip(v, self.spacing)) if m != k]
            v[k], signs[k] = _alias(v[k], n, bcs, *t)
        return GhostMap(np.ravel_multi_index(tuple(v[::-1]), self.shape), *signs)


def _axes(grid: Grid):
    """(array axis, spacing, normal momentum name) for each direction, x first."""
    return [(grid.ndim - 1 - k, h, f"q{k + 1}") for k, h in enumerate(grid.spacing)]


def _offset(grid: Grid, axis: int, k: int):
    """Stencil offset of k cells along one array axis."""
    return tuple([k if a == axis else 0 for a in range(grid.ndim)])


def _shifted(grid: Grid, padded, offset: tuple):
    """Interior-shaped view of a padded array displaced by a stencil offset."""
    return padded[
        tuple([slice(GHOST + o, GHOST + o + n) for o, n in zip(offset, grid.shape)])
    ]


def _build_pattern(grid: Grid, offsets: tuple) -> StencilPattern:
    n = grid.size
    src = grid.ghost_map().src
    nb = np.stack([np.ravel(_shifted(grid, src, off)) for off in offsets])
    cells = np.arange(n)
    # entry (r, c) has key r * n + c, so sorted keys are CSR order
    keys, slot = np.unique(
        np.concatenate([cells * (n + 1), (cells * n + nb).ravel()]), return_inverse=True
    )
    diag = slot[:n]
    slots = slot[n:].reshape(nb.shape)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    scatter = np.stack([slots, np.broadcast_to(diag, nb.shape)], axis=1).ravel()
    chains = _chains(keys, n) if grid.ndim == 1 else {}
    return StencilPattern(indptr, (keys % n).astype(np.int32), scatter, diag, **chains)


def _chains(keys, n: int) -> dict:
    """Chain fields of a 1D :class:`StencilPattern` from its sorted entry keys."""
    from scipy.sparse.csgraph import connected_components, depth_first_order
    rows, cols = np.divmod(keys, n)
    off = rows != cols
    graph = sp.csr_matrix((np.ones(off.sum()), (rows[off], cols[off])), shape=(n, n))
    deg = np.diff(graph.indptr)
    if deg.max(initial=0) > 2:
        raise ValueError("a cell of a 1D stencil has more than two neighbours")
    _, label = connected_components(graph, directed=False)
    # a depth-first walk from an end traverses a path, from any cell a cycle
    by_chain = np.lexsort((deg, label))
    heads = by_chain[np.diff(label[by_chain], prepend=-1) != 0]
    heads = heads[np.argsort(deg[heads] == 2, kind="stable")]
    # intp: int32 would overflow in the slot keys order * n + next once n > 46340
    order = np.concatenate([
        depth_first_order(graph, h, directed=False, return_predecessors=False) for h in heads
    ]).astype(np.intp)
    end = np.cumsum(np.bincount(label)[label[heads]]) - 1
    start = np.append(0, end[:-1] + 1)
    cyclic = deg[heads] == 2
    first, last = start[cyclic], end[cyclic]
    nxt = np.roll(order, -1)
    nxt[end] = -1
    nxt[last] = order[first]
    up = np.where(nxt >= 0, np.searchsorted(keys, order * n + nxt), keys.size)
    return dict(order=order, up=up, first=first, last=last)


def pad_field(grid: Grid, values, kind: str = "scalar"):
    """Extend a field by ``GHOST`` layers according to the grid's sides.

    ``kind`` selects the reflection sign ("q1", "q2", or "scalar").
    """
    gm = grid.ghost_map()
    out = np.asarray(values, dtype=float).ravel().take(gm.src)
    if kind == "q1":
        out = out * gm.sign_q1
    elif kind == "q2":
        out = out * gm.sign_q2
    elif kind != "scalar":
        raise ValueError(f"unknown field kind {kind!r}")
    return out


def interior(grid: Grid, padded):
    """View of the interior cells of a padded field."""
    return padded[(slice(GHOST, -GHOST),) * grid.ndim]


_FIELD_KIND = {"rho": "scalar", "q1": "q1", "q2": "q2", "Z": "scalar", "rho_star": "scalar"}


@dataclass
class GridState:
    """Cell-averaged fields: density, momentum, congestion ratio Z = rho/rho_star."""

    rho: np.ndarray
    q1: np.ndarray
    Z: np.ndarray
    rho_star: np.ndarray
    q2: np.ndarray | None = None
    time: float = 0.0

    @classmethod
    def from_primitives(cls, grid: Grid, rho, v1, rho_star, v2=None):
        rho = np.broadcast_to(np.asarray(rho, float), grid.shape).copy()
        rho_star = np.broadcast_to(np.asarray(rho_star, float), grid.shape).copy()
        q1 = rho * np.broadcast_to(np.asarray(v1, float), grid.shape)
        q2 = None
        if grid.ndim == 2:
            v2 = 0.0 if v2 is None else v2
            q2 = rho * np.broadcast_to(np.asarray(v2, float), grid.shape)
        return cls(rho=rho, q1=q1, Z=rho / rho_star, rho_star=rho_star, q2=q2)

    def copy(self) -> "GridState":
        return GridState(
            rho=self.rho.copy(),
            q1=self.q1.copy(),
            Z=self.Z.copy(),
            rho_star=self.rho_star.copy(),
            q2=None if self.q2 is None else self.q2.copy(),
            time=self.time,
        )

    @property
    def velocity(self) -> tuple:
        """Velocity components q / rho, one per dimension."""
        return tuple(q / self.rho for q in (self.q1, self.q2) if q is not None)

    def padded(self, grid: Grid, name: str):
        return pad_field(grid, getattr(self, name), _FIELD_KIND[name])


def total_mass(grid: Grid, values) -> float:
    return float(np.sum(values) * grid.cell_volume)


def l1_error(grid: Grid, a, b) -> float:
    return float(np.sum(np.abs(np.asarray(a) - np.asarray(b))) * grid.cell_volume)
