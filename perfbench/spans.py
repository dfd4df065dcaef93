"""Spans and counters recorded at the package's layer boundaries.

Nothing under ``src/`` knows about tracing: :func:`rebound` swaps each
boundary function for a wrapper from the benchmark's side and puts the
originals back afterwards.  Several functions are imported by name into other
modules (``solve_newton``, the flux pieces, ``pad_field``), so every
module-level binding of a function anywhere in the package is rebound to
the same wrapper.  A boundary the package no longer has is an error, so a
refactor that renames one stops the traced run instead of reading as 0.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "congested_euler"

# (span name, package module, function or Class.method) at each layer boundary
BOUNDARIES = (
    ("scenarios.run", "scenarios", "run_scenario"),
    ("output.write", "output", "write_frames"),
    ("scheme.step", "scheme_conservative", "step"),
    ("scheme.step", "scheme_semilag", "step"),
    ("semilag.advect", "scheme_semilag", "semilag_advect"),
    ("elliptic.newton", "elliptic", "solve_newton"),
    ("elliptic.linear", "elliptic", "_solve_linear"),
    ("elliptic.residual", "elliptic", "EllipticProblem.residual"),
    ("elliptic.assembly", "elliptic", "DiffusionOperator.matrix"),
    ("elliptic.apply", "elliptic", "DiffusionOperator.apply"),
    ("fluxes", "fluxes", "face_states"),
    ("fluxes", "fluxes", "max_wave_speed"),
    ("fluxes", "fluxes", "rusanov_flux"),
    ("fluxes", "fluxes", "div_from_faces"),
    ("grid.pad", "grid", "pad_field"),
)


def package_bindings(obj):
    """(module, attribute) pairs of the package that are bound to ``obj``."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is obj:
                found.append((mod, attr))
    return found


@contextlib.contextmanager
def rebound(patches):
    """Temporarily bind ``replacement`` wherever ``original`` is bound.

    ``patches`` is a list of ``(original, replacement)`` pairs.  A class
    method is given as ``(cls, name)``.
    """
    saved = []
    try:
        for original, replacement in patches:
            if isinstance(original, tuple):
                cls, attr = original
                saved.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, replacement)
                continue
            for mod, attr in package_bindings(original):
                saved.append((mod, attr, original))
                setattr(mod, attr, replacement)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory spans (name, start, end, parent) plus boundary counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.cg_iters: list[int] = []
        self.newton_iters: list[int] = []
        self.assembly_builds = 0
        self.switches = 0
        self.clamps = 0
        self.cfl_max = 0.0
        self.steps = 0

    def wrap(self, name, fn, after=None, before=None):
        """``fn`` recorded as a span ``name``.

        ``before(args)`` runs just ahead of the span and ``after(args,
        result)`` inside it, once the call returns.
        """
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def counted_cg(self, fn):
        """scipy ``cg`` with an iteration-counting callback (no span)."""
        iters = self.cg_iters

        def cg(A, b, *args, callback=None, **kwargs):
            n = [0]

            def count(xk):
                n[0] += 1
                if callback is not None:
                    callback(xk)

            try:
                return fn(A, b, *args, callback=count, **kwargs)
            finally:
                iters.append(n[0])

        return cg

    # -- hooks reading what a boundary returned --------------------------

    def _after_step(self, args, result):
        grid, dt = args[0], args[2]
        info = result[1]
        self.steps += 1
        self.switches += int(info.switched)
        self.clamps += int(info.clamps)
        self.cfl_max = max(self.cfl_max, info.max_speed * dt / grid.dx)

    def _after_newton(self, args, result):
        self.newton_iters.append(result[1].iterations)

    def _before_matrix(self, args):
        # the operator caches its matrix in ``_built`` on the first call
        if getattr(args[0], "_built", None) is None:
            self.assembly_builds += 1

    def patches(self, modules):
        """(original, replacement) pairs that trace every boundary.

        ``modules`` maps short module names to imported package modules.  A
        boundary the package no longer has raises ``LookupError``.
        """
        hooks = {
            "scheme.step": dict(after=self._after_step),
            "elliptic.newton": dict(after=self._after_newton),
            "elliptic.assembly": dict(before=self._before_matrix),
        }
        out = []
        for name, modname, path in BOUNDARIES + (("elliptic.cg", "elliptic", "cg"),):
            owner = modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = vars(owner).get(part)
            fn = None if owner is None else vars(owner).get(attr)
            if fn is None:
                raise LookupError(f"boundary {PACKAGE}.{modname}.{path} not found")
            if name == "elliptic.cg":
                replacement = self.counted_cg(fn)
            else:
                replacement = self.wrap(name, fn, **hooks.get(name, {}))
            out.append(((owner, attr) if outer else fn, replacement))
        return out

    # -- reduction -------------------------------------------------------

    def self_times(self) -> dict:
        """Self time (duration minus direct children) summed per span name."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        out: dict = {}
        for name, t in zip(self.names, own):
            out[name] = out.get(name, 0.0) + float(t)
        return out

    def span_calls(self) -> Counter:
        return Counter(self.names)

    def layer_metrics(self) -> dict:
        """Per-layer numbers of one traced scenario run (see README.md)."""
        own = self.self_times()
        calls = self.span_calls()
        solves = len(self.newton_iters)
        iters = int(sum(self.newton_iters))
        evals = calls["elliptic.residual"]
        return {
            "elliptic.linear_s": own.get("elliptic.linear", 0.0),
            "elliptic.linear_solves": calls["elliptic.linear"],
            "elliptic.cg_iters_mean": float(np.mean(self.cg_iters)) if self.cg_iters else 0.0,
            "elliptic.cg_iters_max": max(self.cg_iters, default=0),
            "elliptic.assembly_s": own.get("elliptic.assembly", 0.0),
            "elliptic.assembly_builds": self.assembly_builds,
            "elliptic.assembly_calls": calls["elliptic.assembly"],
            "elliptic.newton_s": own.get("elliptic.newton", 0.0),
            "elliptic.newton_solves": solves,
            "elliptic.newton_iters_mean": iters / solves if solves else 0.0,
            "elliptic.newton_iters_max": max(self.newton_iters, default=0),
            "elliptic.residual_s": own.get("elliptic.residual", 0.0),
            "elliptic.residual_evals": evals,
            # every solve evaluates its start residual once, and every Newton
            # iteration one accepted trial; the remaining evaluations are
            # rejected line-search trials
            "elliptic.backtracks": evals - solves - iters,
            "elliptic.trial_accept_ratio": iters / evals if evals else 0.0,
            "elliptic.apply_s": own.get("elliptic.apply", 0.0),
            "elliptic.apply_calls": calls["elliptic.apply"],
            "fluxes.s": own.get("fluxes", 0.0),
            "fluxes.calls": calls["fluxes"],
            "grid.pad_s": own.get("grid.pad", 0.0),
            "grid.pad_calls": calls["grid.pad"],
            "scheme.steps": self.steps,
            "scheme.step_self_s": own.get("scheme.step", 0.0),
            "scheme.switches": self.switches,
            "scheme.clamps": self.clamps,
            "scheme.cfl_max": self.cfl_max,
            "semilag.advect_s": own.get("semilag.advect", 0.0),
            "semilag.advect_calls": calls["semilag.advect"],
            "output.write_s": own.get("output.write", 0.0),
            "scenarios.self_s": own.get("scenarios.run", 0.0),
        }

    def dump(self) -> dict:
        """Spans in a compact column form for writing out after the run."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        return {
            "names": table,
            "name": [index[n] for n in self.names],
            "parent": self.parents,
            "start": self.starts,
            "end": self.ends,
        }
