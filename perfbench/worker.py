"""Measurement process of the benchmark: one workload, repeated, with checks.

``run.py`` starts this script with BLAS pinned to one thread in its
environment and the checkout's ``src`` on ``PYTHONPATH``.  It repeats the
workload's time to solution (``scenarios.run_scenario`` plus, where the
workload writes frames, ``output.write_frames``) until the next repetition
would overrun ``--seconds``; at least one repetition always runs.  With
``--trace 1`` untraced and traced repetitions alternate, so both can be
compared.  Frames and spans go to ``perfbench/_out``.  The last stdout line
is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import congested_euler
import spans
import workloads
from congested_euler import output, scenarios
from congested_euler.scenarios import Scenario, ScenarioError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

MODULE_NAMES = (
    "elliptic", "fluxes", "grid", "output", "scenarios",
    "scheme_conservative", "scheme_semilag",
)
FIELDS = ("rho", "q1", "q2", "Z", "rho_star")

# Criterion 1 of the acceptance suite: L1 errors at t=0.1, eps=1e-4 against
# the exact fan, each within a factor 2 of these targets.
RIEMANN_TARGETS = {"rho": 9.75e-4, "q1": 2.11e-3, "Z": 3.70e-4, "rho_star": 5.71e-4}
# L1 error of rho on riemann1d as first measured with this benchmark; a change
# that is only meant to be faster must leave it where it is.
L1_ERR_RHO_PINNED = 1.13724e-3
L1_ERR_RHO_RTOL = 1e-4
SYMMETRY_TOL = 1e-8
MASS_DRIFT_TOL = 1e-12


def _snapshot(state) -> dict:
    return {n: getattr(state, n) for n in FIELDS if getattr(state, n) is not None}


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _check(ok, value) -> dict:
    return {"ok": bool(ok), "value": value}


class Checker:
    """Output checks of one workload; see README.md for their source."""

    def __init__(self, name: str, scn: Scenario):
        self.name = name
        self.exact = None
        if name == "riemann1d":
            left, right = scenarios.riemann_states()
            fan = congested_euler.solve_riemann(left, right, scn.law)
            grid = scenarios.build_grid(scn)
            self.exact = fan.sample_profile(grid.centers_x, scn.t_end)

    def __call__(self, result, entries, outdir) -> dict:
        frames = [f for _, f in result.frames]
        mass = np.asarray(result.mass)
        z_max = max(float(f.Z.max()) for f in frames)
        checks = {
            "finite": _check(
                all(np.all(np.isfinite(a)) for f in frames for a in _snapshot(f).values()),
                None,
            ),
            "max_Z_below_1": _check(z_max < 1.0, z_max),
        }
        if self.name == "riemann1d":
            dx = result.grid.dx
            for field, target in RIEMANN_TARGETS.items():
                err = float(np.sum(np.abs(getattr(result.final, field) - self.exact[field])) * dx)
                checks[f"l1_err_{field}"] = _check(0.5 <= err / target <= 2.0, err)
            err = checks["l1_err_rho"]["value"]
            checks["l1_err_rho_pinned"] = _check(
                abs(err / L1_ERR_RHO_PINNED - 1.0) <= L1_ERR_RHO_RTOL, err
            )
        if self.name in ("smooth1d", "collide2d"):
            drift = float(np.max(np.abs(np.diff(mass)))) / mass[0]
            checks["mass_drift_per_step"] = _check(drift <= MASS_DRIFT_TOL, drift)
        if self.name == "collide2d":
            worst = max(
                max(
                    float(np.max(np.abs(f.rho - np.rot90(f.rho)))),
                    float(np.max(np.abs(f.rho_star - np.rot90(f.rho_star)))),
                    float(np.max(np.abs(f.q1 - np.rot90(f.q2)))),
                    float(np.max(np.abs(f.q2 + np.rot90(f.q1)))),
                )
                for f in frames
            )
            checks["quarter_turn_defect"] = _check(worst <= SYMMETRY_TOL, worst)
            back = output.read_frame(Path(outdir) / entries[-1]["file"])
            xx, yy = result.grid.cell_centers()
            exact = all(np.array_equal(back[k], v) for k, v in _snapshot(result.final).items())
            exact = exact and np.array_equal(back["x"], xx[0]) and np.array_equal(back["y"], yy[:, 0])
            checks["csv_frame_readback_exact"] = _check(exact, entries[-1]["file"])
        if self.name == "evacuate2d":
            rise = float(np.max(np.diff(mass)))
            checks["mass_non_increasing"] = _check(rise <= 0.0, rise)
        return checks


def _step_timer(times: list, modules: dict):
    """Patches timing every scheme ``step`` call into ``times`` (ms)."""
    mods = [modules[m] for m in ("scheme_conservative", "scheme_semilag")]

    def make(fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            times.append((perf_counter() - t0) * 1e3)
            return out

        return timed

    return [(m.step, make(m.step)) for m in mods]


def _modules() -> dict:
    return {name: importlib.import_module(f"congested_euler.{name}") for name in MODULE_NAMES}


def solve_once(scn: Scenario, outdir, patches) -> dict:
    """One time to solution under ``patches``; never raises ScenarioError."""
    if outdir is not None:
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
    with spans.rebound(patches):
        t0 = perf_counter()
        try:
            result = scenarios.run_scenario(scn)
            entries = output.write_frames(result, outdir) if outdir is not None else []
        except ScenarioError as exc:
            return {"error": str(exc), "wall": perf_counter() - t0}
        wall = perf_counter() - t0
    return {"result": result, "entries": entries, "wall": wall}


def fidelity_checks(name, scn, tracer, result, untraced_final) -> dict:
    """A traced run must compute what the untraced one did, and see every layer."""
    calls = tracer.span_calls()
    every = {b[0] for b in spans.BOUNDARIES}
    required = {
        "scenarios.run", "scheme.step", "fluxes", "grid.pad", "elliptic.newton",
        "elliptic.linear", "elliptic.residual", "elliptic.assembly", "elliptic.apply",
        *(["semilag.advect"] if scn.scheme == "sl" else []),
        *(["output.write"] if name in workloads.WRITES_FRAMES else []),
    }
    checks = {
        "bit_identical_to_untraced": _check(
            untraced_final is not None and _same(_snapshot(result.final), untraced_final),
            None,
        ),
        "boundaries_called": _check(
            all(calls[n] > 0 for n in required), {n: calls[n] for n in sorted(required)}
        ),
        "unused_boundaries_silent": _check(
            all(calls[n] == 0 for n in every - required), None
        ),
    }
    # Structural checks catch a by-name import that kept the original
    # function: its calls would run outside the spans that must enclose them.
    steps = len(result.mass) - 1
    checks["one_span_per_step"] = _check(calls["scheme.step"] == steps, steps)
    names, parents = tracer.names, tracer.parents
    step_of = [-1] * len(names)  # enclosing step span of every span
    for k, p in enumerate(parents):
        if p >= 0:
            step_of[k] = p if names[p] == "scheme.step" else step_of[p]
    step_ids = {k for k, n in enumerate(names) if n == "scheme.step"}
    inside = {
        child: step_ids <= {step_of[k] for k, n in enumerate(names) if n == child}
        for child in ("fluxes", "grid.pad", "elliptic.newton", "semilag.advect")
        if child in required
    }
    checks["layers_inside_every_step"] = _check(all(inside.values()), inside)
    linear_per_newton = Counter(parents[k] for k, n in enumerate(names) if n == "elliptic.linear")
    newton_ids = [k for k, n in enumerate(names) if n == "elliptic.newton"]
    checks["one_linear_solve_per_newton_iteration"] = _check(
        [linear_per_newton[k] for k in newton_ids] == tracer.newton_iters, None
    )
    if scn.ny is not None:
        checks["one_cg_per_linear_solve"] = _check(
            len(tracer.cg_iters) == calls["elliptic.linear"], len(tracer.cg_iters)
        )
    return checks


def _keep_worst(summary: dict, checks: dict) -> None:
    """Fold ``checks`` into ``summary``, keeping the first failure of each."""
    for c, v in checks.items():
        if c not in summary or (summary[c]["ok"] and not v["ok"]):
            summary[c] = v


def _median(values):
    return float(np.median(values)) if values else 0.0


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        return {}
    return {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(congested_euler.__file__).resolve().parents:
        print(f"congested_euler imported from {congested_euler.__file__}, not {src}",
              file=sys.stderr)
        return 2

    name = args.workload
    scn = Scenario(**workloads.SPECS[name])
    outdir = OUT / "frames" / name if name in workloads.WRITES_FRAMES else None
    check = Checker(name, scn)
    modules = _modules()

    # A few untimed steps first, so lazy imports and first-touch costs are
    # paid before any repetition is timed.
    dt = scenarios.resolved_dt(scn, scenarios.build_grid(scn))
    solve_once(replace(scn, t_end=3 * dt, frames_every=min(scn.frames_every, 1)),
               outdir, [])

    # With --trace 1 an untraced and a traced repetition alternate.  Each
    # repetition is checked as soon as it ends and only its numbers are
    # kept, so the process's peak memory does not grow with the repetitions.
    # Step-time percentiles are taken per repetition and their median is
    # reported, so a burst of machine noise in one repetition does not move
    # the tail of the whole run.
    step_p50, step_p90, step_samples = [], [], 0
    walls = {False: [], True: []}
    layers_per_rep, dumps, fidelity, failures = [], [], {}, []
    summary_checks: dict = {}
    first_final = None
    steps_per_run = 0
    attempted = 0
    result = None
    t_start = perf_counter()
    rounds = 0
    while True:
        for traced in (False, True) if args.trace else (False,):
            tracer = spans.Tracer() if traced else None
            step_ms: list = []
            patches = tracer.patches(modules) if traced else _step_timer(step_ms, modules)
            rep = solve_once(scn, outdir, patches)
            attempted += 1
            if "error" in rep:
                checks = {"scenario": _check(False, rep["error"])}
            else:
                result = rep["result"]
                checks = check(result, rep["entries"], outdir)
                final = _snapshot(result.final)
                if first_final is None and not traced:
                    first_final = final
                    steps_per_run = len(result.mass) - 1
                if not traced:
                    checks["repeatable"] = _check(_same(final, first_final), None)
                    step_p50.append(float(np.percentile(step_ms, 50)))
                    step_p90.append(float(np.percentile(step_ms, 90)))
                    step_samples += len(step_ms)
                walls[traced].append(rep["wall"])
            if traced and "error" not in rep:
                _keep_worst(fidelity, fidelity_checks(name, scn, tracer, result, first_final))
                layer = tracer.layer_metrics()
                layer["output.frames"] = len(rep["entries"])
                layer["output.bytes"] = sum(
                    (outdir / e["file"]).stat().st_size for e in rep["entries"]
                )
                layers_per_rep.append(layer)
                dumps.append(tracer.dump())
            _keep_worst(summary_checks, checks)
            bad = [c for c, v in checks.items() if not v["ok"]]
            if bad:
                failures.append({"rep": attempted - 1, "traced": traced,
                                 "failed_checks": bad, "error": rep.get("error")})
            rep = result = tracer = None
        rounds += 1
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / rounds > args.seconds:
            break

    e2e = {
        "wall_s": _median(walls[False]),
        "step_ms_p50": _median(step_p50),
        "step_ms_p90": _median(step_p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"step_samples": step_samples, "steps_per_run": steps_per_run,
            "rounds": rounds, "walls_s": walls[False]}
    if "l1_err_rho" in summary_checks:
        info["l1_err_rho"] = summary_checks["l1_err_rho"]["value"]

    layers = None
    if args.trace:
        layers = {key: _median([m[key] for m in layers_per_rep])
                  for key in (layers_per_rep[0] if layers_per_rep else {})}
        layers["trace.overhead_s"] = _median(walls[True]) - e2e["wall_s"]
        # Quality, not layer, numbers; they ride with the traced metrics
        # because the end-to-end ones must be non-zero on every workload.
        layers["fail_rate"] = len(failures) / attempted
        layers["l1_err_rho"] = info.get("l1_err_rho", 0.0)
        info["traced_walls_s"] = walls[True]
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"spans_{name}.json", "w") as fh:
            json.dump(dumps, fh)

    payload = {
        "workload": name,
        "scenario": {k: getattr(scn, k) for k in scn.__dataclass_fields__},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "checks": summary_checks,
        "fidelity": fidelity,
        "end_to_end": e2e,
        "per_layer": layers,
        "info": info,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_info(),
        },
    }
    print(json.dumps(payload, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
