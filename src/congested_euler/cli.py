"""Command line front end.

Subcommands map onto the shipped experiments; every run resolves its
parameters from per-command defaults, an optional key=value config file, and
explicit flags (in that order), then writes frames plus a manifest echoing
the resolved values.  Exit codes: 0 on success, 1 on usage errors, 2 when
the solver fails mid-run (the manifest records the failing step).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import scenarios
from .grid import Grid, GridState
from .output import write_error_table, write_frame, write_frames, write_manifest
from .pressure import PressureLaw
from .riemann import solve_riemann
from .scenarios import Scenario, ScenarioError

# scenario fields settable via config/flags, with their parsers
_FIELD_TYPES = {
    "scheme": str,
    "order": int,
    "epsilon": float,
    "alpha": float,
    "gamma": float,
    "nx": int,
    "ny": int,
    "dt_factor": float,
    "dt": float,
    "t_end": float,
    "frames_every": int,
    "case": int,
    "profile": str,
    "rho_star_const": float,
    "beta": float,
    "sl_r": int,
    "seed": int,
}
_OUTPUT_KEYS = {"out": str, "format": str, "refinements": str}
_ALIASES = {"eps": "epsilon"}

_DEFAULTS = {
    "riemann": dict(nx=1000, t_end=0.1, epsilon=1e-2, scheme="zq", order=2),
    "exact-riemann": dict(nx=1000, t_end=0.1, epsilon=1e-2, alpha=2.0, gamma=2.0),
    "convergence": dict(
        nx=250,
        t_end=0.05,
        epsilon=1e-2,
        scheme="zq",
        order=2,
        refinements="4e-3,2e-3,1e-3,1e-4",
    ),
    "collide2d": dict(
        nx=128, t_end=0.15, epsilon=1e-4, scheme="zq", order=1, frames_every=24
    ),
    "evacuate": dict(
        nx=128, t_end=1.0, epsilon=1e-4, scheme="sl", order=1, frames_every=128
    ),
}

_KIND_OF = {
    "riemann": "riemann1d",
    "convergence": "smooth1d",
    "collide2d": "collide2d",
    "evacuate": "evacuate2d",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _add_common(p: _Parser, *, law_only: bool = False) -> None:
    p.add_argument("--config", type=Path, help="key=value config file")
    p.add_argument("--eps", dest="epsilon", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--nx", type=int)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--out", type=Path)
    p.add_argument("--format", choices=("csv", "vtk"))
    if law_only:
        return
    p.add_argument("--scheme", choices=("zq", "sl"))
    p.add_argument("--order", type=int, choices=(1, 2))
    p.add_argument("--ny", type=int)
    p.add_argument("--dt-factor", dest="dt_factor", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--frames-every", dest="frames_every", type=int)
    p.add_argument("--sl-r", dest="sl_r", type=int, choices=(0, 1))
    p.add_argument("--beta", type=float)
    p.add_argument("--seed", type=int)


def _build_parser() -> _Parser:
    parser = _Parser(prog="congested-euler")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    _add_common(sub.add_parser("riemann", help="colliding-shocks tube"))
    _add_common(
        sub.add_parser("exact-riemann", help="sampled exact solution"),
        law_only=True,
    )
    conv = sub.add_parser("convergence", help="smooth refinement study")
    _add_common(conv)
    conv.add_argument("--refinements", help="comma separated dx list")
    coll = sub.add_parser("collide2d", help="four colliding groups")
    _add_common(coll)
    coll.add_argument("--case", type=int, choices=(1, 2, 3))
    evac = sub.add_parser("evacuate", help="room evacuation")
    _add_common(evac)
    evac.add_argument("--profile", choices=scenarios._PROFILES)
    evac.add_argument("--rho-star-const", dest="rho_star_const", type=float)
    return parser


def _load_config(path: Path) -> dict:
    cp = configparser.ConfigParser()
    try:
        text = path.read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        cp.read_string(text)
    except configparser.MissingSectionHeaderError:
        cp = configparser.ConfigParser()
        try:
            cp.read_string("[scenario]\n" + text)
        except configparser.Error as exc:
            raise _UsageError(f"bad config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise _UsageError(f"bad config {path}: {exc}") from exc
    values = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            key = _ALIASES.get(key, key)
            if key in _FIELD_TYPES:
                conv = _FIELD_TYPES[key]
            elif key in _OUTPUT_KEYS:
                conv = _OUTPUT_KEYS[key]
            else:
                raise _UsageError(f"unknown config key {key!r} in {path}")
            try:
                values[key] = conv(raw)
            except ValueError as exc:
                raise _UsageError(f"bad value for {key!r} in {path}: {raw!r}") from exc
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags."""
    values = dict(_DEFAULTS[args.command])
    if getattr(args, "config", None) is not None:
        values.update(_load_config(args.config))
    for key in list(_FIELD_TYPES) + list(_OUTPUT_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values.setdefault("out", Path("out") / args.command)
    values.setdefault("format", "csv")
    return values


def _make_scenario(command: str, values: dict) -> Scenario:
    fields = {k: v for k, v in values.items() if k in _FIELD_TYPES}
    try:
        return Scenario(kind=_KIND_OF[command], **fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _scenario_payload(s: Scenario, values: dict) -> dict:
    payload = dataclasses.asdict(s)
    payload["out"] = str(values["out"])
    payload["format"] = values["format"]
    return payload


def _cmd_run(command: str, values: dict) -> int:
    s = _make_scenario(command, values)
    outdir = Path(values["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    fmt = values["format"]
    manifest = {"command": command, "scenario": _scenario_payload(s, values)}
    grid = scenarios.build_grid(s)
    manifest["dt"] = scenarios.resolved_dt(s, grid)
    try:
        result = scenarios.run_scenario(s)
    except ScenarioError as exc:
        manifest.update(status="failed", failing_step=exc.step, error=str(exc))
        write_manifest(outdir / "manifest.json", manifest)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest.update(
        status="ok",
        failing_step=None,
        steps=len(result.newton_max),
        frames=write_frames(result, outdir, fmt),
        mass_initial=float(result.mass[0]),
        mass_final=float(result.mass[-1]),
        newton_max=int(result.newton_max.max()),
        max_speed=float(result.max_speed.max()),
    )
    write_manifest(outdir / "manifest.json", manifest)
    print(f"{command}: {len(result.newton_max)} steps, " f"wrote {outdir}")
    return 0


def _cmd_exact_riemann(values: dict) -> int:
    law = PressureLaw(values["epsilon"], values["alpha"], values["gamma"])
    left, right = scenarios.riemann_states()
    fan = solve_riemann(left, right, law)
    grid = Grid(nx=values["nx"])
    prof = fan.sample_profile(grid.centers_x, values["t_end"])
    state = GridState(
        rho=prof["rho"],
        q1=prof["q1"],
        Z=prof["Z"],
        rho_star=prof["rho_star"],
        time=values["t_end"],
    )
    outdir = Path(values["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    fmt = values["format"]
    name = f"exact.{fmt}"
    write_frame(state, grid, outdir / name, fmt)
    manifest = {
        "command": "exact-riemann",
        "nx": values["nx"],
        "t_end": values["t_end"],
        "epsilon": values["epsilon"],
        "alpha": values["alpha"],
        "gamma": values["gamma"],
        "out": str(outdir),
        "format": fmt,
        "frames": [{"file": name, "time": values["t_end"]}],
        "waves": [
            {
                "family": w.family,
                "kind": w.kind,
                "speed_lo": w.speed_lo,
                "speed_hi": w.speed_hi,
            }
            for w in fan.waves
        ],
    }
    write_manifest(outdir / "manifest.json", manifest)
    print(f"exact-riemann: wrote {outdir / name}")
    return 0


def _parse_refinements(raw) -> list:
    try:
        dxs = [float(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad refinement list {raw!r}") from exc
    if not dxs:
        raise _UsageError("empty refinement list")
    return dxs


def _cmd_convergence(values: dict) -> int:
    dxs = _parse_refinements(values["refinements"])
    values = dict(values, nx=round(1 / max(dxs)))
    s = _make_scenario("convergence", values)
    outdir = Path(values["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": "convergence", "scenario": _scenario_payload(s, values)}
    try:
        report = scenarios.run_convergence_study(s, dxs)
    except ScenarioError as exc:
        manifest.update(status="failed", failing_step=exc.step, error=str(exc))
        write_manifest(outdir / "manifest.json", manifest)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    write_error_table(report, outdir / "errors.csv")
    manifest.update(
        status="ok",
        failing_step=None,
        refinements=report.dxs,
        ref_dx=report.ref_dx,
        ref_dt=report.ref_dt,
        slopes=report.slopes,
    )
    write_manifest(outdir / "manifest.json", manifest)
    for name in scenarios._STUDY_VARS:
        print(f"{name}: slope {report.slopes[name]:.3f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        values = _resolve(args)
        if args.command == "exact-riemann":
            return _cmd_exact_riemann(values)
        if args.command == "convergence":
            return _cmd_convergence(values)
        return _cmd_run(args.command, values)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
