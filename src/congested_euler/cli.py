"""Command line front end.

Subcommands map onto the shipped experiments; every run resolves its
parameters from per-command defaults, an optional key=value config file, and
explicit flags (in that order); config lines are read as the subcommand's
own flags by the same parser.  A run then writes frames, the per-step record
(diagnostics.csv) and a manifest echoing the resolved values.  Exit codes: 0
on success, 1 on usage errors, 2 when the solver fails mid-run (the manifest
records the failing step, diagnostics.csv the steps that returned) or when
exact-riemann finds no resolvable fan.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
from pathlib import Path

from . import scenarios
from .grid import Grid, GridState, l1_error
from .output import write_diagnostics, write_error_table, write_frame, write_frames, write_manifest
from .riemann import CongestionLimitError, VacuumError, solve_riemann
from .scenarios import Scenario, ScenarioError

_DEFAULTS = {
    "riemann": dict(nx=1000, t_end=0.1, epsilon=1e-2, scheme="zq", order=2),
    "exact-riemann": dict(nx=1000, t_end=0.1, epsilon=1e-2, alpha=2.0, gamma=2.0),
    # convergence takes its resolutions from the refinements, never from nx
    "convergence": dict(
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
    def __init__(self, **kwargs):
        # a config key must name its flag in full: `t = 0.1` is not --t-end
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _add_common(p: _Parser, *, law_only: bool = False) -> None:
    p.add_argument("--config", type=Path, help="key=value config file")
    p.add_argument("--eps", "--epsilon", dest="epsilon", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--nx", type=int)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--out", type=Path)
    p.add_argument("--format", choices=("csv", "vtk"), default="csv")
    if law_only:
        return
    p.add_argument("--scheme", choices=("zq", "sl"))
    p.add_argument("--order", type=int, choices=(1, 2))
    p.add_argument("--ny", type=int)
    p.add_argument("--dt-factor", dest="dt_factor", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--frames-every", dest="frames_every", type=int)
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
    for name, defaults in _DEFAULTS.items():
        sub.choices[name].set_defaults(out=Path("out") / name, **defaults)
    return parser


def _config_args(path: Path) -> list:
    """The file's `key = value` lines as flags; the [section] header is optional."""
    cp = configparser.ConfigParser()
    try:
        text = path.read_text()
        try:
            cp.read_string(text)
        except configparser.MissingSectionHeaderError:
            cp.read_string("[scenario]\n" + text)
    except (OSError, configparser.Error) as exc:
        raise _UsageError(f"bad config {path}: {exc}") from exc
    args = []
    for section in cp.sections():
        for key, raw in cp.items(section):
            if key == "config":
                raise _UsageError(f"config {path} names another config file")
            args.append(f"--{key.replace('_', '-')}={raw}")  # one token: -1e-3 is no flag
    return args


def _resolve(argv) -> dict:
    """Defaults < config file < explicit flags: the file's flags go before the given ones."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        args = parser.parse_args(argv[:1] + _config_args(args.config) + argv[1:])
    return vars(args)


def _make_scenario(command: str, values: dict) -> Scenario:
    names = {f.name for f in dataclasses.fields(Scenario)}
    fields = {k: v for k, v in values.items() if k in names and v is not None}
    try:
        return Scenario(kind=_KIND_OF[command], **fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _scenario_payload(s: Scenario, values: dict) -> dict:
    payload = dataclasses.asdict(s)
    payload["out"] = str(values["out"])
    payload["format"] = values["format"]
    return payload


def _failed(manifest: dict, outdir: Path, exc: ScenarioError) -> int:
    """Record a failed run: its steps, the manifest naming the failing step, exit 2."""
    outdir.mkdir(parents=True, exist_ok=True)
    if exc.result is not None:
        manifest.update(write_diagnostics(exc.result, outdir / "diagnostics.csv"))
    manifest.update(status="failed", failing_step=exc.step, error=str(exc))
    write_manifest(outdir / "manifest.json", manifest)
    print(f"error: {exc}", file=sys.stderr)
    return 2


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
        return _failed(manifest, outdir, exc)
    manifest.update(
        status="ok",
        failing_step=None,
        **write_diagnostics(result, outdir / "diagnostics.csv"),
        frames=write_frames(result, outdir, fmt),
        mass_initial=float(result.mass[0]),
        mass_final=float(result.mass[-1]),
        newton_max=int(result.newton_max.max()),
        max_speed=float(result.max_speed.max()),
    )
    if command == "riemann":
        fan = solve_riemann(*scenarios.riemann_states(), s.law)
        exact = fan.sample_profile(result.grid.centers_x, s.t_end)
        manifest["l1_error"] = {name: l1_error(result.grid, getattr(result.final, name), exact[name])
                                for name in scenarios._STUDY_VARS}
    write_manifest(outdir / "manifest.json", manifest)
    print(f"{command}: {len(result.steps)} steps, wrote {outdir}")
    return 0


def _cmd_exact_riemann(values: dict) -> int:
    s = _make_scenario("riemann", values)
    try:
        fan = solve_riemann(*scenarios.riemann_states(), s.law)
    except (VacuumError, CongestionLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    grid = Grid(nx=s.nx)
    prof = fan.sample_profile(grid.centers_x, s.t_end)
    state = GridState(
        rho=prof["rho"],
        q1=prof["q1"],
        Z=prof["Z"],
        rho_star=prof["rho_star"],
        time=s.t_end,
    )
    outdir = Path(values["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    fmt = values["format"]
    name = f"exact.{fmt}"
    write_frame(state, grid, outdir / name, fmt)
    manifest = {
        "command": "exact-riemann",
        "nx": s.nx,
        "t_end": s.t_end,
        "epsilon": s.epsilon,
        "alpha": s.alpha,
        "gamma": s.gamma,
        "out": str(outdir),
        "format": fmt,
        "frames": [{"file": name, "time": s.t_end}],
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
    if not dxs or not all(0.0 < dx < math.inf for dx in dxs):  # NaN fails too
        raise _UsageError(f"refinements must be positive finite spacings, got {raw!r}")
    return dxs


def _cmd_convergence(values: dict) -> int:
    if values["nx"] is not None:
        raise _UsageError("convergence sets nx from --refinements; do not give nx")
    dxs = _parse_refinements(values["refinements"])
    values = dict(values, nx=round(1 / max(dxs)))
    s = _make_scenario("convergence", values)
    outdir = Path(values["out"])
    manifest = {"command": "convergence", "scenario": _scenario_payload(s, values)}
    try:
        report = scenarios.run_convergence_study(s, dxs)
    except ScenarioError as exc:
        return _failed(manifest, outdir, exc)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    outdir.mkdir(parents=True, exist_ok=True)
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
    try:
        values = _resolve(argv)
        if values["command"] == "exact-riemann":
            return _cmd_exact_riemann(values)
        if values["command"] == "convergence":
            return _cmd_convergence(values)
        return _cmd_run(values["command"], values)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
