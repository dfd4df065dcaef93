"""Benchmark of the congested_euler package on its four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload riemann1d --seed 1 --seconds 25 --trace 0

The package is taken from the checkout's ``src`` directory; nothing is
installed.  Set-up time is measured in fresh interpreters, then one worker
process measures the workload (see ``worker.py``), closed loop, one run at a
time, with BLAS pinned to one thread in the child environment.  The report
lists every metric with its unit and every output check; its last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The full record, machine included, is also written to
``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

# Thread pools of every BLAS numpy or scipy may be built against.  With the
# default count, level-1 calls inside CG made 2D runs 1.3x to 10x slower.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 5
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "elliptic.linear_s": "s",
    "elliptic.linear_solves": "count",
    "elliptic.cg_iters_mean": "count",
    "elliptic.cg_iters_max": "count",
    "elliptic.assembly_s": "s",
    "elliptic.assembly_builds": "count",
    "elliptic.assembly_calls": "count",
    "elliptic.newton_s": "s",
    "elliptic.newton_solves": "count",
    "elliptic.newton_iters_mean": "count",
    "elliptic.newton_iters_max": "count",
    "elliptic.residual_s": "s",
    "elliptic.residual_evals": "count",
    "elliptic.backtracks": "count",
    "elliptic.trial_accept_ratio": "ratio",
    "elliptic.apply_s": "s",
    "elliptic.apply_calls": "count",
    "fluxes.s": "s",
    "fluxes.calls": "count",
    "grid.pad_s": "s",
    "grid.pad_calls": "count",
    "scheme.steps": "count",
    "scheme.step_self_s": "s",
    "scheme.switches": "count",
    "scheme.clamps": "count",
    "scheme.cfl_max": "1",
    "semilag.advect_s": "s",
    "semilag.advect_calls": "count",
    "output.write_s": "s",
    "output.bytes": "B",
    "output.frames": "count",
    "scenarios.self_s": "s",
    "trace.overhead_s": "s",
    "fail_rate": "ratio",
    "l1_err_rho": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _remaining(t0: float) -> float:
    left = DEADLINE_S - (perf_counter() - t0)
    if left <= 1.0:
        raise BenchError(f"out of time ({DEADLINE_S:.0f} s budget)")
    return left


def _child(args, env, t0):
    try:
        proc = subprocess.run(
            [sys.executable, *map(str, args)], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=_remaining(t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(str(args[0])).name} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} exited with {proc.returncode}")
    return proc.stdout


def _lscpu() -> dict:
    keys = ("Model name", "CPU(s)", "L1d cache", "L1i cache", "L2 cache", "L3 cache")
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10,
            env={**os.environ, "LC_ALL": "C"},
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keys:
            out[key.strip()] = value.strip()
    return out


def machine(env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "lscpu": _lscpu(),
        "platform": platform.platform(),
        "blas_env": {k: env[k] for k in BLAS_ENV},
    }


def measure(args) -> dict:
    t0 = perf_counter()
    if not (ROOT / "src" / "congested_euler" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}

    probe = [HERE / "setup_probe.py", args.workload]
    _child(probe, env, t0)  # warm the file cache and bytecode
    setups = [float(_child(probe, env, t0).split()[-1]) for _ in range(SETUP_PROBES)]

    out = _child(
        [HERE / "worker.py", "--workload", args.workload,
         "--seconds", args.seconds, "--trace", args.trace],
        env, t0,
    )
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    record = json.loads(lines[-1])
    record["seed"] = args.seed
    record["end_to_end"]["setup_s"] = statistics.median(setups)
    record["info"]["setup_s_samples"] = setups
    record["machine"] = machine(env)
    record["seconds"] = args.seconds
    record["trace"] = args.trace
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']} (not used: fixed data)  "
          f"trace {record['trace']}  seconds {record['seconds']}")
    info = record["info"]
    print(f"  runs {record['attempted']}  failed {record['failed']}  fail_rate "
          f"{record['failed'] / record['attempted']:.3g}  rounds {info['rounds']}  "
          f"steps/run {info['steps_per_run']}  step samples {info['step_samples']}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<30} {record['end_to_end'][name]:>14.6g} {unit}")
    if "l1_err_rho" in info:
        print(f"  {'l1_err_rho':<30} {info['l1_err_rho']:>14.6g} L1")
    if record["per_layer"]:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<30} {record['per_layer'].get(name, 0.0):>14.6g} {unit}")
    for title, checks in (("check", record["checks"]), ("fidelity", record["fidelity"])):
        for name, c in checks.items():
            value = "" if c["value"] is None else f"  {c['value']}"
            print(f"  {title} {name}: {'PASS' if c['ok'] else 'FAIL'}{value}")
    print("  machine " + json.dumps(record["machine"], sort_keys=True))
    print("  versions " + json.dumps(record["versions"], sort_keys=True))
    print("  scenario " + json.dumps(record["scenario"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    report(record)

    fidelity_ok = all(c["ok"] for c in record["fidelity"].values())
    units = PER_LAYER if args.trace else END_TO_END
    values = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["failed"] == 0 and fidelity_ok,
        "attempted": record["attempted"],
        "failed": record["failed"],
        # End-to-end metrics are 0 only when no repetition succeeded, and
        # then the run is not correct anyway.  Per-layer metrics are 0 where
        # the workload does not use the layer (see README.md).
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
