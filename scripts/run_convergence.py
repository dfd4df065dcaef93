#!/usr/bin/env python3
"""Grid-refinement study on smooth periodic data for every scheme/order pair.

Prints the fitted L1 slopes and writes one errors CSV per variant.  The
defaults reproduce the headline study (reference spacing 1e-4, first-order
runs at a fixed small time step); pass --quick for a coarse smoke version.
"""

import argparse
from pathlib import Path

from congested_euler import scenarios
from congested_euler.output import write_error_table
from congested_euler.scenarios import Scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-end", type=float, default=0.05)
    ap.add_argument("--eps", type=float, default=1e-2)
    ap.add_argument("--quick", action="store_true",
                    help="coarser spacings and self-hosted reference")
    ap.add_argument("--out", type=Path, default=Path("out/convergence"))
    args = ap.parse_args()

    if args.quick:
        dxs = [1 / 25, 1 / 50, 1 / 100]
        ref_dx, ref_state = None, None
        fixed_dt = 1e-4
    else:
        dxs = [4e-3, 2e-3, 1e-3]
        ref_dx = 1e-4
        ref = Scenario(kind="smooth1d", nx=round(1 / ref_dx), t_end=args.t_end,
                       epsilon=args.eps, scheme="zq", order=2)
        print(f"reference run at dx={ref_dx:g} ...")
        ref_state = scenarios.run_scenario(ref).final
        fixed_dt = 5e-6

    args.out.mkdir(parents=True, exist_ok=True)
    base = dict(kind="smooth1d", nx=round(1 / max(dxs)), t_end=args.t_end,
                epsilon=args.eps)
    variants = [
        Scenario(scheme="zq", order=1, dt=fixed_dt, **base),
        Scenario(scheme="sl", order=1, dt=fixed_dt, **base),
        Scenario(scheme="zq", order=2, **base),
        Scenario(scheme="sl", order=2, **base),
    ]
    for s in variants:
        rep = scenarios.run_convergence_study(s, dxs, ref_dx=ref_dx,
                                              ref_state=ref_state)
        tag = f"{s.scheme}_o{s.order}"
        print(f"{tag}: " + "  ".join(
            f"{name}={slope:.3f}" for name, slope in rep.slopes.items()))
        write_error_table(rep, args.out / f"errors_{tag}.csv")
    print(f"error tables written to {args.out}")


if __name__ == "__main__":
    main()
