"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing the package (numpy and scipy with it) and building the
workload's grid, initial state and relaxation.  Prints the seconds taken.
"""

import sys
from time import perf_counter

import workloads


def main() -> int:
    fields = workloads.SPECS[sys.argv[1]]
    t0 = perf_counter()
    from congested_euler import scenarios

    scn = scenarios.Scenario(**fields)
    grid = scenarios.build_grid(scn)
    scenarios.build_initial_state(scn, grid)
    scenarios.make_relaxation(scn, grid)
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
