"""The benchmark's four workloads, as plain Scenario fields.

This module imports nothing heavy, so the launcher can validate a workload
name before any numerical library is loaded.  Why each workload is in the
set is written down in ``README.md`` beside this file.
"""

# Scenario keyword arguments per workload.  All four are fixed data; README.md
# says why evacuate2d does not use a seeded random ceiling.
SPECS = {
    "riemann1d": dict(
        kind="riemann1d", nx=1000, scheme="zq", order=2, time_order=1,
        epsilon=1e-4, t_end=0.1,
    ),
    "smooth1d": dict(
        kind="smooth1d", nx=10000, scheme="zq", order=2, time_order=2,
        epsilon=1e-2, t_end=0.0025,
    ),
    "collide2d": dict(
        kind="collide2d", nx=128, case=1, scheme="zq", order=1,
        epsilon=1e-4, t_end=0.15, frames_every=24,
    ),
    "evacuate2d": dict(
        kind="evacuate2d", nx=128, scheme="sl", order=1, epsilon=1e-4,
        profile="constant", rho_star_const=0.9, t_end=0.125,
    ),
}

# Workloads whose frames are written through output.write_frames as part of
# the time to solution.
WRITES_FRAMES = frozenset({"collide2d"})
