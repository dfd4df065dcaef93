"""Importing the package loads no more of scipy than its hot paths use.

scipy's ``integrate`` and ``optimize`` serve only the exact Riemann solver and
``sparse.csgraph`` only 1D chain building, so none of them may load with the
package or during a 2D run.  The check runs in a fresh interpreter and
subtracts what scipy's own sparse and LAPACK modules import, which differs
between scipy releases.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import congested_euler

SCRIPT = """
import json, sys
import scipy.sparse, scipy.sparse.linalg, scipy.linalg.lapack
GUARDED = ("scipy.integrate", "scipy.optimize", "scipy.sparse.csgraph")
scipy_own = set(sys.modules)

def guarded():
    return sorted(m for m in set(sys.modules) - scipy_own
                  if any(m == g or m.startswith(g + ".") for g in GUARDED))

out = {}
import congested_euler, congested_euler.cli
out["import"] = guarded()
from congested_euler import PressureLaw, Scenario, run_scenario, solve_riemann
from congested_euler.scenarios import riemann_states
for kind, scheme in (("collide2d", "zq"), ("evacuate2d", "sl")):
    run_scenario(Scenario(kind=kind, nx=16, scheme=scheme, order=1, t_end=0.02))
out["runs"] = guarded()
fan = solve_riemann(*riemann_states(), PressureLaw(1e-4))
out["riemann"] = guarded()
out["mid_Z"] = fan.mid_left.Z
print(json.dumps(out))
"""


def _guarded_after():
    src = str(Path(congested_euler.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_and_2d_runs_load_no_integrate_optimize_or_csgraph():
    out = _guarded_after()
    assert out["import"] == []
    assert out["runs"] == []
    # the exact solver still runs, loading what it needs on first use
    assert 0.0 < out["mid_Z"] < 1.0
    assert any(m.startswith("scipy.optimize") for m in out["riemann"])
