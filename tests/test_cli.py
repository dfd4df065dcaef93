"""Command line behavior: resolution order, exit codes, artifacts, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from congested_euler import cli, scenarios, scheme_conservative
from congested_euler.grid import l1_error
from congested_euler.output import read_frame
from congested_euler.pressure import PressureLaw
from congested_euler.riemann import solve_riemann


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(capsys):
    assert cli.main(["riemann", "--scheme", "bogus"]) == 1
    assert cli.main(["riemann", "--order", "3"]) == 1
    assert cli.main(["riemann", "--eps", "-1", "--nx", "8"]) == 1


def test_zero_ny_is_usage_error_and_creates_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["collide2d", "--ny", "0", "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["riemann", "--gamma", "1"],
        ["riemann", "--eps", "nan"],
        ["riemann", "--t-end", "inf"],
        ["riemann", "--dt", "nan"],
        ["riemann", "--dt-factor", "nan"],
        ["evacuate", "--profile", "random", "--seed", "-1"],
        ["evacuate", "--beta", "nan", "--nx", "8", "--t-end", "0.01"],
        ["evacuate", "--rho-star-const", "nan"],
        ["evacuate", "--nx", "1"],
        ["exact-riemann", "--t-end", "nan"],
        ["exact-riemann", "--t-end", "-1"],
        ["exact-riemann", "--nx", "0"],
        ["exact-riemann", "--gamma", "1"],
    ],
    ids=lambda flags: " ".join(flags),
)
def test_bad_values_are_usage_errors_and_create_nothing(tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert cli.main(flags + ["--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_exact_riemann_without_a_resolvable_fan_exits_2(tmp_path, capsys):
    out = tmp_path / "exact"
    assert cli.main(["exact-riemann", "--eps", "1e-300", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("order", ["1", "2"])
def test_one_cell_riemann_tube_runs(tmp_path, capsys, order):
    # the tube's zero-gradient ghosts mirror 2 cells: one cell is a usage error
    out = tmp_path / "run"
    assert cli.main(["riemann", "--nx", "1", "--order", order, "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ceiling", ["0.6", "0"])
def test_evacuate_ceiling_at_or_below_initial_density_is_usage_error(tmp_path, capsys, ceiling):
    args = ["evacuate", "--rho-star-const", ceiling, "--nx", "8", "--out", str(tmp_path)]
    assert cli.main(args) == 1
    assert "initial density 0.6" in capsys.readouterr().err


def test_riemann_run_writes_frames_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = cli.main(
        ["riemann", "--nx", "40", "--t-end", "0.005", "--out", str(out)]
    )
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["status"] == "ok"
    assert manifest["failing_step"] is None
    assert manifest["scenario"]["nx"] == 40
    assert manifest["scenario"]["kind"] == "riemann1d"
    assert manifest["dt"] == pytest.approx(0.1 / 40)
    frames = manifest["frames"]
    assert [f["time"] for f in frames] == [0.0, pytest.approx(0.005)]
    first = read_frame(out / frames[0]["file"])
    assert first["rho"].shape == (40,)
    assert np.all(first["rho"] == 0.7)


def test_config_file_with_flag_override(tmp_path):
    for eps_key, t_key in [("eps", "t_end"), ("epsilon", "t-end")]:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[scenario]\nnx = 30\n{eps_key} = 0.05\norder = 1\n{t_key} = 0.5\n")
        out = tmp_path / eps_key
        rc = cli.main(
            [
                "riemann",
                "--config",
                str(cfg),
                "--nx",
                "20",
                "--t-end",
                "0.005",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        scn = read_manifest(out)["scenario"]
        assert scn["nx"] == 20  # flag beats config
        assert scn["t_end"] == 0.005
        assert scn["epsilon"] == 0.05  # config beats default
        assert scn["order"] == 1


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp = 5\n")
    assert cli.main(["riemann", "--config", str(cfg)]) == 1
    assert "warp" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line, named",
    [
        ("riemann", "format = png", "png"),  # a value the flag's choices reject
        ("riemann", "case = 2", "--case"),  # a key only collide2d takes
        ("exact-riemann", "scheme = zq", "--scheme"),
        ("riemann", "t = 0.1", "--t="),  # keys name flags in full, not by prefix
        ("riemann", "config = other.ini", "config"),
    ],
    ids=["format png", "riemann case", "exact-riemann scheme", "t prefix", "config in config"],
)
def test_bad_config_is_usage_error_and_creates_nothing(tmp_path, capsys, command, line, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("refinements", ["0,0.1,0.05", "nan,0.1,0.05", "0.1,0.05", "0.1,0.05,0.03"])
def test_bad_refinements_are_usage_errors_and_create_nothing(tmp_path, capsys, refinements):
    out = tmp_path / "conv"
    assert cli.main(["convergence", "--refinements", refinements, "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_convergence_nx_is_usage_error_and_creates_nothing(tmp_path, capsys, source):
    # convergence takes its resolutions from the refinements alone
    out = tmp_path / "conv"
    args = ["convergence", "--refinements", "0.0625,0.03125,0.015625", "--t-end", "0.005",
            "--out", str(out)]
    if source == "flag":
        args += ["--nx", "7"]
    else:
        cfg = tmp_path / "conv.ini"
        cfg.write_text("nx = 7\n")
        args += ["--config", str(cfg)]
    assert cli.main(args) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exit_code_and_manifest(tmp_path, monkeypatch):
    def explode(s):
        raise scenarios.ScenarioError(5, 0.01, "step 5 failed")

    monkeypatch.setattr(scenarios, "run_scenario", explode)
    out = tmp_path / "run"
    rc = cli.main(["riemann", "--nx", "16", "--out", str(out)])
    assert rc == 2
    manifest = read_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["failing_step"] == 5


def test_exact_riemann_frame(tmp_path):
    out = tmp_path / "exact"
    rc = cli.main(
        ["exact-riemann", "--nx", "200", "--t-end", "0.1", "--out", str(out)]
    )
    assert rc == 0
    manifest = read_manifest(out)
    assert len(manifest["waves"]) == 3
    frame = read_frame(out / "exact.csv")
    assert frame["rho"].shape == (200,)
    assert np.allclose(frame["Z"], frame["rho"] / frame["rho_star"], atol=1e-14)
    # colliding data: the middle is denser than either inflow
    assert frame["Z"].max() > 0.71


def test_convergence_artifacts(tmp_path):
    out = tmp_path / "conv"
    rc = cli.main(
        [
            "convergence",
            "--refinements",
            "0.0625,0.03125,0.015625",
            "--t-end",
            "0.01",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["ref_dx"] == 0.015625
    assert set(manifest["slopes"]) == {"rho", "q1", "Z", "rho_star"}
    rows = (out / "errors.csv").read_text().strip().splitlines()
    assert rows[0] == "dx,dt,rho,q1,Z,rho_star"
    assert len(rows) == 4


def test_collide2d_run(tmp_path):
    out = tmp_path / "c2"
    rc = cli.main(
        [
            "collide2d",
            "--case",
            "2",
            "--nx",
            "16",
            "--t-end",
            "0.01",
            "--frames-every",
            "0",
            "--out",
            str(out),
            "--format",
            "vtk",
        ]
    )
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["scenario"]["case"] == 2
    text = (out / manifest["frames"][-1]["file"]).read_text()
    assert "DIMENSIONS 16 16 1" in text


def test_evacuate_deterministic_across_runs(tmp_path):
    args = [
        "evacuate",
        "--profile",
        "random",
        "--seed",
        "11",
        "--nx",
        "12",
        "--t-end",
        "0.01",
        "--eps",
        "1e-2",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    m1, m2 = read_manifest(out1), read_manifest(out2)
    f1 = [f["file"] for f in m1["frames"]]
    assert f1 == [f["file"] for f in m2["frames"]]
    for name in f1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1["scenario"].pop("out"), m2["scenario"].pop("out")
    m1.pop("out", None), m2.pop("out", None)
    assert m1 == m2


def test_evacuate_different_seed_differs(tmp_path):
    base = ["evacuate", "--profile", "random", "--nx", "12", "--t-end", "0.005"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert cli.main(base + ["--seed", "2", "--out", str(out2)]) == 0
    a = (out1 / "frame_000001.csv").read_bytes()
    b = (out2 / "frame_000001.csv").read_bytes()
    assert a != b


# ---------------------------------------------------------------------------
# the per-step record: diagnostics.csv and the manifest totals


def read_diagnostics(outdir):
    return np.genfromtxt(outdir / "diagnostics.csv", delimiter=",", names=True, ndmin=1)


def test_run_writes_one_diagnostics_row_per_step(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["riemann", "--nx", "40", "--t-end", "0.01", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    rows = read_diagnostics(out)
    assert rows.dtype.names == ("t", "mass", "newton", "residual", "cfl", "clamps", "switched")
    assert len(rows) == manifest["steps"] == 4
    assert rows["t"][-1] == pytest.approx(0.01)
    assert rows["mass"][-1] == manifest["mass_final"]
    assert rows["newton"].max() == manifest["newton_max"]
    assert np.all(rows["residual"] <= 1e-10)
    assert rows["cfl"].max() == pytest.approx(manifest["max_speed"] * 0.1)
    assert manifest["clamps"] == 0 and manifest["switched_steps"] == 0


def test_forced_clamp_and_switch_appear_in_the_record(tmp_path, monkeypatch):
    real_step = scheme_conservative.step
    calls = []

    def forced(grid, state, dt, law, **kw):
        new, info = real_step(grid, state, dt, law, **kw)
        calls.append(0)
        if len(calls) % 4 == 2:  # the second step of each four-step run
            info = dataclasses.replace(info, clamps=2, switched=True)
        return new, info

    monkeypatch.setattr(scheme_conservative, "step", forced)
    result = scenarios.run_scenario(scenarios.Scenario(kind="riemann1d", nx=40, t_end=0.01))
    assert [(i.clamps, i.switched) for i in result.steps] == [
        (0, False), (2, True), (0, False), (0, False)
    ]
    out = tmp_path / "run"
    assert cli.main(["riemann", "--nx", "40", "--t-end", "0.01", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["clamps"] == 2 and manifest["switched_steps"] == 1
    rows = read_diagnostics(out)
    assert list(rows["clamps"]) == [0, 2, 0, 0]
    assert list(rows["switched"]) == [0, 1, 0, 0]


def test_riemann_manifest_l1_error_against_the_exact_fan(tmp_path):
    out = tmp_path / "run"
    args = ["riemann", "--nx", "40", "--t-end", "0.01", "--eps", "1e-3", "--out", str(out)]
    assert cli.main(args) == 0
    s = scenarios.Scenario(kind="riemann1d", nx=40, t_end=0.01, epsilon=1e-3)
    result = scenarios.run_scenario(s)
    fan = solve_riemann(*scenarios.riemann_states(), PressureLaw(1e-3, 2.0, 2.0))
    exact = fan.sample_profile(result.grid.centers_x, 0.01)
    expected = {
        name: l1_error(result.grid, getattr(result.final, name), exact[name])
        for name in ("rho", "q1", "Z", "rho_star")
    }
    assert read_manifest(out)["l1_error"] == expected
    assert all(0.0 < err < 0.1 for err in expected.values())


def test_failed_run_keeps_its_record(tmp_path, capsys):
    # README's example at the default order 2: the undamped corrector lets
    # the velocity grow until a step fails; where it fails depends on rounding
    out = tmp_path / "run"
    args = ["riemann", "--eps", "1e-4", "--nx", "1000", "--t-end", "0.1", "--out", str(out)]
    assert cli.main(args) == 2
    manifest = read_manifest(out)
    assert manifest["status"] == "failed"
    rows = read_diagnostics(out)
    assert len(rows) == manifest["steps"] >= manifest["failing_step"] - 1 >= 1
    assert f"{rows['cfl'][-1]:.6g}" in manifest["error"]  # the CFL the error names
    assert manifest["clamps"] == int(rows["clamps"].sum()) == 0
    assert manifest["switched_steps"] == int(rows["switched"].sum())
    assert "error: step" in capsys.readouterr().err
