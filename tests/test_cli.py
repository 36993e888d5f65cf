import json
import os

import pytest

from densctl.cli import main


@pytest.fixture()
def run_cfg(tmp_path):
    cfg = {
        "mesh": {
            "generate": {"bounds": [0.0, 0.0, 1.0, 1.0], "target_h": 0.25, "holes": []}
        },
        "mu": 1.0,
        "target": {"type": "gaussian", "center": [0.6, 0.6], "sigma": 0.2},
        "initial": {"type": "gaussian", "center": [0.3, 0.3], "sigma": 0.15},
        "ocp": {
            "alpha": 1.0,
            "beta": 1e-3,
            "beta_g": 1e-5,
            "tol": 1e-4,
            "max_iter": 60,
            "theta": 0.5,
            "lumped": False,
            "dt": 0.05,
            "T": 0.25,
        },
        "dynamic": {"max_iter": 3, "tol": 1e-6},
        "out_dir": str(tmp_path / "out"),
        "seed": 5,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_mesh_gen_and_check(run_cfg, tmp_path, capsys):
    path, _ = run_cfg
    mesh_out = tmp_path / "m.txt"
    assert main(["mesh", "gen", "--config", str(path), "--mesh-out", str(mesh_out)]) == 0
    assert mesh_out.exists()
    assert main(["mesh", "check", str(mesh_out)]) == 0
    out = capsys.readouterr().out
    assert "strict_delaunay" in out


def test_static_then_simulate_and_certify(run_cfg, tmp_path):
    path, cfg = run_cfg
    out = cfg["out_dir"]
    assert main(["static", "--config", str(path)]) == 0
    for name in ("u_x.csv", "u_y.csv", "q_star.csv", "lambda.csv", "history.csv"):
        assert os.path.exists(os.path.join(out, "static_solution", name))
    assert os.path.exists(os.path.join(out, "config.echo"))
    assert os.path.exists(os.path.join(out, "manifest.csv"))
    # config echo parses back to the effective configuration (round trip)
    echoed = json.load(open(os.path.join(out, "config.echo")))
    assert echoed["target"] == cfg["target"]
    assert echoed["seed"] == cfg["seed"]

    sim_out = str(tmp_path / "sim")
    assert main([
        "simulate", "--config", str(path), "--out", sim_out,
        "--control", os.path.join(out, "static_solution"), "--every", "5",
    ]) == 0
    manifest = open(os.path.join(sim_out, "trajectory", "manifest.csv")).read().splitlines()
    assert manifest[0] == "step,time,mass,min_q,l2_dist_to_target"
    assert len(manifest) == 7  # header + 6 time nodes

    cert_out = str(tmp_path / "cert")
    assert main([
        "certify", "--config", str(path), "--out", cert_out,
        "--control", os.path.join(out, "static_solution"),
    ]) == 0
    assert os.path.exists(os.path.join(cert_out, "certificate.csv"))
    assert os.path.exists(os.path.join(cert_out, "certificate.txt"))


@pytest.mark.parametrize("max_iter, reason", [(60, "tol"), (2, "max_iter")])
def test_static_prints_why_it_stopped(run_cfg, tmp_path, capsys, max_iter, reason):
    _, cfg = run_cfg
    cfg["ocp"]["max_iter"] = max_iter
    path = tmp_path / "cfg_iter.json"
    path.write_text(json.dumps(cfg))
    assert main(["static", "--config", str(path)]) == 0
    assert f"static OCP: stopped ({reason}) after" in capsys.readouterr().out


def test_dynamic_outputs(run_cfg, tmp_path):
    path, _ = run_cfg
    out = str(tmp_path / "dyn")
    assert main(["dynamic", "--config", str(path), "--out", out]) == 0
    ddir = os.path.join(out, "dynamic_solution")
    assert os.path.exists(os.path.join(ddir, "turnpike.csv"))
    assert os.path.exists(os.path.join(ddir, "history.csv"))
    controls = os.listdir(os.path.join(ddir, "controls"))
    assert len([f for f in controls if f.startswith("u_x_")]) == 6  # N_t + 1


def test_particles_command(run_cfg, tmp_path):
    path, cfg = run_cfg
    assert main(["static", "--config", str(path)]) == 0
    out = str(tmp_path / "part")
    assert main([
        "particles", "--config", str(path), "--out", out,
        "--control", os.path.join(cfg["out_dir"], "static_solution"),
        "--n", "2000", "--substeps", "2",
    ]) == 0
    comparison = open(os.path.join(out, "particles", "comparison.csv")).read().splitlines()
    assert comparison[0] == "time,l2_dist_to_pde,noise_floor,ratio"
    assert len(comparison) >= 5


@pytest.mark.parametrize("t_final,steps", [("0.15", [1, 2, 3]), ("0.5", [2, 4, 6, 8, 10])])
def test_particles_checkpoints_stay_in_the_run(run_cfg, tmp_path, t_final, steps):
    path, cfg = run_cfg
    out = str(tmp_path / "part")
    assert main([
        "particles", "--config", str(path), "--out", out, "--control", "zero",
        "--n", "500", "--substeps", "1", "--t-final", t_final,
    ]) == 0
    rows = open(os.path.join(out, "particles", "comparison.csv")).read().splitlines()[1:]
    times = [float(r.split(",")[0]) for r in rows]
    assert times == pytest.approx([s * cfg["ocp"]["dt"] for s in steps])


def test_reproducible_outputs(run_cfg, tmp_path):
    path, _ = run_cfg
    out_a = str(tmp_path / "A")
    out_b = str(tmp_path / "B")
    assert main(["static", "--config", str(path), "--out", out_a]) == 0
    assert main(["static", "--config", str(path), "--out", out_b]) == 0
    for name in ("u_x.csv", "u_y.csv", "q_star.csv", "lambda.csv", "history.csv"):
        a = open(os.path.join(out_a, "static_solution", name), "rb").read()
        b = open(os.path.join(out_b, "static_solution", name), "rb").read()
        assert a == b


def test_config_validation_lists_all_problems(tmp_path, capsys):
    bad = {
        "mesh": {"generate": {"bounds": [0, 0, 1], "target_h": -1, "holes": []}},
        "mu": -2.0,
        "target": {"type": "wavelet"},
        "ocp": {"alpha": 1.0, "beta": 1e-3, "beta_g": 1e-5, "tol": 1e-6,
                "max_iter": 10, "dt": 0.1, "T": 1.0},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["static", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: config:") >= 4


def test_missing_config_file(capsys):
    assert main(["static", "--config", "/nonexistent/cfg.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_infeasible_geometry_exit_code(tmp_path, capsys):
    cfg = {
        "mesh": {"generate": {"bounds": [0, 0, 1, 1], "target_h": 0.2,
                               "holes": [{"type": "circle", "center": [0.5, 0.5], "radius": 5.0}]}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["mesh", "gen", "--config", str(path), "--mesh-out", str(tmp_path / "m.txt")]) == 1
    assert "error:" in capsys.readouterr().err
