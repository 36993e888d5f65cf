import csv
import json
import os
import shutil
from contextlib import nullcontext

import numpy as np
import pytest

from densctl import cli, export, presets
from densctl.cli import main
from densctl.state import NegativeDensityWarning


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
    assert os.path.exists(os.path.join(cert_out, "certificate.txt"))
    with open(os.path.join(cert_out, "certificate.csv")) as fh:
        cert = {row[0]: row[1:] for row in csv.reader(fh)}
    # a boolean check is spelled like its expectation
    assert cert["lyapunov_monotone"] == ["true", "true", ""]
    assert cert["kernel_min_entry"][1] == ">0" and float(cert["kernel_min_entry"][0]) > 0



def test_certify_fills_every_row_above_two_thousand_nodes(run_cfg, tmp_path, capsys):
    _, cfg = run_cfg
    cfg["mesh"]["generate"]["target_h"] = 0.022
    cfg["drift"] = "swirl"
    cfg["ocp"].update(T=0.1, dt=0.05)
    assert cli.parse_config(cfg).mesh().n_vertices > 2000
    path = tmp_path / "cfg_fine.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cert"
    assert main(["certify", "--config", str(path), "--out", str(out)]) == 0
    assert "certificate: kernel dim 1," in capsys.readouterr().out
    rows = (out / "certificate.csv").read_text().splitlines()[1:]
    assert len(rows) == 7
    assert all(row.split(",")[1] for row in rows), rows


@pytest.mark.parametrize("max_iter, reason", [(60, "tol"), (2, "max_iter")])
def test_static_prints_why_it_stopped(run_cfg, tmp_path, capsys, max_iter, reason):
    _, cfg = run_cfg
    cfg["ocp"]["max_iter"] = max_iter
    path = tmp_path / "cfg_iter.json"
    path.write_text(json.dumps(cfg))
    # two iterations stop short of the optimum, at a q* that dips below zero
    with pytest.warns(NegativeDensityWarning) if reason == "max_iter" else nullcontext():
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


def _assert_manifest_lists_every_output(out):
    """Every row of out/manifest.csv exists, and every file written under out
    is a row, lies under a listed directory row (ending in /) or beside a
    listed trajectory index (a .../manifest.csv row); returns the rows."""
    with open(out / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    listed = [r["path"] for r in rows]
    assert len(set(listed)) == len(listed)
    for rel in listed:
        assert (out / rel).exists(), rel
    under = tuple(rel for rel in listed if rel.endswith("/"))
    beside = {os.path.dirname(rel) for rel in listed if rel.endswith("/manifest.csv")}
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    unlisted = sorted(
        rel for rel in written - set(listed) - {"manifest.csv"}
        if not rel.startswith(under) and os.path.dirname(rel) not in beside
    )
    assert unlisted == []
    return rows


def test_particles_manifest_lists_every_output(run_cfg, tmp_path):
    path, _ = run_cfg
    out = tmp_path / "part"
    assert main([
        "particles", "--config", str(path), "--out", str(out), "--control", "zero",
        "--n", "300", "--substeps", "1",
    ]) == 0
    kinds = [r["kind"] for r in _assert_manifest_lists_every_output(out)]
    assert kinds.count("particle ensemble") == kinds.count("empirical density") == 5


@pytest.mark.parametrize("verb, flags", [
    ("static", []),
    ("simulate", ["--control", "zero"]),
    ("dynamic", []),
    ("certify", ["--control", "zero"]),
])
def test_every_verb_lists_its_outputs(run_cfg, tmp_path, verb, flags):
    # particles: test_particles_manifest_lists_every_output
    path, cfg = run_cfg
    path.write_text(json.dumps(dict(cfg, vtk=True)))
    out = tmp_path / verb
    assert main([verb, "--config", str(path), "--out", str(out), *flags]) == 0
    rows = _assert_manifest_lists_every_output(out)
    assert rows[0] == {"path": "config.echo", "kind": "configuration"}
    if verb in ("simulate", "dynamic"):  # the VTK snapshots lie beside the index
        assert list(out.rglob("q_00000.vtk"))


def test_testcase_lists_its_outputs(tmp_path, monkeypatch):
    # testcase 1 shrunk to seconds, with every optional series switched on
    small = presets.testcase_config(1)
    small["mesh"]["generate"]["target_h"] = 0.12
    small["ocp"].update(tol=1e-4, max_iter=20, T=0.25, dt=0.05)
    small.update(dynamic={"max_iter": 2, "tol": 1e-6}, series_T=0.25, long_T=0.5,
                 drift="swirl", extra_initials=[{"type": "uniform"}])
    monkeypatch.setattr(presets, "testcase_config", lambda n, paper_scale=False: dict(small))
    out = tmp_path / "tc"
    assert main(["testcase", "1", "--out", str(out)]) == 0
    listed = [r["path"] for r in _assert_manifest_lists_every_output(out)]
    for rel in ("mesh.txt", "stabilization/ic_2.csv", "static_long_run.csv", "uncontrolled.csv",
                "dynamic_solution/controls/", "comparison.csv"):
        assert rel in listed


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


@pytest.mark.parametrize("path, value, problem", [
    pytest.param(("mesh", "generate", "holes"), [{"type": "circle", "radius": 0.1}],
                 "hole 0: a circle needs center [x, y] and a radius", id="circle-hole-no-center"),
    pytest.param(("mu",), "one", "mu must be positive", id="mu-not-a-number"),
    pytest.param(("target",), {"type": "indicator", "regions": [{"type": "rect"}]},
                 "target.regions[0]: a rect needs bounds", id="rect-region-no-bounds"),
    pytest.param(("target",), {"type": "gaussian", "sigma": 0.2},
                 "target.center must be [x, y]", id="gaussian-no-center"),
    pytest.param(("seed",), 1.5, "seed must be a non-negative integer", id="seed-float"),
    pytest.param(("seed",), "x", "seed must be a non-negative integer", id="seed-string"),
    pytest.param(("seed",), -1, "seed must be a non-negative integer", id="seed-negative"),
    pytest.param(("seed",), True, "seed must be a non-negative integer", id="seed-bool"),
    pytest.param(("drift",), ["swirl"], "unknown drift preset ['swirl']", id="drift-list"),
    pytest.param(("target",), "uniform", "target must be an object", id="target-string"),
    pytest.param(("initial",), None, "initial must be an object", id="initial-null"),
    pytest.param(("dynamic",), 3, "dynamic must be an object", id="dynamic-number"),
    pytest.param(("ocp",), [], "ocp must be an object", id="ocp-list"),
    pytest.param(("ocp", "armijo"), 0.5, "ocp.armijo must be an object", id="armijo-number"),
    pytest.param(("mesh",), "generate", "mesh must be an object", id="mesh-string"),
    pytest.param(("mesh", "generate"), True, "mesh.generate must be an object",
                 id="generate-bool"),
    pytest.param(("mesh", "generate", "holes"), 7, "mesh.generate.holes must be a list",
                 id="holes-number"),
    pytest.param(("target",), {"type": "indicator", "regions": 5},
                 "target.regions must be a list", id="regions-number"),
    pytest.param(("mesh",), {"file": 0}, "mesh file must be a path string, got 0",
                 id="mesh-file-descriptor"),
    pytest.param(("target",), {"type": "nodal", "file": ["q.csv"]},
                 "target.file must be a path string", id="nodal-file-list"),
    pytest.param(("ocp", "max_iter"), 2.5, "ocp: tol must be positive and max_iter an integer",
                 id="max-iter-float"),
    pytest.param(("ocp", "max_iter"), True, "ocp: tol must be positive and max_iter an integer",
                 id="max-iter-bool"),
    pytest.param(("ocp", "armijo"), {"max_backtracks": -1}, "ocp: max_backtracks must be an int",
                 id="max-backtracks-negative"),
    pytest.param(("ocp", "armijo"), {"max_backtracks": 1.5}, "ocp: max_backtracks must be an int",
                 id="max-backtracks-float"),
    pytest.param(("ocp", "lumped"), "no", "ocp: lumped must be a bool", id="lumped-string"),
    pytest.param(("ocp", "alpha"), float("nan"), "ocp: alpha must be a finite number",
                 id="alpha-nan"),
    pytest.param(("ocp", "T"), float("inf"), "ocp: T must be a finite number", id="T-infinite"),
    pytest.param(("mu",), float("inf"), "mu must be positive and finite", id="mu-infinite"),
    pytest.param(("mesh", "generate", "target_h"), float("inf"),
                 "mesh.generate.target_h must be positive and finite", id="target-h-infinite"),
    pytest.param(("target",), {"type": "gaussian", "center": [0.5, 0.5], "sigma": float("inf")},
                 "target.sigma must be positive and finite", id="sigma-infinite"),
    pytest.param(("mesh", "generate", "holes"),
                 [{"type": "circle", "center": [0.5, 0.5], "radius": float("nan")}],
                 "hole 0: a circle needs center [x, y] and a radius", id="hole-radius-nan"),
    pytest.param(("target",), {"type": "indicator", "regions": [
                     {"type": "rect", "bounds": [0.2, 0.2, float("inf"), 0.8]}]},
                 "target.regions[0]: a rect needs bounds", id="region-bounds-infinite"),
    pytest.param(("mesh", "generate", "holes"),
                 [{"type": "circle", "center": [0.5, 0.5], "radius": -0.1}],
                 "hole 0: a circle's radius must be positive, got -0.1", id="hole-radius-negative"),
    pytest.param(("mesh", "generate", "holes"),
                 [{"type": "rect", "bounds": [0.7, 0.7, 0.3, 0.3]}],
                 "hole 0: a rect needs x0 < x1 and y0 < y1, got [0.7, 0.7, 0.3, 0.3]",
                 id="hole-rect-inverted"),
    pytest.param(("target",), {"type": "indicator", "regions": [
                     {"type": "circle", "center": [0.5, 0.5], "radius": -0.3}]},
                 "target.regions[0]: a circle's radius must be positive, got -0.3",
                 id="region-radius-negative"),
    pytest.param(("target",), {"type": "indicator", "regions": [
                     {"type": "circle", "center": [0.5, 0.5], "radius": 0}]},
                 "target.regions[0]: a circle's radius must be positive, got 0",
                 id="region-radius-zero"),
    pytest.param(("target",), {"type": "indicator", "regions": [
                     {"type": "rect", "bounds": [0.7, 0.7, 0.3, 0.3]}]},
                 "target.regions[0]: a rect needs x0 < x1 and y0 < y1", id="region-rect-inverted"),
    pytest.param(("target",), {"type": "indicator", "regions": [
                     {"type": "rect", "bounds": [0.2, 0.6, 0.8, 0.6]}]},
                 "target.regions[0]: a rect needs x0 < x1 and y0 < y1", id="region-rect-flat"),
    pytest.param(("out_dir",), "", "out_dir must be a nonempty path string", id="out-dir-empty"),
    pytest.param(("vtk",), "no", "vtk must be true or false", id="vtk-string"),
    pytest.param(("extra_initials",), [{"type": "gaussian", "sigma": 0.1}],
                 "extra_initials[0].center must be [x, y]", id="extra-initial-no-center"),
    pytest.param(("series_T",), "3", "series_T must be positive and finite",
                 id="series-T-string"),
])
def test_malformed_fields_are_config_problems(run_cfg, tmp_path, capsys, path, value, problem):
    _, cfg = run_cfg
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    cfg_path = tmp_path / "cfg_fields.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["static", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and problem in err, err
    assert "Traceback" not in err
    assert not os.path.exists(cfg["out_dir"])


@pytest.mark.parametrize("out_dir", [5, None])
def test_out_dir_must_be_a_path_string(run_cfg, tmp_path, monkeypatch, capsys, out_dir):
    _, cfg = run_cfg
    cfg["out_dir"] = out_dir
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg_out.json").write_text(json.dumps(cfg))
    assert main(["static", "--config", "cfg_out.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: out_dir must be a nonempty path string, got {out_dir}")
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "cfg_out.json"]


def test_negative_seed_flag_is_a_config_problem(run_cfg, capsys):
    path, cfg = run_cfg
    assert main(["particles", "--config", str(path), "--n", "100", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "error: config: seed must be a non-negative integer, got -1" in err
    assert not os.path.exists(cfg["out_dir"])


def test_particle_noise_is_independent_of_the_sampling(run_cfg, monkeypatch):
    # sample_initial draws from default_rng(seed); the noise must not replay that stream
    path, cfg = run_cfg
    noise = []
    step = cli.step_particles

    def recording_step(ens, domain, vel, mu, dt, rng):
        if not noise:
            noise.append(rng.bit_generator.state)
        return step(ens, domain, vel, mu=mu, dt=dt, rng=rng)

    monkeypatch.setattr(cli, "step_particles", recording_step)
    assert main([
        "particles", "--config", str(path), "--control", "zero", "--n", "100",
        "--substeps", "1", "--t-final", "0.15",
    ]) == 0
    child = np.random.SeedSequence(cfg["seed"]).spawn(1)[0]
    assert noise == [np.random.default_rng(child).bit_generator.state]
    assert noise != [np.random.default_rng(cfg["seed"]).bit_generator.state]


@pytest.mark.parametrize("dt, T", [(0.0, 0.25), (-0.05, 0.25), (0.05, 0.0)])
def test_bad_time_grid_is_a_config_problem(run_cfg, tmp_path, capsys, dt, T):
    _, cfg = run_cfg
    cfg["ocp"].update(dt=dt, T=T)
    path = tmp_path / "cfg_grid.json"
    path.write_text(json.dumps(cfg))
    assert main(["dynamic", "--config", str(path)]) == 2
    assert "error: config: ocp: " in capsys.readouterr().err


@pytest.mark.parametrize("dynamic", [{"dt": 0.0}, {"T": 0.27}])
def test_bad_dynamic_section_is_a_config_problem(run_cfg, tmp_path, capsys, dynamic):
    _, cfg = run_cfg
    cfg["dynamic"].update(dynamic)
    path = tmp_path / "cfg_dynamic.json"
    path.write_text(json.dumps(cfg))
    assert main(["dynamic", "--config", str(path)]) == 2
    assert "error: config: dynamic: " in capsys.readouterr().err
    assert not os.path.exists(cfg["out_dir"])  # rejected before any solve


def test_dynamic_summary_counts_gmres_fallbacks(run_cfg, tmp_path, capsys):
    path, _ = run_cfg
    assert main(["dynamic", "--config", str(path), "--out", str(tmp_path / "d")]) == 0
    assert ", 0 GMRES fallbacks, 0 steepest-descent restarts, " in capsys.readouterr().out


def test_missing_config_file(capsys):
    assert main(["static", "--config", "/nonexistent/cfg.json"]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"[1, 2]", "config must be a JSON object, not list"),
    (b'{"mu": "\xe9"}', "config is not UTF-8"),  # latin-1
    (None, "cannot read config"),  # a directory
], ids=["list", "latin-1", "directory"])
def test_unreadable_config_is_a_config_problem(tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["static", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {message}")
    assert not out.exists()


def test_infeasible_geometry_exit_code(tmp_path, capsys):
    cfg = {
        "mesh": {"generate": {"bounds": [0, 0, 1, 1], "target_h": 0.2,
                               "holes": [{"type": "circle", "center": [0.5, 0.5], "radius": 5.0}]}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["mesh", "gen", "--config", str(path), "--mesh-out", str(tmp_path / "m.txt")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case, error", [
    ("missing mesh", "FileNotFoundError"),
    ("mesh is a directory", "IsADirectoryError"),
    ("out under a file", "NotADirectoryError"),
])
def test_os_errors_are_runtime_errors(run_cfg, tmp_path, capsys, case, error):
    path, _ = run_cfg
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {
        "missing mesh": ["mesh", "check", str(tmp_path / "none.txt")],
        "mesh is a directory": ["mesh", "check", str(tmp_path)],
        "out under a file": ["static", "--config", str(path), "--out", str(blocker / "sub")],
    }[case]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith(f"error: {error}: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("verb", ["simulate", "particles"])
def test_bad_t_final_is_a_config_problem(run_cfg, capsys, verb):
    path, cfg = run_cfg
    assert main([verb, "--config", str(path), "--t-final", "0.12"]) == 2
    assert "error: config: ocp: T=0.12 is not" in capsys.readouterr().err
    assert not os.path.exists(cfg["out_dir"])  # rejected before any output


def test_t_final_run_replays_from_its_echo(run_cfg, tmp_path):
    path, _ = run_cfg
    out_a, out_b = str(tmp_path / "A"), str(tmp_path / "B")
    run = ["particles", "--control", "zero", "--n", "300", "--substeps", "1"]
    assert main(run + ["--config", str(path), "--out", out_a, "--t-final", "0.15"]) == 0
    echo = os.path.join(out_a, "config.echo")
    assert json.load(open(echo))["ocp"]["T"] == 0.15
    assert main(run + ["--config", echo, "--out", out_b]) == 0
    files = sorted(os.path.relpath(os.path.join(d, f), out_a)
                   for d, _, fs in os.walk(out_a) for f in fs)
    assert files == sorted(os.path.relpath(os.path.join(d, f), out_b)
                           for d, _, fs in os.walk(out_b) for f in fs)
    for rel in files:
        a = open(os.path.join(out_a, rel), "rb").read()
        b = open(os.path.join(out_b, rel), "rb").read()
        if rel == "config.echo":
            a, b = (dict(json.loads(x), out_dir=None) for x in (a, b))
        assert a == b, rel


@pytest.mark.parametrize("verb, flag", [
    ("simulate", "--every"), ("dynamic", "--every"),
    ("particles", "--n"), ("particles", "--substeps"),
])
def test_counts_below_one_are_rejected_before_any_work(run_cfg, capsys, verb, flag):
    path, cfg = run_cfg
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", str(path), flag, "0"])
    assert exc.value.code == 2
    assert "must be at least 1, got 0" in capsys.readouterr().err
    assert not os.path.exists(cfg["out_dir"])


@pytest.mark.parametrize("section, update, key", [
    ("ocp", {"lumpd": False}, "lumpd"),
    ("ocp", {"armijo": {"shrnk": 0.5}}, "shrnk"),
    ("dynamic", {"lumpd": False}, "lumpd"),
])
def test_unknown_ocp_keys_are_config_problems(run_cfg, tmp_path, capsys, section, update, key):
    _, cfg = run_cfg
    cfg[section].update(update)
    path = tmp_path / "cfg_keys.json"
    path.write_text(json.dumps(cfg))
    assert main(["static", "--config", str(path)]) == 2
    problems = [line for line in capsys.readouterr().err.splitlines() if key in line]
    assert len(problems) == 1 and problems[0].startswith(f"error: config: {section}: ")
    assert not os.path.exists(cfg["out_dir"])


@pytest.mark.parametrize("verb, source", [
    ("simulate", "nowhere"),
    ("particles", "dynamic_solution"),
])
def test_unusable_control_is_rejected_before_any_output(run_cfg, tmp_path, capsys, verb, source):
    path, cfg = run_cfg
    if source == "dynamic_solution":
        dyn = str(tmp_path / "dyn")
        assert main(["dynamic", "--config", str(path), "--out", dyn]) == 0
        source = os.path.join(dyn, source)
    else:
        source = str(tmp_path / source)
    assert main([verb, "--config", str(path), "--control", source]) == 2
    assert "error: config: " in capsys.readouterr().err
    assert not os.path.exists(cfg["out_dir"])


def test_unreadable_or_misfit_controls_are_config_problems(run_cfg, tmp_path, capsys):
    path, cfg = run_cfg
    dyn = str(tmp_path / "dyn")
    assert main(["dynamic", "--config", str(path), "--out", dyn]) == 0
    capsys.readouterr()
    controls = os.path.join(dyn, "dynamic_solution", "controls")
    half = tmp_path / "half"  # a static control without its u_y.csv
    half.mkdir()
    shutil.copy(os.path.join(controls, "u_x_00000.csv"), half / "u_x.csv")
    gap = tmp_path / "gap"  # a time-varying control missing one u_y_*.csv
    shutil.copytree(os.path.join(dyn, "dynamic_solution"), gap / "dynamic_solution")
    os.remove(gap / "dynamic_solution" / "controls" / "u_y_00003.csv")
    short = tmp_path / "short"  # a static control whose u_y.csv lacks a row
    shutil.copytree(half, short)
    rows = (short / "u_x.csv").read_text().splitlines(keepends=True)
    (short / "u_y.csv").write_text("".join(rows[:-1]))
    twice = tmp_path / "twice"  # a static control whose u_x.csv lists node 0 twice
    shutil.copytree(half, twice)
    shutil.copy(half / "u_x.csv", twice / "u_y.csv")
    (twice / "u_x.csv").write_text("".join(rows) + rows[1])
    empty = tmp_path / "empty"
    (empty / "controls").mkdir(parents=True)
    cases = [
        (half, [], "No such file or directory"),
        (short, [], "no value for 1 of"),
        (twice, [], f"{twice / 'u_x.csv'}: node 0 has more than one row"),
        (gap / "dynamic_solution", [], "u_y_00003.csv"),
        (os.path.join(dyn, "dynamic_solution"), ["--t-final", "0.5"], "has 6 nodes, grid needs 11"),
        (empty, [], "has 0 nodes, grid needs 6"),
    ]
    for source, extra, problem in cases:
        assert main(["simulate", "--config", str(path), "--control", str(source), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and problem in err, err
        assert not os.path.exists(cfg["out_dir"])


@pytest.mark.parametrize("name", ["target", "initial"])
@pytest.mark.parametrize("case, problem", [
    ("header", "expected a density CSV header"),
    ("missing", "no value for 1 of"),
    ("repeated", "density.csv: node 0 has more than one row"),
    ("indicator", "indicator regions contain no mesh vertices"),
])
def test_unbuildable_density_is_a_config_problem(run_cfg, tmp_path, capsys, name, case, problem):
    _, cfg = run_cfg
    mesh, ops, _, _ = cli.build_problem(cfg)
    density = tmp_path / "density.csv"
    if case == "header":
        density.write_text("x,y,q\n0.0,0.0,1.0\n")
    elif case == "missing":
        export.write_density_csv(density, mesh, np.ones(ops.n))
        density.write_text("".join(density.read_text().splitlines(keepends=True)[:-1]))
    elif case == "repeated":  # every node's row, then a second one for node 0
        export.write_density_csv(density, mesh, np.ones(ops.n))
        density.write_text(density.read_text() + "0,0.0,0.0,9.0\n")
    cfg[name] = (
        {"type": "indicator", "regions": [{"type": "circle", "center": [5, 5], "radius": 0.1}]}
        if case == "indicator" else {"type": "nodal", "file": str(density)}
    )
    path = tmp_path / "cfg_density.json"
    path.write_text(json.dumps(cfg))
    assert main(["static", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config: {name}: ") and problem in err[0]
    assert not os.path.exists(cfg["out_dir"])


def test_static_density_reads_back_as_a_nodal_target(run_cfg, tmp_path):
    path, cfg = run_cfg
    assert main(["static", "--config", str(path)]) == 0
    q_star = os.path.join(cfg["out_dir"], "static_solution", "q_star.csv")
    cfg["target"] = {"type": "nodal", "file": q_star}
    cfg["out_dir"] = str(tmp_path / "again")
    _, ops, z, _ = cli.build_problem(cfg)
    values = export.read_vector_csv(q_star, ops.n)
    assert np.array_equal(z.values, values / (ops.F @ values))
    path.write_text(json.dumps(cfg))
    assert main(["static", "--config", str(path)]) == 0


def test_vtk_snapshots_follow_the_csv_stride(run_cfg, tmp_path):
    path, cfg = run_cfg
    cfg["vtk"] = True
    path.write_text(json.dumps(cfg))
    argv = ["simulate", "--config", str(path), "--t-final", "0.6", "--every", "5"]
    assert main(argv) == 0
    traj_dir = tmp_path / "out" / "trajectory"
    names = sorted(os.listdir(traj_dir))
    assert [f for f in names if f.endswith(".vtk")] == [f"q_{i:05d}.vtk" for i in (0, 5, 10)]
    assert [f for f in names if f.endswith(".csv")] == (
        ["manifest.csv"] + [f"q_{i:05d}.csv" for i in (0, 5, 10)]
    )
    mesh = cli.build_problem(cfg)[0]
    nv, nt = mesh.n_vertices, mesh.n_triangles
    for name in ("q_00000.vtk", "q_00005.vtk", "q_00010.vtk"):
        lines = (traj_dir / name).read_text().splitlines()
        assert f"POINTS {nv} double" in lines and f"CELLS {nt} {4 * nt}" in lines


@pytest.mark.parametrize("window", [None, 7, 16])
def test_windowed_series_is_one_sweep_bitwise(monkeypatch, window):
    # desk testcase 2's problem and scheme (theta 0.5, consistent mass, drift)
    # on a long series cut to 201 steps, so the last window has one step
    from densctl import analysis
    from densctl.fem import ControlField

    if window is not None:
        monkeypatch.setattr(cli, "_SERIES_WINDOW", window)
    run = cli.parse_config(presets.testcase_config(2))
    mesh, ops, z, q0 = run.problem()
    rng = np.random.default_rng(5)
    u = ControlField(0.3 * rng.standard_normal(ops.n), 0.3 * rng.standard_normal(ops.n))
    q_ref = cli.solve_equilibrium(ops, u)[0]
    T = 201 * run.ocp.dt
    windows = list(cli._windows(ops, q0, u, run.ocp, T))
    assert len(windows) == -(-201 // cli._SERIES_WINDOW) and windows[-1].n_steps == 201 % cli._SERIES_WINDOW
    rows, monotone, final = analysis.convergence_report(iter(windows), q_ref, ops)
    want_rows, want_monotone, want_final = analysis.convergence_report(
        cli._simulate(ops, q0, u, run.ocp, T), q_ref, ops
    )
    assert rows.shape == (202, 4) and np.array_equal(rows, want_rows)
    assert monotone == want_monotone and final == want_final
