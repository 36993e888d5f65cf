import json
import os

import pytest

from densctl import presets
from densctl.cli import main


def test_preset_configs_valid():
    from densctl.cli import parse_config

    for n in (1, 2, 3):
        cfg = presets.testcase_config(n)
        cfg.setdefault("out_dir", "x")
        parse_config(cfg)
        paper = presets.testcase_config(n, paper_scale=True)
        assert paper["mesh"]["generate"]["target_h"] < cfg["mesh"]["generate"]["target_h"]
    with pytest.raises(ValueError):
        presets.testcase_config(4)


def test_preset_shared_parameters():
    for n in (1, 2, 3):
        ocp = presets.testcase_config(n)["ocp"]
        assert ocp["alpha"] == 1.0
        assert ocp["beta"] == 1e-3
        assert ocp["beta_g"] == 1e-5
        assert ocp["dt"] == 0.03
        assert ocp["T"] == 3.0


def test_testcase_pipeline_smoke(tmp_path, monkeypatch):
    # shrink scenario 1 so the full orchestration runs in seconds
    small = presets.testcase_config(1)
    small["mesh"]["generate"]["target_h"] = 0.12
    small["ocp"].update(tol=1e-4, max_iter=40, T=0.25, dt=0.05)
    small["dynamic"] = {"max_iter": 2, "tol": 1e-6}
    small["series_T"] = 0.25
    small["extra_initials"] = [{"type": "uniform"}]
    monkeypatch.setattr(presets, "testcase_config", lambda n, paper_scale=False: dict(small))

    out = str(tmp_path / "tc")
    assert main(["testcase", "1", "--out", out]) == 0
    for rel in (
        "config.echo",
        "manifest.csv",
        "mesh.txt",
        "static_solution/history.csv",
        "stabilization/ic_1.csv",
        "stabilization/ic_2.csv",
        "dynamic_solution/turnpike.csv",
        "comparison.csv",
    ):
        assert os.path.exists(os.path.join(out, rel)), rel
    echoed = json.load(open(os.path.join(out, "config.echo")))
    assert echoed["ocp"]["alpha"] == 1.0
    comparison = open(os.path.join(out, "comparison.csv")).read().splitlines()
    assert comparison[0] == "time,static_control_dist,dynamic_control_dist"
    assert len(comparison) == 7  # header + 6 nodes


def test_testcase_config_is_validated(tmp_path, monkeypatch, capsys):
    bad = presets.testcase_config(1)
    bad["ocp"].update(dt=0.0)
    monkeypatch.setattr(presets, "testcase_config", lambda n, paper_scale=False: dict(bad))

    out = str(tmp_path / "tc")
    assert main(["testcase", "1", "--out", out]) == 2
    assert "error: config: ocp: dt must be positive" in capsys.readouterr().err
    assert not os.path.exists(out)  # rejected before any output
