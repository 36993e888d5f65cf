"""Tests of the benchmark itself: tracing is complete, changes no output, and
counts what it should.

    python -m pytest -q bench/test_bench.py

The last test runs the full static-tc1 solve (about half a minute).
"""

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS thread counts before numpy loads)

run.import_densctl()

from densctl import cli  # noqa: E402
from tracer import Tracer, densctl_modules, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Problem  # noqa: E402

SMALL = {
    "mesh": {"generate": {"bounds": [0, 0, 1, 1], "target_h": 0.22, "holes": []}},
    "mu": 1.0,
    "target": {"type": "gaussian", "center": [0.6, 0.6], "sigma": 0.2},
    "initial": {"type": "gaussian", "center": [0.3, 0.3], "sigma": 0.15},
    "ocp": {"alpha": 1.0, "beta": 1e-3, "beta_g": 1e-5, "tol": 1e-4, "max_iter": 60,
            "theta": 0.5, "lumped": False, "dt": 0.05, "T": 0.25},
    "dynamic": {"max_iter": 3, "tol": 1e-6},
    "seed": 17,
}


def _bindings(modules):
    return [(m, k, v) for m in modules for k, v in vars(m).items() if callable(v)]


def test_every_binding_of_a_wrapped_function_is_wrapped():
    import densctl.linalg
    import densctl.particles
    import densctl.state

    modules = densctl_modules()
    tracer = Tracer()
    with tracer:
        left = [f"{m.__name__}.{k}" for m, k, v in _bindings(modules)
                if v in tracer.originals]
        assert left == []
        assert densctl.state.lu_factor is densctl.linalg.lu_factor
        assert densctl.particles.TriangleLocator.locate not in tracer.originals
    names = set(tracer.originals.values())
    assert {
        "linalg.lu_factor", "linalg.bordered_solve", "fem.state_matrix",
        "fem.assemble_operators", "state.solve_equilibrium", "state.simulate",
        "state.step_theta", "adjoint.solve_adjoint_static", "adjoint.solve_adjoint_dynamic",
        "ocp_static.armijo_backtracking", "ocp_dynamic.solve_dynamic_ocp",
        "particles.locate", "particles.reflect", "particles.step_particles",
        "export.write_csv", "mesh.generate_rect_mesh", "cli.main", "analysis.l2_distance",
    } <= names
    # uninstall restores every original binding
    assert not any(getattr(v, "__wrapped__", None) in tracer.originals
                   for _, _, v in _bindings(modules))
    assert densctl.particles.TriangleLocator.locate in tracer.originals


def _run_small(tmp, tracer=None):
    """static, dynamic and particles on SMALL; returns {relative path: bytes}."""
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = tmp / "out"
    argvs = [
        ["static", "--out", str(out / "s")],
        ["dynamic", "--out", str(out / "d")],
        ["particles", "--out", str(out / "p"), "--control", str(out / "s" / "static_solution"),
         "--n", "2000", "--t-final", "0.25", "--substeps", "2", "--seed", "3"],
    ]
    with tracer or contextlib.nullcontext():
        for argv in argvs:
            assert cli.main(argv[:1] + ["--config", str(cfg_path)] + argv[1:]) == 0
    files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    shutil.rmtree(out)
    return files


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    plain = _run_small(tmp_path)
    tracer = Tracer()
    traced = _run_small(tmp_path, tracer)
    assert sorted(plain) == sorted(traced)
    assert [k for k in plain if plain[k] != traced[k]] == []
    seen = {s[0] for s in tracer.spans}
    assert {
        "cli.main", "linalg.lu_factor", "ocp_static.armijo_backtracking",
        "ocp_dynamic.armijo_backtracking", "ocp_dynamic.evaluate_dynamic_cost",
        "particles.locate", "particles.step_particles", "export.write_csv",
    } <= seen


def test_layer_metrics_self_time_and_nesting():
    spans = [
        ["a", 0.0, 10.0, None, 1, None],
        ["b", 1.0, 4.0, 0, 1, 5],
        ["b", 2.0, 3.0, 1, 1, 7],
        ["c", 5.0, 6.0, 0, 1, None],
        ["a", 20.0, 21.0, None, 2, None],
    ]
    m = layer_metrics(spans, 1)
    assert m["calls"] == {"a": 1, "b": 2, "c": 1}
    assert m["s"] == {"a": 10.0, "b": 3.0, "c": 1.0}
    assert m["self_s"] == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert m["points"] == {"b": 12}
    assert m["children"] == {("a", "b"): 1, ("b", "b"): 1, ("a", "c"): 1}


def test_static_tc1_seed0_counts(tmp_path):
    workload = WORKLOADS["static-tc1"]
    cfg = workload.config(0)
    cfg_path = os.path.join(tmp_path, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    tracer = Tracer()
    rec = run.run_op(workload, cfg, cfg_path, str(tmp_path), 0, [], Problem(cfg),
                     tracer=tracer, op_id=1)
    assert rec["problems"] == []
    metrics = run.per_layer(layer_metrics(tracer.spans, 1), rec, rec)
    assert metrics["linalg.lu_factor.calls"][0] == 3262
    assert metrics["linalg.bordered_solve.calls"][0] == 3261
    assert metrics["ocp_static.iterations"][0] == 368
