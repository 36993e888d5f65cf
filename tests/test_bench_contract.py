"""The package API that the benchmark harness under ``bench/`` calls.

The harness is kept unchanged between releases so that its numbers stay
comparable, and it runs from a source checkout; a signature change here
would stop it.  These tests pin what it reads: ``cli.build_problem``,
``solve_equilibrium``'s pair, ``export.read_vector_csv`` and the span names
that ``bench/tracer.py`` derives from the modules' ``__all__``.
"""

import importlib.util
from pathlib import Path

import numpy as np

from densctl import ControlField, cli, export, solve_equilibrium

BENCH = Path(__file__).resolve().parent.parent / "bench"

CONFIG = {
    "mesh": {"generate": {"bounds": [0, 0, 1, 1], "target_h": 0.25, "holes": []}},
    "mu": 1.0,
    "target": {"type": "gaussian", "center": [0.6, 0.6], "sigma": 0.2},
    "initial": {"type": "gaussian", "center": [0.3, 0.3], "sigma": 0.15},
}

# Span names that bench/run.py's per_layer and bench/test_bench.py read.
SPANS = (
    "linalg.lu_factor", "linalg.bordered_solve", "fem.state_matrix",
    "fem.assemble_operators", "state.solve_equilibrium", "state.step_theta",
    "state.simulate", "adjoint.solve_adjoint_static", "adjoint.solve_adjoint_dynamic",
    "ocp_static.armijo_backtracking", "ocp_static.evaluate_cost",
    "ocp_static.reduced_gradient", "ocp_dynamic.armijo_backtracking",
    "ocp_dynamic.evaluate_dynamic_cost", "ocp_dynamic.solve_dynamic_ocp",
    "particles.locate", "particles.reflect", "particles.step_particles",
    "particles.empirical_density", "particles.sample_initial", "export.write_csv",
    "mesh.generate_rect_mesh", "analysis.l2_distance", "cli.main",
)


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_problem_equilibrium_and_density_csv(tmp_path):
    mesh, ops, _, _ = cli.build_problem(CONFIG)
    n = ops.n
    assert ops.F.shape == (n,)
    q, _ = solve_equilibrium(ops, ControlField.zeros(n))
    assert isinstance(q.values, np.ndarray) and q.values.shape == (n,)
    path = tmp_path / "q.csv"
    export.write_density_csv(path, mesh, q.values)
    assert np.array_equal(export.read_vector_csv(path, n), q.values)


def test_tracer_wraps_every_span_the_benchmark_reads():
    tracer = _tracer()
    modules = tracer.densctl_modules()
    functions = tracer.public_functions(modules)
    names = set(functions.values()) | set(tracer.METHODS)
    # a function shared by both OCPs is named after each module that binds it
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        names |= {f"{short}.{a}" for a in tracer.BY_CALLER if getattr(mod, a, None) in functions}
    assert sorted(set(SPANS) - names) == []
    # every pinned name is one the harness reads, so the list does not go stale
    sources = (BENCH / "run.py").read_text() + (BENCH / "test_bench.py").read_text()
    assert [s for s in SPANS if f'"{s}"' not in sources] == []
