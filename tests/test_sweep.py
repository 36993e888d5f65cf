"""The theta-sweep kernel: exact factorization and contraction counts, and
property tests of the pattern-built operators on generated meshes."""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import densctl as dc
from densctl import linalg
from densctl.fem import AdvectionTensor
from densctl.ocp_dynamic import solve_dynamic_ocp
from densctl.ocp_static import OcpConfig, solve_static_ocp
from densctl.state import theta_sweep

from conftest import random_control


@pytest.fixture()
def counts(monkeypatch):
    """Calls of lu_factor, through every binding, and of the tensor contraction."""
    calls = {"lu_factor": 0, "contract": 0}
    lu_factor = linalg.lu_factor
    contract_data = AdvectionTensor.contract_data

    def counted_lu(matrix):
        calls["lu_factor"] += 1
        return lu_factor(matrix)

    def counted_contract(self, u):
        calls["contract"] += 1
        return contract_data(self, u)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "densctl" and getattr(mod, "lu_factor", None) is lu_factor:
            monkeypatch.setattr(mod, "lu_factor", counted_lu)
    monkeypatch.setattr(AdvectionTensor, "contract_data", counted_contract)
    return calls


def test_simulate_constant_control_factorizes_once(small_ops, rng, counts):
    u = random_control(small_ops, rng, scale=0.5)
    q0 = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    traj = dc.simulate(small_ops, q0, u, T=0.5, dt=0.05, theta=0.5, lumped=False)
    assert traj.n_steps == 10
    assert counts == {"lu_factor": 1, "contract": 1}


def test_simulate_time_varying_control_factorizes_every_step(small_ops, rng, counts):
    controls = [random_control(small_ops, rng, scale=0.5) for _ in range(11)]
    q0 = dc.gaussian_density(small_ops, (0.4, 0.6), 0.2)
    dc.simulate(small_ops, q0, controls, T=0.5, dt=0.05, theta=0.5, lumped=False)
    # one contraction per time node serves both steps that touch it
    assert counts == {"lu_factor": 10, "contract": 11}


def test_dynamic_ocp_reuses_the_accepted_trial(small_ops, monkeypatch, counts):
    import densctl.ocp_dynamic as ocp_dynamic

    z = dc.gaussian_density(small_ops, (0.65, 0.6), 0.2)
    scfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-6, max_iter=40)
    static = solve_static_ocp(small_ops, z, scfg)
    cfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-12, max_iter=3,
        theta=0.5, lumped=False, dt=0.05, T=0.5,
    )
    q0 = dc.gaussian_density(small_ops, (0.3, 0.3), 0.2)
    evaluations = []
    evaluate = ocp_dynamic.evaluate_dynamic_cost
    monkeypatch.setattr(
        ocp_dynamic, "evaluate_dynamic_cost",
        lambda *a, **k: evaluations.append(1) or evaluate(*a, **k),
    )
    counts["lu_factor"] = 0
    dyn = solve_dynamic_ocp(small_ops, q0, static, cfg)
    n_steps = 10
    trials = len(evaluations) - 1  # the first sweep is the warm start's
    assert len(dyn.history) == 4 and trials == 5  # 3 line searches, 2 backtracks
    # H once, then one factorization per step of the warm start and of each
    # trial; no iteration sweeps its accepted trial again
    assert counts["lu_factor"] == 1 + n_steps * (1 + trials) == 61


@st.composite
def _meshes(draw):
    h = draw(st.floats(0.15, 0.3))
    holes = []
    if draw(st.booleans()):
        x, y = draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))
        holes.append(dc.Circle(x, y, 1.5 * h + draw(st.floats(0.0, 0.05))))
    return dc.generate_rect_mesh((-1.0, -1.0, 1.0, 1.0), h, holes=holes)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=_meshes(),
    drift=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 5.0),
    theta=st.sampled_from([0.0, 0.5, 1.0]),
    lumped=st.booleans(),
)
def test_pattern_operators_on_random_meshes(mesh, drift, seed, scale, theta, lumped):
    ops = dc.assemble_operators(
        mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"] if drift else None
    )
    rng = np.random.default_rng(seed)
    u_old, u_new = (random_control(ops, rng, scale) for _ in range(2))
    tensor = ops.tensor

    data = ops.state_data(u_new)
    ref = ops.A - tensor.contract(u_new)
    if drift:
        ref = ref - ops.B_drift
    size = np.abs(data).max()
    assert np.abs(tensor.csr(data) - ref).max() <= 1e-14 * size
    col_sums = np.bincount(tensor.pattern_cols, weights=data, minlength=ops.n)
    assert np.abs(col_sums).max() <= 1e-12 * size

    q0 = dc.normalized_density(ops, rng.random(ops.n) + 0.1)
    traj, factors = theta_sweep(ops, q0, [u_old, u_new], 0.01, theta, lumped)
    assert factors[0] is None and len(factors) == 2
    assert abs(ops.F @ traj.states[1] - 1.0) <= 1e-12
    bare, none = theta_sweep(ops, q0, [u_old, u_new], 0.01, theta, lumped, keep_factors=False)
    assert none == [None, None]
    assert np.array_equal(bare.states, traj.states)
