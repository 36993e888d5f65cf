"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margins (run with -s to see them inline).

Shared expensive artifacts (the benchmark scenario solves) are built once
per module.  All tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

import densctl as dc
from densctl.adjoint import solve_adjoint_dynamic
from densctl.analysis import certify_kernel, l2_distance
from densctl.fem import sq_norms
from densctl.ocp_dynamic import (
    _dynamic_gradient,
    evaluate_dynamic_cost,
    solve_dynamic_ocp,
)
from densctl.ocp_static import OcpConfig, evaluate_cost, reduced_gradient, solve_static_ocp
from densctl.state import theta_sweep
from densctl.particles import (
    MeshDomain,
    NodalVelocity,
    empirical_density,
    sample_initial,
    step_particles,
)


def _report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(
        f"\n[criterion {number:02d}] {status} {name}: {detail} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    assert passed, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


def _counted_dynamic_solve(monkeypatch, *args):
    """solve_dynamic_ocp, and a summary of its iterations, Armijo trials (cost
    evaluations after the warm start's), restarts and final J."""
    import densctl.ocp_dynamic as ocp_dynamic

    evaluations = []
    evaluate = ocp_dynamic.evaluate_dynamic_cost
    monkeypatch.setattr(
        ocp_dynamic, "evaluate_dynamic_cost",
        lambda *a, **k: evaluations.append(1) or evaluate(*a, **k),
    )
    dyn = solve_dynamic_ocp(*args)
    return dyn, (
        f"{len(dyn.history) - 1} iterations, {len(evaluations) - 1} Armijo trials, "
        f"{dyn.restarts} restarts, final J {dyn.history[-1].J:.10g}"
    )


# ---------------------------------------------------------------------------
# benchmark scenario 1 artifacts, shared by criteria 5, 6, 7


@pytest.fixture(scope="module")
def tc1():
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), 0.07, holes=[dc.Circle(0, 0, 0.2)])
    ops = dc.assemble_operators(mesh, mu=1.0)
    z = dc.indicator_density(ops, [dc.Rect(0.15, 0.15, 0.75, 0.75)])
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-6, max_iter=800)
    t0 = time.monotonic()
    sol = solve_static_ocp(ops, z, cfg)
    return {
        "mesh": mesh,
        "ops": ops,
        "z": z,
        "cfg": cfg,
        "sol": sol,
        "solve_seconds": time.monotonic() - t0,
    }


def test_criterion_01_kernel_structure():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    meshes = [
        dc.generate_rect_mesh((0, 0, 1, 1), 0.18),
        dc.generate_rect_mesh((0, 0, 1, 1), 0.09),
        dc.generate_rect_mesh((-1, -1, 1, 1), 0.12, holes=[dc.Circle(0, 0, 0.25)]),
    ]
    worst_res = 0.0
    worst_gap = np.inf
    n_checked = 0
    for mesh in meshes:
        assert 50 <= mesh.n_vertices <= 500, mesh.n_vertices
        ops = dc.assemble_operators(mesh, mu=1.0)
        for _ in range(20):
            u = dc.ControlField(
                rng.standard_normal(ops.n), rng.standard_normal(ops.n)
            )
            cert = certify_kernel(ops, dc.solve_equilibrium(ops, u))
            worst_res = max(worst_res, cert.left_kernel_residual)
            worst_gap = min(worst_gap, cert.gap_ratio)
            if not (cert.left_kernel_residual < 1e-12 and cert.dim == 1 and cert.gap_ratio > 1e6):
                _report(1, "kernel structure", False,
                        f"residual {cert.left_kernel_residual:.2e}, gap {cert.gap_ratio:.2e}",
                        time.monotonic() - t0, 30)
            n_checked += 1
    _report(
        1, "kernel structure", True,
        f"{n_checked} controls on {len(meshes)} meshes; worst residual "
        f"{worst_res:.2e} (<1e-12), worst gap ratio {worst_gap:.2e} (>1e6)",
        time.monotonic() - t0, 30,
    )


def test_criterion_02_mass_conservation():
    t0 = time.monotonic()
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), 0.12, holes=[dc.Circle(0, 0, 0.2)])
    ops = dc.assemble_operators(mesh, mu=1.0)
    rng = np.random.default_rng(7)
    q0 = dc.gaussian_density(ops, (-0.4, 0.4), 0.2)
    worst = 0.0
    for theta in (0.5, 1.0):
        controls = rng.standard_normal((101, 2 * ops.n))  # one [ux, uy] row per node
        traj = dc.simulate(
            ops, q0, controls, T=1.0, dt=0.01, theta=theta, lumped=theta == 1.0
        )
        assert traj.n_steps == 100
        worst = max(worst, float(np.abs(traj.masses - 1.0).max()))
    _report(
        2, "mass conservation", worst < 1e-11,
        f"100-step runs, theta in {{0.5, 1}}: max |F.q - 1| = {worst:.2e} (<1e-11)",
        time.monotonic() - t0, 10,
    )


def test_criterion_03_positivity():
    t0 = time.monotonic()
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), 0.1)
    quality = dc.check_mesh_quality(mesh)
    assert quality.is_strict_delaunay
    ops = dc.assemble_operators(mesh, mu=1.0)
    verts = mesh.vertices
    u = dc.ControlField(-verts[:, 1], verts[:, 0])  # rigid swirl, |u| <= sqrt(2)
    q0 = dc.gaussian_density(ops, (-0.45, -0.45), 0.12)
    assert q0.values.min() >= 0.0
    traj = dc.simulate(ops, q0, u, T=3.0, dt=0.03, theta=1.0, lumped=True)
    worst = float(traj.min_values.min())
    _report(
        3, "positivity", worst >= -1e-12,
        f"theta=1 lumped on strict-Delaunay mesh: min density {worst:.2e} (>=-1e-12)",
        time.monotonic() - t0, 10,
    )


def test_criterion_04_gradient_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    mesh = dc.generate_rect_mesh((0, 0, 1, 1), 0.1)
    assert mesh.n_vertices <= 300
    cfg = OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5)
    worst_static = 0.0
    for drift in (None, dc.DRIFT_PRESETS["swirl"]):
        ops = dc.assemble_operators(mesh, mu=1.0, drift=drift)
        z = dc.gaussian_density(ops, (0.65, 0.6), 0.22)
        u0 = 0.5 * rng.standard_normal(2 * ops.n)

        def j_of(vec):
            cf = dc.ControlField.from_stacked(vec)
            q, _ = dc.solve_equilibrium(ops, cf)
            return evaluate_cost(ops, q, z, cf, cfg)

        cf0 = dc.ControlField.from_stacked(u0)
        grad, _ = reduced_gradient(ops, cf0, z, cfg, dc.solve_equilibrium(ops, cf0))
        for _ in range(10):
            d = rng.standard_normal(2 * ops.n)
            d /= np.linalg.norm(d)
            slope = grad @ d
            best = min(
                abs((j_of(u0 + h * d) - j_of(u0 - h * d)) / (2 * h) - slope)
                / max(abs(slope), 1e-300)
                for h in (1e-3, 1e-4, 1e-5, 1e-6)
            )
            worst_static = max(worst_static, best)

    # dynamic gradient on a tiny space-time instance
    tiny = dc.generate_rect_mesh((0, 0, 1, 1), 0.3)
    assert tiny.n_vertices <= 60
    opst = dc.assemble_operators(tiny, mu=1.0)
    zt = dc.gaussian_density(opst, (0.7, 0.7), 0.3)
    static = solve_static_ocp(
        opst, zt, OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-8, max_iter=120)
    )
    dcfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, dt=0.05, T=0.25, theta=0.5, lumped=False
    )
    n = opst.n
    q0 = dc.gaussian_density(opst, (0.3, 0.3), 0.25)
    U = np.tile(static.u_star.stacked(), (6, 1)) + 0.4 * rng.standard_normal((6, 2 * n))

    def jt(u_flat):
        Um = u_flat.reshape(6, 2 * n)
        traj = theta_sweep(opst, q0.values, Um, dcfg.dt, dcfg.theta, dcfg.lumped)
        return evaluate_dynamic_cost(opst, traj, static, dcfg)

    traj = theta_sweep(opst, q0.values, U, dcfg.dt, dcfg.theta, dcfg.lumped)
    lams = solve_adjoint_dynamic(opst, traj, static.q_star, dcfg.alpha)
    G = _dynamic_gradient(opst, traj, lams, static, dcfg)
    worst_dyn = 0.0
    for _ in range(10):
        D = rng.standard_normal(U.shape)
        D /= np.linalg.norm(D)
        slope = float((G * D).sum())
        best = min(
            abs((jt((U + h * D).ravel()) - jt((U - h * D).ravel())) / (2 * h) - slope)
            / max(abs(slope), 1e-300)
            for h in (1e-3, 1e-4, 1e-5, 1e-6)
        )
        worst_dyn = max(worst_dyn, best)

    ok = worst_static < 1e-5 and worst_dyn < 1e-5
    _report(
        4, "gradient exactness", ok,
        f"static rel err {worst_static:.2e}, dynamic rel err {worst_dyn:.2e} (<1e-5)",
        time.monotonic() - t0, 120,
    )


def test_criterion_05_static_ocp_convergence(tc1):
    t0 = time.monotonic()
    ops, z, sol = tc1["ops"], tc1["z"], tc1["sol"]
    assert 800 <= ops.n <= 1500
    costs = [h.J for h in sol.history]
    monotone = all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
    reduction = sol.history[0].grad_norm / sol.history[-1].grad_norm
    baseline, _ = dc.solve_equilibrium(ops, dc.ControlField.zeros(ops.n))
    d_base = l2_distance(baseline, z, ops.M)
    d_opt = l2_distance(sol.q_star, z, ops.M)
    nonnegative = sol.q_star.values.min() > 0
    ok = monotone and reduction >= 1e3 and d_opt < 0.5 * d_base and nonnegative
    _report(
        5, "static OCP convergence", ok,
        f"J monotone {monotone}; |grad| reduction {reduction:.0f} (>=1e3); "
        f"tracking {d_opt:.3f} vs 0.5*baseline {0.5 * d_base:.3f}; "
        f"equilibrium min {sol.q_star.values.min():.2e} (>0)",
        time.monotonic() - t0 + tc1["solve_seconds"], 300,
    )


def test_criterion_06_global_stabilization(tc1):
    t0 = time.monotonic()
    ops, sol, cfg = tc1["ops"], tc1["sol"], tc1["cfg"]
    initials = {
        "gaussian(-0.5,-0.5)": dc.gaussian_density(ops, (-0.5, -0.5), 0.09),
        "gaussian(-0.5,+0.5)": dc.gaussian_density(ops, (-0.5, 0.5), 0.09),
        "uniform": dc.uniform_density(ops),
    }
    details = []
    ok = True
    for name, q0 in initials.items():
        traj = dc.simulate(
            ops, q0, sol.u_star, T=3.0, dt=0.03, theta=cfg.theta, lumped=cfg.lumped
        )
        lyap = 0.5 * sq_norms(ops.M, traj.states, sol.q_star.values)
        dists = np.sqrt(2.0 * lyap)
        strictly = bool(np.all(np.diff(lyap) < 1e-12 * max(lyap[0], 1.0)))
        ratio = float(dists[-1] / dists[0])
        ok = ok and strictly and ratio < 1e-3
        details.append(f"{name}: ratio {ratio:.2e}, lyapunov strict {strictly}")
    _report(
        6, "global stabilization", ok,
        "; ".join(details) + " (ratios <1e-3 by t=3)",
        time.monotonic() - t0, 120,
    )


def test_criterion_07_dynamic_speedup_turnpike(tc1, monkeypatch):
    t0 = time.monotonic()
    ops, sol = tc1["ops"], tc1["sol"]
    q0 = dc.gaussian_density(ops, (-0.5, -0.5), 0.09)
    dcfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-6, max_iter=25,
        theta=0.5, lumped=False, dt=0.03, T=3.0,
    )
    dyn, solve_counts = _counted_dynamic_solve(monkeypatch, ops, q0, sol, dcfg)
    traj_static = dc.simulate(
        ops, q0, sol.u_star, T=3.0, dt=0.03, theta=0.5, lumped=False
    )
    d_static_T = l2_distance(traj_static.states[-1], sol.q_star.values, ops.M)
    d_dyn_T = float(dyn.state_distances[-1])
    endpoint_ratio = d_dyn_T / d_static_T
    turnpike_ratio = float(dyn.control_distances[-1] / dyn.control_distances[0])
    costs = [h.J for h in dyn.history]
    monotone = all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
    ok = endpoint_ratio <= 0.5 and turnpike_ratio <= 0.1 and monotone
    _report(
        7, "dynamic speedup and turnpike", ok,
        f"endpoint ratio {endpoint_ratio:.3f} (<=0.5); final/first control "
        f"distance {turnpike_ratio:.2e} (<=0.1); J_t monotone {monotone}; {solve_counts}",
        time.monotonic() - t0, 600,
    )


def test_criterion_08_two_chamber_contrast(monkeypatch):
    t0 = time.monotonic()
    mesh = dc.generate_rect_mesh(
        (-1, -1, 1, 1), 0.06, holes=[dc.Rect(-0.08, -0.84, 0.08, 0.84)]
    )
    ops = dc.assemble_operators(mesh, mu=1.0)
    z = dc.indicator_density(
        ops, [dc.Rect(-0.75, -0.2, -0.35, 0.2), dc.Rect(0.35, -0.2, 0.75, 0.2)]
    )
    sol = solve_static_ocp(
        ops, z, OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=2e-6, max_iter=700)
    )
    q0 = dc.gaussian_density(ops, (-0.55, 0.0), 0.12)

    long_traj = dc.simulate(
        ops, q0, sol.u_star, T=99.99, dt=0.03, theta=0.5, lumped=False
    )
    d_static = np.sqrt(sq_norms(ops.M, long_traj.states, sol.q_star.values))
    threshold = 0.25 * d_static[0]
    hit_static = d_static <= threshold
    t_static = float(long_traj.times[np.argmax(hit_static)]) if hit_static.any() else np.inf
    eventual = float(d_static[-1] / d_static[0])

    dcfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-6, max_iter=15,
        theta=0.5, lumped=False, dt=0.03, T=3.0,
    )
    dyn, solve_counts = _counted_dynamic_solve(monkeypatch, ops, q0, sol, dcfg)
    hit_dyn = dyn.state_distances <= threshold
    t_dyn = (
        float(dyn.trajectory.times[np.argmax(hit_dyn)]) if hit_dyn.any() else np.inf
    )
    factor = t_static / t_dyn
    ok = np.isfinite(factor) and factor >= 10.0 and eventual < 0.1
    _report(
        8, "two-chamber slow/fast contrast", ok,
        f"time to 0.25*d0: static {t_static:.2f}s vs dynamic {t_dyn:.2f}s, "
        f"factor {factor:.0f} (>=10, observed factor-100 level logged); "
        f"100s run final/initial {eventual:.3f} (<0.1); {solve_counts}",
        time.monotonic() - t0, 600,
    )


def test_criterion_09_drift_robustness(monkeypatch):
    t0 = time.monotonic()
    mesh = dc.generate_rect_mesh(
        (-1, -1, 1, 1), 0.07,
        holes=[dc.Circle(-0.45, 0.35, 0.16), dc.Circle(0.45, -0.35, 0.16)],
    )
    ops = dc.assemble_operators(mesh, mu=1.0, drift=dc.DRIFT_PRESETS["swirl"])
    z = dc.indicator_density(
        ops, [dc.Rect(-0.65, 0.25, -0.15, 0.75), dc.Rect(0.15, 0.25, 0.65, 0.75)]
    )
    sol = solve_static_ocp(
        ops, z, OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=5e-6, max_iter=700)
    )
    q0 = dc.indicator_density(ops, [dc.Rect(-0.85, -0.85, -0.45, -0.45)])
    zero = dc.ControlField.zeros(ops.n)
    q_drift, _ = dc.solve_equilibrium(ops, zero)
    series_T = 6.0

    traj_un = dc.simulate(ops, q0, zero, T=series_T, dt=0.03, theta=0.5, lumped=False)
    d_un_qstar = np.sqrt(sq_norms(ops.M, traj_un.states, sol.q_star.values))
    d_un_drift = np.sqrt(sq_norms(ops.M, traj_un.states, q_drift.values))

    traj_c = dc.simulate(ops, q0, sol.u_star, T=series_T, dt=0.03, theta=0.5, lumped=False)
    d_c = np.sqrt(sq_norms(ops.M, traj_c.states, sol.q_star.values))

    dcfg = OcpConfig(
        alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-6, max_iter=25,
        theta=0.5, lumped=False, dt=0.03, T=3.0,
    )
    dyn, solve_counts = _counted_dynamic_solve(monkeypatch, ops, q0, sol, dcfg)
    # extend the optimized run to the series horizon under the static field
    # (the time-varying control has already merged into it by t = 3)
    tail = dc.simulate(
        ops, dyn.trajectory.states[-1], sol.u_star, T=series_T - 3.0, dt=0.03,
        theta=0.5, lumped=False,
    )
    d_dyn_final = l2_distance(tail.states[-1], sol.q_star.values, ops.M)
    d0 = float(dyn.state_distances[0])

    uncontrolled_elsewhere = (
        d_un_qstar[-1] / d_un_qstar[0] > 0.1 and d_un_drift[-1] / d_un_drift[0] < 1e-2
    )
    static_converges = d_c[-1] / d_c[0] < 1e-3
    dynamic_converges = d_dyn_final / d0 < 1e-3
    ok = uncontrolled_elsewhere and static_converges and dynamic_converges
    _report(
        9, "drift robustness", ok,
        f"uncontrolled: to q* {d_un_qstar[-1] / d_un_qstar[0]:.2f} (stays away), "
        f"to drift equilibrium {d_un_drift[-1] / d_un_drift[0]:.1e}; controlled "
        f"static {d_c[-1] / d_c[0]:.2e}, dynamic {d_dyn_final / d0:.2e} (<1e-3); "
        f"{solve_counts}",
        time.monotonic() - t0, 600,
    )


def test_criterion_10_particle_pde_consistency():
    t0 = time.monotonic()
    # scenario-1 geometry at coarse resolution; a smooth target keeps the
    # control resolvable by the explicit particle scheme
    mesh = dc.generate_rect_mesh((-1, -1, 1, 1), 0.1, holes=[dc.Circle(0, 0, 0.2)])
    ops = dc.assemble_operators(mesh, mu=1.0)
    z = dc.gaussian_density(ops, (0.4, 0.4), 0.35)
    sol = solve_static_ocp(
        ops, z, OcpConfig(alpha=1.0, beta=1e-2, beta_g=1e-4, tol=1e-5, max_iter=400)
    )
    q0 = dc.gaussian_density(ops, (-0.5, -0.5), 0.18)
    dt, sub = 0.03, 10
    traj = dc.simulate(ops, q0, sol.u_star, T=3.0, dt=dt, theta=0.5, lumped=False)

    domain = MeshDomain(mesh)
    vel = NodalVelocity(domain.locator, sol.u_star.ux, sol.u_star.uy)
    rng = np.random.default_rng(42)
    ens = sample_initial(q0, domain.locator, 100_000, seed=42)
    rows = []
    step = 0
    for target_step in (20, 40, 60, 80, 100):
        while step < target_step:
            for _ in range(sub):
                ens = step_particles(ens, domain, vel, mu=1.0, dt=dt / sub, rng=rng)
            step += 1
        rho = empirical_density(ens, mesh)
        dist = l2_distance(rho, traj.states[step], ops.M)
        floor = float(np.sqrt(np.clip(traj.states[step], 0.0, None).sum() / ens.n))
        rows.append((step * dt, dist / floor))
    worst = max(r[1] for r in rows)
    _report(
        10, "particle/PDE consistency", worst <= 3.0,
        "ratios at checkpoints "
        + ", ".join(f"t={t:.1f}: {r:.2f}" for t, r in rows)
        + " (<=3x noise floor, N=1e5)",
        time.monotonic() - t0, 300,
    )


def test_criterion_11_determinism(tmp_path):
    t0 = time.monotonic()
    import json
    import os

    from densctl.cli import main

    cfg = {
        "mesh": {"generate": {"bounds": [0, 0, 1, 1], "target_h": 0.22, "holes": []}},
        "mu": 1.0,
        "target": {"type": "gaussian", "center": [0.6, 0.6], "sigma": 0.2},
        "initial": {"type": "gaussian", "center": [0.3, 0.3], "sigma": 0.15},
        "ocp": {"alpha": 1.0, "beta": 1e-3, "beta_g": 1e-5, "tol": 1e-4,
                "max_iter": 60, "theta": 0.5, "lumped": False, "dt": 0.05, "T": 0.25},
        "dynamic": {"max_iter": 3, "tol": 1e-6},
        "seed": 17,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    identical = True
    checked = 0
    pairs = []
    for verb, extra in (
        (["static"], []),
        (["dynamic"], []),
        (["particles"], ["--control", str(tmp_path / "s0" / "static_solution"),
                         "--n", "4000", "--substeps", "2"]),
        (["certify"], ["--control", str(tmp_path / "s0" / "static_solution")]),
    ):
        outs = []
        for tag in ("0", "1"):
            out = tmp_path / f"{verb[0][0]}{tag}"
            assert main(verb + ["--config", str(cfg_path), "--out", str(out)] + extra) == 0
            outs.append(out)
        for root, _, files in os.walk(outs[0]):
            for name in files:
                if not name.endswith(".csv"):
                    continue
                rel = os.path.relpath(os.path.join(root, name), outs[0])
                a = open(os.path.join(outs[0], rel), "rb").read()
                b = open(os.path.join(outs[1], rel), "rb").read()
                checked += 1
                if a != b:
                    identical = False
                    pairs.append(rel)
    _report(
        11, "determinism", identical and checked > 10,
        f"{checked} CSV files bitwise-identical across repeated runs"
        + (f"; mismatches: {pairs}" if pairs else ""),
        time.monotonic() - t0, 120,
    )
