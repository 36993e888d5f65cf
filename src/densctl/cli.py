"""Command-line interface.

Verbs: mesh gen | mesh check, static, simulate, dynamic, particles, certify,
and testcase {1,2,3}.  Runs are configured by a JSON file (--config) with
flag overrides; every run echoes its effective configuration to
<out>/config.echo and indexes its outputs in <out>/manifest.csv, so a run is
reproducible byte-for-byte from its own output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, export, fields, presets
from .fem import ControlField, assemble_operators
from .linalg import SolverError
from .mesh import (
    Circle,
    GeometryError,
    MeshError,
    Rect,
    check_mesh_quality,
    generate_rect_mesh,
    load_mesh,
    write_mesh,
)
from .ocp_dynamic import solve_dynamic_ocp
from .ocp_static import ArmijoParams, OcpConfig, solve_static_ocp
from .particles import (
    MeshDomain,
    empirical_density,
    p1_velocity,
    sample_initial,
    step_particles,
)
from .state import density_from_values, simulate, solve_equilibrium

DEFAULT_CONFIG = {
    "mesh": {
        "generate": {
            "bounds": [-1.0, -1.0, 1.0, 1.0],
            "target_h": 0.1,
            "holes": [],
        }
    },
    "mu": 1.0,
    "drift": None,
    "target": {"type": "uniform"},
    "initial": {"type": "uniform"},
    "ocp": {
        "alpha": 1.0,
        "beta": 1e-3,
        "beta_g": 1e-5,
        "tol": 1e-6,
        "max_iter": 400,
        "armijo": {"c1": 1e-4, "shrink": 0.5, "max_backtracks": 30},
        "theta": 1.0,
        "lumped": True,
        "dt": 0.03,
        "T": 3.0,
    },
    "dynamic": {"max_iter": 25, "tol": 1e-6},
    "out_dir": "out",
    "seed": 0,
    "vtk": False,
}


class ConfigError(Exception):
    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def _merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(args) -> dict:
    cfg = DEFAULT_CONFIG
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = _merge(cfg, json.load(fh))
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {args.config}"])
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"])
    if getattr(args, "out", None):
        cfg = _merge(cfg, {"out_dir": args.out})
    if getattr(args, "seed", None) is not None:
        cfg = _merge(cfg, {"seed": args.seed})
    validate_config(cfg)
    return cfg


def validate_config(cfg) -> None:
    """Collect every problem before failing, not just the first."""
    problems = []
    mesh = cfg.get("mesh", {})
    if "file" in mesh:
        if not os.path.exists(mesh["file"]):
            problems.append(f"mesh file does not exist: {mesh['file']}")
    elif "generate" in mesh:
        gen = mesh["generate"]
        if len(gen.get("bounds", [])) != 4:
            problems.append("mesh.generate.bounds must be [x0, y0, x1, y1]")
        if not gen.get("target_h", 0) > 0:
            problems.append("mesh.generate.target_h must be positive")
        for k, hole in enumerate(gen.get("holes", [])):
            if hole.get("type") not in ("circle", "rect"):
                problems.append(f"hole {k}: type must be 'circle' or 'rect'")
    else:
        problems.append("mesh must specify either 'file' or 'generate'")
    if not cfg.get("mu", 0) > 0:
        problems.append("mu must be positive")
    drift = cfg.get("drift")
    if drift is not None and drift not in fields.DRIFT_PRESETS:
        problems.append(
            f"unknown drift preset {drift!r}; available: {sorted(fields.DRIFT_PRESETS)}"
        )
    for name in ("target", "initial"):
        spec = cfg.get(name, {})
        kind = spec.get("type")
        if kind not in ("uniform", "gaussian", "indicator", "nodal"):
            problems.append(f"{name}.type must be uniform|gaussian|indicator|nodal")
        elif kind == "gaussian" and not spec.get("sigma", 0) > 0:
            problems.append(f"{name}.sigma must be positive")
        elif kind == "indicator" and not spec.get("regions"):
            problems.append(f"{name}.regions must be a nonempty list")
        elif kind == "nodal" and not os.path.exists(spec.get("file", "")):
            problems.append(f"{name}.file does not exist: {spec.get('file')}")
    ocp = cfg.get("ocp", {})
    try:
        _ocp_config(ocp)
    except (ValueError, TypeError) as exc:
        problems.append(f"ocp: {exc}")
    if problems:
        raise ConfigError(problems)


def _ocp_config(ocp: dict) -> OcpConfig:
    armijo = ocp.get("armijo", {})
    return OcpConfig(
        alpha=ocp["alpha"],
        beta=ocp["beta"],
        beta_g=ocp["beta_g"],
        tol=ocp["tol"],
        max_iter=ocp["max_iter"],
        armijo=ArmijoParams(
            c1=armijo.get("c1", 1e-4),
            shrink=armijo.get("shrink", 0.5),
            max_backtracks=armijo.get("max_backtracks", 30),
        ),
        theta=ocp.get("theta", 1.0),
        lumped=ocp.get("lumped", True),
        dt=ocp["dt"],
        T=ocp["T"],
        mu=ocp.get("mu", 1.0),
    )


def _holes(specs):
    out = []
    for spec in specs:
        if spec["type"] == "circle":
            cx, cy = spec["center"]
            out.append(Circle(cx, cy, spec["radius"]))
        else:
            out.append(Rect(*spec["bounds"]))
    return out


def build_mesh(cfg):
    mesh_cfg = cfg["mesh"]
    if "file" in mesh_cfg:
        return load_mesh(mesh_cfg["file"])
    gen = mesh_cfg["generate"]
    return generate_rect_mesh(
        tuple(gen["bounds"]), gen["target_h"], holes=_holes(gen.get("holes", []))
    )


def build_problem(cfg):
    """(mesh, operators, target density, initial density) for a run config."""
    mesh = build_mesh(cfg)
    drift = fields.DRIFT_PRESETS[cfg["drift"]] if cfg.get("drift") else None
    ops = assemble_operators(mesh, mu=cfg["mu"], drift=drift)
    z = _density_from_spec(ops, cfg["target"])
    q0 = _density_from_spec(ops, cfg["initial"])
    return mesh, ops, z, q0


def _density_from_spec(ops, spec):
    kind = spec["type"]
    if kind == "uniform":
        return fields.uniform_density(ops)
    if kind == "gaussian":
        return fields.gaussian_density(ops, tuple(spec["center"]), spec["sigma"])
    if kind == "indicator":
        return fields.indicator_density(ops, _holes(spec["regions"]))
    return fields.density_from_file(ops, spec["file"])


def _echo_config(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.echo"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_control(ops, source):
    """Control from 'zero', a static_solution directory, or a dynamic one."""
    if source == "zero":
        return ControlField.zeros(ops.n)
    ux_path = os.path.join(source, "u_x.csv")
    if os.path.exists(ux_path):
        ux = export.read_vector_csv(ux_path, ops.n)
        uy = export.read_vector_csv(os.path.join(source, "u_y.csv"), ops.n)
        return ControlField(ux, uy)
    ctrl_dir = os.path.join(source, "controls")
    if os.path.isdir(ctrl_dir):
        files = sorted(f for f in os.listdir(ctrl_dir) if f.startswith("u_x_"))
        controls = []
        for fx in files:
            ux = export.read_vector_csv(os.path.join(ctrl_dir, fx), ops.n)
            uy = export.read_vector_csv(
                os.path.join(ctrl_dir, fx.replace("u_x_", "u_y_")), ops.n
            )
            controls.append(ControlField(ux, uy))
        return controls
    raise ConfigError([f"no control found at {source!r} (expected u_x.csv or controls/)"])


# ---------------------------------------------------------------------------
# command implementations


def cmd_mesh(args) -> int:
    if args.action == "gen":
        cfg = load_config(args)
        mesh = build_mesh(cfg)
        _echo_config(cfg, cfg["out_dir"])
        out = args.mesh_out or os.path.join(cfg["out_dir"], "mesh.txt")
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        write_mesh(mesh, out)
        rep = check_mesh_quality(mesh)
        print(
            f"wrote {out}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles, "
            f"area {mesh.domain_area!r}, strict_delaunay {rep.is_strict_delaunay}"
        )
        return 0
    mesh = load_mesh(args.mesh_file)
    rep = check_mesh_quality(mesh)
    print(
        f"{args.mesh_file}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles, "
        f"area {mesh.domain_area!r}"
    )
    print(
        f"strict_delaunay {rep.is_strict_delaunay}, min_angle {rep.min_angle!r} rad, "
        f"worst_edge {rep.worst_edge}"
    )
    return 0


def _write_static_solution(out_dir, mesh, ops, z, sol, manifest):
    sdir = os.path.join(out_dir, "static_solution")
    os.makedirs(sdir, exist_ok=True)
    export.write_control_csvs(sdir, mesh, sol.u_star)
    export.write_density_csv(os.path.join(sdir, "q_star.csv"), mesh, sol.q_star.values)
    export.write_density_csv(os.path.join(sdir, "lambda.csv"), mesh, sol.adjoint.values)
    export.write_density_csv(os.path.join(sdir, "target.csv"), mesh, z.values)
    export.write_history_csv(os.path.join(sdir, "history.csv"), sol.history)
    for name in ("u_x.csv", "u_y.csv", "q_star.csv", "lambda.csv", "target.csv", "history.csv"):
        manifest.add(f"static_solution/{name}", "static solution")


def cmd_static(args) -> int:
    cfg = load_config(args)
    out_dir = cfg["out_dir"]
    _echo_config(cfg, out_dir)
    mesh, ops, z, _ = build_problem(cfg)
    sol = solve_static_ocp(ops, z, _ocp_config(cfg["ocp"]))
    manifest = export.Manifest(out_dir)
    manifest.add("config.echo", "configuration")
    _write_static_solution(out_dir, mesh, ops, z, sol, manifest)
    manifest.write()
    last = sol.history[-1]
    print(
        f"static OCP: stopped ({sol.reason}) after {last.iteration} iterations, "
        f"J={float(last.J)!r}, |grad|={float(last.grad_norm)!r}"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    out_dir = cfg["out_dir"]
    _echo_config(cfg, out_dir)
    mesh, ops, z, q0 = build_problem(cfg)
    control = load_control(ops, args.control)
    ocp = cfg["ocp"]
    T = args.t_final if args.t_final is not None else ocp["T"]
    traj = simulate(
        ops, q0, control, T=T, dt=ocp["dt"], theta=ocp["theta"], lumped=ocp["lumped"]
    )
    reference = (
        solve_equilibrium(ops, control)[0] if isinstance(control, ControlField) else z
    )
    manifest = export.Manifest(out_dir)
    manifest.add("config.echo", "configuration")
    export.write_trajectory(
        os.path.join(out_dir, "trajectory"),
        mesh,
        traj,
        reference=reference,
        M=ops.M,
        every=args.every,
        vtk=cfg.get("vtk", False),
    )
    manifest.add("trajectory/manifest.csv", "trajectory index")
    manifest.write()
    print(
        f"simulated {traj.n_steps} steps; final mass error "
        f"{float(traj.mass_errors().max())!r}, min density {float(traj.min_values.min())!r}"
    )
    return 0


def _write_dynamic_solution(out_dir, mesh, dyn, manifest):
    ddir = os.path.join(out_dir, "dynamic_solution")
    cdir = os.path.join(ddir, "controls")
    os.makedirs(cdir, exist_ok=True)
    for i, cf in enumerate(dyn.control.controls):
        export.write_control_csvs(cdir, mesh, cf, suffix=f"_{i:05d}")
    export.write_history_csv(os.path.join(ddir, "history.csv"), dyn.history)
    export.write_csv(
        os.path.join(ddir, "turnpike.csv"),
        ["time", "u_dist_to_static", "q_dist_to_static"],
        zip(dyn.trajectory.times, dyn.control_distances, dyn.state_distances),
    )
    manifest.add("dynamic_solution/history.csv", "dynamic iteration history")
    manifest.add("dynamic_solution/turnpike.csv", "turnpike metrics")
    manifest.add("dynamic_solution/controls/", "per-time-node controls")


def cmd_dynamic(args) -> int:
    cfg = load_config(args)
    out_dir = cfg["out_dir"]
    _echo_config(cfg, out_dir)
    mesh, ops, z, q0 = build_problem(cfg)
    static = solve_static_ocp(ops, z, _ocp_config(cfg["ocp"]))
    dyn_cfg = _ocp_config(_merge(cfg["ocp"], cfg.get("dynamic", {})))
    dyn = solve_dynamic_ocp(ops, q0, static, dyn_cfg)
    manifest = export.Manifest(out_dir)
    manifest.add("config.echo", "configuration")
    _write_static_solution(out_dir, mesh, ops, z, static, manifest)
    _write_dynamic_solution(out_dir, mesh, dyn, manifest)
    export.write_trajectory(
        os.path.join(out_dir, "dynamic_solution", "trajectory"),
        mesh,
        dyn.trajectory,
        reference=static.q_star,
        M=ops.M,
        every=args.every,
        vtk=cfg.get("vtk", False),
    )
    manifest.add("dynamic_solution/trajectory/manifest.csv", "optimized trajectory")
    manifest.write()
    last = dyn.history[-1]
    print(
        f"dynamic OCP: stopped ({dyn.reason}) after {len(dyn.history)} iterations, "
        f"J_t={float(last.J)!r}, "
        f"final control distance {float(dyn.control_distances[-1])!r}"
    )
    return 0


def cmd_particles(args) -> int:
    cfg = load_config(args)
    out_dir = cfg["out_dir"]
    _echo_config(cfg, out_dir)
    mesh, ops, z, q0 = build_problem(cfg)
    control = load_control(ops, args.control)
    if not isinstance(control, ControlField):
        raise ConfigError(["particles require a static control (zero or static dir)"])
    ocp = cfg["ocp"]
    dt, T = ocp["dt"], args.t_final if args.t_final is not None else ocp["T"]
    n_steps = round(T / dt)
    sub = max(1, args.substeps)

    domain = MeshDomain(mesh)
    drift = fields.DRIFT_PRESETS[cfg["drift"]] if cfg.get("drift") else None
    vel = p1_velocity(domain.locator, control.ux, control.uy, drift=drift)
    traj = simulate(ops, q0, control, T=T, dt=dt, theta=ocp["theta"], lumped=ocp["lumped"])

    rng = np.random.default_rng(cfg["seed"])
    ens = sample_initial(q0, mesh, args.n, seed=cfg["seed"])
    pdir = os.path.join(out_dir, "particles")
    os.makedirs(pdir, exist_ok=True)
    manifest = export.Manifest(out_dir)
    manifest.add("config.echo", "configuration")

    checkpoints = sorted({min(max(1, n_steps // 5) * k, n_steps) for k in range(1, 6)})
    rows = []
    step = 0
    for target_step in checkpoints:
        while step < target_step:
            for _ in range(sub):
                ens = step_particles(ens, domain, vel, mu=cfg["mu"], dt=dt / sub, rng=rng)
            step += 1
        rho = empirical_density(ens, mesh, domain.locator)
        dist = analysis.l2_distance(rho, density_from_values(ops, traj.states[step]), ops.M)
        floor = float(np.sqrt(np.clip(traj.states[step], 0.0, None).sum() / ens.n))
        rows.append((step * dt, dist, floor, dist / floor))
        export.write_csv(
            os.path.join(pdir, f"ensemble_{step:05d}.csv"),
            ["id", "x", "y"],
            ((i, p[0], p[1]) for i, p in enumerate(ens.positions)),
        )
        export.write_density_csv(
            os.path.join(pdir, f"empirical_{step:05d}.csv"), mesh, rho.values
        )
    export.write_csv(
        os.path.join(pdir, "comparison.csv"),
        ["time", "l2_dist_to_pde", "noise_floor", "ratio"],
        rows,
    )
    manifest.add("particles/comparison.csv", "particle vs PDE distances")
    manifest.write()
    worst = max(r[3] for r in rows)
    print(f"particles: worst distance/floor ratio {float(worst)!r} over {len(rows)} checkpoints")
    return 0


def cmd_certify(args) -> int:
    cfg = load_config(args)
    out_dir = cfg["out_dir"]
    _echo_config(cfg, out_dir)
    mesh, ops, z, q0 = build_problem(cfg)
    control = load_control(ops, args.control)
    if not isinstance(control, ControlField):
        raise ConfigError(["certify requires a static control (zero or static dir)"])
    ocp = cfg["ocp"]
    qeq, _ = solve_equilibrium(ops, control)
    traj = simulate(
        ops, q0, control, T=ocp["T"], dt=ocp["dt"], theta=1.0, lumped=True
    )
    report = analysis.certify(ops, control, trajectory=traj, reference=qeq)
    rows = [
        ("kernel_dim_state", report.kernel_dim_state, "1", ""),
        ("left_kernel_residual", report.left_kernel_residual, "1e-12", ""),
        ("adjoint_kernel_residual", report.details["adjoint_kernel_residual"], "1e-12", ""),
        ("gap_ratio", report.details["gap_ratio"], ">1e6", ""),
        ("min_sym_eigenvalue_M0", report.min_symmetric_eigenvalue_on_M0, ">0", ""),
        ("lyapunov_monotone", report.lyapunov_monotone, "true", ""),
        ("final_l2_distance", report.details.get("final_l2_distance"), "", ""),
    ]
    export.write_csv(
        os.path.join(out_dir, "certificate.csv"),
        ["check", "value", "expectation", "note"],
        [(a, "" if b is None else b, c, d) for a, b, c, d in rows],
    )
    with open(os.path.join(out_dir, "certificate.txt"), "w", encoding="ascii") as fh:
        fh.write("structural certificates\n")
        fh.write("=======================\n")
        for name, value, expect, _ in rows:
            fh.write(f"{name:28s} {value!r:>24}   (expected {expect})\n")
    manifest = export.Manifest(out_dir)
    manifest.add("config.echo", "configuration")
    manifest.add("certificate.csv", "certificate table")
    manifest.add("certificate.txt", "certificate summary")
    manifest.write()
    print(
        f"certificate: kernel dim {report.kernel_dim_state}, "
        f"left kernel residual {report.left_kernel_residual!r}, "
        f"lyapunov monotone {report.lyapunov_monotone}"
    )
    return 0


def cmd_testcase(args) -> int:
    number = args.number
    cfg = presets.testcase_config(number, paper_scale=args.paper_scale)
    if getattr(args, "out", None):
        cfg["out_dir"] = args.out
    else:
        cfg.setdefault("out_dir", f"testcase{number}")
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    out_dir = cfg["out_dir"]
    _echo_config(cfg, out_dir)
    manifest = export.Manifest(out_dir)
    manifest.add("config.echo", "configuration")

    mesh, ops, z, q0 = build_problem(cfg)
    write_mesh(mesh, os.path.join(out_dir, "mesh.txt"))
    manifest.add("mesh.txt", "mesh")

    ocp_cfg = _ocp_config(cfg["ocp"])
    static = solve_static_ocp(ops, z, ocp_cfg)
    _write_static_solution(out_dir, mesh, ops, z, static, manifest)
    print(
        f"[testcase {number}] static OCP stopped ({static.reason}) at "
        f"|grad|={float(static.history[-1].grad_norm)!r}"
    )

    # stabilization from the preset initial conditions under the static field
    series_T = cfg.get("series_T", ocp_cfg.T)
    initials = [cfg["initial"]] + cfg.get("extra_initials", [])
    sdir = os.path.join(out_dir, "stabilization")
    os.makedirs(sdir, exist_ok=True)
    for k, spec in enumerate(initials, start=1):
        qk = _density_from_spec(ops, spec)
        traj = simulate(
            ops, qk, static.u_star, T=series_T, dt=ocp_cfg.dt,
            theta=ocp_cfg.theta, lumped=ocp_cfg.lumped,
        )
        rows, monotone, final = analysis.convergence_report(traj, static.q_star, ops)
        export.write_csv(
            os.path.join(sdir, f"ic_{k}.csv"),
            ["step", "time", "l2_dist", "lyapunov"],
            rows,
        )
        manifest.add(f"stabilization/ic_{k}.csv", "convergence series")
        print(
            f"[testcase {number}] ic {k}: final/initial distance "
            f"{float(final / rows[0][2])!r}, lyapunov monotone {monotone}"
        )

    if cfg.get("long_T"):
        traj = simulate(
            ops, q0, static.u_star, T=cfg["long_T"], dt=ocp_cfg.dt,
            theta=ocp_cfg.theta, lumped=ocp_cfg.lumped,
        )
        rows, _, final = analysis.convergence_report(traj, static.q_star, ops)
        export.write_csv(
            os.path.join(out_dir, "static_long_run.csv"),
            ["step", "time", "l2_dist", "lyapunov"],
            rows[:: max(1, len(rows) // 2000)],
        )
        manifest.add("static_long_run.csv", "long-horizon static-control series")
        print(f"[testcase {number}] long static run final distance {float(final)!r}")

    # uncontrolled comparison series when a drift field is present
    if cfg.get("drift"):
        zero = ControlField.zeros(ops.n)
        traj_un = simulate(
            ops, q0, zero, T=series_T, dt=ocp_cfg.dt,
            theta=ocp_cfg.theta, lumped=ocp_cfg.lumped,
        )
        rows, _, final = analysis.convergence_report(traj_un, static.q_star, ops)
        export.write_csv(
            os.path.join(out_dir, "uncontrolled.csv"),
            ["step", "time", "l2_dist", "lyapunov"],
            rows,
        )
        manifest.add("uncontrolled.csv", "uncontrolled (drift only) series")
        print(f"[testcase {number}] uncontrolled final distance to q* {float(final)!r}")

    # dynamic speedup
    dyn_cfg = _ocp_config(_merge(cfg["ocp"], cfg.get("dynamic", {})))
    dyn = solve_dynamic_ocp(ops, q0, static, dyn_cfg)
    _write_dynamic_solution(out_dir, mesh, dyn, manifest)

    traj_static = simulate(
        ops, q0, static.u_star, T=dyn_cfg.T, dt=dyn_cfg.dt,
        theta=dyn_cfg.theta, lumped=dyn_cfg.lumped,
    )
    d_static = [
        analysis.l2_distance(traj_static.states[i], static.q_star.values, ops.M)
        for i in range(traj_static.n_steps + 1)
    ]
    export.write_csv(
        os.path.join(out_dir, "comparison.csv"),
        ["time", "static_control_dist", "dynamic_control_dist"],
        zip(traj_static.times, d_static, dyn.state_distances),
    )
    manifest.add("comparison.csv", "static vs dynamic convergence")
    manifest.write()
    print(
        f"[testcase {number}] endpoint distance: static {float(d_static[-1])!r}, "
        f"dynamic {float(dyn.state_distances[-1])!r}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densctl",
        description="Density control by velocity fields on triangular FEM meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed (overrides config)")

    p_mesh = sub.add_parser("mesh", help="generate or check meshes")
    mesh_sub = p_mesh.add_subparsers(dest="action", required=True)
    p_gen = mesh_sub.add_parser("gen", help="generate a mesh from the config")
    common(p_gen)
    p_gen.add_argument("--mesh-out", help="output mesh path")
    p_gen.set_defaults(func=cmd_mesh)
    p_check = mesh_sub.add_parser("check", help="validate a mesh file")
    p_check.add_argument("mesh_file")
    p_check.set_defaults(func=cmd_mesh)

    p_static = sub.add_parser("static", help="solve the static control problem")
    common(p_static)
    p_static.set_defaults(func=cmd_static)

    p_sim = sub.add_parser("simulate", help="integrate the density dynamics")
    common(p_sim)
    p_sim.add_argument("--control", default="zero", help="zero | solution directory")
    p_sim.add_argument("--t-final", type=float, default=None)
    p_sim.add_argument("--every", type=int, default=10, help="snapshot stride")
    p_sim.set_defaults(func=cmd_simulate)

    p_dyn = sub.add_parser("dynamic", help="solve the time-varying control problem")
    common(p_dyn)
    p_dyn.add_argument("--every", type=int, default=10)
    p_dyn.set_defaults(func=cmd_dynamic)

    p_part = sub.add_parser("particles", help="agent simulation vs the PDE")
    common(p_part)
    p_part.add_argument("--control", default="zero")
    p_part.add_argument("--n", type=int, default=100000)
    p_part.add_argument("--t-final", type=float, default=None)
    p_part.add_argument("--substeps", type=int, default=10,
                        help="particle substeps per PDE step")
    p_part.set_defaults(func=cmd_particles)

    p_cert = sub.add_parser("certify", help="numerical structure certificates")
    common(p_cert)
    p_cert.add_argument("--control", default="zero")
    p_cert.set_defaults(func=cmd_certify)

    p_tc = sub.add_parser("testcase", help="run a built-in benchmark scenario")
    p_tc.add_argument("number", type=int, choices=(1, 2, 3))
    p_tc.add_argument("--out", help="output directory")
    p_tc.add_argument("--seed", type=int)
    p_tc.add_argument("--paper-scale", action="store_true",
                      help="refine the mesh to the full benchmark size")
    p_tc.set_defaults(func=cmd_testcase)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: config: {problem}", file=sys.stderr)
        return 2
    except (MeshError, GeometryError, SolverError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
