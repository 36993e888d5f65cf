"""Command-line interface.

Verbs: mesh gen | mesh check, static, simulate, dynamic, particles, certify,
and testcase {1,2,3}.  A run's configuration is DEFAULT_CONFIG (for
testcase, the built-in scenario) merged with a JSON file (--config), then
with the overrides --out, --seed and --t-final (ocp.T), all applied in
`load_config`.  Every verb but mesh starts in `_start`: the configuration is
parsed once into a `Run` (`parse_config`), the problem built and the --control
loaded; then the configuration is echoed to <out>/config.echo and listed
first in <out>/manifest.csv, the index of the run's outputs.  A verb takes
each output's path from ``Manifest.path``, which lists it, so no output is
written unlisted.  A problem in
the configuration (an unknown ocp or armijo key included) or in --control
exits 2 before any output is written.  A run is reproducible byte-for-byte
from its own output directory: config.echo replays it as a new --config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import analysis, export, fields, presets
from .fem import ControlField, assemble_operators, sq_norms
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
from .ocp_static import ArmijoParams, OcpConfig, _integer, _real, solve_static_ocp
from .particles import (
    MeshDomain,
    NodalVelocity,
    empirical_density,
    sample_initial,
    step_particles,
)
from .state import _controls_for_grid, _n_steps, _vals, simulate, solve_equilibrium, theta_sweep

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
    "ocp": asdict(OcpConfig(max_iter=400)),
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


def load_config(args, base=DEFAULT_CONFIG) -> Run:
    """``base`` merged with --config, then with the flag overrides; parsed."""
    cfg = base
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {args.config}"])
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"])
        except UnicodeDecodeError as exc:
            raise ConfigError([f"config is not UTF-8: {exc}"])
        except OSError as exc:
            raise ConfigError([f"cannot read config {args.config}: {exc.strerror}"])
        if not isinstance(doc, dict):
            raise ConfigError([f"config must be a JSON object, not {type(doc).__name__}"])
        cfg = _merge(cfg, doc)
    if getattr(args, "out", None):
        cfg = _merge(cfg, {"out_dir": args.out})
    if getattr(args, "seed", None) is not None:
        cfg = _merge(cfg, {"seed": args.seed})
    if getattr(args, "t_final", None) is not None:
        cfg = _merge(cfg, {"ocp": {"T": args.t_final}})
    return parse_config(cfg)


@dataclass(frozen=True)
class Run:
    """A configuration parsed into the objects a run uses, densities as builders
    ``ops -> DensityField``; ``echo``, the merged configuration, is for config.echo."""

    mesh: Callable  # () -> Mesh: load_mesh or generate_rect_mesh with its arguments
    mu: float
    drift: Callable | None
    target: Callable
    initial: Callable
    extra_initials: list[Callable]
    ocp: OcpConfig
    dynamic: OcpConfig  # ocp merged with the dynamic section
    out_dir: str | None
    seed: int
    vtk: bool
    series_T: float  # horizon of the testcase stabilization series, ocp.T by default
    long_T: float | None  # horizon of the long static-control series, if any
    echo: dict

    def problem(self):
        """(mesh, operators, target density, initial density) of the run; a
        density that cannot be built on the mesh is a ConfigError."""
        mesh = self.mesh()
        ops = assemble_operators(mesh, mu=self.mu, drift=self.drift)
        densities = []
        for name in ("target", "initial"):
            try:  # an unreadable or misfit nodal file, or an empty indicator
                densities.append(getattr(self, name)(ops))
            except (OSError, ValueError) as exc:
                raise ConfigError([f"{name}: {exc}"]) from None
        return mesh, ops, *densities


def _reals(value, k):
    """``value`` as a tuple of k finite real numbers, or None."""
    ok = isinstance(value, (list, tuple)) and len(value) == k and all(map(_real, value))
    return tuple(value) if ok else None


def _positive(value) -> bool:
    return _real(value) and value > 0


def _file(where, path, problems):
    """``path``, with a problem unless it names an existing file."""
    if not isinstance(path, str):
        problems.append(f"{where} must be a path string, got {path!r}")
    elif not os.path.isfile(path):
        problems.append(f"{where} does not exist: {path}")
    return path


def _shape(where, spec, problems):
    """Circle (positive radius) or Rect (x0 < x1, y0 < y1) of a hole or
    indicator-region spec."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind == "circle" and _reals(spec.get("center"), 2) and _real(r := spec.get("radius")):
        if r > 0:
            return Circle(*spec["center"], r)
        problems.append(f"{where}: a circle's radius must be positive, got {r}")
    elif kind == "rect" and (b := _reals(spec.get("bounds"), 4)):
        if b[0] < b[2] and b[1] < b[3]:
            return Rect(*b)
        problems.append(f"{where}: a rect needs x0 < x1 and y0 < y1, got {list(b)}")
    else:
        needs = {"circle": "center [x, y] and a radius", "rect": "bounds [x0, y0, x1, y1]"}
        problems.append(f"{where}: a {kind} needs {needs[kind]}" if kind in ("circle", "rect")
                        else f"{where}: type must be 'circle' or 'rect'")


def _typed(section, path, kind, problems):
    """``section[path[-1]]`` when it has the JSON type ``kind`` (dict or list);
    an empty one when absent, and with a problem when of another type."""
    value = section.get(path[-1], kind())
    if isinstance(value, kind):
        return value
    problems.append(f"{'.'.join(path)} must be {'an object' if kind is dict else 'a list'}")
    return kind()


def _density(name, spec, problems):
    """Builder ``ops -> DensityField`` of a target or initial density spec."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind == "uniform":
        return fields.uniform_density
    if kind == "gaussian" and not _positive(spec.get("sigma")):
        problems.append(f"{name}.sigma must be positive and finite")
    elif kind == "gaussian" and not _reals(spec.get("center"), 2):
        problems.append(f"{name}.center must be [x, y]")
    elif kind == "gaussian":
        return partial(fields.gaussian_density, center=tuple(spec["center"]), sigma=spec["sigma"])
    elif kind == "indicator":
        regions = _typed(spec, (name, "regions"), list, problems)
        shapes = [_shape(f"{name}.regions[{k}]", r, problems) for k, r in enumerate(regions)]
        if not shapes:
            problems.append(f"{name}.regions must be a nonempty list")
        return partial(fields.indicator_density, regions=shapes)
    elif kind == "nodal":
        path = _file(f"{name}.file", spec.get("file"), problems)
        return partial(fields.density_from_file, path=path)
    else:
        problems.append(f"{name}.type must be uniform|gaussian|indicator|nodal")


def parse_config(cfg) -> Run:
    """The Run of a merged configuration, read once.  Every problem is
    collected before failing, not just the first; a section of the wrong
    JSON type is one problem and is then read as empty."""
    problems = []
    mesh = _typed(cfg, ("mesh",), dict, problems)
    if "file" in mesh:
        source = partial(load_mesh, _file("mesh file", mesh["file"], problems))
    elif "generate" in mesh:
        gen = _typed(mesh, ("mesh", "generate"), dict, problems)
        bounds, h = _reals(gen.get("bounds"), 4), gen.get("target_h")
        if bounds is None:
            problems.append("mesh.generate.bounds must be [x0, y0, x1, y1]")
        if not _positive(h):
            problems.append("mesh.generate.target_h must be positive and finite")
        specs = _typed(gen, ("mesh", "generate", "holes"), list, problems)
        holes = [_shape(f"hole {k}", spec, problems) for k, spec in enumerate(specs)]
        source = partial(generate_rect_mesh, bounds, h, holes=holes)
    else:
        problems.append("mesh must specify either 'file' or 'generate'")
    mu, drift, seed = cfg.get("mu"), cfg.get("drift"), cfg.get("seed", 0)
    if not _positive(mu):
        problems.append("mu must be positive and finite")
    if drift is not None and not (isinstance(drift, str) and drift in fields.DRIFT_PRESETS):
        problems.append(
            f"unknown drift preset {drift!r}; available: {sorted(fields.DRIFT_PRESETS)}"
        )
    if not _integer(seed, 0):
        problems.append(f"seed must be a non-negative integer, got {seed!r}")
    out_dir, vtk = cfg.get("out_dir"), cfg.get("vtk", False)
    if "out_dir" in cfg and not (isinstance(out_dir, str) and out_dir):
        problems.append(f"out_dir must be a nonempty path string, got {out_dir!r}")
    if not isinstance(vtk, bool):
        problems.append(f"vtk must be true or false, got {vtk!r}")
    for key in ("series_T", "long_T"):  # horizons of the testcase series
        if key in cfg and not _positive(cfg[key]):
            problems.append(f"{key} must be positive and finite")
    target, initial = [_density(key, _typed(cfg, (key,), dict, problems), problems)
                       for key in ("target", "initial")]
    specs = _typed(cfg, ("extra_initials",), list, problems)
    extra = [_density(f"extra_initials[{k}]", spec, problems) for k, spec in enumerate(specs)]
    ocp = _typed(cfg, ("ocp",), dict, problems)
    ocp = dict(ocp, armijo=_typed(ocp, ("ocp", "armijo"), dict, problems))
    dynamic = _merge(ocp, _typed(cfg, ("dynamic",), dict, problems))
    configs = {}  # the Run's ocp and dynamic fields
    for name, section in (("ocp", ocp), ("dynamic", dynamic)):
        try:
            configs[name] = OcpConfig(**dict(section, armijo=ArmijoParams(**section["armijo"])))
        except (ValueError, TypeError) as exc:  # an unknown key is a TypeError
            problems.append(f"{name}: {exc}")
            break  # the merged dynamic section inherits every ocp problem
    if problems:
        raise ConfigError(problems)
    return Run(
        mesh=source, mu=mu, drift=fields.DRIFT_PRESETS.get(drift), target=target, initial=initial,
        extra_initials=extra, out_dir=out_dir, seed=seed, vtk=vtk, echo=cfg, **configs,
        series_T=cfg.get("series_T", configs["ocp"].T), long_T=cfg.get("long_T"),
    )


def build_problem(cfg):
    """(mesh, operators, target density, initial density) for a run config."""
    return parse_config(cfg).problem()


def _echo_config(run, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run.echo, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _start(args, base=DEFAULT_CONFIG, static_control=False):
    """(run, manifest, mesh, ops, z, q0, control): the parsed config, its
    problem and the control of --control (None for a verb without one), all
    built before the config is echoed to config.echo and listed in the run's
    manifest.  static_control rejects a time-varying control."""
    run = load_config(args, base)
    mesh, ops, z, q0 = run.problem()
    control = load_control(ops, args.control) if "control" in args else None
    if static_control and not isinstance(control, ControlField):
        raise ConfigError([f"{args.command} requires a static control (zero or static dir)"])
    if isinstance(control, np.ndarray):
        try:
            _controls_for_grid(control, _n_steps(run.ocp.T, run.ocp.dt))
        except ValueError as exc:
            raise ConfigError([f"control {args.control!r}: {exc}"]) from None
    manifest = export.Manifest(run.out_dir)
    _echo_config(run, manifest.path("config.echo", "configuration"))
    return run, manifest, mesh, ops, z, q0, control


def load_control(ops, source):
    """Control from 'zero' or a static_solution directory (a ControlField), or
    from a dynamic one (the (n_t, 2n) stack of its [ux, uy] rows)."""
    if source == "zero":
        return ControlField.zeros(ops.n)

    def read(directory, fx):
        paths = (os.path.join(directory, f) for f in (fx, fx.replace("u_x", "u_y", 1)))
        try:
            return ControlField(*(export.read_vector_csv(p, ops.n) for p in paths))
        except (OSError, ValueError) as exc:  # a missing, unreadable or incomplete file
            raise ConfigError([f"cannot read control: {exc}"]) from None

    if os.path.exists(os.path.join(source, "u_x.csv")):
        return read(source, "u_x.csv")
    ctrl_dir = os.path.join(source, "controls")
    if os.path.isdir(ctrl_dir):
        files = sorted(f for f in os.listdir(ctrl_dir) if f.startswith("u_x_"))
        rows = [read(ctrl_dir, fx).stacked() for fx in files]
        return np.array(rows).reshape(len(files), 2 * ops.n)
    raise ConfigError([f"no control found at {source!r} (expected u_x.csv or controls/)"])


# ---------------------------------------------------------------------------
# command implementations


def cmd_mesh(args) -> int:
    if args.action == "gen":
        run = load_config(args)
        mesh = run.mesh()
        os.makedirs(run.out_dir, exist_ok=True)
        _echo_config(run, os.path.join(run.out_dir, "config.echo"))
        out = args.mesh_out or os.path.join(run.out_dir, "mesh.txt")
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


def _write_static_solution(manifest, mesh, z, sol):
    def path(name):
        return manifest.path(f"static_solution/{name}", "static solution")

    export.write_control_csvs(path("u_x.csv"), path("u_y.csv"), mesh, sol.u_star)
    export.write_density_csv(path("q_star.csv"), mesh, sol.q_star.values)
    export.write_density_csv(path("lambda.csv"), mesh, sol.adjoint.values)
    export.write_density_csv(path("target.csv"), mesh, z.values)
    export.write_history_csv(path("history.csv"), sol.history)


def cmd_static(args) -> int:
    run, manifest, mesh, ops, z, _, _ = _start(args)
    sol = solve_static_ocp(ops, z, run.ocp)
    _write_static_solution(manifest, mesh, z, sol)
    manifest.write()
    last = sol.history[-1]
    print(
        f"static OCP: stopped ({sol.reason}) after {last.iteration} iterations, "
        f"J={float(last.J)!r}, |grad|={float(last.grad_norm)!r}"
    )
    return 0


def _simulate(ops, q0, control, ocp: OcpConfig, T=None):
    """simulate on the config's time grid and scheme, to T (default ocp.T)."""
    T = ocp.T if T is None else T
    return simulate(ops, q0, control, T=T, dt=ocp.dt, theta=ocp.theta, lumped=ocp.lumped)


# Steps per window of a testcase series: a window's states are reduced to
# their report rows before the next window is swept.
_SERIES_WINDOW = 100


def _windows(ops, q0, control: ControlField, ocp: OcpConfig, T):
    """The run of the constant ``control`` from q0 over [0, T] on the config's
    time grid and scheme, as trajectories of ``_SERIES_WINDOW`` steps: each
    starts from the last state of the one before and solves against the
    first one's LU, so their states have the bits of one sweep's."""
    row, n_steps = control.stacked(), _n_steps(T, ocp.dt)
    q, lu = _vals(q0), None
    for start in range(0, n_steps, _SERIES_WINDOW):
        controls = np.broadcast_to(row, (min(_SERIES_WINDOW, n_steps - start) + 1, row.size))
        window = theta_sweep(ops, q, controls, ocp.dt, ocp.theta, ocp.lumped, lu)
        q, lu = window.states[-1], window.lu
        yield window


def cmd_simulate(args) -> int:
    run, manifest, mesh, ops, z, q0, control = _start(args)
    traj = _simulate(ops, q0, control, run.ocp)
    reference = (
        solve_equilibrium(ops, control)[0] if isinstance(control, ControlField) else z
    )
    index = manifest.path("trajectory/manifest.csv", "trajectory index")
    export.write_trajectory(
        os.path.dirname(index), mesh, traj,
        reference=reference, M=ops.M, every=args.every, vtk=run.vtk,
    )
    manifest.write()
    print(
        f"simulated {traj.n_steps} steps; final mass error "
        f"{float(traj.mass_errors().max())!r}, min density {float(traj.min_values.min())!r}"
    )
    return 0


def _write_dynamic_solution(manifest, mesh, dyn):
    export.write_history_csv(
        manifest.path("dynamic_solution/history.csv", "dynamic iteration history"), dyn.history
    )
    export.write_csv(
        manifest.path("dynamic_solution/turnpike.csv", "turnpike metrics"),
        ["time", "u_dist_to_static", "q_dist_to_static"],
        zip(dyn.trajectory.times, dyn.control_distances, dyn.state_distances),
    )
    cdir = manifest.path("dynamic_solution/controls/", "per-time-node controls")
    for i, row in enumerate(dyn.control):
        paths = (os.path.join(cdir, f"{name}_{i:05d}.csv") for name in ("u_x", "u_y"))
        export.write_control_csvs(*paths, mesh, ControlField.from_stacked(row))


def cmd_dynamic(args) -> int:
    run, manifest, mesh, ops, z, q0, _ = _start(args)
    static = solve_static_ocp(ops, z, run.ocp)
    dyn = solve_dynamic_ocp(ops, q0, static, run.dynamic)
    _write_static_solution(manifest, mesh, z, static)
    _write_dynamic_solution(manifest, mesh, dyn)
    index = manifest.path("dynamic_solution/trajectory/manifest.csv", "optimized trajectory")
    export.write_trajectory(
        os.path.dirname(index), mesh, dyn.trajectory,
        reference=static.q_star, M=ops.M, every=args.every, vtk=run.vtk,
    )
    manifest.write()
    last = dyn.history[-1]
    print(
        f"dynamic OCP: stopped ({dyn.reason}) after {len(dyn.history)} iterations, "
        f"J_t={float(last.J)!r}, {dyn.fallbacks} GMRES fallbacks, "
        f"{dyn.restarts} steepest-descent restarts, "
        f"final control distance {float(dyn.control_distances[-1])!r}"
    )
    return 0


def cmd_particles(args) -> int:
    run, manifest, mesh, ops, z, q0, control = _start(args, static_control=True)
    dt, sub = run.ocp.dt, args.substeps

    domain = MeshDomain(mesh)
    vel = NodalVelocity(domain.locator, control.ux, control.uy, drift=run.drift)
    traj = _simulate(ops, q0, control, run.ocp)
    n_steps = traj.n_steps

    # the noise draws from a child stream of the seed, independent of the sampling's
    rng = np.random.default_rng(np.random.SeedSequence(run.seed).spawn(1)[0])
    ens = sample_initial(q0, domain.locator, args.n, seed=run.seed)

    checkpoints = sorted({min(max(1, n_steps // 5) * k, n_steps) for k in range(1, 6)})
    rows = []
    step = 0
    for target_step in checkpoints:
        while step < target_step:
            for _ in range(sub):
                ens = step_particles(ens, domain, vel, mu=run.mu, dt=dt / sub, rng=rng)
            step += 1
        rho = empirical_density(ens, mesh)
        dist = analysis.l2_distance(rho, traj.states[step], ops.M)
        floor = float(np.sqrt(np.clip(traj.states[step], 0.0, None).sum() / ens.n))
        rows.append((step * dt, dist, floor, dist / floor))
        export.write_indexed_csv(
            manifest.path(f"particles/ensemble_{step:05d}.csv", "particle ensemble"),
            ["id", "x", "y"], ens.positions,
        )
        export.write_density_csv(
            manifest.path(f"particles/empirical_{step:05d}.csv", "empirical density"),
            mesh, rho.values,
        )
    export.write_csv(
        manifest.path("particles/comparison.csv", "particle vs PDE distances"),
        ["time", "l2_dist_to_pde", "noise_floor", "ratio"],
        rows,
    )
    manifest.write()
    worst = max(r[3] for r in rows)
    print(f"particles: worst distance/floor ratio {float(worst)!r} over {len(rows)} checkpoints")
    return 0


def cmd_certify(args) -> int:
    run, manifest, mesh, ops, z, q0, control = _start(args, static_control=True)
    equilibrium = solve_equilibrium(ops, control)
    traj = simulate(ops, q0, control, T=run.ocp.T, dt=run.ocp.dt, theta=1.0, lumped=True)
    kc = analysis.certify_kernel(ops, equilibrium)
    _, monotone, final = analysis.convergence_report(traj, equilibrium[0], ops)
    rows = [
        ("kernel_dim_state", kc.dim, "1", ""),
        ("left_kernel_residual", kc.left_kernel_residual, "1e-12", ""),
        ("gap_ratio", kc.gap_ratio, ">1e6", ""),
        ("kernel_min_entry", kc.kernel_min_entry, ">0", ""),
        ("min_sym_eigenvalue_M0", analysis.certify_spectral_positivity(ops, control), ">0", ""),
        ("lyapunov_monotone", str(monotone).lower(), "true", ""),
        ("final_l2_distance", final, "", ""),
    ]
    export.write_csv(
        manifest.path("certificate.csv", "certificate table"),
        ["check", "value", "expectation", "note"],
        [(a, "" if b is None else b, c, d) for a, b, c, d in rows],
    )
    with open(manifest.path("certificate.txt", "certificate summary"), "w", encoding="ascii") as fh:
        fh.write("structural certificates\n")
        fh.write("=======================\n")
        for name, value, expect, _ in rows:
            fh.write(f"{name:28s} {value!s:>24}   (expected {expect})\n")
    manifest.write()
    print(
        f"certificate: kernel dim {kc.dim}, "
        f"left kernel residual {kc.left_kernel_residual!r}, "
        f"lyapunov monotone {monotone}"
    )
    return 0


def cmd_testcase(args) -> int:
    number = args.number
    base = presets.testcase_config(number, paper_scale=args.paper_scale)
    base.setdefault("out_dir", f"testcase{number}")
    run, manifest, mesh, ops, z, q0, _ = _start(args, base)
    ocp = run.ocp
    write_mesh(mesh, manifest.path("mesh.txt", "mesh"))

    static = solve_static_ocp(ops, z, ocp)
    _write_static_solution(manifest, mesh, z, static)
    print(
        f"[testcase {number}] static OCP stopped ({static.reason}) at "
        f"|grad|={float(static.history[-1].grad_norm)!r}"
    )

    def series(rel, kind, q_start, control, T, thin=False):
        """Convergence series to q* written to <out>/rel; (rows, monotone, final)."""
        rows, monotone, final = analysis.convergence_report(
            _windows(ops, q_start, control, ocp, T), static.q_star, ops
        )
        stride = max(1, len(rows) // 2000) if thin else 1
        export.write_csv(
            manifest.path(rel, kind), ["step", "time", "l2_dist", "lyapunov"],
            ((int(step), *row) for step, *row in rows[::stride]),
        )
        return rows, monotone, final

    # stabilization from the preset initial conditions under the static field
    for k, q_start in enumerate([q0] + [build(ops) for build in run.extra_initials], start=1):
        rows, monotone, final = series(
            f"stabilization/ic_{k}.csv", "convergence series", q_start, static.u_star, run.series_T
        )
        print(
            f"[testcase {number}] ic {k}: final/initial distance "
            f"{float(final / rows[0][2])!r}, lyapunov monotone {monotone}"
        )

    if run.long_T:
        _, _, final = series(
            "static_long_run.csv", "long-horizon static-control series",
            q0, static.u_star, run.long_T, thin=True,
        )
        print(f"[testcase {number}] long static run final distance {float(final)!r}")

    # uncontrolled comparison series when a drift field is present
    if run.drift is not None:
        _, _, final = series(
            "uncontrolled.csv", "uncontrolled (drift only) series",
            q0, ControlField.zeros(ops.n), run.series_T,
        )
        print(f"[testcase {number}] uncontrolled final distance to q* {float(final)!r}")

    # dynamic speedup
    dyn = solve_dynamic_ocp(ops, q0, static, run.dynamic)
    _write_dynamic_solution(manifest, mesh, dyn)

    traj_static = _simulate(ops, q0, static.u_star, run.dynamic)
    d_static = np.sqrt(sq_norms(ops.M, traj_static.states, static.q_star.values))
    export.write_csv(
        manifest.path("comparison.csv", "static vs dynamic convergence"),
        ["time", "static_control_dist", "dynamic_control_dist"],
        zip(traj_static.times, d_static, dyn.state_distances),
    )
    manifest.write()
    print(
        f"[testcase {number}] endpoint distance: static {float(d_static[-1])!r}, "
        f"dynamic {float(dyn.state_distances[-1])!r}"
    )
    return 0


def _count(text) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densctl",
        description="Density control by velocity fields on triangular FEM meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(parent, name, func, help, config=True):
        """Subparser of a verb that func runs; config adds --config, --out and --seed."""
        p = parent.add_parser(name, help=help)
        if config:
            p.add_argument("--config", help="JSON run configuration")
            p.add_argument("--out", help="output directory (overrides config)")
            p.add_argument("--seed", type=int, help="seed (overrides config)")
        p.set_defaults(func=func)
        return p

    p_mesh = sub.add_parser("mesh", help="generate or check meshes")
    meshes = p_mesh.add_subparsers(dest="action", required=True)
    p_gen = verb(meshes, "gen", cmd_mesh, "generate a mesh from the config")
    p_gen.add_argument("--mesh-out", help="output mesh path")
    verb(meshes, "check", cmd_mesh, "validate a mesh file", config=False).add_argument("mesh_file")
    verb(sub, "static", cmd_static, "solve the static control problem")

    p_sim = verb(sub, "simulate", cmd_simulate, "integrate the density dynamics")
    p_sim.add_argument("--control", default="zero", help="zero | solution directory")
    p_sim.add_argument("--t-final", type=float, help="final time (overrides ocp.T)")
    p_sim.add_argument("--every", type=_count, default=10, help="snapshot stride")
    p_dyn = verb(sub, "dynamic", cmd_dynamic, "solve the time-varying control problem")
    p_dyn.add_argument("--every", type=_count, default=10)

    p_part = verb(sub, "particles", cmd_particles, "agent simulation vs the PDE")
    p_part.add_argument("--control", default="zero")
    p_part.add_argument("--n", type=_count, default=100000)
    p_part.add_argument("--t-final", type=float, help="final time (overrides ocp.T)")
    p_part.add_argument("--substeps", type=_count, default=10,
                        help="particle substeps per PDE step")
    p_cert = verb(sub, "certify", cmd_certify, "numerical structure certificates")
    p_cert.add_argument("--control", default="zero")

    p_tc = verb(sub, "testcase", cmd_testcase, "run a built-in benchmark scenario", config=False)
    p_tc.add_argument("number", type=int, choices=(1, 2, 3))
    p_tc.add_argument("--out", help="output directory")
    p_tc.add_argument("--seed", type=int)
    p_tc.add_argument("--paper-scale", action="store_true",
                      help="refine the mesh to the full benchmark size")
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
    except (MeshError, GeometryError, SolverError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
