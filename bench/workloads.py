"""The benchmark's three workloads: inputs made from a seed, and output checks.

Each workload is one densctl CLI command on a generated JSON config.  The
configs are written out here rather than read from ``densctl.presets`` so that
a change to the presets cannot silently change what the benchmark measures.

* ``static-tc1``: ``densctl static`` on the testcase-1 preset at desk scale,
  from zero control to tol 1e-6.  Every seed gives the preset: the static
  iteration count jumps between ~180 and ~370 when the indicator target moves
  by less than 0.01 (it changes which nodes lie inside), so a seeded target
  would make the wall time measure the seed instead of the code.
* ``dynamic-smooth``: ``densctl dynamic`` on the smooth criterion-10 scenario
  with a fixed budget of 10 dynamic iterations; the seed moves the initial
  Gaussian's centre within +-0.1.
* ``particles-smooth``: ``densctl particles`` with 50k agents over 10 PDE steps
  under the static control of that scenario, computed in set-up; the seed
  drives the particle sampling and noise.
"""

from __future__ import annotations

import csv
import glob
import os

import numpy as np

# Criterion 05's tolerance for a nonincreasing cost.
MONOTONE_SLACK = 1e-15


def _mesh(h):
    return {
        "generate": {
            "bounds": [-1.0, -1.0, 1.0, 1.0],
            "target_h": h,
            "holes": [{"type": "circle", "center": [0.0, 0.0], "radius": 0.2}],
        }
    }


def _ocp(beta, beta_g, tol, max_iter):
    return {
        "alpha": 1.0,
        "beta": beta,
        "beta_g": beta_g,
        "tol": tol,
        "max_iter": max_iter,
        "armijo": {"c1": 1e-4, "shrink": 0.5, "max_backtracks": 30},
        "theta": 0.5,
        "lumped": False,
        "dt": 0.03,
        "T": 3.0,
    }


def _smooth(center):
    """The criterion-10 scenario on the desk-scale testcase-1 mesh."""
    return {
        "mesh": _mesh(0.07),
        "mu": 1.0,
        "drift": None,
        "target": {"type": "gaussian", "center": [0.4, 0.4], "sigma": 0.35},
        "initial": {"type": "gaussian", "center": list(center), "sigma": 0.18},
        "ocp": _ocp(1e-2, 1e-4, 1e-5, 400),
        "dynamic": {"max_iter": 10, "tol": 1e-9},
        "seed": 0,
    }


def read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]} if rows else {}


def _monotone(values):
    return bool(np.all(np.diff(values) <= MONOTONE_SLACK))


def _m_norm(M, v):
    return float(np.sqrt(max(v @ (M @ v), 0.0)))


class Problem:
    """Operators of a config, assembled once per run for the output checks."""

    def __init__(self, cfg):
        from densctl import cli

        _, self.ops, _, _ = cli.build_problem(cfg)

    def nodal(self, path):
        from densctl import export

        return export.read_vector_csv(path, self.ops.n)


class StaticTc1:
    name = "static-tc1"

    def config(self, seed):
        return {
            "mesh": _mesh(0.07),
            "mu": 1.0,
            "drift": None,
            "target": {"type": "indicator", "regions": [
                {"type": "rect", "bounds": [0.15, 0.15, 0.75, 0.75]},
            ]},
            "initial": {"type": "gaussian", "center": [-0.5, -0.5], "sigma": 0.09},
            "ocp": _ocp(1e-3, 1e-5, 1e-6, 800),
            "dynamic": {"max_iter": 25, "tol": 1e-6},
            "seed": 0,
        }

    def setup(self, cfg_path, tmp, seed):
        return []

    def argv(self, cfg_path, out, seed, extra):
        return ["static", "--config", cfg_path, "--out", out]

    def check(self, out, cfg, problem, extra):
        """Criterion 05: converged, J nonincreasing, |grad| down 1e3, tracking
        below half the zero-control baseline, positive equilibrium."""
        from densctl import ControlField, solve_equilibrium

        sdir = os.path.join(out, "static_solution")
        hist = read_columns(os.path.join(sdir, "history.csv"))
        ops, M = problem.ops, problem.ops.M
        q_star = problem.nodal(os.path.join(sdir, "q_star.csv"))
        z = problem.nodal(os.path.join(sdir, "target.csv"))
        base, _ = solve_equilibrium(ops, ControlField.zeros(ops.n))
        problems = []
        if not hist["grad_norm"][-1] < cfg["ocp"]["tol"]:
            problems.append(f"not converged: |grad| {hist['grad_norm'][-1]!r}")
        if not _monotone(hist["J"]):
            problems.append("J increased")
        if not hist["grad_norm"][0] / hist["grad_norm"][-1] >= 1e3:
            problems.append("|grad| fell by less than 1e3")
        d_opt, d_base = _m_norm(M, q_star - z), _m_norm(M, base.values - z)
        if not d_opt < 0.5 * d_base:
            problems.append(f"tracking {d_opt!r} not below 0.5 x baseline {d_base!r}")
        if not q_star.min() > 0:
            problems.append(f"q* min {q_star.min()!r} not positive")
        return problems, (float(hist["J"][0]), float(hist["J"][-1]))


class DynamicSmooth:
    name = "dynamic-smooth"

    def config(self, seed):
        shift = np.random.default_rng(seed).uniform(-0.1, 0.1, 2) if seed else (0.0, 0.0)
        return _smooth((-0.5 + float(shift[0]), -0.5 + float(shift[1])))

    def setup(self, cfg_path, tmp, seed):
        return []

    def argv(self, cfg_path, out, seed, extra):
        return ["dynamic", "--config", cfg_path, "--out", out]

    def check(self, out, cfg, problem, extra):
        """J_t nonincreasing, turnpike ratio <= 0.1, mass conserved to 1e-11
        in every trajectory snapshot."""
        ddir = os.path.join(out, "dynamic_solution")
        hist = read_columns(os.path.join(ddir, "history.csv"))
        turn = read_columns(os.path.join(ddir, "turnpike.csv"))
        problems = []
        if len(hist["J"]) != cfg["dynamic"]["max_iter"] + 1:
            problems.append(f"{len(hist['J'])} history rows, expected the full budget")
        if not _monotone(hist["J"]):
            problems.append("J_t increased")
        ratio = turn["u_dist_to_static"][-1] / turn["u_dist_to_static"][0]
        if not ratio <= 0.1:
            problems.append(f"turnpike ratio {ratio!r} > 0.1")
        F = problem.ops.F
        snaps = sorted(glob.glob(os.path.join(ddir, "trajectory", "q_*.csv")))
        if len(snaps) < 2:
            problems.append("fewer than two trajectory snapshots")
        masses = [float(F @ problem.nodal(path)) for path in snaps]
        for path, mass in zip(snaps, masses):
            err = abs(mass - masses[0])
            if not err <= 1e-11:
                problems.append(f"{os.path.basename(path)}: mass error {err!r}")
        return problems, (float(hist["J"][0]), float(hist["J"][-1]))


class ParticlesSmooth:
    name = "particles-smooth"

    def config(self, seed):
        return _smooth((-0.5, -0.5))

    def setup(self, cfg_path, tmp, seed):
        """Static control of the scenario; returns the op's extra flags."""
        from densctl import cli

        out = os.path.join(tmp, "control")
        if cli.main(["static", "--config", cfg_path, "--out", out]) != 0:
            raise RuntimeError("set-up static solve failed")
        return ["--control", os.path.join(out, "static_solution")]

    def argv(self, cfg_path, out, seed, extra):
        return [
            "particles", "--config", cfg_path, "--out", out, *extra,
            "--n", "50000", "--t-final", "0.3", "--substeps", "10", "--seed", str(seed),
        ]

    def check(self, out, cfg, problem, extra):
        """Every checkpoint's particle/PDE distance is <= 3x the noise floor.

        The returned costs are the set-up static solve's first and final J."""
        hist = read_columns(os.path.join(extra[1], "history.csv"))
        comp = read_columns(os.path.join(out, "particles", "comparison.csv"))
        problems = [f"ratio {r!r} > 3 at t={t!r}"
                    for t, r in zip(comp["time"], comp["ratio"]) if not r <= 3.0]
        if len(comp.get("ratio", ())) != 5:
            problems.append("expected 5 checkpoints in comparison.csv")
        return problems, (float(hist["J"][0]), float(hist["J"][-1]))


WORKLOADS = {w.name: w for w in (StaticTc1(), DynamicSmooth(), ParticlesSmooth())}
