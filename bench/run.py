"""Stage benchmark for densctl: static OCP, dynamic OCP and particle runs.

    python3 bench/run.py --workload static-tc1 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process is one closed-loop client with one operation in
flight: each operation is a ``densctl.cli.main([...])`` call on a config that
``bench/workloads.py`` makes from the seed, writing into a temporary
directory that is checked and then deleted.  Operations repeat until the next
one would end after ``--seconds``; there is always at least one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
operation untraced and one traced, and prints per-layer counts and times from
the traced one, with the tracing overhead (traced minus untraced wall time).
The counts of a traced operation are stored under ``.bench_state/`` keyed by
a digest of ``src/``, the workload and the seed; a later traced run that
counts differently fails its check.  Each run writes its environment,
operations and spans to ``.bench_results/``.  The last line of standard
output is the result object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import densctl.cli; "
    "print(time.perf_counter() - t)"
)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_densctl():
    """Import densctl from this checkout's src/, and nowhere else."""
    if not (SRC / "densctl" / "__init__.py").is_file():
        fail(f"no densctl package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import densctl.cli

    if Path(densctl.__file__).resolve().parent != SRC / "densctl":
        fail(f"imported densctl from {densctl.__file__}, not from {SRC}")


def measure_imports():
    """Median seconds to import densctl.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def environment():
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def run_op(workload, cfg, cfg_path, tmp, seed, extra, problem, tracer=None, op_id=0):
    """One timed CLI call, then its output checks; returns a record."""
    from densctl import cli

    out = os.path.join(tmp, f"op{op_id}")
    argv = workload.argv(cfg_path, out, seed, extra)
    handler = _Records()
    plog = logging.getLogger("densctl.particles")
    plog.addHandler(handler)
    stdout = io.StringIO()
    if tracer is not None:
        tracer.op_id = op_id
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), tracer or contextlib.nullcontext():
            warnings.simplefilter("always")
            error = None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = cli.main(argv)  # looked up here: the tracer rebinds it
            except Exception:  # a crashed operation is a failed one, not a lost run
                code, error = None, traceback.format_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        plog.removeHandler(handler)
    rec = {
        "op_id": op_id,
        "argv": argv,
        "wall_s": wall,
        "cpu_s": cpu,
        "exit_code": code,
        "stdout": stdout.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "negative_density_warnings": sum(
            w.category.__name__ == "NegativeDensityWarning" for w in caught),
        "stuck": sum(int(r.args[0]) for r in handler.records
                     if r.msg.startswith("projected")),
        "export_bytes": tree_bytes(out) if os.path.isdir(out) else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    problems = [error or f"exit code {code}"] if code != 0 else []
    if not problems:
        try:
            more, (rec["J0"], rec["J"]) = workload.check(out, cfg, problem, extra)
            problems += more
        except (OSError, KeyError, IndexError, ValueError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    rec["problems"] = problems
    shutil.rmtree(out, ignore_errors=True)
    return rec


def per_layer(m, rec, untraced):
    """The per-layer metrics of one traced operation."""
    calls, incl, self_s, pts, kids = (
        m["calls"], m["s"], m["self_s"], m["points"], m["children"])

    def c(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    st_trials = kids.get(("ocp_static.armijo_backtracking", "ocp_static.evaluate_cost"), 0)
    dy_trials = kids.get(("ocp_dynamic.armijo_backtracking",
                          "ocp_dynamic.evaluate_dynamic_cost"), 0)
    st_iters = c("ocp_static.armijo_backtracking")
    dy_iters = c("ocp_dynamic.armijo_backtracking")
    out = {}
    for name in ("linalg.lu_factor", "linalg.bordered_solve", "fem.state_matrix",
                 "state.solve_equilibrium", "state.step_theta",
                 "adjoint.solve_adjoint_static", "adjoint.solve_adjoint_dynamic",
                 "particles.locate", "export.write_csv"):
        out[f"{name}.calls"] = (c(name), "count")
    for name in ("linalg.lu_factor", "fem.state_matrix", "fem.assemble_operators",
                 "state.solve_equilibrium", "state.simulate",
                 "adjoint.solve_adjoint_static", "adjoint.solve_adjoint_dynamic",
                 "ocp_static.armijo_backtracking", "ocp_static.reduced_gradient",
                 "ocp_dynamic.armijo_backtracking", "particles.locate",
                 "particles.empirical_density", "particles.sample_initial",
                 "export.write_csv", "mesh.generate_rect_mesh", "analysis.l2_distance"):
        out[f"{name}.s"] = (incl.get(name, 0.0), "s")
    for name in ("linalg.bordered_solve", "ocp_dynamic.solve_dynamic_ocp",
                 "particles.reflect", "particles.step_particles", "cli.main"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    step_points = pts.get("particles.step_particles", 0)
    out.update({
        "state.negative_density_warnings": (rec["negative_density_warnings"], "count"),
        "ocp_static.iterations": (st_iters, "count"),
        "ocp_static.trials": (st_trials, "count"),
        "ocp_static.accept_ratio": (ratio(st_iters, st_trials), "ratio"),
        "ocp_dynamic.iterations": (dy_iters, "count"),
        "ocp_dynamic.sweeps": (c("ocp_dynamic.evaluate_dynamic_cost"), "count"),
        "ocp_dynamic.accept_ratio": (ratio(dy_iters, dy_trials), "ratio"),
        "particles.locate.points": (pts.get("particles.locate", 0), "count"),
        "particles.reflect.points": (pts.get("particles.reflect", 0), "count"),
        "particles.reflected_frac": (
            ratio(pts.get("particles.reflect", 0), step_points), "ratio"),
        "particles.stuck": (rec["stuck"], "count"),
        "export.bytes": (rec["export_bytes"], "B"),
        "trace.wall_s": (rec["wall_s"], "s"),
        "trace.overhead_s": (rec["wall_s"] - untraced["wall_s"], "s"),
        "trace.spans": (sum(calls.values()), "count"),
    })
    return out


def repeated_counts(metrics):
    """The counts a later change may claim to reduce: they must repeat exactly."""
    return {
        k: v for k, (v, _) in metrics.items()
        if k.endswith((".calls", ".iterations", ".trials", ".sweeps"))
        or k == "particles.locate.points"
    }


def count_mismatches(workload, seed, counts):
    """Names whose count differs from the first traced run of this source,
    workload and seed (which is stored on first sight)."""
    path = ROOT / ".bench_state" / source_digest() / f"{workload}-seed{seed}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []
    first = json.loads(path.read_text())
    return sorted(k for k in set(first) | set(counts) if first.get(k) != counts.get(k))


def end_to_end(ops, import_s, setup_times):
    walls = [r["wall_s"] for r in ops]
    failed = sum(bool(r["problems"]) for r in ops)
    ratios = [r["J"] / r["J0"] for r in ops if not r["problems"]]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        # after the first operation, so the figure does not grow with the
        # number of operations that fit in a run
        "peak_rss_mb": (ops[0]["peak_rss_mb"], "MB"),
        # with no checked operation there is no cost reduction to report
        "J_ratio": (statistics.median(ratios) if ratios else 1.0, "1"),
        "pass_frac": (1.0 - failed / len(ops), "frac"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_densctl()
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, Problem

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    import_s = measure_imports()
    env = environment()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            rep_dir = os.path.join(tmp, f"setup{rep}")
            os.makedirs(rep_dir)
            t0 = time.perf_counter()
            cfg = workload.config(args.seed)
            cfg_path = os.path.join(rep_dir, "config.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                extra = workload.setup(cfg_path, rep_dir, args.seed)
            setup_times.append(time.perf_counter() - t0)
        problem = Problem(cfg)
        args_op = (workload, cfg, cfg_path, tmp, args.seed, extra, problem)

        ops = []
        if args.trace:
            tracer = Tracer()
            ops.append(run_op(*args_op))
            ops.append(run_op(*args_op, tracer=tracer, op_id=1))
        else:
            start = time.perf_counter()
            while True:
                ops.append(run_op(*args_op, op_id=len(ops)))
                typical = statistics.median(r["wall_s"] for r in ops)
                if time.perf_counter() - start + typical > args.seconds:
                    break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "source": source_digest(), "import_s": import_s,
              "setup_repeats_s": setup_times, "ops": ops}
    if args.trace:
        metrics = per_layer(layer_metrics(tracer.spans, 1), ops[1], ops[0])
        mismatched = count_mismatches(args.workload, args.seed, repeated_counts(metrics))
        if mismatched:
            ops[1]["problems"].append(f"counts differ from an earlier run: {mismatched}")
        record["spans"] = tracer.spans
    else:
        metrics = end_to_end(ops, import_s, setup_times)
    failed = sum(bool(r["problems"]) for r in ops)
    record["metrics"] = metrics
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, default=float))

    print(json.dumps({"env": env}))
    for r in ops:
        for p in r["problems"]:
            print(f"op {r['op_id']}: {p}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
