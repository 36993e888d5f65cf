"""In-memory span tracer for the densctl package, installed from outside it.

The tracer wraps each module's public functions (its ``__all__``, and
``cli.main``) plus two hot methods, and records one span per call:
``[name, start, end, parent, op_id, points]``.  Wrapping a function object is
not enough by itself: ``from .linalg import lu_factor`` copies the function
into the importing module, so ``install`` rebinds every name, in every
``densctl`` module and the package itself, that refers to a wrapped function.
``uninstall`` restores the original objects.

Spans stay in memory until the caller writes them out; ``layer_metrics``
reduces them to per-layer counts and times.  A span's self time is its
duration minus the durations of its direct children, which never overlap
because every call runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time

# Per-value helper called once per CSV cell; a span per call would cost more
# than the call and swamp the trace.
SKIP = {"densctl.export.fmt"}
# Public entry points of modules that have no __all__.
EXTRA = {"cli": ("main",)}
# Span name -> (module, class, method, size of the call's point set).
METHODS = {
    "particles.locate": ("particles", "TriangleLocator", "locate", lambda a, k: len(a[1])),
    "particles.reflect": ("particles", "MeshDomain", "reflect", lambda a, k: len(a[1])),
}
# Size of the ensemble advanced by one step_particles call.
POINTS = {"particles.step_particles": lambda a, k: a[0].n}
# Functions shared by both OCPs: their spans carry the calling module's name.
BY_CALLER = {"armijo_backtracking"}


def densctl_modules():
    """The package and every submodule, imported."""
    import densctl

    return [densctl] + [
        importlib.import_module(f"densctl.{info.name}")
        for info in pkgutil.iter_modules(densctl.__path__)
    ]


def public_functions(modules):
    """{original function: span name} for every function the tracer wraps."""
    out = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr in getattr(mod, "__all__", EXTRA.get(short, ())):
            obj = getattr(mod, attr)
            if (
                callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
                and f"{mod.__name__}.{attr}" not in SKIP
            ):
                out[obj] = f"{short}.{attr}"
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.originals: dict = {}

    def _wrap(self, fn, name, points=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [
                name,
                clock(),
                None,
                stack[-1] if stack else None,
                self.op_id,
                points(args, kwargs) if points else None,
            ]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = densctl_modules()
        self.originals = public_functions(modules)
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                name = self.originals.get(obj) if callable(obj) else None
                if name is None:
                    continue
                if attr in BY_CALLER and mod is not modules[0]:
                    name = f"{short}.{attr}"
                if name not in wrappers:
                    wrappers[name] = self._wrap(obj, name, POINTS.get(name))
                setattr(mod, attr, wrappers[name])
                self._undo.append((mod, attr, obj))
        for name, (short, cls_name, meth, points) in METHODS.items():
            cls = getattr(importlib.import_module(f"densctl.{short}"), cls_name)
            orig = cls.__dict__[meth]
            self.originals[orig] = name
            setattr(cls, meth, self._wrap(orig, name, points))
            self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_metrics(spans, op_id) -> dict:
    """Per-name call counts, inclusive and self seconds, and point totals.

    Inclusive time skips spans nested inside a span of the same name, so a
    name's time is never counted twice.  Also counts, per name, the spans
    whose parent has a given name (``children[(parent, child)]``).
    """
    n = len(spans)
    child_time = [0.0] * n
    for rec in spans:
        if rec[3] is not None:
            child_time[rec[3]] += rec[2] - rec[1]
    calls, incl, self_s, points, children = {}, {}, {}, {}, {}
    for i, (name, start, end, parent, op, pts) in enumerate(spans):
        if op != op_id:
            continue
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        if pts is not None:
            points[name] = points.get(name, 0) + pts
        up, nested = parent, False
        while up is not None and not nested:
            nested = spans[up][0] == name
            up = spans[up][3]
        if not nested:
            incl[name] = incl.get(name, 0.0) + dur
        if parent is not None:
            key = (spans[parent][0], name)
            children[key] = children.get(key, 0) + 1
    return {"calls": calls, "s": incl, "self_s": self_s, "points": points, "children": children}
