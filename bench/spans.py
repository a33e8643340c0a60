"""Per-layer spans and counts, installed from outside hkforge.

The tracer replaces the public entry points of the layers ``models``,
``solver``, ``geometry``, ``ks`` and ``trees`` with wrappers that record a
span: the layer name, its duration, and the time its child spans cover.
A layer's self time is the sum over its spans of duration minus children.
Spans are only recorded while the tracer is active, which the workload
switches on around the timed work of each item, so the checks run untraced.

``geometry`` and ``trees`` bind ``upsilon`` and ``build_grids`` with
``from .solver import ...``; those names are replaced where they are
looked up, so the evaluations inside ``VarpiSampler`` land in their spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

class Tracer:
    def __init__(self):
        self.active = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list] = []   # [layer, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, layer: str, fn, count: str | None = None,
              outermost: bool = False, after=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count and not (outermost and any(f[0] == layer
                                                for f in stack)):
                self.counts[count] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None
        wrapped = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        return wrapped

    def install(self) -> None:
        from hkforge import geometry, ks, models, solver, trees

        def count_sweeps(sol):
            self.counts["solver.sweeps"] += sol.iterations + 1

        def count_near_pairs(ws):
            # kernels are tagged ("plain" | "sub", data) by ray pair
            kernels = getattr(ws, "kernels", {})
            self.counts["solver.kernels"] += len(kernels)
            self.counts["solver.near_pairs"] += sum(
                1 for tagged in kernels.values()
                if isinstance(tagged, tuple) and tagged[:1] == ("sub",))

        span = self._span
        self._patch(models.PentagonPeriods, "state",
                    lambda f: span("models.periods", f,
                                   count="models.periods.calls"))
        self._patch(models, "ov_oracle",
                    lambda f: span("models.oracle", f))
        grids = self._patch(solver, "build_grids",
                            lambda f: span("solver.grids", f,
                                           count="solver.grids.calls"))
        if grids is not None:
            self._patch(trees, "build_grids", lambda f: grids)
        self._patch(solver, "_prepare",
                    lambda f: span("solver.prepare", f,
                                   after=count_near_pairs))
        self._patch(solver, "iterate",
                    lambda f: span("solver.iterate", f,
                                   count="solver.solve.calls",
                                   after=count_sweeps))
        wrapped_eval = {}
        for name in ("upsilon", "evaluate", "on_ray_value", "side_limit",
                     "ray_jump_defect"):
            wrapped_eval[name] = self._patch(
                solver, name,
                lambda f: span("solver.eval", f, count="solver.eval.calls",
                               outermost=True))
        if wrapped_eval.get("upsilon") is not None:
            self._patch(geometry, "upsilon", lambda f: wrapped_eval["upsilon"])
        for name in ("__post_init__", "varpi"):
            self._patch(geometry.VarpiSampler, name,
                        lambda f: span("geometry.varpi", f))
        for name in ("laurent_fit", "metric_from_triple",
                     "triple_wedge_check"):
            self._patch(geometry, name, lambda f: span("geometry.fit", f))
        for name in ("ordered_product", "compose", "spectrum_generator",
                     "check_wcf"):
            self._patch(ks, name, lambda f: span("ks", f))
        self._patch(ks.TorusAutomorphism, "image_cofactor",
                    lambda f: span("ks", f))
        self._patch(ks.TwistedSeries, "__mul__",
                    lambda f: self._counter("ks.mul.calls", f))
        self._patch(trees, "enumerate_trees",
                    lambda f: span("trees.enum", f,
                                   count="trees.enum.calls"))
        self._patch(trees, "series_solution",
                    lambda f: span("trees.series", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        return dict(self.self_s), dict(self.counts)


def per_layer_metrics(self_s: dict[str, float], counts: dict[str, int],
                      items: int, item_s: float) -> dict[str, float]:
    """Per-item calibrated seconds and counts; sweep time is per sweep.

    ``self_s`` holds calibrated self seconds by layer and ``item_s`` the
    calibrated time of all traced items; what no span covers is reported
    as ``uncovered.s``.
    """
    n = max(items, 1)
    sweeps = counts.get("solver.sweeps", 0)
    return {
        "models.periods.calls": counts.get("models.periods.calls", 0) / n,
        "models.periods.s": self_s.get("models.periods", 0.0) / n,
        "models.oracle.s": self_s.get("models.oracle", 0.0) / n,
        "solver.grids.calls": counts.get("solver.grids.calls", 0) / n,
        "solver.grids.s": self_s.get("solver.grids", 0.0) / n,
        "solver.prepare.s": self_s.get("solver.prepare", 0.0) / n,
        "solver.solve.calls": counts.get("solver.solve.calls", 0) / n,
        "solver.sweeps": sweeps / n,
        "solver.sweep.s": (self_s.get("solver.iterate", 0.0) / sweeps
                           if sweeps else 0.0),
        "solver.eval.calls": counts.get("solver.eval.calls", 0) / n,
        "solver.eval.s": self_s.get("solver.eval", 0.0) / n,
        "geometry.varpi.s": self_s.get("geometry.varpi", 0.0) / n,
        "geometry.fit.s": self_s.get("geometry.fit", 0.0) / n,
        "ks.s": self_s.get("ks", 0.0) / n,
        "ks.mul.calls": counts.get("ks.mul.calls", 0) / n,
        "trees.enum.calls": counts.get("trees.enum.calls", 0) / n,
        "trees.enum.s": self_s.get("trees.enum", 0.0) / n,
        "trees.series.s": self_s.get("trees.series", 0.0) / n,
        "traced.item.s": item_s / n,
        "uncovered.s": (item_s - sum(self_s.values())) / n,
    }
