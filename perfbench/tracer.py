"""Outside-in layer tracer for the mockfan benchmark.

The tracer wraps public functions of the `mockfan` modules without editing
them.  Modules import each other by name (`cones.matrix_rank` is
`exact.rank`, `fans.intersect` is `cones.intersect`, ...), so `install`
replaces every binding of each original in every loaded `mockfan` module, and
`uninstall` puts every one of them back.  Methods and properties are patched
on their class.

Each call becomes a span (name, parent span, start, end) kept in flat arrays
in memory; nothing is written while the traced code runs.  `summary` turns
the spans into per-function calls, inclusive time and self time, where self
time is a span's duration minus the part its child spans cover.  Unwrapped
helpers (for example `exact.dot`, called millions of times) are not traced
on purpose: their time stays in the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Optional

PACKAGE = "mockfan"

# layer -> wrapped names; "Class.attr" names a method or property of a class
# defined in that layer's module.
TARGETS: dict[str, tuple[str, ...]] = {
    "exact": ("rank", "hnf", "kernel_basis"),
    "cones": ("cone_from_generators", "cone_from_inequalities", "dual_cone",
              "intersect", "is_subcone", "is_face_of", "Cone.faces",
              "Cone.facets", "Cone.dim", "Cone.contains"),
    "fans": ("fan_from_cones", "Fan.bounded_cones"),
    "subdivision": ("subdivide_chart", "build_D", "val_min"),
    "grassmann": ("zero_chart", "verify", "vol_expression",
                  "expected_bounded_cones", "expected_active_sets"),
    "formats": ("read_cone", "write_cone", "read_chart", "write_chart",
                "read_result", "write_result", "write_expression"),
    "volume": ("vol_skeleton",),
    "cli": ("main",),
}

# An observer sees (tracer, args, result) after a call returns.  It runs with
# recording paused, so wrapped calls it makes do not become spans.
Observer = Callable[["Tracer", tuple, object], None]


class Tracer:
    def __init__(self, observers: Optional[dict[str, Observer]] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.observers = observers or {}
        self.clock = clock
        self.names: list[str] = []      # span name index -> "<layer>.<name>"
        self.originals: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.paused = False

    # -- spans -------------------------------------------------------------

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span (the caller, inside an observer)."""
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    def wrap(self, key: str, fn: Callable) -> Callable:
        """A wrapper around `fn` that records one span named `key` per call."""
        if key not in self.names:
            self.names.append(key)
        idx = self.names.index(key)
        observer = self.observers.get(key)
        stack = self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(sid)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[sid] = clock()
                stack.pop()
            if observer is not None:
                tracer.paused = True
                try:
                    observer(tracer, args, result)
                finally:
                    tracer.paused = False
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target and rebind it everywhere in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        by_name = {m.__name__: m for m in modules}
        for layer, names in TARGETS.items():
            module = by_name.get(f"{PACKAGE}.{layer}")
            if module is None:
                raise RuntimeError(f"module {PACKAGE}.{layer} is not loaded")
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, property):
                        wrapped = property(self.wrap(key, original.fget),
                                           original.fset, original.fdel,
                                           original.__doc__)
                    else:
                        wrapped = self.wrap(key, original)
                    self.originals[key] = original
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, wrapped)
                    continue
                original = getattr(module, name)
                wrapped = self.wrap(key, original)
                self.originals[key] = original
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        """Restore every binding that `install` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive time and self time, in seconds.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice.  Spans are stored in start order,
        which lets one pass with an explicit stack track the open ancestors.
        """
        n = len(self.span_start)
        start, end = self.span_start, self.span_end
        parent, name = self.span_parent, self.span_name
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        k = len(self.names)
        calls, total, self_time = [0] * k, [0.0] * k, [0.0] * k
        open_count = [0] * k
        stack: list[int] = []
        for i in range(n):
            p = parent[i]
            while stack and stack[-1] != p:
                open_count[name[stack.pop()]] -= 1
            j = name[i]
            duration = end[i] - start[i]
            calls[j] += 1
            self_time[j] += duration - covered[i]
            if open_count[j] == 0:
                total[j] += duration
            open_count[j] += 1
            stack.append(i)
        return {key: {"calls": calls[j], "total_s": total[j], "self_s": self_time[j]}
                for j, key in enumerate(self.names)}


class Counters:
    """Problem sizes and waste ratios, read off the arguments and results of
    traced calls.  Each count repeats exactly for a given workload and seed."""

    def __init__(self):
        self.values = dict.fromkeys((
            "subdivision.items", "subdivision.c_rays", "subdivision.c_facets",
            "subdivision.faces_avoiding", "fans.cones", "fans.bounded_cones",
            "fans.faces_returned", "fans.cones_kept", "formats.bytes_written",
            "formats.bytes_read", "cones.with_lineality"), 0)

    def observers(self) -> dict[str, Observer]:
        out: dict[str, Observer] = {
            "subdivision.subdivide_chart": self._subdivided,
            "cones.Cone.faces": self._faces,
            "fans.fan_from_cones": self._fan,
            "fans.Fan.bounded_cones": self._bounded,
            "cones.cone_from_generators": self._cone,
        }
        for name in TARGETS["formats"]:
            out[f"formats.{name}"] = self._read if name.startswith("read_") else self._written
        return out

    def _subdivided(self, tracer: Tracer, args: tuple, result):
        v = self.values
        v["subdivision.items"] += len(result.chart.items)
        v["subdivision.c_rays"] += len(result.big_cone.rays)
        v["subdivision.c_facets"] += len(result.big_cone.facets)
        v["subdivision.faces_avoiding"] += len(result.faces_avoiding)
        v["fans.cones"] += len(result.projected_fan)

    def _faces(self, tracer: Tracer, args: tuple, result):
        if tracer.parent_name() == "fans.fan_from_cones":
            self.values["fans.faces_returned"] += len(result)

    def _fan(self, tracer: Tracer, args: tuple, result):
        self.values["fans.cones_kept"] += len(result)

    def _bounded(self, tracer: Tracer, args: tuple, result):
        self.values["fans.bounded_cones"] += len(result)

    def _cone(self, tracer: Tracer, args: tuple, result):
        self.values["cones.with_lineality"] += bool(result.lineality)

    def _written(self, tracer: Tracer, args: tuple, result):
        self.values["formats.bytes_written"] += len(result.encode())

    def _read(self, tracer: Tracer, args: tuple, result):
        self.values["formats.bytes_read"] += len(args[0].encode())


def layer_metrics(tracer: Tracer, counters: Counters, run_s: float) -> dict[str, float]:
    """Flat per-layer metrics of one traced run: per function calls, total_s
    and self_s; per layer self_s; the counters and their ratios."""
    out: dict[str, float] = {}
    layer_self = dict.fromkeys(TARGETS, 0.0)
    for key, row in tracer.summary().items():
        for field in ("calls", "total_s", "self_s"):
            out[f"{key}.{field}"] = row[field]
        layer_self[key.split(".", 1)[0]] += row["self_s"]
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds
    out.update(counters.values)
    v = counters.values
    out["fans.face_closure_yield"] = (v["fans.cones_kept"] / v["fans.faces_returned"]
                                      if v["fans.faces_returned"] else 0.0)
    made = out["cones.cone_from_generators.calls"]
    out["cones.lineality_share"] = v["cones.with_lineality"] / made if made else 0.0
    out["trace.run_s"] = run_s
    out["trace.unattributed_s"] = run_s - sum(layer_self.values())
    return out
