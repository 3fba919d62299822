"""Outside-in tracer for geomind.

The tracer replaces each target function, found by identity, at every
binding site in the geomind module namespaces and in the classes those
modules define: `geodesic_step` is bound in both `geodesic` and
`cognition`, `density_at` in both `manifold` and `mind`, and a call through
either name must land in the same span. The program itself is not edited.
A target that no longer exists is skipped, so its metrics are absent
rather than zero.

Spans live in memory as [name, parent index, job id, start, end] and are
written out once, when the worker exits.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (span name, defining module, attribute path in that module)
TARGETS = (
    ("cli", "geomind.cli", "run"),
    ("config.load", "geomind.config", "load_config"),
    ("io.load_field", "geomind.io", "load_field"),
    ("io.export", "geomind.io", "export_trajectory"),
    ("io.export", "geomind.io", "field_to_dict"),
    ("mind.flow", "geomind.mind", "run_thought_flow"),
    ("mind.learn_update", "geomind.mind", "learn_update"),
    ("mind.analyze", "geomind.mind", "analyze_field"),
    ("cognition.cycle", "geomind.cognition", "cycle_step"),
    ("cognition.attention", "geomind.cognition", "attention_weights"),
    ("cognition.attention", "geomind.cognition", "context_vector"),
    ("cognition.sample", "geomind.cognition", "sample_embedding"),
    ("geodesic.solve", "geomind.geodesic", "geodesic_between"),
    ("geodesic.shot", "geomind.geodesic", "integrate_geodesic"),
    ("geodesic.rk4_step", "geomind.geodesic", "geodesic_step"),
    ("geodesic.path_energy", "geomind.geodesic", "path_length_energy"),
    ("manifold.curvature", "geomind.manifold", "curvature_at"),
    ("manifold.christoffel", "geomind.manifold", "ConformalFieldMetric.christoffel"),
    ("manifold.nearest", "geomind.manifold", "TokenField.nearest"),
    ("manifold.density", "geomind.manifold", "density_at"),
    ("manifold.density", "geomind.manifold", "density_gradient"),
)

# Density passes are also counted per enclosing RK4 step.
RK4 = "geodesic.rk4_step"
DENSITY = "manifold.density"


def _resolve(module_name: str, path: str):
    module = sys.modules.get(module_name)
    if module is None:
        return None
    *owners, attr = path.split(".")
    owner = module
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # vars() rather than getattr: a method must be the plain function that
    # sits in the class dictionary, not a bound or inherited attribute.
    return vars(owner).get(attr)


def _namespaces(package: str) -> list:
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    classes = {}
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith(package):
                classes[id(value)] = value
    return modules + list(classes.values())


class Tracer:
    """Records nested spans around geomind functions while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.job = 0
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.job, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "geomind", targets=TARGETS) -> None:
        owners = _namespaces(package)
        for name, module_name, path in targets:
            target = _resolve(module_name, path)
            if target is None:
                continue
            wrapper = self.wrap(name, target)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is target:
                        setattr(owner, attr, wrapper)
                        self._patches.append((owner, attr, target))
            self.installed.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "parent", "job", "start", "end"],
                                    "names": names, "spans": rows}) + "\n")


def summarize(spans) -> dict[int, dict]:
    """Per job id: {span name: [calls, self seconds]} plus the number of
    density spans inside an RK4 step under the key "density_in_rk4".

    A span's self time is its duration minus the time its direct children
    cover; children of one span never overlap in this single-threaded
    program, so their durations add up.
    """
    child_time = [0.0] * len(spans)
    in_rk4 = [False] * len(spans)
    for i, (name, parent, _job, start, end) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_rk4[i] = in_rk4[parent] or spans[parent][0] == RK4
    jobs: dict[int, dict] = {}
    for i, (name, _parent, job, start, end) in enumerate(spans):
        stats = jobs.setdefault(job, {"density_in_rk4": 0})
        entry = stats.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[i]
        if name == DENSITY and in_rk4[i]:
            stats["density_in_rk4"] += 1
    return jobs
