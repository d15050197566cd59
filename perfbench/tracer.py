"""Per-layer tracing of zzdist from outside the package.

Each traced function is replaced, by identity, in every loaded
``zzdist.*`` module namespace, so the ``from .x import f`` copies are
wrapped too.  A wrapper records one span per call in a calling-context
tree (one node per call path, holding calls, total and self time); a
layer's self time is its span time minus the time of the traced spans
it called.  Spans are only recorded while ``enabled`` is set, which the
worker does around each timed op, so output checks are not counted.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs; the metric prefix is "<module>.<function>".
TARGETS = (
    ("diagrams", "act"),
    ("diagrams", "decompose"),
    ("zigzag_core", "canonical_type"),
    ("zigzag_core", "is_summand_upto_equiv"),
    ("reflection_distance", "reflection_distance"),
    ("reflections", "apply"),
    ("linalg", "rank"),
    ("linalg", "diagram_limit"),
    ("linalg", "diagram_colimit"),
    ("bottleneck", "bottleneck_distance"),
    ("cli", "parse_module_file"),
    ("cli", "main"),
)
LAYERS = ("linalg", "zigzag_core", "diagrams", "reflections",
          "reflection_distance", "bottleneck", "cli")
# (metric prefix, traced functions summed into it, span statistics)
_REPORTED = (
    ("diagrams.act", ["diagrams.act"], ("calls", "self_s")),
    ("zigzag_core.canonical_type", ["zigzag_core.canonical_type"], ("calls", "self_s")),
    ("zigzag_core.is_summand_upto_equiv", ["zigzag_core.is_summand_upto_equiv"],
     ("calls", "self_s")),
    ("reflection_distance.reflection_distance", ["reflection_distance.reflection_distance"],
     ("calls", "total_s", "self_s")),
    ("diagrams.decompose", ["diagrams.decompose"], ("calls", "total_s", "self_s")),
    ("reflections.apply", ["reflections.apply"], ("calls", "self_s")),
    ("linalg.rank", ["linalg.rank"], ("calls", "self_s")),
    ("linalg.limit_colimit", ["linalg.diagram_limit", "linalg.diagram_colimit"],
     ("calls", "self_s")),
    ("bottleneck.bottleneck_distance", ["bottleneck.bottleneck_distance"],
     ("calls", "total_s", "self_s")),
    ("cli.parse_module_file", ["cli.parse_module_file"], ("calls", "self_s")),
    ("cli.main", ["cli.main"], ("calls", "self_s")),
)


class _Node:
    __slots__ = ("name", "children", "calls", "total", "self_time")

    def __init__(self, name):
        self.name = name
        self.children: dict[str, _Node] = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "calls": self.calls, "total_s": self.total,
                "self_s": self.self_time,
                "children": [c.to_dict() for c in self.children.values()]}


def _points(D):
    return D.points if hasattr(D, "points") else tuple(D)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.root = _Node("op")
        # active path: [node, time spent in traced children]
        self._stack: list[list] = [[self.root, 0.0]]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts = {"reflection_distance.steps": 0, "bottleneck.points": 0,
                       "bottleneck.distinct_points": 0, "bottleneck.point_pairs": 0,
                       "linalg.rank.entries": 0, "linalg.limit_colimit.entries": 0}

    # ---- hooks that count work at the layer boundary, from the inputs
    def _on_call(self, name: str, args, kwargs) -> None:
        def arg(i, key):
            return args[i] if len(args) > i else kwargs[key]

        c = self.counts
        if name == "linalg.rank":
            M = arg(0, "M")
            c["linalg.rank.entries"] += M.rows * M.cols
        elif name in ("linalg.diagram_limit", "linalg.diagram_colimit"):
            c["linalg.limit_colimit.entries"] += sum(M.rows * M.cols
                                                     for (_, _, M) in arg(0, "D").arrows)
        elif name == "bottleneck.bottleneck_distance":
            s, t = _points(arg(0, "S")), _points(arg(1, "T"))
            c["bottleneck.points"] += len(s) + len(t)
            c["bottleneck.distinct_points"] += len(set(s)) + len(set(t))
            c["bottleneck.point_pairs"] += len(s) * len(t)

    def _on_return(self, name: str, result) -> None:
        if name == "reflection_distance.reflection_distance":
            self.counts["reflection_distance.steps"] += result.steps

    def _wrap(self, name: str, layer: str, fn):
        tracer, stack, clock = self, self._stack, time.perf_counter
        hooked_call = name in ("linalg.rank", "linalg.diagram_limit",
                               "linalg.diagram_colimit", "bottleneck.bottleneck_distance")
        hooked_return = name == "reflection_distance.reflection_distance"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1][0]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node(name)
            if hooked_call:
                tracer._on_call(name, args, kwargs)
            frame = [node, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                node.calls += 1
                node.total += dt
                node.self_time += dt - frame[1]
                stack[-1][1] += dt
            if hooked_return:
                tracer._on_return(name, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded zzdist module namespace."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zzdist" or name.startswith("zzdist."))]
        for mod, fname in TARGETS:
            # zzdist.reflection_distance is the function, so go through sys.modules
            original = getattr(sys.modules[f"zzdist.{mod}"], fname)
            wrapper = self._wrap(f"{mod}.{fname}", mod, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    # ---- aggregation
    def _walk(self):
        """Yield (node, names of its ancestors) for every node."""
        todo = [(self.root, ())]
        while todo:
            node, above = todo.pop()
            yield node, above
            for child in node.children.values():
                todo.append((child, above + (node.name,)))

    def metrics(self) -> dict:
        agg: dict[str, dict] = {}
        successors = 0
        for node, above in self._walk():
            if node is self.root:
                continue
            a = agg.setdefault(node.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += node.calls
            a["self_s"] += node.self_time
            if node.name not in above:  # nested same-name spans count once
                a["total_s"] += node.total
            if node.name == "diagrams.act" and "reflection_distance.reflection_distance" in above:
                successors += node.calls

        out: dict[str, float] = {}
        for prefix, names, keys in _REPORTED:
            for k in keys:
                out[f"{prefix}.{k}"] = sum(agg.get(n, {}).get(k, 0) for n in names)
        for key in ("reflection_distance.steps", "linalg.rank.entries",
                    "linalg.limit_colimit.entries", "bottleneck.points",
                    "bottleneck.distinct_points"):
            out[key] = self.counts[key]
        out["reflection_distance.successors"] = successors
        rd_total = out["reflection_distance.reflection_distance.total_s"]
        out["reflection_distance.us_per_successor"] = (
            1e6 * rd_total / successors if successors else 0.0)
        pairs = self.counts["bottleneck.point_pairs"]
        bn_total = out["bottleneck.bottleneck_distance.total_s"]
        out["bottleneck.us_per_point_pair"] = 1e6 * bn_total / pairs if pairs else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def tree(self) -> dict:
        return self.root.to_dict()
