"""Spans around skelsig's public functions and methods, recorded from outside the package.

Every public function and method defined in a skelsig module is wrapped, and
the wrapper is bound in every skelsig namespace that held the original (``from
... import`` copies included), so calls between modules are seen.  Spans
(name, start, end, parent) are kept in memory, timed in CPU seconds by the
clock the caller gives, and written out at the end.  A layer's self time is
the duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("rh", "geometry", "groups", "genvec", "kspace", "svg", "cli")

# Constant-time primitives called from the innermost loops of the group search
# and the lattice enumeration: a span there would time the wrapper, not the
# work (catalog-48 makes tens of millions of GroupTable.mul calls).  Their cost
# stays in the self time of the function that calls them.
UNWRAPPED = frozenset({
    "groups.GroupTable.mul",
    "groups.GroupTable.inv",
    "groups.GroupTable.element_order",
    "groups.GroupTable.commutator",
    "groups.GroupTable.elements",
    "groups.GroupTable.subgroup_closure",
    "groups.GroupTable.generates",
    "rh.SearchVerdict.exists",
    "rh.SearchVerdict.not_exists",
    "rh.SearchVerdict.unknown",
})


# Counts taken from results at the span boundary: verdict statuses of these ...
COUNT_STATUS = frozenset({"rh.period_feasible", "genvec.search"})
# ... and the number of lattice points these enumerations return.
COUNT_SIZE = frozenset({"geometry.TriangleRegion.integer_points", "geometry.GapRegion.integer_points_raw"})


class Tracer:
    def __init__(self, clock=time.process_time) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = [-1]
        self.statuses: dict[str, int] = {}
        self.sizes: dict[str, int] = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        clock = self.clock
        stack, ends = self.stack, self.span_end
        push_name, push_parent = self.span_name.append, self.span_parent.append
        push_start, push_end = self.span_start.append, self.span_end.append
        push_stack, pop_stack = stack.append, stack.pop

        if inspect.isgeneratorfunction(fn):
            # a generator works when it is resumed: one span per resume
            def wrapped(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(ends)
                    push_name(name_id)
                    push_parent(stack[-1])
                    push_end(0.0)
                    push_stack(idx)
                    push_start(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        pop_stack()
                    yield item

        else:
            def wrapped(*args, **kwargs):
                idx = len(ends)
                push_name(name_id)
                push_parent(stack[-1])
                push_end(0.0)
                push_stack(idx)
                push_start(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    pop_stack()

        if name in COUNT_STATUS:
            timed, statuses = wrapped, self.statuses

            def wrapped(*args, **kwargs):
                result = timed(*args, **kwargs)
                key = f"{name}:{result.status}"
                statuses[key] = statuses.get(key, 0) + 1
                return result

        elif name in COUNT_SIZE:
            timed, sizes = wrapped, self.sizes

            def wrapped(*args, **kwargs):
                result = timed(*args, **kwargs)
                sizes[name] = sizes.get(name, 0) + len(result)
                return result

        wrapped.__name__ = fn.__name__
        wrapped.__qualname__ = fn.__qualname__
        wrapped.__doc__ = fn.__doc__
        return wrapped

    def install(self) -> None:
        """Wrap every public function and method of the skelsig layers."""
        modules = {m: sys.modules["skelsig." + m] for m in LAYERS}
        spaces = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "skelsig"]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self.wrap(f"{layer}.{attr}", obj)
                    for space in spaces:
                        for key, val in list(vars(space).items()):
                            if val is obj:
                                setattr(space, key, new)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        name = f"{layer}.{attr}.{meth}"
                        if meth.startswith("_") or name in UNWRAPPED:
                            continue
                        if isinstance(raw, (classmethod, staticmethod)):
                            new = type(raw)(self.wrap(name, raw.__func__))
                        elif inspect.isfunction(raw):
                            new = self.wrap(name, raw)
                        else:
                            continue  # properties and constants are attribute reads
                        setattr(obj, meth, new)

    def summary(self, scale: float = 1.0) -> dict:
        """Calls, statuses and sizes per name, and layer self times; times multiplied by ``scale``."""
        n = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.span_parent[i] >= 0:
                covered[self.span_parent[i]] += durations[i]
        calls: dict[str, int] = {}
        max_s: dict[str, float] = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            max_s[name] = max(max_s.get(name, 0.0), durations[i] * scale)
            self_s[name.split(".")[0]] += (durations[i] - covered[i]) * scale
        return {"spans": n, "self_s": self_s, "calls": calls, "max_s": max_s,
                "statuses": self.statuses, "sizes": self.sizes}

    def write(self, path: str) -> None:
        """One line of span names, then one line per span: name index, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(self.names) + "\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_name[i]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n")
