"""Span tracing for the traced benchmark passes, from outside the program.

``Tracer.install`` wraps each layer's public functions where the other
modules and the benchmark look them up: every ``ncpart`` module attribute
bound to a public function of ``core``, ``stats``, ``algebra``,
``formulas``, ``recurrence``, ``bijections`` or ``cli`` is replaced by a
wrapper that records a span, as are the arithmetic methods of
``MultiPoly`` and ``TruncatedSeries`` and the thread pool ``cli`` uses.
No source file changes; ``uninstall`` puts every original back.

Spans are kept in memory as a calling-context tree: calls with the same
name, parent span, thread and request merge into one node that keeps the
call count, the first start, the last end, and the summed wall and
thread-CPU time.  A node's self time is its CPU time minus that of its
children on the same thread; CPU time rather than wall time, so that pool
threads waiting on the interpreter lock are not counted twice.  A layer's
self time is the sum over its nodes; the benchmark's own time is the
traced wall time minus all layers' self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

from plan import catalan

LAYERS = ("core", "stats", "algebra", "formulas", "recurrence", "bijections", "cli")

# Arithmetic of the exact algebra; the cheap accessors stay unwrapped.
POLY_METHODS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "__pow__",
                "scale", "divide_exact", "substitute", "derivative")
SERIES_METHODS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "__pow__",
                  "scale", "substitute", "derivative_marker", "shift_up", "shift_down",
                  "truncate", "map_coeffs")

SERIES_OPS = ("series_sqrt", "series_div", "solve_quadratic", "solve_poly_functional")
BIJECTIONS = ("map_f", "map_g", "map_equiv", "map_runrev", "map_descent_code")
VERIFY_TARGETS = ("table1", "thm2.1", "thm2.4", "thm2.7", "thm3.3", "thm3.3-joint",
                  "lemma3.1", "totals", "thm3.5")

# Stats entry points: which cache a call reads, and which positional
# arguments are its patterns ("*" = a list of patterns).
STATS_KEYS = {
    "distribution_rows": ("sep", (1,)),
    "distribution": ("sep", (1,)),
    "batch_distribution_rows": ("sep", "*"),
    "joint_rows": ("joint", (1, 2)),
    "joint_distribution": ("joint", (1, 2)),
    "rep_joint_rows": ("rep", (1,)),
    "rep_joint_distribution": ("rep", (1,)),
}
RECURRENCE_ENTRIES = ("staircase_series_by_recurrence", "recurrence_table")


class Node:
    __slots__ = ("id", "name", "layer", "parent", "thread", "request", "count", "wall",
                 "cpu", "first", "last", "names", "layers", "extra")

    def __init__(self, ident, name, parent, thread, request):
        self.id = ident
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.thread = thread
        self.request = request if parent is None else parent.request
        self.count = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.first = None
        self.last = None
        # Names and layers of the ancestors, this node excluded.
        self.names = frozenset() if parent is None else parent.names | {parent.name}
        self.layers = frozenset() if parent is None else parent.layers | {parent.layer}
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self, ncpart) -> None:
        self.ncpart = ncpart
        self.nodes: list[Node] = []
        self.index: dict[tuple, Node] = {}
        self.local = threading.local()
        self.request: int | None = None
        self.patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.seen_stats: dict[tuple, int] = {}
        self.seen_recurrence: set[tuple] = set()
        self.lock = threading.Lock()

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list[Node]:
        try:
            return self.local.stack
        except AttributeError:
            self.local.stack = []
            return self.local.stack

    def _node(self, parent: Node | None, name: str) -> Node:
        thread = threading.get_ident()
        key = (parent.id if parent is not None else ("request", self.request), name, thread)
        node = self.index.get(key)
        if node is None:
            with self.lock:
                node = Node(len(self.nodes), name, parent, thread, self.request)
                self.nodes.append(node)
                self.index[key] = node
        return node

    def wrap(self, fn, name, hook=None):
        """A wrapper of ``fn`` that records a span named ``name`` (a string,
        or a function of the call's arguments)."""
        stack_of = self._stack
        node_of = self._node
        perf = time.perf_counter
        cpu = time.thread_time
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            node = node_of(stack[-1] if stack else None, fixed or name(args, kwargs))
            stack.append(node)
            t0 = perf()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = cpu()
                t1 = perf()
                stack.pop()
                node.count += 1
                node.wall += t1 - t0
                node.cpu += c1 - c0
                if node.first is None:
                    node.first = t0
                node.last = t1
            if hook is not None:
                hook(node, args, kwargs, result, t1 - t0)
            return result

        return traced

    def begin_request(self, index: int) -> None:
        self.request = index
        node = self._node(None, "bench.request")
        self._stack().append(node)
        node.first = time.perf_counter()
        node.count += 1

    def end_request(self) -> None:
        node = self._stack().pop()
        node.last = time.perf_counter()
        node.wall = node.last - node.first
        self.request = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        ncpart = self.ncpart
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "ncpart" or k.startswith("ncpart.")) and m is not None]
        for layer in LAYERS:
            module = getattr(ncpart, layer)
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self.originals[f"{layer}.{attr}"] = fn
                wrapper = self._wrapper(layer, attr, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)
        algebra = ncpart.algebra
        for cls, methods in ((getattr(algebra, "MultiPoly", None), POLY_METHODS),
                             (getattr(algebra, "TruncatedSeries", None), SERIES_METHODS)):
            if cls is None:
                continue
            for attr in methods:
                fn = cls.__dict__.get(attr)
                if inspect.isfunction(fn):
                    self._patch(cls, attr, self.wrap(fn, f"algebra.{cls.__name__}.{attr}"))
        pool = getattr(ncpart.cli, "ThreadPoolExecutor", None)
        if pool is not None:
            self._patch(ncpart.cli, "ThreadPoolExecutor", self._pool_class(pool))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if inspect.isgeneratorfunction(fn):
            # Run the whole generator inside the span, so the consumer's
            # time between items is not charged to it.
            eager = self.wrap(lambda *a, **k: list(fn(*a, **k)), name, _count_items)

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                yield from eager(*args, **kwargs)

            return generator
        if layer == "cli" and attr == "run_verify_target":
            return self.wrap(fn, lambda args, kwargs: "cli.verify." + str(
                args[0] if args else kwargs.get("target")))
        if layer == "stats" and attr in STATS_KEYS:
            return self.wrap(fn, name, self._stats_hook(attr))
        if layer == "formulas" and attr.startswith("gf_"):
            return self.wrap(fn, name, _count_terms)
        if layer == "recurrence" and attr in RECURRENCE_ENTRIES:
            return self.wrap(fn, name, self._recurrence_hook)
        return self.wrap(fn, name)

    def _pool_class(self, base):
        tracer = self

        class TracingPool(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                group = tracer.wrap(fn, "cli.verify.group")

                def run(*a, **k):
                    inner = tracer._stack()
                    saved = list(inner)
                    inner[:] = [parent] if parent is not None else []
                    try:
                        return group(*a, **k)
                    finally:
                        inner[:] = saved

                return super().submit(run, *args, **kwargs)

        return TracingPool

    # -- hooks: counts read off arguments and results ----------------------

    def _stats_hook(self, attr: str):
        cache, positions = STATS_KEYS[attr]
        as_pattern = self.originals["core.as_pattern"]

        def hook(node, args, kwargs, result, wall):
            if "stats" in node.layers or not args:
                return
            n = args[0]
            taus = list(args[1]) if positions == "*" else [args[p] for p in positions]
            key = (cache,) + tuple(as_pattern(t).word for t in taus)
            if self.seen_stats.get(key, -1) >= n:
                node.add("repeat_wall", wall)
                return
            self.seen_stats[key] = n
            node.add("cold_wall", wall)
            node.add("pairs", len(taus) * sum(catalan(k) for k in range(n + 1)))

        return hook

    def _recurrence_hook(self, node, args, kwargs, result, wall):
        if "recurrence" in node.layers:
            return
        key = tuple(args[:2]) + (kwargs.get("clamp", True),)
        node.add("repeat_wall" if key in self.seen_recurrence else "cold_wall", wall)
        self.seen_recurrence.add(key)

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced region, whose wall time is wall_s."""
        nodes = self.nodes
        child_cpu = [0.0] * len(nodes)
        for node in nodes:
            if node.parent is not None and node.parent.thread == node.thread:
                child_cpu[node.parent.id] += node.cpu

        def outer_wall(name: str) -> float:
            return sum(n.wall for n in nodes if n.name == name and name not in n.names)

        def calls(name: str) -> int:
            return sum(n.count for n in nodes if n.name == name)

        def extra(key: str, where) -> float:
            return sum(n.extra.get(key, 0) for n in nodes if where(n))

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        out: dict[str, float] = {}
        out["core.iter_nc.s"] = outer_wall("core.iter_nc")
        out["core.iter_nc.partitions"] = extra("items", lambda n: n.name == "core.iter_nc")
        out["core.iter_nc.partitions_per_s"] = rate(out["core.iter_nc.partitions"],
                                                    out["core.iter_nc.s"])
        for attr in ("distribution_rows", "batch_distribution_rows", "joint_rows",
                     "rep_joint_rows"):
            out[f"stats.{attr}.s"] = outer_wall(f"stats.{attr}")
        is_stats = lambda n: n.layer == "stats"  # noqa: E731
        out["stats.cold.s"] = extra("cold_wall", is_stats)
        out["stats.repeat.s"] = extra("repeat_wall", is_stats)
        out["stats.pairs"] = extra("pairs", is_stats)
        out["stats.pairs_per_s"] = rate(out["stats.pairs"], out["stats.cold.s"])
        for attr in SERIES_OPS:
            out[f"algebra.{attr}.s"] = outer_wall(f"algebra.{attr}")
            out[f"algebra.{attr}.calls"] = calls(f"algebra.{attr}")
        gf_outer = [n for n in nodes if n.name.startswith("formulas.gf_")
                    and not any(a.startswith("formulas.gf_") for a in n.names)]
        out["formulas.gf.s"] = sum(n.wall for n in gf_outer)
        out["formulas.total_occurrences.s"] = outer_wall("formulas.total_occurrences")
        out["formulas.output_terms"] = sum(n.extra.get("terms", 0) for n in gf_outer)
        out["formulas.terms_per_s"] = rate(out["formulas.output_terms"], out["formulas.gf.s"])
        is_rec = lambda n: n.layer == "recurrence"  # noqa: E731
        out["recurrence.series.s"] = extra("cold_wall", is_rec)
        out["recurrence.repeat.s"] = extra("repeat_wall", is_rec)
        for attr in BIJECTIONS:
            out[f"bijections.{attr}.s"] = outer_wall(f"bijections.{attr}")
        bij_entry = [n for n in nodes if n.layer == "bijections" and "bijections" not in n.layers]
        out["bijections.maps"] = sum(n.count for n in bij_entry)
        out["bijections.maps_per_s"] = rate(out["bijections.maps"],
                                            sum(n.wall for n in bij_entry))
        for target in VERIFY_TARGETS:
            out[f"cli.verify.{target}.s"] = outer_wall(f"cli.verify.{target}")
        target_wall = sum(out[f"cli.verify.{t}.s"] for t in VERIFY_TARGETS)
        out["cli.verify.thread_overlap"] = rate(outer_wall("cli.verify.group"), target_wall)
        attributed = 0.0
        for layer in LAYERS:
            own = sum(n.cpu - child_cpu[n.id] for n in nodes if n.layer == layer)
            out[f"{layer}.self_s"] = own
            attributed += own
        out["bench.self_s"] = wall_s - attributed
        return out

    def write(self, path: str) -> None:
        names = {}
        with open(path, "w", encoding="utf-8") as fh:
            for node in self.nodes:
                thread = names.setdefault(node.thread, f"t{len(names)}")
                fh.write(json.dumps({
                    "id": node.id, "name": node.name,
                    "parent": None if node.parent is None else node.parent.id,
                    "request": node.request, "thread": thread, "count": node.count,
                    "start": node.first, "end": node.last,
                    "wall_s": node.wall, "cpu_s": node.cpu, **node.extra,
                }) + "\n")


def _count_items(node, args, kwargs, result, wall) -> None:
    node.add("items", len(result))


def _count_terms(node, args, kwargs, result, wall) -> None:
    if any(a.startswith("formulas.gf_") for a in node.names):
        return
    node.add("terms", sum(1 for c in result.coeffs for _ in c.items()))

