"""Span recorder that wraps ttspec's public functions from outside the package.

`Tracer.install()` replaces every public function of every ttspec module
(including names rebound by `from .x import y` in other modules), plus the
hot methods in `HOT_METHODS`, with a wrapper that records a span.  Nothing
under `src/` changes; `uninstall()` restores the originals.

Spans form a calling-context tree per operation.  Consecutive calls of the
same function under the same parent span fold into one node that keeps the
first start, the last end, the call count, the busy time and the time spent
in child spans, so a loop of 10^5 field multiplications costs one record,
not 10^5.  A node's self time is its busy time minus its children's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import time
import types

MODULES = (
    "finite_field",
    "quadratic_forms",
    "milnor_witt",
    "graded_spectrum",
    "chow_motives",
    "tt_geometry",
    "cli",
)

# methods called too often to leave out, named in the layer table
HOT_METHODS = {
    "finite_field": {"FieldElement": ("__mul__", "inverse")},
    "quadratic_forms": {"DiagonalForm": ("evaluate",)},
    "tt_geometry": {"FiniteSpectralSpace": ("from_edges",)},
}

# node layout: name id, node id, parent node id, first start, last end,
# calls, busy ns, child ns, last child node, operation id
NAME, ID, PARENT, START, END, CALLS, BUSY, CHILD, LAST, OP = range(10)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.nodes: list[list] = []
        self.stack: list[list] = []
        self.incl_ns: list[int] = []  # outermost-call time per name
        self.active: list[int] = []  # open calls per name
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    # ------------------------------------------------------------ recording

    def begin_op(self, op: int) -> None:
        """Open the root span of operation `op`; later spans share its id."""
        root = [self._name_id("op"), len(self.nodes), -1, time.perf_counter_ns(), 0, 1, 0, 0, None, op]
        self.nodes.append(root)
        self.stack = [root]

    def end_op(self) -> None:
        root = self.stack[0]
        root[END] = time.perf_counter_ns()
        root[BUSY] = root[END] - root[START]
        self.stack = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.incl_ns.append(0)
            self.active.append(0)
        return nid

    def wrap(self, fn, name: str, hook=None):
        """Return `fn` wrapped in a span called `name`; `hook(self, result)`
        runs after each successful call."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        nodes = self.nodes
        active = self.active
        incl = self.incl_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack:  # outside any operation, e.g. module import
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = parent[LAST]
            if node is None or node[NAME] != nid:
                node = [nid, len(nodes), parent[ID], 0, 0, 0, 0, 0, None, parent[OP]]
                nodes.append(node)
                parent[LAST] = node
            stack.append(node)
            depth = active[nid]
            active[nid] = depth + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[nid] = depth
                dur = t1 - t0
                if not node[CALLS]:
                    node[START] = t0
                node[END] = t1
                node[CALLS] += 1
                node[BUSY] += dur
                parent[CHILD] += dur
                if not depth:
                    incl[nid] += dur
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    # --------------------------------------------------------- installation

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and hot methods of every ttspec module."""
        mods = {name: importlib.import_module(f"ttspec.{name}") for name in MODULES}
        pkg = importlib.import_module("ttspec")
        for owner in [pkg, *mods.values()]:
            for attr, obj in list(vars(owner).items()):
                layer = _layer_of(obj)
                if layer is None or attr.startswith("_"):
                    continue
                key = id(obj)
                if key not in self._wrapped:
                    name = f"{layer}.{obj.__qualname__}"
                    self._wrapped[key] = self.wrap(obj, name, HOOKS.get(name))
                self._patch(owner, attr, self._wrapped[key])
        for layer, classes in HOT_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for meth in methods:
                    raw = vars(cls)[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, staticmethod):
                        self._patch(cls, meth, staticmethod(self.wrap(raw.__func__, name)))
                    else:
                        self._patch(cls, meth, self.wrap(raw, name, HOOKS.get(name)))
        # the cli layer's parse and render phases
        cli = mods["cli"]
        self._patch(cli, "_render_table", self.wrap(cli._render_table, "cli.render._render_table"))
        shim = types.SimpleNamespace(dumps=self.wrap(json.dumps, "cli.render.json_dumps"))
        self._patch(cli, "json", shim)
        cli.print = self.wrap(print, "cli.render.print")
        self._patches.append((cli, "print", None))
        self._patch(
            argparse.ArgumentParser,
            "parse_args",
            self.wrap(argparse.ArgumentParser.parse_args, "cli.parse_args"),
        )

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches = []

    # --------------------------------------------------------------- output

    def summary(self) -> dict:
        """Per-name totals: [calls, self ns, outermost inclusive ns]."""
        names = {}
        for node in self.nodes:
            name = self.names[node[NAME]]
            if name == "op":
                continue
            entry = names.setdefault(name, [0, 0, 0])
            entry[0] += node[CALLS]
            entry[1] += node[BUSY] - node[CHILD]
        for name, entry in names.items():
            entry[2] = self.incl_ns[self.name_ids[name]]
        return {"names": names, "counters": dict(self.counters)}

    def span_records(self):
        """One dict per folded span node, ready to be written as JSON lines."""
        for node in self.nodes:
            yield {
                "op": node[OP],
                "id": node[ID],
                "parent": node[PARENT],
                "name": self.names[node[NAME]],
                "start_ns": node[START],
                "end_ns": node[END],
                "calls": node[CALLS],
                "busy_ns": node[BUSY],
                "self_ns": node[BUSY] - node[CHILD],
            }


def _layer_of(obj):
    """Module layer of a ttspec function (plain or lru_cache-wrapped)."""
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return None
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("ttspec."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in MODULES else None


def _count_zero(tracer, value):
    if value.is_zero():
        tracer.count("quadratic_forms.evaluate_zero")


def _count_certified(tracer, cert):
    if cert["prime"]:
        tracer.count("graded_spectrum.certified")


def _count_closure(tracer, _ideal):
    if tracer.active[tracer.name_ids["tt_geometry.enumerate_primes"]]:
        tracer.count("tt_geometry.prime_candidates")


def _count_tate_primes(tracer, found):
    # the zero ideal is a candidate too, besides one closure per line
    tracer.count("tt_geometry.prime_candidates")
    tracer.count("tt_geometry.primes", len(found["primes"]))


HOOKS = {
    "quadratic_forms.DiagonalForm.evaluate": _count_zero,
    "graded_spectrum.is_prime_ideal": _count_certified,
    "tt_geometry.ideal_closure": _count_closure,
    "tt_geometry.enumerate_primes": _count_tate_primes,
}
