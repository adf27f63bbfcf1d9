"""Span tracer for the superpanel modules, installed from outside the package.

The tracer wraps module-level functions of each superpanel module and
rebinds the wrapper under every name that refers to the original function
in any superpanel module. That catches calls made through module attributes
(``nn.forward``), through ``from .x import name`` bindings (``derive_rng``
inside ``cvae``, ``_decode_with_noise`` inside ``panel``) and through lazy
imports inside function bodies, which read the module attribute at call time.

A span is (name, parent span, start, end, items); ``items`` is the work the
call did where it has a natural count (rows, draws, cells). Spans are kept
in compact arrays in memory and written out once, when tracing ends.
"""

import array
import functools
import sys
import time
import types

import numpy as np

MODULES = ("cli", "schema", "nn", "cvae", "sampling", "seeding", "metrics", "panel", "oracle")

# Private helpers that sit on a layer boundary; every public function is
# traced as well.
PRIVATE = frozenset({
    "sampling._decode_with_noise",
    "panel._panel_year_block",
    "panel._bootstrap_replicate",
    "panel._statistic_values",
})


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counts recorded per span, from the call's arguments or result.
ITEMS = {
    "nn.forward": lambda a, k, r: len(_arg(a, k, 1, "x")),
    "sampling.sample": lambda a, k, r: len(r.draws),
    "schema.ingest_csv": lambda a, k, r: len(r[0]),
    "schema.encode": lambda a, k, r: r.n_rows,
    "metrics.cross_tabulate": lambda a, k, r: len(_arg(a, k, 0, "records")),
    "panel.build_panel": lambda a, k, r: r.n_individuals * len(r.years),
    "panel.bootstrap": lambda a, k, r: len(r.diverged),
    "cli.write_csv": lambda a, k, r: len(_arg(a, k, 2, "rows")),
}


class Tracer:
    """Collects spans from wrapped superpanel functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.items = array.array("q")
        self._stack = [-1]
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        count = ITEMS.get(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends, items = (
            self.name_id, self.parent, self.start, self.end, self.items)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            items.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                items[idx] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions and rebind them in every superpanel module."""
        modules = [sys.modules["superpanel"]] + [
            sys.modules[f"superpanel.{m}"] for m in MODULES
        ]
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"superpanel.{short}"]
            for attr, value in vars(module).items():
                if not isinstance(value, types.FunctionType):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if attr.startswith("_") and name not in PRIVATE:
                    continue
                wrappers[value] = self._wrap(name, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            items=np.frombuffer(self.items, dtype=np.int64),
        )


class Spans:
    """Spans loaded from one or more saved traces, with per-name totals."""

    def __init__(self, paths):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.items: dict[str, int] = {}
        self.child_items: dict[tuple[str, str], int] = {}  # (parent module, name)
        self.child_calls: dict[tuple[str, str], int] = {}
        for path in paths:
            self._add(np.load(path))

    def _add(self, data) -> None:
        names = [str(n) for n in data["names"]]
        name_id, parent = data["name_id"], data["parent"]
        duration = data["end"] - data["start"]
        # self time: a span's duration minus the durations of its direct
        # children (children never overlap in this single-threaded program)
        child_time = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        own = duration - child_time
        n_names = len(names)
        calls = np.bincount(name_id, minlength=n_names)
        secs = np.bincount(name_id, weights=duration, minlength=n_names)
        self_secs = np.bincount(name_id, weights=own, minlength=n_names)
        items = np.bincount(name_id, weights=data["items"], minlength=n_names)
        for i, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + int(calls[i])
            self.seconds[name] = self.seconds.get(name, 0.0) + float(secs[i])
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + float(self_secs[i])
            self.items[name] = self.items.get(name, 0) + int(round(items[i]))
        modules = sorted({n.split(".")[0] for n in names})
        module_of = np.array([modules.index(n.split(".")[0]) for n in names], dtype=np.int64)
        parent_module = np.where(has_parent, module_of[name_id[parent]], len(modules))
        key = parent_module * n_names + name_id
        size = (len(modules) + 1) * n_names
        key_calls = np.bincount(key, minlength=size)
        key_items = np.bincount(key, weights=data["items"], minlength=size)
        for k in np.nonzero(key_calls)[0]:
            pm, i = divmod(int(k), n_names)
            pair = (modules[pm] if pm < len(modules) else "", names[i])
            self.child_calls[pair] = self.child_calls.get(pair, 0) + int(key_calls[k])
            self.child_items[pair] = self.child_items.get(pair, 0) + int(round(key_items[k]))

    def module_self_seconds(self, module: str, exclude=()) -> float:
        return sum(v for k, v in self.self_seconds.items()
                   if k.split(".")[0] == module and k not in exclude)
