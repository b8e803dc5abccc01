"""In-memory span tracer that wraps conekit's public functions from outside.

`Tracer.install` replaces every public function of the conekit layers (and
the public methods of their non-dataclass classes, e.g. ``ModeOperators``)
with a wrapper that records one span per call: name, start, end, and the
span that was open when the call began (its parent).  A function imported
by name into another module (``from .spaces import h1_seminorm`` in
``dynamics``) is replaced in that module's namespace too, so every call site
reaches the wrapper.  Functions imported at call time (``_projected_rate_norm``
re-imports ``h01_dual_norm``) read the patched module attribute and are
caught as well.  ``uninstall`` restores the originals.

Spans are kept in flat arrays (24 bytes each) until `summary` reduces them
to per-name counts and self times.  A span's self time is its
duration minus the durations of its direct children; calls run on one
thread, so children never overlap and the self times of all spans under a
root add up to the root's duration.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

#: conekit modules traced as layers, in dependency order.
LAYERS = ("geometry", "fields", "operators", "spaces", "indicial", "dynamics",
          "analysis", "config", "cli")

#: Keyword arguments holding a caller's callback; the callback's span is
#: attributed to the caller's layer (the CLI's CSV writer runs inside
#: ``run_semiflow`` through ``on_record``).
CALLBACK_KWARGS = ("on_record",)

#: Extra module attributes traced besides public functions: the LAPACK
#: factorization whose call count is the CH factorization cache-miss count.
EXTRA_TARGETS = (("operators", "zgttrf"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        try:
            params = inspect.signature(fn).parameters
            callbacks = tuple(k for k in CALLBACK_KWARGS if k in params)
        except (TypeError, ValueError):  # builtins and Fortran wrappers
            callbacks = ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callbacks:
                layer = self.names[names[stack[-1]]].split(".")[0] if stack[-1] >= 0 else "bench"
                for key in callbacks:
                    if kwargs.get(key) is not None:
                        kwargs[key] = self._wrap(f"{layer}.{key}", kwargs[key])
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the benchmark's own (a traced unit's root)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def clear(self):
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]

    # ---------------------------------------------------------- patching

    def install(self, package):
        """Wrap the public functions of every layer of ``package``."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [package, *modules.values()]
        targets: list[tuple[str, object]] = []
        taken: set[str] = set()
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    targets.append((f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj) \
                        and not issubclass(obj, BaseException):
                    self._install_methods(layer, obj, taken)
        for layer, attr in EXTRA_TARGETS:
            targets.append((f"{layer}.{attr}", getattr(modules[layer], attr)))
        for name, obj in targets:
            wrapper = self._wrap(name, obj)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is obj:
                        self._patch(ns, attr, wrapper)

    def _install_methods(self, layer: str, cls, taken: set[str]):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__init__":
                self._patch(cls, attr, self._wrap(f"{layer}.{cls.__name__}", obj))
            elif not attr.startswith("_"):
                name = f"{layer}.{attr}"
                if name in taken:
                    name = f"{layer}.{cls.__name__}.{attr}"
                taken.add(name)
                self._patch(cls, attr, self._wrap(name, obj))

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- analysis

    def summary(self) -> "TraceSummary":
        """Reduce the recorded spans to per-name counts and times."""
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        n_names = len(self.names)
        counts = np.bincount(name, minlength=n_names)
        self_sum = np.bincount(name, weights=self_time, minlength=n_names)
        # for each span, whether some ancestor is a run_semiflow call
        in_semiflow = np.zeros(n, dtype=bool)
        rs_id = self._ids.get("dynamics.run_semiflow", -1)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            in_semiflow[live] |= name[anc[live]] == rs_id
            anc[live] = parent[anc[live]]
        counts_in_semiflow = np.bincount(name[in_semiflow], minlength=n_names)
        return TraceSummary(
            spans=n,
            root_time=float(dur[~has_parent].sum()),
            counts={nm: int(counts[i]) for i, nm in enumerate(self.names)},
            self_time={nm: float(self_sum[i]) for i, nm in enumerate(self.names)},
            counts_in_semiflow={nm: int(counts_in_semiflow[i])
                                for i, nm in enumerate(self.names)})


@dataclasses.dataclass
class TraceSummary:
    spans: int
    root_time: float                      # summed duration of parentless spans
    counts: dict[str, int]
    self_time: dict[str, float]
    counts_in_semiflow: dict[str, int]    # calls made under a run_semiflow span

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for nm, t in self.self_time.items() if nm.startswith(prefix))
