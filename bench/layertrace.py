"""Per-layer tracing from outside the program.

Every public function of each module, and the constructor of every public
class, is replaced by a wrapper that records a span.  Modules that imported a
function by name get the wrapper too, so every call path is seen.  Self time
is a span's duration minus the time its child spans cover, accumulated as
spans close; spans themselves are kept in memory only while `record` is set.
"""

import functools
import importlib
import time

LAYERS = ["exactlin", "serialize", "torus", "pairspace", "clifford", "lefschetz",
          "corresp", "mirror", "siegel", "cli"]


def _mul_cells(a, b, *rest, **kw):
    return a.shape[0] * a.shape[1] * b.shape[1]


def _invert_cells(m, *rest, **kw):
    return m.shape[0] ** 2


# dense work size: rows.inner.cols of a product, dim^2 of an inverse
CELLS = {"exactlin.mul": _mul_cells, "exactlin.invert": _invert_cells}


class Tracer:
    def __init__(self, record=False):
        self.stats = {}       # name -> [calls, cells, self seconds]
        self.spans = [] if record else None   # [name, start, end, parent index]
        self._stack = []      # open spans: [start, child seconds, span index]
        self._restore = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0.0])
        stack, spans, cells = self._stack, self.spans, CELLS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            stats[0] += 1
            if cells is not None:
                stats[1] += cells(*args, **kw)
            idx = -1
            if spans is not None:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][2] if stack else -1])
            frame = [clock(), 0.0, idx]
            stack.append(frame)
            try:
                return fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    spans[idx][1], spans[idx][2] = frame[0], end

        return wrapper

    def install(self):
        mods = {name: importlib.import_module(f"torusmirror.{name}") for name in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    init = obj.__dict__.get("__init__")
                    if init is not None:
                        self._restore.append((obj, "__init__", init))
                        setattr(obj, "__init__", self._wrap(f"{layer}.{attr}", init))
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore = []
