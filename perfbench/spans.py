"""Spans around the calls into each detline layer, recorded from outside.

``Tracer.install`` wraps every public function of the traced detline modules
(the names in each module's ``__all__``) and rebinds the wrapper under every
name that refers to the function in any detline module, so a call made from
inside the package is caught as well as a call made by the benchmark.  The
``numpy.linalg`` and ``scipy.linalg`` entry points the package uses are
wrapped the same way and form the ``lapack`` layer; each of those spans also
adds a flop count computed from the argument shapes.  ``Tracer.uninstall``
puts every original back.

A span is ``[id, parent_id, name, start, end, failed]`` with times from
``time.perf_counter``.  Spans stay in memory until ``write`` stores them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# gradedlinalg is left out: its functions are O(d^2) integer parities.
TRACED_MODULES = ("complexes", "torsion", "signature", "circle", "workbench",
                  "selftest", "cli")
LAPACK = {"svd": "numpy", "eigvals": "numpy", "lstsq": "numpy",
          "det": "numpy", "schur": "scipy"}


def _shape(a):
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return None
    batch = 1
    for n in shape[:-2]:
        batch *= n
    return batch, shape[-2], shape[-1]


def lapack_flops(name: str, args, kwargs) -> int:
    """Flop estimate of one call from its argument shapes (Golub-Van Loan
    operation counts for real data, times 4 for complex data)."""
    a = args[0] if args else None
    dims = _shape(a)
    if dims is None:
        return 0
    batch, m, n = dims
    if name == "svd":
        m, n = max(m, n), min(m, n)
        if not kwargs.get("compute_uv", True):
            f = 4 * m * n * n - 4 * n ** 3 / 3
        elif kwargs.get("full_matrices", True):
            f = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
        else:
            f = 6 * m * n * n + 11 * n ** 3
    elif name == "eigvals":
        f = 10 * n ** 3
    elif name == "schur":
        f = 25 * n ** 3
    elif name == "det":
        f = 2 * n ** 3 / 3
    elif name == "lstsq":
        b = args[1] if len(args) > 1 else kwargs.get("b")
        k = 1 if getattr(b, "ndim", 1) < 2 else b.shape[-1]
        f = 4 * m * n * n - 4 * n ** 3 / 3 + 4 * m * n * k
    else:
        f = 0
    if getattr(a, "dtype", None) is not None and a.dtype.kind == "c":
        f *= 4
    return int(round(batch * f))


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.flops = 0
        self.bytes = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, name_of=None, on_call=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            if on_call is not None:
                on_call(args, kwargs)
            span = [len(spans), stack[-1] if stack else -1, label, 0.0, 0.0,
                    False]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
            return result

        return traced

    def _rebind(self, packages, fn, wrapped):
        for mod in packages:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def install(self):
        import importlib
        import sys

        import numpy.linalg
        import scipy.linalg

        importlib.import_module("detline")
        for short in TRACED_MODULES:
            importlib.import_module(f"detline.{short}")
        packages = [m for n, m in sys.modules.items()
                    if m is not None and (n == "detline"
                                          or n.startswith("detline."))]
        for short in TRACED_MODULES:
            mod = sys.modules[f"detline.{short}"]
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname)
                if not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                self._rebind(packages, fn,
                             self._wrap_detline(short, fname, fn))
        selftest = sys.modules["detline.selftest"]
        checks = selftest.CHECKS
        self._restore.append((checks, slice(None), list(checks)))
        checks[:] = [(name, self.wrap(f"selftest.check.{name}", fn))
                     for name, fn in checks]
        for fname, lib in LAPACK.items():
            mod = numpy.linalg if lib == "numpy" else scipy.linalg
            fn = getattr(mod, fname)
            self._restore.append((mod, fname, fn))
            setattr(mod, fname, self._wrap_lapack(fname, fn))

    def _wrap_detline(self, short, fname, fn):
        if (short, fname) == ("cli", "main"):
            def subcommand(args, kwargs):
                argv = args[0] if args else kwargs.get("argv") or ["?"]
                return f"cli.main.{argv[0]}"
            return self.wrap("cli.main", fn, name_of=subcommand)
        if (short, fname) == ("workbench", "serialize_document"):
            inner = self.wrap("workbench.serialize_document", fn)

            def serialize(*args, **kwargs):
                text = inner(*args, **kwargs)
                self.bytes["workbench.serialize_document"] += len(text)
                return text

            return functools.wraps(fn)(serialize)
        if (short, fname) == ("workbench", "deserialize_document"):
            def count(args, kwargs):
                text = args[0] if args else kwargs.get("text", "")
                self.bytes["workbench.deserialize_document"] += len(text)
            return self.wrap("workbench.deserialize_document", fn,
                             on_call=count)
        return self.wrap(f"{short}.{fname}", fn)

    def _wrap_lapack(self, fname, fn):
        def count(args, kwargs):
            self.flops += lapack_flops(fname, args, kwargs)
        return self.wrap(f"lapack.{fname}", fn, on_call=count)

    def uninstall(self):
        while self._restore:
            target, key, value = self._restore.pop()
            if isinstance(key, slice):
                target[key] = value
            else:
                setattr(target, key, value)

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, busy (summed duration), self (busy minus
        the time covered by child spans) and fail (spans that raised)."""
        child = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "fail": 0})
        for sid, _, name, start, end, failed in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["busy"] += end - start
            agg["self"] += end - start - child[sid]
            agg["fail"] += failed
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields":["id","parent","name","start","end",'
                     '"failed"],"spans":[\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")
