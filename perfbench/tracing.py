"""Per-layer tracing of siplab from outside the program.

Each public function of each siplab module is wrapped, and the wrapper
is bound in place of the function in every siplab module that holds it,
so calls between modules and within one module both pass through it.
A timed wrapper records calls, duration and self time (duration minus
the time of wrapped functions it called, in the same thread). The
functions called tens of thousands of times per op are only counted.

Records are kept per thread and merged when read, between ops, so the
worker threads of `sweep --jobs` lose no update.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import threading
import time

COUNT_ONLY = frozenset({"configs.rank_composition", "lookdown.labeled_index"})


def _matrix_bytes(matrix) -> int:
    """Bytes of a dense or scipy.sparse matrix, from its arrays' sizes."""
    if hasattr(matrix, "indptr"):
        return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
    return int(getattr(matrix, "nbytes", 0))


def _observe_generator(record, args, result) -> None:
    space = getattr(result, "space", None)
    record.counts["sip.build_sip_generator.states"] += getattr(space, "size", 0)
    size = _matrix_bytes(getattr(result, "matrix", None))
    record.maxima["sip.build_sip_generator.bytes"] = max(
        record.maxima["sip.build_sip_generator.bytes"], size)


def _observe_simulate(record, args, result) -> None:
    record.counts["simulate.simulate.paths"] += getattr(args[0], "n_paths", 0) if args else 0


OBSERVERS = {
    "sip.build_sip_generator": _observe_generator,
    "simulate.simulate": _observe_simulate,
}


class _ThreadRecord(threading.local):
    def __init__(self, registry: list, lock: threading.Lock):
        self.stack = []
        self.counts = collections.Counter()
        self.self_s = collections.Counter()
        self.total_s = collections.Counter()
        self.maxima = collections.Counter()
        with lock:
            registry.append(self.__dict__)


class Tracer:
    """Wraps the public functions of the loaded siplab modules; install()
    and uninstall() swap the wrappers in and out between ops."""

    def __init__(self):
        self._lock = threading.Lock()
        self._records: list = []
        self._local = _ThreadRecord(self._records, self._lock)
        self.modules = {name: mod for name, mod in sys.modules.items()
                        if name == "siplab" or name.startswith("siplab.")}
        self.functions = {}
        for name, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == name and not attr.startswith("_"):
                    self.functions[f"{name.rpartition('.')[2]}.{attr}"] = fn
        self._wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.functions.items()}
        self._bindings = [(mod, attr, fn) for mod in self.modules.values()
                          for attr, fn in vars(mod).items()
                          if inspect.isfunction(fn) and id(fn) in self._wrappers]

    def _wrap(self, key: str, fn):
        local = self._local
        if key in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                local.counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        observe = OBSERVERS.get(key)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = local.stack
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                local.counts[key] += 1
                local.total_s[key] += elapsed
                local.self_s[key] += elapsed - frame[0]
            if observe is not None:
                observe(local, args, result)
            return result
        return timed

    def install(self) -> None:
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, self._wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, fn)

    def totals(self) -> dict:
        """Merged records of every thread so far: {field: Counter}."""
        merged = {field: collections.Counter()
                  for field in ("counts", "self_s", "total_s", "maxima")}
        with self._lock:
            records = list(self._records)
        for record in records:
            for field in ("counts", "self_s", "total_s"):
                merged[field].update(record[field])
            for key, value in record["maxima"].items():
                merged["maxima"][key] = max(merged["maxima"][key], value)
        return merged
