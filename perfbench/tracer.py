"""Span tracing installed from outside the library.

``Tracer.install()`` wraps the public functions of the permdyck modules
(``kernels``, ``census``, ``perms``, ``paths``, ``bijections``, ``series``
and ``cli``), plus the few private census helpers whose spans the cache and
pool metrics need.  Every name that refers to a wrapped function in any
loaded permdyck module is rebound, so ``from x import f`` callers are traced
too.  The library source is not touched.

Each call records one span: name, start, end, parent span and a work figure
(permutations swept, convolution products).  Spans stay in memory in flat
arrays and are written once, when the job ends, by ``Tracer.dump``: one JSON
line appended to the job's span file.

Pool workers are forked from the traced job and inherit the wrappers.  Their
memory is lost when the pool terminates them, so a worker appends the spans
of each shard it finishes to the same file, one line per shard, marked as a
worker's.  ``read`` gives every line back; ``aggregate`` takes the spans of
one line.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from array import array
from pathlib import Path

MODULES = ("kernels", "census", "perms", "paths", "bijections", "series", "cli")

# private helpers whose spans define the cache and pool metrics
PRIVATE = {
    "census": ("_sweep", "_cache_load", "_cache_store", "_shard_histograms"),
}

# the span that runs one pool task; a forked worker flushes after each one
SHARD_SPAN = "census._shard_histograms"

# ``Series`` operators, recorded under short names
SERIES_METHODS = {
    "__mul__": "series.mul",
    "__rmul__": "series.mul",
    "__truediv__": "series.div",
    "__pow__": "series.pow",
    "sqrt": "series.sqrt",
}

ARRAY_TYPES = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"), ("work", "d"))


def _kernel_perms(args, kwargs) -> float:
    """Permutations one ``histogram_pair(n, prefix)`` call sweeps."""
    n = args[0] if args else kwargs["n"]
    prefix = args[1] if len(args) > 1 else kwargs.get("prefix", ())
    return float(math.factorial(n - len(prefix)))


def _mul_products(args, kwargs) -> float:
    """Products a truncated convolution of two series computes (no zero skips)."""
    a, b = args[0], args[1]
    if not hasattr(b, "coeffs"):
        return 0.0
    m = min(len(a.coeffs), len(b.coeffs))
    return m * (m + 1) / 2


def _div_products(args, kwargs) -> float:
    a, b = args[0], args[1]
    if not hasattr(b, "coeffs"):
        return 0.0
    m = min(len(a.coeffs), len(b.coeffs))
    return m * (m - 1) / 2


def _sqrt_products(args, kwargs) -> float:
    m = len(args[0].coeffs)
    return m * (m - 1) / 2


WORK = {
    "kernels.histogram_pair": _kernel_perms,
    "series.mul": _mul_products,
    "series.div": _div_products,
    "series.sqrt": _sqrt_products,
}


class Tracer:
    """In-memory span recorder for one job process."""

    def __init__(self, job_id: str, out: Path):
        self.job_id = job_id
        self.out = out
        self.pid = os.getpid()
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.arrays = {key: array(code) for key, code in ARRAY_TYPES}
        self.stack = [-1]
        self.constructions = 0
        self.worker = False

    # -- recording -----------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn):
        idx = self._name_index(name)
        names, parents = self.arrays["name"], self.arrays["parent"]
        starts, ends, work = self.arrays["start"], self.arrays["end"], self.arrays["work"]
        stack = self.stack
        clock = time.perf_counter
        work_fn = WORK.get(name)
        flush = name == SHARD_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flush and os.getpid() != self.pid:
                self._become_worker()
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            work.append(work_fn(args, kwargs) if work_fn else 0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if flush and len(stack) == 1 and os.getpid() == self.pid and self.worker:
                    self._flush_worker()

        return traced

    def _become_worker(self) -> None:
        """First shard in a forked worker: drop the spans copied from the job."""
        self.pid = os.getpid()
        self.worker = True
        for arr in self.arrays.values():
            del arr[:]
        del self.stack[1:]

    def _write(self, extra: dict) -> None:
        """Append the spans recorded so far as one line, and forget them."""
        a = self.arrays
        spans = [
            [self.names[a["name"][i]], a["start"][i], a["end"][i], a["parent"][i], a["work"][i]]
            for i in range(len(a["start"]))
        ]
        line = json.dumps({"job": self.job_id, "pid": self.pid, "worker": self.worker, **extra, "spans": spans})
        with open(self.out, "a") as fh:
            fh.write(line + "\n")
        for arr in a.values():
            del arr[:]

    def _flush_worker(self) -> None:
        self._write({})

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {name: importlib.import_module(f"permdyck.{name}") for name in MODULES}
        replaced: dict[int, tuple] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                if inspect.isclass(obj) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", None) or ""
                # kernels re-exports the selected backend's functions
                if home != mod.__name__ and not (short == "kernels" and home.startswith("permdyck.")):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # a span would end before the generator runs
                replaced[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        self._rebind(replaced)

        series_cls = mods["series"].Series
        for attr, name in SERIES_METHODS.items():
            original = series_cls.__dict__.get(attr)
            if original is not None:
                setattr(series_cls, attr, self.wrap(name, original))

        perm_cls = mods["perms"].Permutation
        original_new = perm_cls.__dict__["__new__"]
        original_new = getattr(original_new, "__func__", original_new)

        def counted_new(cls, *args, **kwargs):
            self.constructions += 1
            return original_new(cls, *args, **kwargs)

        perm_cls.__new__ = staticmethod(counted_new)

    @staticmethod
    def _rebind(replaced: dict) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "permdyck" or modname.startswith("permdyck.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    # -- output --------------------------------------------------------------

    def dump(self, extra: dict) -> None:
        """Write the job's spans, with ``extra`` facts about the job, once."""
        self._write({"constructions": self.constructions, **extra})


def read(path: Path) -> list[dict]:
    """Every line of a span file: the job's own, and one per worker shard."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def aggregate(spans: list[list]) -> tuple[dict, dict]:
    """Per span name: calls, total time, self time (span minus child spans)
    and work.  Also, per (parent name, child name): how many parent spans
    have at least one such child, and their total time.  A span is
    ``[name, start, end, parent index, work]``."""
    child_time = [0.0] * len(spans)
    child_names: dict[int, set[str]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            child_names.setdefault(parent, set()).add(name)
    stats: dict[str, dict[str, float]] = {}
    for (name, start, end, _, work), below in zip(spans, child_time):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - below
        entry["work"] += work
    with_child: dict[tuple[str, str], dict[str, float]] = {}
    for p, kids in child_names.items():
        name, start, end = spans[p][:3]
        for kid in kids:
            entry = with_child.setdefault((name, kid), {"calls": 0, "total_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
    return stats, with_child
