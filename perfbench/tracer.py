"""Spans around calls into the public functions of the ``neighborly`` modules.

The tracer replaces a function in every ``neighborly.*`` module attribute
bound to it, so calls made between modules are seen as well as calls made
by the benchmark.  The wrapper sits above any ``lru_cache``, so the cache's
own counters tell hits from misses.  A call that returns a generator gets a
span per ``next()``.  Spans live in memory as ``[name, start, end, parent]``
and are written out once, at the end of the run.

Only the process that installed the tracer records: forked workers (the
census ``--jobs`` pool) inherit the wrappers but call straight through, and
their work is not seen.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from collections import defaultdict
from time import perf_counter

# the layer boundaries: "<module>.<function>" -> the statistics reported for it
LAYER_STATS = {
    "faces.z2_reduced_betti": ("calls", "self_s", "hit_ratio", "facets_in"),
    "faces.ridge_facets": ("calls", "self_s"),
    "faces.boundary_complex": ("calls", "self_s", "hit_ratio"),
    "faces.all_faces": ("calls", "self_s"),
    "faces.format_complex": ("self_s", "bytes"),
    "cyclic.cyclic_boundary": ("calls", "self_s", "hit_ratio"),
    "posets.order_ideal": ("calls", "self_s", "elements_out"),
    "posets.restrict": ("calls", "self_s"),
    "posets.antichain_lt": ("self_s",),
    "posets.enumerate_antichains": ("self_s", "items"),
    "squeezed.relative_ball": ("calls", "self_s"),
    "squeezed.relative_ball_general": ("calls", "self_s"),
    "squeezed.block_D": ("calls", "self_s"),
    "squeezed.verify_decomposition": ("calls", "self_s"),
    "squeezed.verify_intersection_formula": ("calls", "self_s"),
    "verify.is_i_neighborly": ("self_s",),
    "verify.is_r_stacked": ("self_s",),
    "verify.sphere_sanity": ("calls", "self_s"),
    "verify.ball_sanity": ("calls", "self_s"),
    "verify.find_shelling": ("calls", "self_s", "decided_ratio"),
    "verify.is_shelling": ("calls", "self_s"),
    "construct.sew": ("calls", "self_s"),
    "construct.even_census": ("self_s",),
    "construct.collect_census": ("self_s",),
    "cli.run": ("self_s",),
}
STAT_UNITS = {
    "calls": "count", "self_s": "s", "hit_ratio": "ratio", "facets_in": "count",
    "bytes": "bytes", "elements_out": "count", "items": "count", "decided_ratio": "ratio",
}


def _facet_count(args: tuple) -> int:
    c = args[0]
    return 0 if c.maximal_faces is None else len(c.maximal_faces)


def _size(args: tuple, result) -> int:
    return len(result)


def _decided(args: tuple, result) -> int:
    return int(result.verdict is not None)


# per-call counters: (span name, counter) -> f(args, result); "on miss" ones
# count only calls that the function's lru_cache did not answer
ON_RETURN = {
    ("faces.format_complex", "bytes"): _size,
    ("posets.order_ideal", "elements_out"): _size,
    ("verify.find_shelling", "decided"): _decided,
}
ON_MISS = {
    ("faces.z2_reduced_betti", "facets_in"): _facet_count,
}


class Tracer:
    """Records spans and counters in the process that installs it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)

    def install(self) -> None:
        """Wrap every LAYER_STATS function wherever a ``neighborly`` module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "neighborly" or name.startswith("neighborly.")]
        for name in LAYER_STATS:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"neighborly.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        cache_info = getattr(fn, "cache_info", None)
        on_return = [(key[1], f) for key, f in ON_RETURN.items() if key[0] == name]
        on_miss = [(key[1], f) for key, f in ON_MISS.items() if key[0] == name]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            misses = cache_info().misses if cache_info else 0
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            counts[(name, "calls")] += 1
            if cache_info:
                missed = cache_info().misses > misses
                counts[(name, "misses" if missed else "hits")] += 1
                if missed:
                    for key, f in on_miss:
                        counts[(name, key)] += f(args)
            for key, f in on_return:
                counts[(name, key)] += f(args, result)
            if isinstance(result, types.GeneratorType):
                return self._iterate(name, result)
            return result

        return wrapper

    def _iterate(self, name: str, gen):
        while True:
            idx = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts[(name, "items")] += 1
            yield item

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time covered by child spans."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Every statistic of LAYER_STATS, zero for layers the run never called."""
        self_s = self.self_times()
        out = {}
        for name, stats in LAYER_STATS.items():
            calls = self.counts[(name, "calls")]
            for stat in stats:
                if stat == "self_s":
                    value = self_s.get(name, 0.0)
                elif stat == "hit_ratio":
                    value = self.counts[(name, "hits")] / calls if calls else 0.0
                elif stat == "decided_ratio":
                    value = self.counts[(name, "decided")] / calls if calls else 0.0
                else:
                    value = self.counts[(name, stat)]
                out[f"{name}.{stat}"] = value
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
