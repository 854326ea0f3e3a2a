"""Per-layer call counts and self times, taken from outside the package.

`install()` wraps every public function of the six layer modules.  A
function is public when its name has no leading underscore and it is defined
in that module.  `from .gfq import fq_mul` binds the name once per importing
module, so the wrapper replaces the original in every `pglcensus` namespace
that holds it.  Hot leaf functions are aggregated as a count plus a time, not
one span per call.

The tracer keeps one set of counters and assumes one thread: the traced
pass sends every census query with `--jobs 1` (see `workloads.make_pass`).
Times are CPU times of that thread (`time.thread_time`), so time the process
spends descheduled on a busy host is not charged to a layer.

* A function's self time is its time minus the time of the calls it made into
  other layers (calls within its own layer stay in it).
* A layer's self time adds this up over the outermost calls of each run of
  that layer, so nested calls in one layer are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("gfq", "moebius", "stdgroups", "census", "elliptic", "cli")

# lru caches whose cache_info() the traced run reports: (module, name)
CACHES = (
    ("moebius", "mob_compose"),
    ("gfq", "_inverse_cache"),
    ("gfq", "_projection_table"),
    ("gfq", "field_elements"),
    ("elliptic", "ec_points"),
    ("elliptic", "_sqrt_table"),
    ("elliptic", "_one_minus_sigma_fibres"),
)

_clock = time.thread_time


class Tracer:
    def __init__(self):
        self.stack = []  # frames [layer, time spent in calls to other layers]
        self.calls = {}
        self.self_s = {}
        self.layer_s = {}
        self.elems = 0
        self.originals = {}  # "layer.name" -> unwrapped function
        # counters kept by _counters()
        self.enum_depth = 0
        self.locus_under_enum = 0
        self.reported_matches = 0
        self.projections = 0
        self.rational_projections = 0

    def _wrap(self, fn, layer: str, key: str):
        stack, calls, self_s, layer_s = self.stack, self.calls, self.self_s, self.layer_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                own = dt - frame[1]
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + own
                if stack and stack[-1][0] == layer:
                    stack[-1][1] += frame[1]
                else:
                    layer_s[layer] = layer_s.get(layer, 0.0) + own
                    if stack:
                        stack[-1][1] += dt

        return traced

    def _counters(self):
        """Wrappers, applied under the timing wrapper, for the ratios that
        need a function's result or its caller."""

        def enum_actions(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                self.enum_depth += 1
                try:
                    report = fn(*args, **kwargs)
                finally:
                    self.enum_depth -= 1
                self.reported_matches += len(report.matches)
                return report

            return inner

        def stabilized_locus(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                if self.enum_depth:
                    self.locus_under_enum += 1
                return fn(*args, **kwargs)

            return inner

        def subgroup_project(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.projections += 1
                if result is not None:
                    self.rational_projections += 1
                return result

            return inner

        return {
            "census.enum_actions": enum_actions,
            "stdgroups.stabilized_locus": stabilized_locus,
            "stdgroups.subgroup_project": subgroup_project,
        }

    def install(self) -> None:
        import pglcensus.cli  # noqa: F401  (loads every layer module)

        counters = self._counters()
        modules = {layer: sys.modules[f"pglcensus.{layer}"] for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
                    continue
                key = f"{layer}.{name}"
                self.originals[key] = obj
                target = counters[key](obj) if key in counters else obj
                wrappers[id(obj)] = (obj, self._wrap(target, layer, key))
        for name, mod in list(sys.modules.items()):
            if name == "pglcensus" or name.startswith("pglcensus."):
                for attr, obj in list(vars(mod).items()):
                    pair = wrappers.get(id(obj))
                    if pair is not None and pair[0] is obj:
                        setattr(mod, attr, pair[1])

        fq_elem = modules["gfq"].FqElem
        post_init = fq_elem.__post_init__

        def counted_post_init(elem):
            self.elems += 1
            post_init(elem)

        fq_elem.__post_init__ = counted_post_init

    def report(self) -> dict:
        """Counts and times, plus cache_info()."""
        caches = {}
        for layer, name in CACHES:
            fn = self.originals.get(f"{layer}.{name}") or getattr(sys.modules[f"pglcensus.{layer}"], name)
            info = fn.cache_info()
            caches[f"{layer}.{name}"] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "layer_s": self.layer_s,
            "elems_created": self.elems,
            "caches": caches,
            "locus_under_enum": self.locus_under_enum,
            "reported_matches": self.reported_matches,
            "projections": self.projections,
            "rational_projections": self.rational_projections,
        }
