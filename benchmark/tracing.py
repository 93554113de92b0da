"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds each named public function, in every loaded
``topogen`` module that holds it, to a wrapper that aggregates calls, total
time and self time (span time minus the time of traced calls made inside
it).  Only aggregates are kept: ``site.check_bcp`` alone runs about two
million times per medium suite.  Calls made through dicts that captured
the function before rebinding (``CHECKS``, ``_LOCAL_GEN``, ``_EDGE_CHECK``)
are not seen.

A generator function is timed over the consumption of its generator, since
the call itself returns before any work is done.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module under topogen, function); the layer label is "<module>.<function>".
TARGETS = (
    ("site", "pullback"),
    ("site", "check_bcp"),
    ("site", "validate_fibration"),
    ("site", "validate_category"),
    ("morphisms", "check_pullback_transfer"),
    ("morphisms", "crosscheck_operator_classes"),
    ("morphisms", "weakly_final_formulas"),
    ("morphisms", "classify"),
    ("structures", "predicates"),
    ("structures", "closure_from_topogenous"),
    ("structures", "interior_from_topogenous"),
    ("structures", "validate_structure"),
    ("harness.enumeration", "enumerate_structures"),
    ("constructions", "check_extremality"),
    ("instances.topology", "fintop_fibration"),
    ("instances.topology", "map_predicates"),
    ("instances.registry", "builtin_fibration"),
    ("instances.groups", "fingrp_fibration"),
    ("lattice", "right_adjoint_of"),
    ("harness.fileformat", "parse_document"),
    ("harness.fileformat", "serialize_record"),
    ("harness.fileformat", "serialize_document"),
    ("cli", "main"),
)


class Stat:
    __slots__ = ("calls", "total", "self", "yielded", "raised")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.yielded = 0
        self.raised = {}

    def as_dict(self):
        return {"calls": self.calls, "total": self.total, "self": self.self,
                "yielded": self.yielded, "raised": dict(self.raised)}


class Tracer:
    def __init__(self):
        self.stats = {}
        # one accumulator of child time per open span
        self._open = []

    def install(self, targets=TARGETS):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "topogen" or name.startswith("topogen."))]
        for module_name, func_name in targets:
            original = getattr(sys.modules[f"topogen.{module_name}"], func_name)
            label = f"{module_name}.{func_name}"
            stat = self.stats[label] = Stat()
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(stat, original)
            else:
                wrapper = self._wrap(stat, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _close(self, stat, started):
        elapsed = time.perf_counter() - started
        stat.total += elapsed
        stat.self += elapsed - self._open.pop()
        if self._open:
            self._open[-1] += elapsed

    def _wrap(self, stat, fn):
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            open_spans.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                name = type(exc).__name__
                stat.raised[name] = stat.raised.get(name, 0) + 1
                raise
            finally:
                self._close(stat, started)

        return wrapper

    def _wrap_generator(self, stat, fn):
        open_spans = self._open
        clock = time.perf_counter

        def consume(gen):
            while True:
                open_spans.append(0.0)
                started = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(stat, started)
                stat.yielded += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return consume(fn(*args, **kwargs))

        return wrapper

    def snapshot(self):
        return {label: s.as_dict() for label, s in self.stats.items()}
