"""Span tracing for the benchmark's traced run, applied from outside cycdiv.

Every public function or method listed in ``TARGETS`` is replaced by a
wrapper while a traced library call runs, and restored afterwards; nothing
under ``src/`` changes.  A module-level function is replaced in every loaded
``cycdiv.*`` module that holds the same object, because ``from .kummer import
norm_oracle`` binds the name again in the importing module.  Methods are
replaced on their class.

Three kinds of wrapper:

* ``SPAN`` records a span (id, name, start, end, parent id) and the call's
  self time: its duration minus the part covered by its child spans.
* ``LEAF`` is for the coefficient-field multiply, called millions of times
  per run: it keeps calls and time, and adds its time to the enclosing span
  as child time, but stores no span.
* ``COUNT`` only counts calls.

Self times are accumulated as calls return, so they cover every call even
when the in-memory span list is full.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

SPAN, LEAF, COUNT = "span", "leaf", "count"

SPAN_LIMIT = 100_000


def _support(s):
    return len(getattr(s, "coeffs", ()))


def _hook_mul(tracer, args, result):
    la, lb = _support(args[0]), _support(args[1])
    tracer.extra["series.mul.term_products"] += la * lb
    if la == 1 or lb == 1:
        tracer.extra["series.mul.monomial_products"] += 1
    tracer.see_support(_support(result))


def _hook_add(tracer, args, result):
    tracer.see_support(_support(result))


def _hook_invert(tracer, args, result):
    if tracer.active["series.hensel_qth_root"]:
        tracer.extra["series.invert.under_hensel"] += 1
    tracer.see_support(_support(result))


def _hook_is_norm(tracer, args, result):
    if result.is_norm:
        tracer.extra["kummer.is_norm.positive"] += 1


def _hook_kernel(tracer, args, result):
    if result is not None:
        terms = max(_support(e) if hasattr(e, "coeffs") else 1 for e in result)
        if terms > tracer.extra["linalg.kernel.max_entry_terms"]:
            tracer.extra["linalg.kernel.max_entry_terms"] = terms


# (module, function or Class.method, span name, kind, hook)
TARGETS = [
    ("cycdiv.basefields", "PrimeField.mul", "basefields.coeff_mul", LEAF, None),
    ("cycdiv.basefields", "RationalField.mul", "basefields.coeff_mul", LEAF, None),
    ("cycdiv.series", "Series.__mul__", "series.mul", SPAN, _hook_mul),
    ("cycdiv.series", "Series.__add__", "series.add", SPAN, _hook_add),
    ("cycdiv.series", "Series.invert", "series.invert", SPAN, _hook_invert),
    ("cycdiv.series", "SeriesDomain.__eq__", "series.domain_eq", COUNT, None),
    ("cycdiv.series", "hensel_qth_root", "series.hensel_qth_root", SPAN, None),
    ("cycdiv.anagram", "c0_classes", "anagram.c0_classes", SPAN, None),
    ("cycdiv.kummer", "kummer_mul", "kummer.kummer_mul", SPAN, None),
    ("cycdiv.kummer", "norm_oracle", "kummer.norm_oracle", SPAN, None),
    ("cycdiv.kummer", "norm_formula", "kummer.norm_formula", SPAN, None),
    ("cycdiv.kummer", "is_norm", "kummer.is_norm", SPAN, _hook_is_norm),
    ("cycdiv.algebra", "relation_mul", "algebra.relation_mul", SPAN, None),
    ("cycdiv.algebra", "constants_mul", "algebra.constants_mul", SPAN, None),
    ("cycdiv.algebra", "structure_constants", "algebra.structure_constants", SPAN, None),
    ("cycdiv.algebra", "invert", "algebra.invert", SPAN, None),
    ("cycdiv.linalg", "solve_linear", "linalg.solve_linear", SPAN, None),
    ("cycdiv.linalg", "kernel_vector", "linalg.kernel_vector", SPAN, _hook_kernel),
    ("cycdiv.quaternion", "BiquaternionElement.__mul__", "quaternion.biquat_mul", SPAN, None),
    ("cycdiv.quaternion", "QuadraticExtension.mul", "quaternion.quadext_mul", SPAN, None),
    ("cycdiv.quaternion", "anisotropy_sample_test", "quaternion.anisotropy_sample_test",
     SPAN, None),
    ("cycdiv.quaternion", "sos_leading_data", "quaternion.sos_leading_data", SPAN, None),
]


class Tracer:
    """Spans and per-name totals of the traced calls, kept in memory."""

    def __init__(self):
        self._patches = None
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.extra = Counter()
        self.spans = []  # (id, name, start, end, parent id); parent 0 is the root
        self.dropped = 0
        self.active = Counter()
        self._stack = []  # open spans: [id, child seconds]
        self._next_id = 1

    def see_support(self, n):
        if n > self.extra["series.max_support"]:
            self.extra["series.max_support"] = n

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, hook):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        active = self.active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_LIMIT:
                    spans.append((sid, name, start, end, parent))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self, args, result)
            return result
        return functools.update_wrapper(wrapper, fn)

    def _leaf(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            dur = clock() - start
            stats[0] += 1
            stats[1] += dur
            if stack:
                stack[-1][1] += dur
            return result
        return functools.update_wrapper(wrapper, fn)

    def _count(self, name, fn):
        stats = self.stats[name]

        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def _wrap(self, name, kind, fn, hook):
        if kind == SPAN:
            return self._span(name, fn, hook)
        if kind == LEAF:
            return self._leaf(name, fn)
        return self._count(name, fn)

    # -- installation -------------------------------------------------------

    def _build_patches(self):
        """(holder, attribute, original, wrapper) for every replacement."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "cycdiv" or n.startswith("cycdiv.")]
        patches = []
        for modname, target, name, kind, hook in TARGETS:
            module = sys.modules[modname]
            if "." in target:
                cls_name, attr = target.split(".")
                holder = getattr(module, cls_name)
                original = holder.__dict__[attr]
                patches.append((holder, attr, original, self._wrap(name, kind, original, hook)))
                continue
            original = getattr(module, target)
            wrapper = self._wrap(name, kind, original, hook)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original, wrapper))
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._build_patches()
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _ in reversed(self._patches or []):
            setattr(holder, attr, original)

    def call(self, fn, *args):
        """Run fn(*args) with every wrapper in place, under a root span "op"
        that the spans of this call descend from."""
        self.install()
        try:
            return self._span("op", fn, None)(*args)
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------------

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
