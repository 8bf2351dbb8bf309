"""Spans around the package's public functions, installed from outside.

`Tracer.install()` replaces every public function and public method of the
package's modules with a wrapper that records a span: its name, start, end,
and parent span.  The wrapper is bound under every module name that
refers to the function, so `fordham.evaluate` (imported from `diagrams`) is
traced as `diagrams.evaluate`.  Spans live in flat arrays until the run
ends; `layers.py` derives the per-layer numbers from them.

Some wrappers also record a size (word length, series order) and a tag (p,
or whether a word is positive), and add to named counters.  The time those
hooks take is stored per span and excluded from every self time.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

MODULES = ("words", "diagrams", "fordham", "normal_forms", "series", "automaton", "rates",
           "oracle", "cli")

# Recursive over trees and called per caret; their time stays with the caller.
UNTRACED = {"diagrams.num_carets", "diagrams.num_leaves", "diagrams.serialize_tree"}
ARITHMETIC = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__")


def _carets(tree) -> int:
    n, stack = 0, [tree]
    while stack:
        kids = stack.pop().children
        if kids is not None:
            n += 1
            stack.extend(kids)
    return n


def _word_size(args, at: int):
    word = args[at] if len(args) > at else None
    if isinstance(word, (tuple, list)):
        return len(word), int(all(a[1] > 0 for a in word))
    return -1, -1


def _hook_word(tracer, args, kwargs, result):
    return _word_size(args, 1)


def _hook_evaluate(tracer, args, kwargs, result):
    tracer.counters["diagrams.carets_out"] += _carets(result.source)
    return _word_size(args, 1)


def _hook_tree_weight(tracer, args, kwargs, result):
    tracer.counters["fordham.carets_weighed"] += _carets(args[1])
    return -1, -1


def _hook_growth_series(tracer, args, kwargs, result):
    tracer.counters["series.coeffs_out"] += result.order
    return result.order, result.p


def _hook_census(tracer, args, kwargs, result):
    tracer.counters["oracle.trees_scanned"] += result.trees_scanned
    tracer.counters["oracle.trees_counted"] += sum(result.counts)
    return -1, -1


def _hook_ball(tracer, args, kwargs, result):
    tracer.counters["oracle.ball_elements"] += len(result.elements)
    return -1, -1


HOOKS = {
    "diagrams.evaluate": _hook_evaluate,
    "fordham.tree_weight": _hook_tree_weight,
    "normal_forms.to_infinite_nf": _hook_word,
    "normal_forms.finite_nf": _hook_word,
    "normal_forms.rewrite_random": _hook_word,
    "normal_forms.bar": _hook_word,
    "normal_forms.unbar": _hook_word,
    "normal_forms.is_in_Lp": _hook_word,
    "normal_forms.is_infinite_nf": _hook_word,
    "series.positive_growth_series": _hook_growth_series,
    "oracle.enumerate_positive_by_weight": _hook_census,
    "oracle.bfs_group_ball": _hook_ball,
}
COUNTERS = ("diagrams.carets_out", "fordham.carets_weighed", "series.coeffs_out",
            "oracle.trees_scanned", "oracle.trees_counted", "oracle.ball_elements")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hook_s = array("d")  # hook time after `end`, charged to nobody
        self.size = array("q")
        self.tag = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def _wrap(self, full_name: str, fn):
        nid = len(self.names)
        self.names.append(full_name)
        hook = HOOKS.get(full_name)
        name, parent = self.name, self.parent
        start, end, hook_s, size, tag = self.start, self.end, self.hook_s, self.size, self.tag
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            size.append(-1)
            tag.append(-1)
            hook_s.append(0.0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                size[i], tag[i] = hook(tracer, args, kwargs, result)
                hook_s[i] = perf_counter() - end[i]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap the package's public functions and methods, in place."""
        mods = {m: importlib.import_module(f"thompson_fp.{m}") for m in MODULES}
        wrapped = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                full = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and full not in UNTRACED
                        and not inspect.isgeneratorfunction(obj)):
                    wrapped[id(obj)] = self._wrap(full, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(short, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            full = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(full, obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(full, obj.__func__)))

    @staticmethod
    def span_cost(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds that recording one span adds to a call: the best time of
        `calls` traced calls of a small function, less the best time of as
        many untraced ones, per call.  The spans it records are dropped."""
        def fn(a, b=None):
            return a

        def timed(f) -> float:
            t0 = perf_counter()
            for _ in range(calls):
                f(1, b=2)
            return perf_counter() - t0

        traced = Tracer()._wrap("calibration", fn)
        plain_s, traced_s = zip(*((timed(fn), timed(traced)) for _ in range(repeats)))
        return (min(traced_s) - min(plain_s)) / calls

    def arrays(self) -> dict[str, array]:
        return {k: getattr(self, k) for k in
                ("name", "parent", "start", "end", "hook_s", "size", "tag")}
