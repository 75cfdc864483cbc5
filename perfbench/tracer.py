"""Span tracer wired into ``cantorstab`` from outside the program.

``install`` replaces the public functions of the layer modules, in every
package module that binds them, and the measured methods of the element
classes with wrappers that open a span around each call.  A span records
its name, start, end and parent (the span open below it on the stack); a
closing span adds its duration to its parent's child time, so its self time
is its duration minus the time covered by its child spans.  Spans are
folded into per-name totals as they close rather than kept one by one: the
germ workload makes millions of calls, and a list of spans would cost far
more memory than the program under test.

Per-call counts that turn into ratios (``unknown_frac``, ``hit_frac`` ...)
are taken from call results by the hooks in ``RESULT_HOOKS``.  The tracer
is off unless ``enabled`` is set, so a worker can leave it installed while
it runs its checks after the timed loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYER_MODULES = ("space", "elements", "engine", "search", "conjugator", "serialize")
ELEMENT_CLASSES = ("TreeAutomorphism", "PrefixBijection", "FullGroupTable", "WreathTable")
# Element methods get spans only where a metric needs their time: they run
# millions of times per op, and each span costs about a microsecond.  The
# time of the others (root_image, factor_perm ...) lands in their caller's
# self time.  resolve is only counted.
METHOD_SPANS = ("act_word", "act_point", "section_at", "is_identity", "compose", "reduce")
METHOD_COUNTS = ("resolve",)
# tri_all consumes the generator expressions its callers pass in; a span
# around it would adopt the calls it drives as its own children.
UNTRACED = frozenset({"tri_all"})
CLI_COMMANDS = ("conjugate", "verify", "germs", "rist", "orbit")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.stack: list[list] = []  # open spans: [name, start, child seconds]
        self.open = Counter()  # name -> open spans of that name
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.section_keys: set = set()

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else None
        if name == "engine.fixes_cylinder_pointwise" and parent == "engine.in_rigid_stabiliser":
            self.counts["engine.in_rigid_stabiliser.children"] += 1
        elif name == "elements.act_word" and self.open["search.cylinder_orbit"]:
            self.counts["search.cylinder_orbit.act_word_calls"] += 1
        self.open[name] += 1
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        elapsed = self.clock() - start
        self.open[name] -= 1
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed

    def snapshot(self) -> dict:
        """Plain-data totals, as a worker sends them to the runner."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "section_distinct": len(self.section_keys),
        }


def _count(key, value):
    def hook(tracer, args, result):
        tracer.counts[key] += value(args, result)
    return hook


def _section_key(tracer, args, result):
    tracer.section_keys.add((args[0].word, args[1]))


# Result values are compared by their enum ``value`` so that this module
# needs no import of the program.
RESULT_HOOKS = {
    "space.cylinders_at_depth": _count("space.cylinders_at_depth.cylinders", lambda a, r: len(r)),
    "elements.section_at": _section_key,
    "elements.is_identity": _count("elements.is_identity.unknown", lambda a, r: r.value == "unknown"),
    "engine.stabilises": _count("engine.stabilises.yes", lambda a, r: r.value == "yes"),
    "engine.in_neighbourhood_stabiliser": _count(
        "engine.in_neighbourhood_stabiliser.trivial", lambda a, r: r.kind.value == "trivial"),
    "search.rist_search": _count("search.rist_search.hits", lambda a, r: len(r)),
    "search.cylinder_orbit": _count("search.cylinder_orbit.reached", lambda a, r: len(r.reached)),
    "conjugator.build_conjugator": _count("conjugator.stages", lambda a, r: len(r.stages) - 1),
}


def span(tracer: Tracer, name: str, fn):
    hook = RESULT_HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def counted_call(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.enabled:
            tracer.calls[name] += 1
        return fn(*args, **kwargs)

    return traced


def counted_generator(tracer: Tracer, name: str, fn):
    """A generator is not timed (its body runs inside whichever span pulls
    from it); the items it yields are counted instead."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        for item in fn(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name + ".words"] += 1
                if tracer.open["search.rist_search"]:
                    tracer.counts["search.rist_search.words"] += 1
            yield item

    return traced


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and element methods of ``cantorstab``."""
    import cantorstab.cli  # noqa: F401  (binds layer functions too)

    package = [m for n, m in sys.modules.items() if n == "cantorstab" or n.startswith("cantorstab.")]
    for short in LAYER_MODULES:
        module = importlib.import_module(f"cantorstab.{short}")
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            name = f"{short}.{attr}"
            wrap = counted_generator if inspect.isgeneratorfunction(fn) else span
            wrapper = wrap(tracer, name, fn)
            for binder in package:
                for bound, value in list(vars(binder).items()):
                    if value is fn:
                        setattr(binder, bound, wrapper)
    elements = importlib.import_module("cantorstab.elements")
    for cls_name in ELEMENT_CLASSES:
        cls = getattr(elements, cls_name)
        for attr, wrap in [(a, span) for a in METHOD_SPANS] + [(a, counted_call) for a in METHOD_COUNTS]:
            if attr in vars(cls):
                setattr(cls, attr, wrap(tracer, f"elements.{attr}", vars(cls)[attr]))


def layer_metrics(snap: dict, certificate_bytes: int) -> dict:
    """Per-layer metrics, ``{name: (value, unit)}``, from a tracer snapshot.

    A layer a workload never reaches reads 0.  Each ratio is followed by its
    base in the same table.
    """
    calls = Counter(snap["calls"])
    self_s = Counter(snap["self_s"])
    total_s = Counter(snap["total_s"])
    counts = Counter(snap["counts"])
    out: dict = {}

    def frac(num, den):
        return num / den if den else 0.0

    def timed(name, with_calls=True):
        if with_calls:
            out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")

    out["space.cylinders_at_depth.cylinders"] = (counts["space.cylinders_at_depth.cylinders"], "count")
    timed("space.cylinders_at_depth", with_calls=False)
    for method in ("act_word", "act_point", "section_at", "is_identity", "compose", "reduce"):
        timed(f"elements.{method}")
    out["elements.section_at.distinct_frac"] = (
        frac(snap["section_distinct"], calls["elements.section_at"]), "ratio")
    out["elements.is_identity.unknown_frac"] = (
        frac(counts["elements.is_identity.unknown"], calls["elements.is_identity"]), "ratio")
    out["elements.resolve.calls"] = (calls["elements.resolve"], "count")

    timed("engine.in_rigid_stabiliser")
    out["engine.in_rigid_stabiliser.cylinders_per_call"] = (
        frac(counts["engine.in_rigid_stabiliser.children"], calls["engine.in_rigid_stabiliser"]),
        "count")
    timed("engine.fixes_cylinder_pointwise")
    timed("engine.in_neighbourhood_stabiliser")
    out["engine.in_neighbourhood_stabiliser.trivial_frac"] = (
        frac(counts["engine.in_neighbourhood_stabiliser.trivial"],
             calls["engine.in_neighbourhood_stabiliser"]), "ratio")
    out["engine.stabilises.calls"] = (calls["engine.stabilises"], "count")
    out["engine.stabilises.yes_frac"] = (
        frac(counts["engine.stabilises.yes"], calls["engine.stabilises"]), "ratio")
    timed("engine.germ_classes", with_calls=False)
    out["engine.reduced_generator_words.words"] = (
        counts["engine.reduced_generator_words.words"], "count")

    timed("search.transporter")
    timed("search.rist_generators")
    timed("search.rist_search")
    out["search.rist_search.words"] = (counts["search.rist_search.words"], "count")
    out["search.rist_search.hit_frac"] = (
        frac(counts["search.rist_search.hits"], counts["search.rist_search.words"]), "ratio")
    timed("search.cylinder_orbit")
    out["search.cylinder_orbit.act_word_calls"] = (
        counts["search.cylinder_orbit.act_word_calls"], "count")
    out["search.cylinder_orbit.reached_frac"] = (
        frac(counts["search.cylinder_orbit.reached"], counts["search.cylinder_orbit.act_word_calls"]),
        "ratio")

    for fn in ("build_conjugator", "verify_certificate", "conjugation_suite"):
        timed(f"conjugator.{fn}", with_calls=False)
    out["conjugator.stages"] = (counts["conjugator.stages"], "count")

    out["serialize.self_s"] = (
        sum(v for k, v in self_s.items() if k.startswith("serialize.")), "s")
    out["serialize.certificate_bytes"] = (certificate_bytes, "bytes")

    out["cli.self_s"] = (sum(v for k, v in self_s.items() if k.startswith("cli.")), "s")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = (total_s[f"cli.{command}"], "s")
    return out
