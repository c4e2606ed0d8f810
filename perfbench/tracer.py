"""Per-layer self time and counters for the traced pass, recorded from the
benchmark's own files by wrapping the layers' public functions at run time.

Each module named in LAYERS is a layer.  ``Tracer.install`` replaces every
public function and public method defined in those modules with a wrapper
that times the call, and rebinds the wrapper wherever another rmlab module
holds the function by name (``cli`` imports ``ball_count`` from ``rmcode``;
the package re-exports most names).  Private helpers stay unwrapped: some
run hundreds of thousands of times per pass, and timing them would swamp
what is measured.  Their time counts to the public function that called
them.

A layer's self time is the time inside its wrapped calls minus the part
spent in wrapped calls nested inside them.  Generator functions are timed
per resumption, so a consumer's work between items is not charged to the
generator's layer.  ``limits`` and ``parallel`` are not layers: ``limits``
only compares numbers, and with ``--jobs 1`` ``parallel`` is a plain loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

LAYERS = ("torus", "words", "polynomial", "degreecheck", "special", "rmcode", "regularity", "verify", "cli")

# Counters reported on every workload, as 0 where the workload does not
# reach them.
COUNTERS = (
    "degreecheck.calls",
    "degreecheck.sampled_calls",
    "degreecheck.nominal_cases",
    "rmcode.codewords_scanned",
    "rmcode.codewords_materialized",
    "rmcode.bytes_computed",
    "polynomial.eval_calls",
    "polynomial.fit_calls",
    "regularity.steps",
    "regularity.members_scanned",
    "regularity.rank_candidates",
    "verify.cases_checked",
)


def _scan(stats, bound, result, elapsed) -> None:
    """A scan of every codeword against each center: one center, or
    ``samples`` random ones plus optionally every codeword."""
    args = bound.arguments
    codewords = args["params"].codeword_count
    centers = args.get("samples", 1) + (codewords if args.get("include_codeword_centers") else 0)
    stats["rmcode.codewords_scanned"] += codewords * centers
    stats["scan_s"] += elapsed


def _ball(stats, bound, result, elapsed) -> None:
    _scan(stats, bound, result, elapsed)
    stats["ball_scanned"] += bound.arguments["params"].codeword_count
    stats["ball_members"] += result if isinstance(result, int) else result.count


def _weak_regularize(stats, bound, result, elapsed) -> None:
    # Each round scans the family up to and including its first violator;
    # the last round finds none and scans all of it.
    stats["regularity.steps"] += len(result.chosen)
    stats["regularity.members_scanned"] += sum(c + 1 for c in result.chosen) + len(bound.arguments["family"])


def _degree_check(stats, bound, result, elapsed) -> None:
    stats["degreecheck.calls"] += 1
    stats["degreecheck.sampled_calls"] += result.mode == "sampled"
    stats["degreecheck.nominal_cases"] += result.cases


def _count(name: str, amount: Callable = lambda result: 1):
    def observe(stats, bound, result, elapsed) -> None:
        stats[name] += amount(result)

    return observe


# "<layer>.<qualified name>" -> observer(stats, bound arguments, result or
# yielded item, elapsed seconds); a generator's observer runs per item.
OBSERVERS = {
    "degreecheck.verify_degree_by_derivatives": _degree_check,
    "rmcode.ball_count": _ball,
    "rmcode.list_in_ball": _ball,
    "rmcode.sampled_max_list_size": _scan,
    "rmcode.min_distance_bruteforce": _scan,
    "rmcode.codeword_blocks": _count("rmcode.bytes_computed", lambda item: item[1].nbytes + item[2].nbytes),
    "rmcode.enumerate_code": _count("rmcode.codewords_materialized"),
    "polynomial.NonclassicalPoly.to_word": _count("polynomial.eval_calls"),
    "polynomial.NonclassicalPoly.classical_field_word": _count("polynomial.eval_calls"),
    "polynomial.canonical_fit": _count("polynomial.fit_calls"),
    "regularity.weak_regularize": _weak_regularize,
    "regularity.degree_candidates": _count("regularity.rank_candidates", len),
    "verify.run_check": _count("verify.cases_checked", lambda report: report.cases_checked),
}


class Tracer:
    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.stats: dict[str, float] = defaultdict(float)
        self._nested = [0.0]  # per open span: time of the spans nested in it
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, layer: str, fn, args, kwargs):
        self._nested.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed = time.perf_counter() - start
            self.self_s[layer] += self.elapsed - self._nested.pop()
            self._nested[-1] += self.elapsed

    def _wrap(self, layer: str, fn, observe):
        sig = inspect.signature(fn) if observe else None

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._span(layer, next, (gen,), {})
                    except StopIteration:
                        return
                    if observe:
                        observe(self.stats, sig.bind(*args, **kwargs), item, self.elapsed)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                result = self._span(layer, fn, args, kwargs)
                if observe:
                    observe(self.stats, sig.bind(*args, **kwargs), result, self.elapsed)
                return result

        return functools.wraps(fn)(wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "rmlab" or name.startswith("rmlab.")]
        holders: dict[int, list[tuple[object, str]]] = defaultdict(list)
        for module in modules:
            for name, value in vars(module).items():
                holders[id(value)].append((module, name))
        for layer in LAYERS:
            module = importlib.import_module(f"rmlab.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, obj, OBSERVERS.get(f"{layer}.{name}"))
                    for owner, attr in holders[id(obj)]:
                        self._set(owner, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            observe = OBSERVERS.get(f"{layer}.{cls.__name__}.{name}")
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, name, type(member)(self._wrap(layer, member.__func__, observe)))
            elif inspect.isfunction(member):
                self._set(cls, name, self._wrap(layer, member, observe))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def metrics(self) -> dict[str, float]:
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({name: self.stats[name] for name in COUNTERS})
        scanned = self.stats["rmcode.codewords_scanned"]
        out["rmcode.codewords_per_s"] = scanned / self.stats["scan_s"] if self.stats["scan_s"] else 0.0
        ball = self.stats["ball_scanned"]
        out["rmcode.hit_ratio"] = self.stats["ball_members"] / ball if ball else 0.0
        members = self.stats["regularity.members_scanned"]
        out["regularity.accept_ratio"] = self.stats["regularity.steps"] / members if members else 0.0
        return out
