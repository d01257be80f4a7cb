"""Span tracing of the nhssh layers, installed from outside the package.

Every public module-level function of each nhssh module is replaced, in
every nhssh namespace that refers to it, by a wrapper that opens a span.
A span's self time is its duration minus the time covered by the spans
it opened, so the self times of all spans add up to the time spent
inside the outermost ones.  Spans are aggregated per function as they
close; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

# one layer per module; cli is the root of every experiment call
LAYERS = ("cli", "lattice", "spectra", "propagate", "oracle", "specfun", "states", "analysis")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """Aggregates nested spans by name; ``samples`` keeps per-call samples."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.samples: dict[str, list] = {}
        self._open: list[float] = []  # child time covered, one entry per open span

    def wrap(self, name: str, func, sampler=None):
        """``func`` inside a span called ``name``.

        ``sampler(arguments, result)`` runs after the span closes, with the
        call's bound arguments, and its return value is appended to
        ``samples[name]``.
        """
        stats = self.stats.setdefault(name, SpanStats())
        samples = self.samples.setdefault(name, [])
        signature = inspect.signature(func) if sampler else None
        open_spans = self._open
        clock = self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            raised = True
            start = clock()
            try:
                result = func(*args, **kwargs)
                raised = False
            finally:
                duration = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats.calls += 1
                stats.self_s += duration - children
                stats.errors += raised
            if sampler is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                samples.append(sampler(bound.arguments, result))
            return result

        return traced

    def layer_totals(self) -> dict[str, SpanStats]:
        totals = {layer: SpanStats() for layer in LAYERS}
        for name, stats in self.stats.items():
            total = totals[name.split(".", 1)[0]]
            total.calls += stats.calls
            total.self_s += stats.self_s
            total.errors += stats.errors
        return totals


def install(tracer: Tracer, samplers: dict | None = None):
    """Wrap the public functions of every layer; return a function that undoes it.

    ``samplers`` maps ``"<layer>.<function>"`` to the ``sampler`` passed
    to :meth:`Tracer.wrap`.
    """
    samplers = samplers or {}
    modules = [importlib.import_module(f"nhssh.{layer}") for layer in LAYERS]
    wrappers = {}
    names = set()
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                names.add(name)
                wrappers[obj] = tracer.wrap(name, obj, samplers.get(name))
    unknown = set(samplers) - names
    if unknown:
        raise KeyError(f"no traced function for samplers {sorted(unknown)}")

    patched = []
    for module in [importlib.import_module("nhssh"), *modules]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def restore():
        for module, attr, obj in patched:
            setattr(module, attr, obj)

    return restore

