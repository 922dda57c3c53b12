"""Span tracer that wraps gplab's public layer boundaries from outside ``src/``.

Each probe names one layer boundary and the functions that make it up.
Installing a probe replaces every binding of those functions (a class
attribute, or a module global in any loaded ``gplab`` module that holds the
same function object) with a wrapper that records a span; ``uninstall``
puts every original back.  Spans nest on one stack, so each probe gets its
call count, its inclusive time (outermost calls only, so recursion is not
counted twice) and its self time (inclusive time minus the time of the
spans it directly contains).  Probe hooks add counters at the boundary
where the work happens.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

MARK = "__perfbench_probe__"


@dataclass
class Probe:
    name: str
    targets: list  # (owner, attribute) pairs naming the original functions
    when: Callable | None = None  # trace only calls for which when(tracer) holds
    before: Callable | None = None  # before(tracer, args)
    after: Callable | None = None  # after(tracer, args, result, seconds)
    everywhere: bool = True  # also patch other gplab modules' imports of it


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self._patches: list[tuple[object, str, object]] = []
        self.stack: list[list] = []  # [probe name, child seconds]
        self.active: dict[str, int] = defaultdict(int)
        self.enabled = True  # False: wrappers pass straight through
        self.reset()

    # -- per-pass accounting -------------------------------------------------
    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for probe in self.probes:
            for owner, attr in probe.targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(probe, original)
                holders = _bindings(owner, attr, original) if probe.everywhere else [(owner, attr)]
                for holder, name in holders:
                    self._patches.append((holder, name, getattr(holder, name)))
                    setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, probe: Probe, fn):
        tracer = self
        name = probe.name

        def wrapper(*args, **kwargs):
            if not tracer.enabled or (probe.when is not None and not probe.when(tracer)):
                return fn(*args, **kwargs)
            if probe.before is not None:
                probe.before(tracer, args)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            tracer.active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                tracer.active[name] -= 1
                if tracer.stack:
                    tracer.stack[-1][1] += dt
                tracer.calls[name] += 1
                if not tracer.active[name]:
                    tracer.seconds[name] += dt
                tracer.self_seconds[name] += dt - frame[1]
            if probe.after is not None:
                probe.after(tracer, args, result, dt)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _bindings(owner, attr: str, original):
    """Every place the original is bound: the owner itself, and for a module
    function also each loaded gplab module global holding the same object."""
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for modname, module in list(sys.modules.items()):
        if module is None or module is owner or not modname.startswith("gplab"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                found.append((module, name))
    return found


def leftover_wrappers() -> list[str]:
    """Probe wrappers still bound anywhere in gplab; empty when untraced."""
    out = []
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("gplab"):
            continue
        for name, value in list(vars(module).items()):
            holders = [(name, value)]
            if isinstance(value, type) and value.__module__ == modname:
                holders += [(f"{name}.{k}", v) for k, v in vars(value).items()]
            for label, obj in holders:
                if getattr(obj, MARK, None) is not None:
                    out.append(f"{modname}.{label}")
    return out
