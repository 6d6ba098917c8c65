"""Span tracing of modtalg's public functions, from outside the package.

`Tracer.installed()` rebinds each traced function in every modtalg module
namespace that holds it (for example `ffmat.rref_array` as bound in `talg`
and `primary`, and in `ffmat` itself for its internal calls) to a wrapper
that records a span: name, start, end and parent.  Spans stay in memory;
`layer_metrics` turns them into times and exact counters.  Leaving the
`with` block restores the original bindings.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter

import numpy as np

# Public functions traced per module (the layers).  `cli` only parses
# arguments and emits JSON around `analyze`; `oracles` runs only in `verify`.
TRACED = {
    "scheme": ("validate_axioms", "strata"),
    "ffmat": ("rref_array", "kernel_array", "solve_array", "charpoly_coeffs"),
    "talg": (
        "build_context",
        "generate_algebra",
        "b0_b1",
        "assert_two_sided_ideal",
        "radical",
        "check_radical_postconditions",
        "annihilator_W0",
    ),
    "primary": (
        "build_primary",
        "filtration",
        "closure_digraph",
        "composition_factors",
        "uniserial_check",
        "selfcontra_W0",
    ),
    "characterize": ("b0_unit_element", "check_equivalences", "check_corollary"),
    "analysis": ("analyze", "compute_artifacts"),
}


def _cells(args, result) -> int:
    return int(np.asarray(args[0]).size)


def _mats(args, result) -> int:
    shape = np.shape(args[0])
    return 1 if len(shape) == 2 else int(shape[0])


def _dim(args, result) -> int:
    return int(result.dim)


# Exact work counts attached to a span, computed from its arguments or result.
COUNTS = {
    "ffmat.rref_array": _cells,
    "ffmat.charpoly_coeffs": _mats,
    "talg.generate_algebra": _dim,
    "talg.radical": _dim,
}


class Span:
    __slots__ = ("name", "parent", "nested", "start", "end", "count")

    def __init__(self, name: str, parent: int, nested: bool):
        self.name = name
        self.parent = parent
        self.nested = nested  # an enclosing span has the same name
        self.start = 0.0
        self.end = 0.0
        self.count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from one thread while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_.get(name, 0)
            span = Span(name, stack[-1] if stack else -1, depth > 0)
            stack.append(len(spans))
            spans.append(span)
            open_[name] = depth + 1
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                open_[name] = depth
            if count is not None:
                span.count = count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in all loaded modtalg modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "modtalg" or k.startswith("modtalg."))]
        saved = []
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"modtalg.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function and per-module metrics from one tracer's spans.

    `<f>.calls` counts every span of f.  `<f>.s` and `<f>.self_s` sum the
    duration and self time of spans not nested in another span of f; the
    nested re-entries (only `talg.radical` recurses, for the quotient
    certificate) are summed in `<f>.nested_s`.  `<f>.count` and
    `<f>.count_outer` sum the exact counts of COUNTS over all spans and over
    the outer ones.  `<module>.self_s` is the self time of all spans of that
    module; the modules' self times add up to the traced time.
    """
    out: dict[str, float] = {}
    for mod_name, funcs in TRACED.items():
        out[f"{mod_name}.self_s"] = 0.0
        for func in funcs:
            for key in ("calls", "s", "self_s", "nested_s", "count", "count_outer"):
                out[f"{mod_name}.{func}.{key}"] = 0
    for span, self_t in zip(tracer.spans, tracer.self_times()):
        name = span.name
        out[f"{name}.calls"] += 1
        out[f"{name.split('.')[0]}.self_s"] += self_t
        out[f"{name}.count"] += span.count
        if span.nested:
            out[f"{name}.nested_s"] += span.duration
        else:
            out[f"{name}.s"] += span.duration
            out[f"{name}.self_s"] += self_t
            out[f"{name}.count_outer"] += span.count
    return out
