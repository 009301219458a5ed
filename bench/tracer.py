"""Spans around calls into pvlab's public functions, recorded from outside.

`Tracer.patch` swaps each traced function for a timing wrapper in every pvlab
module that holds a reference to it (callers import names directly, so
patching only the defining module would miss them), and restores the
originals on exit.  Spans stay in memory.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    self_s: float  # duration minus the time covered by child spans


def _which(args: tuple, kwargs: dict) -> str:
    which = kwargs["which"] if "which" in kwargs else args[4]
    return f"model_gen.sample_detection_pair.{which}"


# (module, function, span name or a function of the call's arguments).
TARGETS: list[tuple[str, str, str | Callable]] = [
    ("cli", "main", "cli.main"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("model_gen", "sample_rotated_instance", "model_gen.sample_rotated_instance"),
    ("model_gen", "sample_orthonormal_instance", "model_gen.sample_orthonormal_instance"),
    ("model_gen", "sample_detection_pair", _which),
    ("model_gen", "orthonormalize", "model_gen.orthonormalize"),
    ("spectral", "build_statistic", "spectral.build_statistic"),
    ("spectral", "leading_eigenpair", "spectral.leading_eigenpair"),
    ("spectral", "estimate_direction", "spectral.estimate_direction"),
    ("spectral", "recover_gaussian_rule", "spectral.recover_rule"),
    ("spectral", "recover_orthonormal_rule", "spectral.recover_rule"),
    ("spectral", "score", "spectral.score"),
    ("detection", "spectral_norm_test", "detection.spectral_norm_test"),
    ("detection", "detect_via_estimation", "detection.detect_via_estimation"),
    ("lowdeg", "advantage", "lowdeg.advantage"),
]


def replace_everywhere(modules: dict[str, ModuleType], original: Callable, replacement: Callable) -> list[tuple]:
    """Point every module-level reference to `original` in `modules` at
    `replacement`; returns (module, name, original) for each one replaced."""
    replaced = []
    for module in modules.values():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                replaced.append((module, key, original))
    return replaced


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[list] = []  # [span index, child seconds]

    def wrap(self, fn: Callable, name: str | Callable) -> Callable:
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else None
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[index] = Span(span_name, start, end, parent, end - start - frame[1])

        return traced

    @contextlib.contextmanager
    def patch(self, modules: dict[str, ModuleType]):
        """Trace every call to TARGETS made while the block runs."""
        undo = []
        try:
            for module_name, attr, name in TARGETS:
                original = getattr(modules[module_name], attr)
                undo += replace_everywhere(modules, original, self.wrap(original, name))
            yield self
        finally:
            for module, key, original in reversed(undo):
                setattr(module, key, original)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def parent_name(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].name
