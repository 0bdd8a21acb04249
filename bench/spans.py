"""Call spans recorded around the library's public functions.

A ``Tracer`` replaces a function at the module attribute its callers look it
up through (``concord.partition.lbp_map``, not only ``concord.inference``)
with a wrapper that records one span per call: name, start, end, the span
that was open when the call began, and the answer (repetition) it belongs
to.  Spans stay in memory; the caller writes them out when the run ends.
Nothing inside the library is edited, so a private helper such as the
phases of ``jacobi_round`` cannot be split here.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in its run, -1 at top level
    run: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        out = {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run": self.run,
        }
        if self.counts:
            out["counts"] = self.counts
        return out


class Tracer:
    """Patches module attributes for the lifetime of a ``with`` block.

    One tracer records the spans of one run (answer), and a span's parent
    is an index into the same tracer's list.  Calls are assumed to come
    from one thread, so the innermost open span is the parent of the next
    call.  ``observe`` turns a call's result into
    counts stored on its span, so ratios are taken where the work happens.
    """

    def __init__(self, run: int = 0) -> None:
        self.spans: list[Span] = []
        self.run = run
        self._open: list[int] = []
        self._originals: list[tuple[Any, str, Callable]] = []

    def patch(
        self,
        module: Any,
        attribute: str,
        name: str,
        observe: Callable[[Any], dict[str, float]] | None = None,
    ) -> None:
        original = getattr(module, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.run)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if observe is not None:
                span.counts = observe(result)
            return result

        setattr(module, attribute, traced)
        self._originals.append((module, attribute, original))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            module, attribute, original = self._originals.pop()
            setattr(module, attribute, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run one after another on a single thread, so
    their durations never overlap and subtracting them is exact.
    """
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def percentile(values: Iterable[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(share * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]
