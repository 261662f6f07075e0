"""Spans recorded from the benchmark's own files around calls into lglab.

A `Tracer` keeps spans in memory; `call` times one call into a module's
public function and records it as a child of the current job span.  When
the tracer is disabled, `call` is a plain call and `job` records nothing,
so untraced runs measure the program alone.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

LAYERS = ("poly", "groebner", "brieskorn", "ellipticity", "frobenius",
          "spectral", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    ok: bool = True

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._current: Span | None = None

    def _open(self, name: str) -> Span:
        parent = self._current.id if self._current is not None else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                    self.run_id)
        self.spans.append(span)
        return span

    @contextmanager
    def job(self, name: str):
        """The span of one job; layer spans opened inside it are its children."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        self._current = span
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and, when enabled, record a span ``name`` around it.

        ``name`` is ``<layer>.<stage>``, e.g. ``spectral.eigensolve``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def stage_seconds(spans: list[Span], job_ids: set[int]) -> dict[str, float]:
    """Busy seconds per stage name, summed over the spans of the given jobs."""
    out: dict[str, float] = {}
    for s in spans:
        if s.parent in job_ids:
            out[s.name] = out.get(s.name, 0.0) + s.seconds
    return out


def layer_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(layer, calls, busy_s, self_s) over the spans of jobs that passed.

    A span's self time is its duration minus the part covered by its
    children; the ``job`` row is the harness's own time inside job spans."""
    good_jobs = {s.id for s in spans if s.parent is None and s.ok}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    rows: dict[str, list] = {}
    for s in spans:
        root = s.id if s.parent is None else s.parent
        if root not in good_jobs:
            continue
        layer = "job" if s.parent is None else s.name.split(".", 1)[0]
        covered = _covered(children.get(s.id, []))
        row = rows.setdefault(layer, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.seconds
        row[2] += s.seconds - covered
    order = list(LAYERS) + ["job"]
    return [(name, *rows[name]) for name in order if name in rows]


def _covered(kids: list[Span]) -> float:
    """Length of the union of the children's intervals."""
    total, reach = 0.0, float("-inf")
    for s in sorted(kids, key=lambda k: k.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total
