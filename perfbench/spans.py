"""In-memory span recorder for the traced benchmark run.

A span covers one call into the package from the benchmark's own code:
name, class, start, end, the span that was open when it began (its
parent) and the pass it belongs to.  Spans are kept in a list and
written out once, when the run ends.  The untraced run uses ``Off``,
whose ``span`` returns one shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import time


class Spans:
    """Records spans around calls; ``records`` is the list written at exit."""

    def __init__(self):
        self.records = []
        self._open = []
        self.pass_id = None

    @contextlib.contextmanager
    def span(self, name, cls=None, layer=None):
        rec = {
            "name": name,
            "cls": cls,
            "layer": layer,
            "parent": self._open[-1] if self._open else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.records))
        self.records.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class Off:
    """Tracing switched off: every span is the same no-op context."""

    pass_id = None
    _null = contextlib.nullcontext()

    def span(self, name, cls=None, layer=None):
        return self._null


def self_times(records):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(records)
    for rec in records:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(records, child)]


def pass_sums(records):
    """{pass id: {class: summed self time of its spans in that pass}}.

    Spans outside any pass (set-up) are left out.
    """
    sums = {}
    for rec, s in zip(records, self_times(records)):
        if rec["pass"] is None or rec["cls"] is None:
            continue
        bucket = sums.setdefault(rec["pass"], {})
        bucket[rec["cls"]] = bucket.get(rec["cls"], 0.0) + s
    return sums
