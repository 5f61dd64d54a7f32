"""In-memory spans around the benchmark's calls into omdet.

A span is (name, start, end, parent, verdict); names are "<layer>.<call>"
with the layer named after the omdet module.  Spans are only recorded from
the benchmark's own files, around public calls, so the program under test
is never modified or patched.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Spans:
    def __init__(self):
        self.records: list[list] = []  # [name, start, end, parent index, verdict]
        self.counts: Counter = Counter()
        self.verdict: int | None = None
        self.raised_in: str | None = None  # innermost span an exception left
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str):
        rec = [name, perf_counter(), None, self._open[-1] if self._open else None, self.verdict]
        self._open.append(len(self.records))
        self.records.append(rec)
        try:
            yield
        except BaseException:
            if self.raised_in is None:
                self.raised_in = name
            raise
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum((end - start for n, start, end, _, _ in self.records if n == name), 0.0)

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": start, "end": end, "parent": parent, "verdict": verdict}
            for n, start, end, parent, verdict in self.records
        ]
