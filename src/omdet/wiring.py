"""Face covector sets of pseudoline arrangements given as wiring diagrams.

A wiring diagram draws n wires left to right; positions are counted 0-based
from the bottom, and wire i starts at position i-1.  Each event is a block
[lo, hi] that reverses the wires currently at positions lo..hi: a block of
size 2 is a plain crossing, size 3 and up is a multiple point.  Any pair of
wires may cross at most once; pairs that never cross are parallel
pseudolines and are allowed.

The face sweep assigns sign vectors with the convention "+ above wire i,
- below it".  Its faces are the cells (the n+1 open strips of a sweep
column, including the unbounded ones), the wire segments and the event
vertices.  It collects each as a code of its two masks, the first column's
in full and then, per event, the vertex and the faces the event changes,
and builds one sign vector per distinct code.  The result is packaged as a
fiber with free set I = [n], which is exactly what the determinant
machinery consumes; wiring diagrams can encode non-realizable pseudoline
arrangements, so no ambient covector set is ever built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .signvec import FiberView, SignVector, _json_field, _json_int, _json_kind, _json_list, as_int, fiber_of
from .varchenko import _face_masks


@dataclass(frozen=True)
class WiringDiagram:
    wires: int
    events: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 1 <= self.wires <= 64:
            raise ValueError(f"wire count must be in 1..64, got {self.wires}")

    @classmethod
    def of(cls, wires: int, events) -> WiringDiagram:
        return cls(wires, tuple((as_int(lo), as_int(hi)) for lo, hi in events))

    def to_json(self) -> dict:
        return {"wires": self.wires, "events": [list(e) for e in self.events]}

    @classmethod
    def from_json(cls, doc) -> WiringDiagram:
        """The diagram of a JSON document; a malformed one raises ValueError naming the field and the rule."""
        wires = _json_field(doc, "wires", _json_int)
        events = []
        for k, event in enumerate(_json_field(doc, "events", _json_list)):
            if not isinstance(event, list) or len(event) != 2:
                raise ValueError(f"events[{k}]: expected a [lo, hi] pair, got {_json_kind(event)}")
            events.append(tuple(_json_int(x, f"events[{k}][{j}]") for j, x in enumerate(event)))
        return cls(wires, tuple(events))

    def dumps(self) -> str:
        return json.dumps(self.to_json()) + "\n"

    @classmethod
    def loads(cls, text: str) -> WiringDiagram:
        return cls.from_json(json.loads(text))


@dataclass(frozen=True)
class WiringReport:
    ok: bool
    problems: tuple[str, ...]
    parallel_pairs: tuple[tuple[int, int], ...]


def validate(wd: WiringDiagram) -> WiringReport:
    """Check block bounds and the at-most-one-crossing rule per wire pair."""
    n = wd.wires
    problems = []
    crossings: dict[tuple[int, int], int] = {}
    perm = list(range(1, n + 1))
    for idx, (lo, hi) in enumerate(wd.events):
        if not (0 <= lo < hi <= n - 1):
            problems.append(f"event {idx}: block [{lo},{hi}] out of bounds for {n} wires")
            continue
        block = perm[lo : hi + 1]
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                pair = tuple(sorted((block[a], block[b])))
                crossings[pair] = crossings.get(pair, 0) + 1
        perm[lo : hi + 1] = reversed(perm[lo : hi + 1])
    for pair, count in sorted(crossings.items()):
        if count > 1:
            problems.append(f"wires {pair[0]} and {pair[1]} cross {count} times")
    parallel = tuple(
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if (a, b) not in crossings
    )
    return WiringReport(not problems, tuple(problems), parallel)


def faces(wd: WiringDiagram) -> FiberView:
    """Sweep the diagram into its face covector set, packaged as a fiber."""
    report = validate(wd)
    if not report.ok:
        raise ValueError("invalid wiring diagram: " + "; ".join(report.problems))
    return _sweep(wd)


def _sweep(wd: WiringDiagram) -> FiberView:
    """The face fiber of a diagram that passes ``validate``, one SignVector per distinct face.

    Faces are collected as codes plus | minus << n.  Cell c sits above the
    wires at positions < c (sign +) and below the rest (sign -); the
    segment at position k is zero on its own wire.  An event changes only
    the faces at its block's positions, so after the first column it adds
    its vertex and, once the block is reversed, the segments at positions
    lo..hi and the cells above them.
    """
    n = wd.wires
    full = (1 << n) - 1
    bits = [1 << i for i in range(n)]  # bits[k]: the wire at position k; wire i starts at position i - 1
    codes = {full << n}  # the cell below every wire

    def column(lo: int, hi: int, below: int):  # below: the wires at positions < lo
        for bit in bits[lo : hi + 1]:
            codes.add(below | (full & ~below & ~bit) << n)
            below |= bit
            codes.add(below | (full & ~below) << n)

    column(0, n - 1, 0)
    for lo, hi in wd.events:
        below = sum(bits[:lo])
        block = sum(bits[lo : hi + 1])
        codes.add(below | (full & ~below & ~block) << n)
        bits[lo : hi + 1] = reversed(bits[lo : hi + 1])
        column(lo, hi, below)
    return fiber_of([SignVector(n, code & full, code >> n) for code in codes], range(1, n + 1))


@dataclass(frozen=True)
class FaceCensus:
    """Face counts grouped by (collapsed weight degree, multiplicity)."""

    tope_count: int
    by_class: tuple[tuple[tuple[int, int], int], ...]

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.by_class)

    def lines(self) -> list[str]:
        out = [f"topes: {self.tope_count}"]
        for (degree, beta), count in self.by_class:
            out.append(f"weight a^{degree}, beta {beta}: {count} faces")
        return out

    def to_json(self) -> dict:
        return {
            "topes": self.tope_count,
            "census": [
                {"weight_degree": degree, "beta": beta, "count": count}
                for (degree, beta), count in self.by_class
            ],
        }


def face_census(f: FiberView) -> FaceCensus:
    """Count the non-tope faces of a fiber by weight degree and multiplicity; a face's weight has two
    variables per zero index."""
    counts: dict[tuple[int, int], int] = {}
    for _, mask, beta in _face_masks(f):
        key = (2 * mask.bit_count(), beta)
        counts[key] = counts.get(key, 0) + 1
    ordered = tuple(sorted(counts.items()))
    return FaceCensus(len(f.topes), ordered)


def non_pappus() -> WiringDiagram:
    """The 9-pseudoline non-Pappus configuration as a wiring diagram.

    Transcribed from the classical picture: two horizontal triples of points
    joined by six cross lines, with the ninth pseudoline running through two
    of the three inner intersection points and bending past the third (a
    straight line through two of them would necessarily contain the third,
    which is why no straight-line arrangement realizes this face poset).
    The diagram has 8 triple points, 7 plain crossings, and 5 parallel wire
    pairs; its face census is 33 cells, 43 segments, and 15 vertices.
    tests/test_wiring.py rebuilds this event list from exact rational
    coordinates of that picture.
    """
    return WiringDiagram.of(9, _NON_PAPPUS_EVENTS)


_NON_PAPPUS_EVENTS: tuple[tuple[int, int], ...] = (
    (1, 3),
    (5, 7),
    (3, 5),
    (2, 3),
    (5, 6),
    (3, 4),
    (0, 2),
    (4, 5),
    (6, 8),
    (3, 4),
    (2, 3),
    (5, 6),
    (3, 5),
    (1, 3),
    (5, 7),
)
