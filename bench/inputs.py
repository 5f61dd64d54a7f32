"""Seeded inputs for the verdict benchmark and the count oracles that check them.

Everything here is plain data and integer arithmetic: nothing imports
omdet, so the expected counts are independent of the code under test.

Wiring diagrams are random sequences of crossings (and about 20% triple
points) of wires that have not crossed yet, up to a given number of regions.  Their face counts follow from the
events alone: every event at positions lo..hi is a vertex where hi-lo+1
wires meet, it adds hi-lo regions to the n+1 strips of the empty diagram,
and it cuts each of its wires once more.

Arrangements are integer normals, pairwise non-proportional; central ones
in R^3 are essential (rank 3).  Their face counts come from the distinct
intersection lines (R^3) or points (affine R^2) and Euler's relation.

Each workload draws its inputs from a fixed cycle of size classes, so every
seed gets the same mix and only the concrete normals and events change;
that keeps throughput and percentiles comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd


@dataclass(frozen=True)
class Wiring:
    wires: int
    events: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {"wires": self.wires, "events": [list(e) for e in self.events]}


@dataclass(frozen=True)
class Arrangement:
    dim: int
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...] | None = None  # None for a central arrangement

    @property
    def affine(self) -> bool:
        return self.offsets is not None


@dataclass(frozen=True)
class Counts:
    """Expected size of the fiber a generator must produce."""

    members: int
    topes: int


# wiring diagrams


# chance of a triple point where one fits; about 20% of the events come out triple points
TRIPLE_CHANCE = 0.4


def random_wiring(rng: random.Random, wires: int, topes: int) -> Wiring:
    """A random diagram with exactly ``topes`` regions; each pair crosses at most once.

    Two wires at adjacent positions have not crossed yet exactly when the
    lower one has the smaller label, so such an ascent can be swapped until
    the order is fully reversed.  A crossing adds one region.  Where three
    increasing wires sit together, a triple point (two regions) is drawn
    with probability TRIPLE_CHANCE.
    """
    target = topes - 1 - wires
    if not 0 <= target <= comb(wires, 2):
        raise ValueError(f"{wires} wires cannot bound {topes} regions")
    while True:
        perm = list(range(1, wires + 1))
        added = 0
        events = []
        while added < target:
            ascents = [k for k in range(wires - 1) if perm[k] < perm[k + 1]]
            if not ascents:
                break  # triple points used up the pairs; draw again
            triples = [k for k in range(wires - 2) if perm[k] < perm[k + 1] < perm[k + 2]]
            if triples and added + 2 <= target and rng.random() < TRIPLE_CHANCE:
                lo = rng.choice(triples)
                hi = lo + 2
            else:
                lo = rng.choice(ascents)
                hi = lo + 1
            events.append((lo, hi))
            added += hi - lo
            perm[lo : hi + 1] = reversed(perm[lo : hi + 1])
        if added == target:
            return Wiring(wires, tuple(events))


def full_reversal(wires: int) -> Wiring:
    """Every pair crosses once, by plain crossings only."""
    return Wiring(wires, tuple((k, k + 1) for i in range(wires) for k in range(wires - 1 - i)))


def wiring_counts(w: Wiring) -> Counts:
    topes = 1 + w.wires + sum(hi - lo for lo, hi in w.events)
    edges = w.wires + sum(hi - lo + 1 for lo, hi in w.events)
    return Counts(len(w.events) + edges + topes, topes)


# arrangements


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    """The integer vector up to scaling by a nonzero rational (sign included)."""
    g = 0
    for c in v:
        g = gcd(g, c)
    v = tuple(c // g for c in v)
    lead = next(c for c in v if c)
    return v if lead > 0 else tuple(-c for c in v)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _rank3(normals) -> bool:
    return any(
        sum(a * b for a, b in zip(_cross(u, v), w))
        for u, v, w in combinations(normals, 3)
    )


def random_central(rng: random.Random, dim: int, n: int, bound: int) -> Arrangement:
    """n pairwise non-proportional integer normals in [-bound, bound]^dim, rank dim."""
    while True:
        normals: list[tuple[int, ...]] = []
        seen = set()
        while len(normals) < n:
            v = tuple(rng.randint(-bound, bound) for _ in range(dim))
            if any(v) and _primitive(v) not in seen:
                seen.add(_primitive(v))
                normals.append(v)
        if dim == 2 or _rank3(normals):
            return Arrangement(dim, tuple(normals))


def random_affine_plane(rng: random.Random, n: int, bound: int) -> Arrangement:
    """n distinct affine lines a*x + b*y = c in R^2, with at least one crossing."""
    while True:
        lines: list[tuple[int, int, int]] = []
        seen = set()
        while len(lines) < n:
            a, b, c = (rng.randint(-bound, bound) for _ in range(3))
            if (a, b) != (0, 0) and _primitive((a, b, c)) not in seen:
                seen.add(_primitive((a, b, c)))
                lines.append((a, b, c))
        if _affine_points(lines):
            return Arrangement(2, tuple(l[:2] for l in lines), tuple(l[2] for l in lines))


def _affine_points(lines) -> dict[tuple[Fraction, Fraction], int]:
    """Distinct crossing points of affine lines, with the number of lines through each."""
    points: dict[tuple[Fraction, Fraction], set[int]] = {}
    for (i, (a1, b1, c1)), (j, (a2, b2, c2)) in combinations(enumerate(lines), 2):
        det = a1 * b2 - a2 * b1
        if det:
            p = (Fraction(c1 * b2 - c2 * b1, det), Fraction(a1 * c2 - a2 * c1, det))
            points.setdefault(p, set()).update((i, j))
    return {p: len(through) for p, through in points.items()}


def arrangement_counts(arr: Arrangement) -> Counts:
    """Face counts of the fiber omdet.arrangement_fiber returns.

    Central R^2: n lines through 0 give 2n sectors, 2n rays and the origin.
    Central R^3: on the unit sphere each intersection line is a pair of
    vertices, plane i is cut into 2*(lines in it) arcs, and Euler's
    relation V - E + F = 2 gives F; add 1 for the origin.
    Affine R^2: V - E + F = 1, with E = n + sum of lines through each point.
    """
    n = len(arr.normals)
    if arr.affine:
        lines = [normal + (c,) for normal, c in zip(arr.normals, arr.offsets)]
        mult = _affine_points(lines).values()
        topes = 1 + n + sum(m - 1 for m in mult)
        return Counts(len(mult) + n + sum(mult) + topes, topes)
    if arr.dim == 2:
        return Counts(4 * n + 1, 2 * n)
    if arr.dim != 3:
        raise ValueError("count oracle covers central arrangements in R^2 and R^3 only")
    lines = {_primitive(_cross(u, v)) for u, v in combinations(arr.normals, 2)}
    mult = [sum(1 for h in arr.normals if sum(a * b for a, b in zip(h, line)) == 0) for line in lines]
    topes = 2 + 2 * sum(m - 1 for m in mult)
    return Counts(1 + 2 * len(lines) + 2 * sum(mult) + topes, topes)


# the fixed non-realizable input: the pinned census, not the published 43
NON_PAPPUS_TOPES = 33
NON_PAPPUS_CENSUS = {(2, 1): 47, (6, 1): 8, (4, 0): 7}
NON_PAPPUS_MEMBERS = NON_PAPPUS_TOPES + sum(NON_PAPPUS_CENSUS.values())


# workloads: one job per verdict


@dataclass(frozen=True)
class Job:
    """One verdict's input: the source description and what it must yield."""

    source: Arrangement | Wiring | None  # None is the non-Pappus fixture
    expected: Counts
    collapse: bool = False  # symbolic workload: verify after the all=a specialization
    seed: int = 0  # seed of the randomized verify
    path: str | None = None  # wiring JSON written during set-up (CLI workload)


# Largest fiber verified symbolically in all 2n variables; larger ones are
# collapsed to one variable first.  12-14 topes in 12+ variables would take
# 13-21 s per verdict and dominate the run.
MULTIVARIATE_MAX_TOPES = 11


def central(dim: int, n: int, topes: int | None = None):
    return ("central", dim, n, topes)


def affine(n: int, topes: int | None = None):
    return ("affine", 2, n, topes)


def wiring(wires: int, topes: int):
    return ("wiring", None, wires, topes)


# A workload cycles through size classes.  Time grows steeply with the tope
# count, so wiring diagrams get an exact count, and an arrangement class
# that names one draws until it has exactly that many.  Sizes are narrowed
# from the ranges the layer split was first measured on, so that 100
# verdicts take 15-20 s on a quiet host.  Sorted by time, the classes
# around the median and around the 90th percentile form a ladder of steps
# of at most about 1.4x, with one class per step: a gap between classes
# would make a percentile jump with the seed, and a tall step of one class
# would make it jump with the share of the run a busy host spent slow.
# The classes are interleaved so that a partial cycle keeps the mix.
SYMBOLIC_CYCLE = (
    # under 60 ms: 35%; 16-20 tope diagrams (univariate): 35-60%; 20-tope
    # R^3 arrangements and 10-tope diagrams in 8 variables: 60-85%; 22-tope
    # R^3 arrangements: 85-95%; 5 lines in R^2 (10 topes, 10 variables): 5%
    central(2, 3), wiring(6, 18),
    central(3, 5, 22), wiring(4, 10),
    central(3, 3), wiring(6, 16),
    central(3, 5, 20), wiring(5, 14),
    central(2, 4), wiring(6, 20),
    central(2, 5), wiring(4, 10),
    central(3, 4), wiring(6, 17),
    central(3, 5, 22), wiring(3, 7),
    central(2, 6), wiring(6, 19),
    central(3, 5, 20), wiring(4, 10),
)
WIRING_CLI_CYCLE = (
    wiring(6, 17), wiring(8, 29), wiring(9, 38), wiring(7, 22), wiring(8, 31),
    wiring(6, 20), wiring(8, 27), wiring(9, 35), wiring(7, 25), wiring(9, 32),
)
ARRANGEMENTS_CYCLE = (
    # sorted: 5-6 lines in R^2, 5 planes in R^3 (35%); 5 affine lines
    # (35-50%); 7 lines in R^2 (50-60%); 6 planes in R^3 (60-75%); 8 lines
    # in R^2 and 6 affine lines (75-95%); 7 planes in R^3 (5%)
    central(2, 5), affine(5), central(3, 6), central(3, 5), affine(6),
    central(2, 6), central(2, 7), central(2, 8), affine(5), central(3, 7),
    central(2, 5), central(3, 5), central(3, 6), affine(5), affine(6),
    central(2, 6), central(2, 7), central(2, 8), central(3, 5), central(3, 6),
)

CYCLES = {"symbolic": SYMBOLIC_CYCLE, "wiring-cli": WIRING_CLI_CYCLE, "arrangements": ARRANGEMENTS_CYCLE}
NORMAL_BOUND = {"symbolic": 3, "arrangements": 5}
# Verdicts a run cycles through.  A run makes 150-350 verdicts; wiring-cli's
# inputs are files written during set-up, so its pool is kept to ten cycles.
POOL_SIZE = {"symbolic": 400, "wiring-cli": 100, "arrangements": 400}


def _draw(rng: random.Random, cls, bound: int):
    kind, dim, n, topes = cls
    while True:
        if kind == "central":
            source = random_central(rng, dim, n, bound)
            expected = arrangement_counts(source)
        elif kind == "affine":
            source = random_affine_plane(rng, n, bound)
            expected = arrangement_counts(source)
        else:
            source = random_wiring(rng, n, topes)
            expected = wiring_counts(source)
        if topes is None or expected.topes == topes:
            return source, expected


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The verdict inputs of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = CYCLES[workload]
    jobs = []
    if workload == "symbolic":
        jobs.append(Job(None, Counts(NON_PAPPUS_MEMBERS, NON_PAPPUS_TOPES), collapse=True))
    for i in range(POOL_SIZE[workload] - len(jobs)):
        source, expected = _draw(rng, cycle[i % len(cycle)], NORMAL_BOUND.get(workload, 0))
        jobs.append(
            Job(source, expected, expected.topes > MULTIVARIATE_MAX_TOPES, rng.randrange(1 << 31))
        )
    return jobs
