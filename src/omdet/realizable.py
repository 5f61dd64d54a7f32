"""Covector sets of rational hyperplane arrangements, decided exactly.

A central arrangement is a list of nonzero rational linear forms; the sign
vector of a point records on which side of each hyperplane it lies.  Which
sign vectors are attainable is decided by one loop over integer rows: each
variable is eliminated through an equality (zero sign) that involves it, by
fraction-free substitution, or else by a Fourier-Motzkin step on the strict
inequalities, until 0 > 0 is derived or no constraint is left.  No floating
point is used anywhere in this module.

Affine arrangements (nonzero offsets) are handled by homogenization: the
form <h, x> = c becomes <h, x> - c*t = 0 in one extra variable, a hyperplane
t = 0 is appended at index n+1, and the affine picture is the fiber of the
central one anchored at t > 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import NamedTuple

from .signvec import CovectorSet, FiberView, SignVector, as_int, check_covector_axioms, loops, topal_fiber


@dataclass(frozen=True)
class RationalArrangement:
    """n hyperplanes <h_i, x> = c_i in d variables, with exact coefficients."""

    dim: int
    hyperplanes: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    affine: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.hyperplanes) > 64:
            raise ValueError("at most 64 hyperplanes are supported")
        for normal, offset in self.hyperplanes:
            if len(normal) != self.dim:
                raise ValueError("normal length does not match the dimension")
            if not any(normal):
                raise ValueError("hyperplanes must have a nonzero linear form")
            if not self.affine and offset:
                raise ValueError("central arrangements must have zero offsets")

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    @classmethod
    def of(cls, normals, offsets=None, affine: bool = False, dim: int | None = None) -> RationalArrangement:
        normals = [tuple(Fraction(c) for c in normal) for normal in normals]
        if dim is None:
            if not normals:
                raise ValueError("dim is required for an arrangement with no hyperplanes")
            dim = len(normals[0])
        if offsets is None:
            offsets = [Fraction(0)] * len(normals)
        offsets = [Fraction(c) for c in offsets]
        if len(offsets) != len(normals):
            raise ValueError("offsets and normals differ in length")
        return cls(dim, tuple(zip(normals, offsets)), affine)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "affine": self.affine,
            "hyperplanes": [
                {"normal": [str(c) for c in normal], "offset": str(offset)}
                for normal, offset in self.hyperplanes
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> RationalArrangement:
        hyperplanes = doc["hyperplanes"]
        return cls.of(
            [[Fraction(c) for c in h["normal"]] for h in hyperplanes],
            [Fraction(h.get("offset", "0")) for h in hyperplanes],
            affine=bool(doc.get("affine", False)),
            dim=as_int(doc["dim"]) if "dim" in doc else None,
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> RationalArrangement:
        return cls.from_json(json.loads(text))


# exact feasibility


def _integer_rows(arr: RationalArrangement) -> list[tuple[int, ...]]:
    """Each normal scaled by the lcm of its denominators; a positive scaling
    keeps every sign vector."""
    rows = []
    for normal, _ in arr.hyperplanes:
        scale = lcm(*(c.denominator for c in normal))
        rows.append(tuple(c.numerator * (scale // c.denominator) for c in normal))
    return rows


def _normalized(constraints):
    """Constraints divided by the gcd of their entries (positive, so every
    direction is kept and deduping is exact), with 0 = 0 dropped; None on
    the contradiction 0 > 0."""
    out = {}
    for row, strict in constraints:
        g = gcd(*row)
        if not g:
            if strict:
                return None
            continue
        out[tuple(c // g for c in row), strict] = None
    return list(out)


def _fm_feasible(constraints) -> bool:
    """Feasibility of integer constraints row . x > 0 (strict) / = 0.

    Variable k is eliminated through an equality that involves it when there
    is one, by the fraction-free substitution row -> e[k]*row - row[k]*e with
    e[k] > 0, which keeps every kind.  Otherwise it is eliminated by a
    Fourier-Motzkin step; then only strict rows involve k, so every
    combination is strict.  All constraints are homogeneous, so the only
    failure mode is deriving the contradiction 0 > 0.
    """
    active = _normalized(constraints)
    k = 0
    while active:
        eq = next((row for row, strict in active if not strict and row[k]), None)
        if eq is not None:
            if eq[k] < 0:
                eq = tuple(-c for c in eq)
            active = _normalized(
                (tuple(eq[k] * a - row[k] * b for a, b in zip(row, eq)) if row[k] else row, strict)
                for row, strict in active
            )
        else:
            pos = [row for row, _ in active if row[k] > 0]
            neg = [row for row, _ in active if row[k] < 0]
            untouched = [c for c in active if not c[0][k]]
            if not pos or not neg:
                # the variable is unbounded in one direction; its constraints
                # impose nothing on the others
                active = untouched
            else:
                active = _normalized(
                    untouched
                    + [
                        (tuple(-nrow[k] * a + prow[k] * b for a, b in zip(prow, nrow)), True)
                        for prow, nrow in product(pos, neg)
                    ]
                )
        k += 1
    return active is not None


def _feasible(rows, plus: int, minus: int) -> bool:
    """Is there a point where row i is positive if bit i of plus is set,
    negative if bit i of minus is set, and zero otherwise?"""
    constraints = []
    for i, row in enumerate(rows):
        if minus >> i & 1:
            row = tuple(-c for c in row)
        constraints.append((row, bool((plus | minus) >> i & 1)))
    return _fm_feasible(constraints)


def sign_feasible(arr: RationalArrangement, sigma: SignVector) -> bool:
    """Exact test: does some point realize the sign vector sigma?"""
    if arr.affine:
        raise ValueError("sign_feasible expects a central (or homogenized) arrangement")
    if sigma.n != arr.n:
        raise ValueError(f"sign vector length {sigma.n} does not match {arr.n} hyperplanes")
    return _feasible(_integer_rows(arr), sigma.plus, sigma.minus)


def enumerate_covectors(arr: RationalArrangement) -> CovectorSet:
    """All attainable sign vectors of a central arrangement.

    The arrangement is built one hyperplane at a time, keeping one
    representative of each antipodal pair of covectors so far.  Hyperplane
    k+1 either misses the cell of a covector of the first k hyperplanes (one
    extension, + or -), cuts it (three: +, 0, -), or contains it (only 0,
    when its form vanishes on the cell's span).  So each representative
    costs at most two feasibility tests (integer Fourier-Motzkin with the
    cell's equalities eliminated in the same loop), and the work follows
    the output size.  The result must pass the covector axioms, which are
    checked before it is returned.
    """
    if arr.affine:
        raise ValueError("enumerate_covectors expects a central arrangement; homogenize first")
    if arr.n == 0:
        raise ValueError("cannot enumerate covectors of an empty arrangement")
    n = arr.n
    rows = _integer_rows(arr)
    reps = [(0, 0)]  # (plus, minus) masks over the hyperplanes added so far
    for k in range(n):
        bit = 1 << k
        head = rows[: k + 1]
        grown = []
        for plus, minus in reps:
            if not plus | minus:
                # the zero vector is its own antipode: keep + and drop its mirror -
                grown += [(bit, 0), (0, 0)] if _feasible(head, bit, 0) else [(0, 0)]
                continue
            up = _feasible(head, plus | bit, minus)
            down = _feasible(head, plus, minus | bit)
            if up and down:
                grown += [(plus | bit, minus), (plus, minus), (plus, minus | bit)]
            elif up:
                grown.append((plus | bit, minus))
            elif down:
                grown.append((plus, minus | bit))
            else:
                # the form vanishes on the cell's span
                grown.append((plus, minus))
        reps = grown
    out = CovectorSet.of(
        [SignVector(n, plus, minus) for plus, minus in reps]
        + [SignVector(n, minus, plus) for plus, minus in reps],
        n=n,
    )
    found = loops(out)
    if found:
        raise ValueError(f"arrangement has loops at indices {sorted(found)}")
    report = check_covector_axioms(out)
    if not report.ok:
        raise AssertionError(
            "enumerated sign vectors fail the covector axioms; "
            "this is a bug in the enumeration:\n" + "\n".join(report.lines())
        )
    return out


class Homogenized(NamedTuple):
    central: RationalArrangement
    free_indices: frozenset[int]
    infinity_index: int


def homogenize(arr: RationalArrangement) -> Homogenized:
    """Central model of an affine arrangement, plus its fiber selector.

    Each <h, x> = c becomes <h, x> - c*t = 0 in one extra variable, the
    hyperplane t = 0 is appended at index n+1, and the affine faces are the
    fiber anchored at t > 0 with free set I = 1..n.
    """
    if not arr.affine:
        raise ValueError("homogenize expects an affine arrangement")
    normals = []
    for normal, offset in arr.hyperplanes:
        normals.append(tuple(normal) + (-offset,))
    normals.append(tuple([Fraction(0)] * arr.dim) + (Fraction(1),))
    central = RationalArrangement.of(normals, affine=False)
    return Homogenized(central, frozenset(range(1, arr.n + 1)), arr.n + 1)


def arrangement_fiber(arr: RationalArrangement) -> FiberView:
    """The fiber whose determinant describes the arrangement.

    Central input: the whole covector set, I = [n].  Affine input: the
    homogenized central set restricted to the side t > 0, I = [n].
    """
    if arr.affine:
        central, free, infinity = homogenize(arr)
        s = enumerate_covectors(central)
        anchor = next(m for m in s.members if m.sign(infinity) > 0)
        return topal_fiber(s, free, anchor)
    s = enumerate_covectors(arr)
    return topal_fiber(s, range(1, arr.n + 1), s.members[0])
