"""Covector sets of rational hyperplane arrangements, decided exactly.

A central arrangement is a list of nonzero rational linear forms; the sign
vector of a point records on which side of each hyperplane it lies.  The
attainable sign vectors (the covectors) are read off the cocircuits: each
is the sign vector of the integer rows against the cofactor vector of r - 1
independent rows, r the rank, and every covector is a composition of the
cocircuits below it.  No floating point is used anywhere in this module.

Affine arrangements (nonzero offsets) are handled by homogenization: the
form <h, x> = c becomes <h, x> - c*t = 0 in one extra variable, a hyperplane
t = 0 is appended at index n+1, and the affine picture is the fiber of the
central one anchored at t > 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .signvec import (
    CovectorSet, FiberView, SignVector, _cocircuit_pairs, _json_field, _json_int, _json_kind, _json_list,
    composition_closure, topal_fiber
)


def _as_fraction(value) -> Fraction:
    """Fraction(value), but a float or bool raises ValueError instead of converting inexactly."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"expected an integer or a p/q string, got {value!r}")
    return Fraction(value)


def _coordinate(value, name: str) -> Fraction:
    """_as_fraction(value) of the field name, else a ValueError naming it and the rule."""
    try:
        return _as_fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{name}: zero denominator in {_json_kind(value)}") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected an integer or a p/q string, got {_json_kind(value)}") from None


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
        """Exact coefficients from integers, Fractions or p/q strings; a float or bool raises ValueError."""
        normals = [tuple(_as_fraction(c) for c in normal) for normal in normals]
        if dim is None:
            if not normals:
                raise ValueError("dim is required for an arrangement with no hyperplanes")
            dim = len(normals[0])
        if offsets is None:
            offsets = [Fraction(0)] * len(normals)
        offsets = [_as_fraction(c) for c in offsets]
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
    def from_json(cls, doc) -> RationalArrangement:
        """The arrangement of a JSON document; a malformed one raises ValueError naming the field and the rule."""
        normals, offsets = [], []
        for k, h in enumerate(_json_field(doc, "hyperplanes", _json_list)):
            where = f"hyperplanes[{k}]"
            normal = _json_field(h, "normal", _json_list, where)
            normals.append([_coordinate(c, f"{where}.normal[{j}]") for j, c in enumerate(normal)])
            offsets.append(_coordinate(h.get("offset", 0), f"{where}.offset"))
        dim = _json_field(doc, "dim", _json_int) if "dim" in doc else None
        return cls.of(normals, offsets, affine=bool(doc.get("affine", False)), dim=dim)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> RationalArrangement:
        return cls.from_json(json.loads(text))


# cocircuits and their compositions


def _integer_rows(arr: RationalArrangement) -> list[tuple[int, ...]]:
    """Each normal scaled by the lcm of its denominators; a positive scaling
    keeps every sign vector."""
    rows = []
    for normal, _ in arr.hyperplanes:
        scale = lcm(*(c.denominator for c in normal))
        rows.append(tuple(c.numerator * (scale // c.denominator) for c in normal))
    return rows


def _pivot_columns(rows) -> list[int]:
    """Indices of r linearly independent columns, r the rank of rows: the
    pivot columns of a fraction-free row echelon form."""
    pivots = []
    for j in range(len(rows[0])):
        head = next((row for row in rows if row[j]), None)
        if head is None:
            continue
        pivots.append(j)
        rows = [[head[j] * a - row[j] * b for a, b in zip(row, head)] for row in rows if row is not head]
        rows = [[c // g for c in row] for row in rows if (g := gcd(*row))]
    return pivots


def _cocircuits(arr: RationalArrangement) -> set[tuple[int, int]]:
    """The cocircuits of the arrangement as (plus, minus) masks.

    Every other column of the integer rows is a combination of r pivot
    columns, so keeping only those leaves the linear dependencies among the
    rows, and with them the covectors, unchanged.  A hyperplane of the
    matroid is spanned by r - 1 independent rows S; with c their cofactor
    vector, <row_i, c> = det(S, row_i).  Fraction-free elimination of the
    rows of S from every row (a Bareiss step, each division exact) leaves
    row i one nonzero column, holding det(S, row_i) times a factor common
    to all rows; a zero head row means S is dependent.  The signs, and their
    negatives, are the two cocircuits that vanish on the hyperplane.  The
    subsets are walked depth first: a prefix's reduced rows and their sums
    are built once for all its extensions, and a dependent prefix prunes
    its branch.  The last step keeps only the signs of the row sums, read
    before the exact division by the previous head: a negative head would
    flip every sign, which only swaps the two cocircuits.
    """
    rows = _integer_rows(arr)
    columns = _pivot_columns(rows)
    rows = [[row[j] for j in columns] for row in rows]
    # a subset with two parallel rows is dependent, and swapping a row for a
    # parallel one spans the same hyperplane: one row per line suffices
    lines = {}
    for i, row in enumerate(rows):
        g = gcd(*row) if next(filter(None, row)) > 0 else -gcd(*row)
        lines.setdefault(tuple(c // g for c in row), i)
    lines = list(lines.values())
    found = set()

    def extend(reduced, sums, previous, start, left):
        if not left:
            plus = sum(1 << i for i, value in enumerate(sums) if value > 0)
            minus = sum(1 << i for i, value in enumerate(sums) if value < 0)
            found.update(((plus, minus), (minus, plus)))
            return
        for p in range(start, len(lines) - left + 1):
            head = reduced[lines[p]]
            j = next((j for j, c in enumerate(head) if c), None)
            if j is None:
                continue
            h, s = head[j], sums[lines[p]]
            if left > 1:
                child = [[(h * a - row[j] * b) // previous for a, b in zip(row, head)] for row in reduced]
                extend(child, [(h * t - row[j] * s) // previous for t, row in zip(sums, reduced)], h, p + 1, left - 1)
            else:
                # the last step's row sums give only signs, so it builds no reduced rows and skips the division
                extend(None, [h * t - row[j] * s for t, row in zip(sums, reduced)], 1, p + 1, 0)

    extend(rows, list(map(sum, rows)), 1, 0, len(columns) - 1)
    return found


def sign_feasible(arr: RationalArrangement, sigma: SignVector) -> bool:
    """Exact test: does some point realize the sign vector sigma?

    Every covector is the composition of the cocircuits conformal to it, so
    sigma is attainable exactly when the cocircuits below it cover its
    support.  Each call computes every cocircuit afresh (``_cocircuits``).
    """
    if arr.affine:
        raise ValueError("sign_feasible expects a central (or homogenized) arrangement")
    if sigma.n != arr.n:
        raise ValueError(f"sign vector length {sigma.n} does not match {arr.n} hyperplanes")
    covered = 0
    for plus, minus in _cocircuits(arr):
        if not plus & ~sigma.plus and not minus & ~sigma.minus:
            covered |= plus | minus
    return covered == sigma.support_mask


def enumerate_covectors(arr: RationalArrangement) -> CovectorSet:
    """All attainable sign vectors of a central arrangement, as a verified set.

    The covectors are the closure of the zero vector under composition with
    the cocircuits (``composition_closure``).  Composing never shrinks a
    support, so when the cocircuits' zero sets are pairwise incomparable,
    they are the closure's minimal-support members, and ``_cocircuit_check``
    of the result comes down to ``_cocircuit_pairs`` of the cocircuits.
    That guard runs on every call, and the set is returned verified.
    """
    if arr.affine:
        raise ValueError("enumerate_covectors expects a central arrangement; homogenize first")
    if arr.n == 0:
        raise ValueError("cannot enumerate covectors of an empty arrangement")
    n = arr.n
    cocircuits = _cocircuits(arr)
    # every zero set is kept as maximal, with its one pair, exactly when the counts agree
    if len(_cocircuit_pairs(n, cocircuits) or ()) * 2 != len(cocircuits):
        raise AssertionError("the cocircuits fail the covector axioms; this is a bug in the enumeration")
    full = (1 << n) - 1
    seen = composition_closure(n, [plus | minus << n for plus, minus in cocircuits])
    members = sorted((SignVector(n, code & full, code >> n) for code in seen), key=SignVector._ranks)
    return CovectorSet(n, tuple(members), verified=True)


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
