"""Covector sets of rational hyperplane arrangements, decided exactly.

A central arrangement is a list of nonzero rational linear forms; the sign
vector of a point records on which side of each hyperplane it lies.  Which
sign vectors are attainable is decided by Fourier-Motzkin elimination over
exact rationals: equalities (zero signs) are substituted away first, then
strict inequalities are projected variable by variable.  No floating point
is used anywhere in this module.

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


def _substitute_equalities(equalities, forms):
    """Gaussian elimination of homogeneous equalities into the forms.

    Returns the reduced form vectors; eliminated variables keep their slots
    with zero coefficients.
    """
    eqs = [list(e) for e in equalities]
    forms = [list(vec) for vec in forms]
    for row in range(len(eqs)):
        eq = eqs[row]
        pivot = next((k for k, c in enumerate(eq) if c), None)
        if pivot is None:
            continue
        pc = eq[pivot]
        for other in range(row + 1, len(eqs)):
            factor = eqs[other][pivot]
            if factor:
                ratio = factor / pc
                eqs[other] = [a - ratio * b for a, b in zip(eqs[other], eq)]
        for idx, vec in enumerate(forms):
            factor = vec[pivot]
            if factor:
                ratio = factor / pc
                forms[idx] = [a - ratio * b for a, b in zip(vec, eq)]
    return forms


def _normalized(constraints):
    """Constraints scaled to leading coefficient +-1 and deduped (exact, so
    deduping is sound), with 0 >= 0 dropped; None on the contradiction 0 > 0."""
    out = {}
    for vec, strict in constraints:
        if not any(vec):
            if strict:
                return None
            continue
        lead = next(c for c in vec if c)
        out[tuple(c / abs(lead) for c in vec), strict] = None
    return list(out)


def _fm_feasible(constraints) -> bool:
    """Feasibility of {vec . x > 0 (strict) / >= 0} by variable elimination.

    All constraints here are homogeneous, so the only failure mode is
    deriving the contradiction 0 > 0.
    """
    active = _normalized(constraints)
    if active is None:
        return False
    if not active:
        return True
    for k in range(len(active[0][0])):
        pos = [c for c in active if c[0][k] > 0]
        neg = [c for c in active if c[0][k] < 0]
        untouched = [c for c in active if c[0][k] == 0]
        if not pos or not neg:
            # the variable is unbounded in one direction; its constraints
            # impose nothing on the others
            active = untouched
        else:
            combined = _normalized(
                (tuple(-nvec[k] * a + pvec[k] * b for a, b in zip(pvec, nvec)), pstrict or nstrict)
                for (pvec, pstrict), (nvec, nstrict) in product(pos, neg)
            )
            if combined is None:
                return False
            active = untouched + combined
        if not active:
            return True
    return True


def _reduced_forms(normals, zero_set):
    """Forms of the hyperplanes outside zero_set on the solution space of the
    zero-set equalities, keyed by 0-based index; None when some such form
    vanishes there (no sign vector with exactly this zero set exists)."""
    rest = [i for i in range(len(normals)) if i not in zero_set]
    reduced = _substitute_equalities([normals[i] for i in zero_set], [normals[i] for i in rest])
    forms = {}
    for i, vec in zip(rest, reduced):
        if not any(vec):
            return None
        forms[i] = tuple(vec)
    return forms


def _signed_feasible(forms, plus: int) -> bool:
    """Is there a point where each form i is positive if bit i of plus is
    set and negative otherwise?"""
    return _fm_feasible(
        [(vec if plus >> i & 1 else tuple(-c for c in vec), True) for i, vec in forms.items()]
    )


def sign_feasible(arr: RationalArrangement, sigma: SignVector) -> bool:
    """Exact test: does some point realize the sign vector sigma?"""
    if arr.affine:
        raise ValueError("sign_feasible expects a central (or homogenized) arrangement")
    if sigma.n != arr.n:
        raise ValueError(f"sign vector length {sigma.n} does not match {arr.n} hyperplanes")
    zero_set = [i - 1 for i in sorted(sigma.zero_set())]
    forms = _reduced_forms([normal for normal, _ in arr.hyperplanes], zero_set)
    return forms is not None and _signed_feasible(forms, sigma.plus)


def enumerate_covectors(arr: RationalArrangement, check: bool = True) -> CovectorSet:
    """All attainable sign vectors of a central arrangement.

    The arrangement is built one hyperplane at a time, keeping one
    representative of each antipodal pair of covectors so far.  Hyperplane
    k+1 either misses the cell of a covector of the first k hyperplanes (one
    extension, + or -), cuts it (three: +, 0, -), or contains it (only 0,
    when its form vanishes on the cell's span).  So each representative
    costs one equality reduction and at most two Fourier-Motzkin tests, and
    the work follows the output size.  The result must pass the covector
    axioms; ``check=False`` skips the final validation and leaves the set
    unverified.
    """
    if arr.affine:
        raise ValueError("enumerate_covectors expects a central arrangement; homogenize first")
    if arr.n == 0:
        raise ValueError("cannot enumerate covectors of an empty arrangement")
    n = arr.n
    normals = [normal for normal, _ in arr.hyperplanes]
    reps = [(0, 0)]  # (plus, minus) masks over the hyperplanes added so far
    for k in range(n):
        bit = 1 << k
        grown = []
        for plus, minus in reps:
            support = plus | minus
            forms = _reduced_forms(normals[: k + 1], [i for i in range(k) if not support >> i & 1])
            if forms is None:
                grown.append((plus, minus))
            elif not support:
                # the zero vector is its own antipode: keep + and drop its mirror -
                grown += [(bit, 0), (0, 0)]
            elif not _signed_feasible(forms, plus | bit):
                grown.append((plus, minus | bit))
            elif _signed_feasible(forms, plus):
                grown += [(plus | bit, minus), (plus, minus), (plus, minus | bit)]
            else:
                grown.append((plus | bit, minus))
        reps = grown
    out = CovectorSet.of(
        [SignVector(n, plus, minus) for plus, minus in reps]
        + [SignVector(n, minus, plus) for plus, minus in reps],
        n=n,
    )
    found = loops(out)
    if found:
        raise ValueError(f"arrangement has loops at indices {sorted(found)}")
    if check:
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


def arrangement_fiber(arr: RationalArrangement, check: bool = True) -> FiberView:
    """The fiber whose determinant describes the arrangement.

    Central input: the whole covector set, I = [n].  Affine input: the
    homogenized central set restricted to the side t > 0, I = [n].
    """
    if arr.affine:
        central, free, infinity = homogenize(arr)
        s = enumerate_covectors(central, check=check)
        anchor = next(m for m in s.members if m.sign(infinity) > 0)
        return topal_fiber(s, free, anchor)
    s = enumerate_covectors(arr, check=check)
    return topal_fiber(s, range(1, arr.n + 1), s.members[0])
