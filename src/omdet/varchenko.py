"""Tope distance matrices, their exact determinants, and the factored form.

The distance between two topes v, w of a fiber with free set I is the
monomial prod_{i in S(v,w) cap I} a_i^{v_i}, with the exponent sign taken
from the first argument; the distance of a tope to itself is 1.  The fiber's
matrix puts entry (row r, column c) = distance(tope_r, tope_c) over the
canonical tope order.  (The transpose convention changes nothing observable:
the determinant is transpose-invariant.)

The determinant is computed by fraction-free Bareiss elimination, whose
intermediate divisions are exact over the integer polynomial ring.  The same
determinant has a closed factored form: one factor (1 - b_v)^(beta_v) per
non-tope fiber member v, with b_v the weight monomial over v's zero indices
and beta_v its multiplicity.  ``verify`` checks the two sides against each
other, either symbolically or by random modular evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .polyring import (
    FactoredPoly,
    IntPolynomial,
    Specialization,
    _resolve_name,
    factored_str,
    mul_sub_div,
    poly_str,
    residues_mod,
    used_variables,
)
from .signvec import (
    CovectorSet,
    FiberError,
    FiberView,
    SignVector,
    _separation_mask,
    compose,
    leq,
    loops,
    multiplicity,
    poset_rank,
    topes,
    validate_fiber,
    weight_exponents,
)

DEFAULT_SYMBOLIC_LIMIT = 16


class SizeGuardError(ValueError):
    """Symbolic determinant requested beyond the tope-count guard."""


def _check_size_guard(topes: int, max_topes: int, force: bool):
    """The symbolic size guard, checked on the tope count before any matrix work.

    Multivariate intermediate swell makes large symbolic determinants
    expensive, so more than ``max_topes`` topes require ``force``.
    """
    if topes > max_topes and not force:
        raise SizeGuardError(
            f"symbolic determinant of {topes} topes exceeds the guard of {max_topes}; "
            "use randomized mode or force it (--force-symbolic on the command line)"
        )


def _require_valid_fiber(f: FiberView):
    if f.base.verified:
        found = loops(f.base)
        if found:
            raise FiberError(f"the covector set has loops at indices {sorted(found)}")
        return
    problems = validate_fiber(f)
    if problems:
        raise FiberError("; ".join(problems))


def distance(v: SignVector, w: SignVector, free_indices, nvars: int | None = None) -> IntPolynomial:
    """Aguiar-Mahajan distance monomial between two topes of one fiber."""
    if not v.is_tope or not w.is_tope:
        raise ValueError("distance is defined between topes only")
    if v.n != w.n:
        raise ValueError(f"length mismatch: {v.n} vs {w.n}")
    if nvars is None:
        nvars = 2 * v.n
    sep = _separation_mask(v, w)
    exps = {}
    for i in free_indices:
        bit = 1 << (i - 1)
        if sep & bit:
            # exponent sign comes from the first argument
            flat = 2 * (i - 1) + (0 if v.plus & bit else 1)
            exps[flat] = 1
    return IntPolynomial.monomial(nvars, exps)


def weight_monomial(u: SignVector, nvars: int | None = None) -> IntPolynomial:
    """b_u: the product a_i^+ a_i^- over the zero indices of a non-tope."""
    if nvars is None:
        nvars = 2 * u.n
    return IntPolynomial.monomial(nvars, {var: 1 for var in weight_exponents(u)})


@dataclass(frozen=True)
class VarchenkoMatrix:
    """Square matrix of pairwise tope distances over the canonical order."""

    fiber: FiberView
    tope_order: tuple[SignVector, ...]
    entries: tuple[tuple[IntPolynomial, ...], ...]

    @property
    def size(self) -> int:
        return len(self.tope_order)

    @property
    def nvars(self) -> int:
        return 2 * self.fiber.n

    def entry(self, r: int, c: int) -> IntPolynomial:
        return self.entries[r][c]


def build_matrix(f: FiberView) -> VarchenkoMatrix:
    """Distance matrix of a fiber; deterministic in the canonical tope order."""
    _require_valid_fiber(f)
    ts = f.topes
    if not ts:
        raise FiberError("the fiber has no topes; the distance matrix is empty")
    nvars = 2 * f.n
    free = sorted(f.free)
    rows = tuple(
        tuple(distance(tr, tc, free, nvars) for tc in ts) for tr in ts
    )
    return VarchenkoMatrix(f, ts, rows)


def bareiss_determinant(rows: list[list[IntPolynomial]], nvars: int) -> IntPolynomial:
    """Fraction-free elimination; every interior division is exact."""
    m = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = IntPolynomial.one(nvars)
    for k in range(m - 1):
        if a[k][k].is_zero:
            for r in range(k + 1, m):
                if not a[r][k].is_zero:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return IntPolynomial.zero(nvars)
        pivot = a[k][k]
        for i in range(k + 1, m):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, m):
                row_i[j] = mul_sub_div(pivot, row_i[j], aik, row_k[j], prev)
        prev = pivot
    det = a[m - 1][m - 1]
    return -det if sign < 0 else det


def _specialized_entries(matrix: VarchenkoMatrix, specialize: Specialization | None):
    """(entries, nvars) of the matrix under an optional specialization."""
    if specialize is None:
        return matrix.entries, matrix.nvars
    entries = tuple(tuple(specialize.apply_poly(e) for e in row) for row in matrix.entries)
    return entries, specialize.nvars


def determinant(
    matrix: VarchenkoMatrix,
    max_topes: int = DEFAULT_SYMBOLIC_LIMIT,
    force: bool = False,
) -> IntPolynomial:
    """Exact symbolic determinant via Bareiss elimination, behind the size guard."""
    _check_size_guard(matrix.size, max_topes, force)
    return bareiss_determinant([list(r) for r in matrix.entries], matrix.nvars)


def face_multiplicities(f: FiberView):
    """(covector, weight, multiplicity) for every non-tope fiber member."""
    _require_valid_fiber(f)
    nvars = 2 * f.n
    out = []
    for u in f.members:
        if u.is_tope:
            continue
        out.append((u, weight_monomial(u, nvars), multiplicity(f, u)))
    return out


def _formula_from_faces(nvars: int, faces) -> FactoredPoly:
    """prod (1 - b_v)^(beta_v) over (covector, weight, beta) with beta_v > 0."""
    one = IntPolynomial.one(nvars)
    return FactoredPoly(nvars, [(one - weight, beta) for _, weight, beta in faces if beta])


def product_formula(f: FiberView) -> FactoredPoly:
    """The determinant's closed form: prod (1 - b_v)^(beta_v), beta_v > 0."""
    return _formula_from_faces(2 * f.n, face_multiplicities(f))


# modular evaluation

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; the fixed witness set is deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def draw_prime(rng: random.Random, bits: int = 61) -> int:
    candidate = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def det_mod(rows: list[list[int]], prime: int) -> int:
    """Determinant of an integer matrix in the prime field."""
    m = len(rows)
    a = [[x % prime for x in row] for row in rows]
    det = 1
    for k in range(m):
        pivot_row = None
        for r in range(k, m):
            if a[r][k]:
                pivot_row = r
                break
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det % prime
        pivot = a[k][k]
        det = det * pivot % prime
        inv = pow(pivot, prime - 2, prime)
        for r in range(k + 1, m):
            factor = a[r][k] * inv % prime
            if factor:
                row_r = a[r]
                row_k = a[k]
                for c in range(k, m):
                    row_r[c] = (row_r[c] - factor * row_k[c]) % prime
    return det


@dataclass(frozen=True)
class EvalRecord:
    assignment: dict
    det_residue: int
    formula_residue: int

    @property
    def match(self) -> bool:
        return self.det_residue == self.formula_residue


@dataclass(frozen=True)
class VerificationReport:
    """Comparison of the matrix determinant against its factored form."""

    mode: str
    tope_count: int
    faces: tuple  # (SignVector, weight IntPolynomial, beta)
    formula: FactoredPoly
    agreement: bool
    determinant: IntPolynomial | None = None
    prime: int | None = None
    degree_bound: int | None = None
    evals: tuple[EvalRecord, ...] = ()
    names: tuple | None = None

    def to_json(self) -> dict:
        doc = {
            "mode": self.mode,
            "topes": self.tope_count,
            "faces": [
                {
                    "covector": str(u),
                    "weight": poly_str(w, self.names),
                    "beta": beta,
                }
                for u, w, beta in self.faces
            ],
            "formula": factored_str(self.formula, self.names),
            "agreement": self.agreement,
        }
        if self.determinant is not None:
            doc["determinant"] = poly_str(self.determinant, self.names)
        if self.mode == "randomized":
            doc["evals"] = {
                "prime": str(self.prime),
                "degree_bound": self.degree_bound,
                "count": len(self.evals),
                "log": [
                    {
                        "assignment": {k: str(v) for k, v in rec.assignment.items()},
                        "det": str(rec.det_residue),
                        "formula": str(rec.formula_residue),
                        "match": rec.match,
                    }
                    for rec in self.evals
                ],
            }
        return doc


def degree_bound(entries, formula: FactoredPoly) -> int:
    """Total-degree bound on det(entries) - formula, for the Schwartz-Zippel lemma.

    Every term of the determinant takes one entry from each row, so the sum
    of the row maxima bounds its degree; the formula side is bounded by its
    own total degree.
    """
    rows = sum(max(e.total_degree() for e in row) for row in entries)
    return max(rows, formula.total_degree())


def randomized_compare(
    entries,
    formula: FactoredPoly,
    seed: int = 0,
    evals: int = 5,
    workers: int = 1,
    names=None,
):
    """Compare det(entries) with the factored form at random modular points.

    Deterministic for a fixed seed: one 61-bit prime, then ``evals``
    assignments of the used variables in sorted order, evaluated one after
    another.  ``names`` overrides the printed variable names in the records,
    as in ``poly_str``.  ``workers`` is accepted for compatibility and has
    no effect.
    """
    if evals < 1:
        raise ValueError("at least one evaluation is required")
    flat = [e for row in entries for e in row]
    var_order = used_variables(flat + [base for base, _ in formula.factors])
    rng = random.Random(seed)
    prime = draw_prime(rng)
    m = len(entries)
    records = []
    for _ in range(evals):
        assignment = {v: rng.randrange(prime) for v in var_order}
        residues = residues_mod(flat, assignment, prime)
        det_r = det_mod([residues[r * m : (r + 1) * m] for r in range(m)], prime)
        readable = {_resolve_name(v, names): assignment[v] for v in var_order}
        records.append(EvalRecord(readable, det_r, formula.eval_mod(assignment, prime)))
    return prime, tuple(records)


def fiber_determinant(
    f: FiberView,
    specialize: Specialization | None = None,
    max_topes: int = DEFAULT_SYMBOLIC_LIMIT,
    force: bool = False,
) -> IntPolynomial:
    """Symbolic determinant of a fiber's matrix: guard, build, specialize, eliminate."""
    _check_size_guard(len(f.topes), max_topes, force)
    entries, nvars = _specialized_entries(build_matrix(f), specialize)
    return bareiss_determinant([list(r) for r in entries], nvars)


def verify(
    f: FiberView,
    mode: str = "auto",
    seed: int = 0,
    evals: int = 5,
    specialize: Specialization | None = None,
    max_topes: int = DEFAULT_SYMBOLIC_LIMIT,
    force_symbolic: bool = False,
    workers: int = 1,
) -> VerificationReport:
    """Check determinant = factored product on a fiber.

    ``mode`` is "symbolic", "randomized", or "auto" (symbolic up to the
    tope-count guard, randomized beyond it).  Disagreement is report
    content, not an exception.  Randomized evaluations run one after
    another; ``workers`` is accepted for compatibility and has no effect.
    """
    if mode not in ("auto", "symbolic", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    size = len(f.topes)
    if mode == "auto":
        mode = "symbolic" if size <= max_topes else "randomized"
    if mode == "symbolic":
        det = fiber_determinant(f, specialize, max_topes, force_symbolic)
    else:
        entries, _ = _specialized_entries(build_matrix(f), specialize)

    faces = face_multiplicities(f)
    nvars, names = 2 * f.n, None
    if specialize is not None:
        faces = [(u, specialize.apply_poly(w), beta) for u, w, beta in faces]
        nvars, names = specialize.nvars, specialize.names
    formula = _formula_from_faces(nvars, faces)

    if mode == "symbolic":
        return VerificationReport(
            "symbolic", size, tuple(faces), formula, det == formula.expand(), det, names=names
        )
    prime, records = randomized_compare(entries, formula, seed=seed, evals=evals, names=names)
    return VerificationReport(
        "randomized",
        size,
        tuple(faces),
        formula,
        all(r.match for r in records),
        prime=prime,
        degree_bound=degree_bound(entries, formula),
        evals=records,
        names=names,
    )


# identity checkers


def cfd_check(f: FiberView, c: SignVector, d: SignVector, face: SignVector) -> bool:
    """Distance factorization through a face below the first tope.

    For topes C, D of the fiber and a member F with F <= C, checks
    v(C, D) == v(C, F o D) * v(F o D, D).
    """
    if c not in f or not c.is_tope:
        raise ValueError(f"{c} is not a tope of the fiber")
    if d not in f or not d.is_tope:
        raise ValueError(f"{d} is not a tope of the fiber")
    if face not in f:
        raise ValueError(f"{face} is not a fiber member")
    if not leq(face, c):
        raise ValueError(f"{face} is not below {c}")
    fd = compose(face, d)
    if fd not in f:
        raise FiberError(f"composition {face} o {d} escapes the fiber")
    free = sorted(f.free)
    nvars = 2 * f.n
    lhs = distance(c, d, free, nvars)
    rhs = distance(c, fd, free, nvars) * distance(fd, d, free, nvars)
    return lhs == rhs


def witt_check(s: CovectorSet, a: SignVector, d: SignVector, x) -> bool:
    """Alternating-sum identity over the faces nested between a and a tope d.

    With rk the longest-chain rank from the all-zeros vector, checks

      sum_{F: a <= F <= d} (-1)^rk(F) * sum_{C tope: F o C = d} x_C
        == (-1)^rk(d) * sum_{C tope: a o C = a o (-d)} x_C

    for an integer weight x_C per tope (missing topes weigh 0).
    """
    if not s.verified:
        raise ValueError("witt_check requires a set that passed the covector axioms")
    if a not in s:
        raise ValueError(f"{a} is not a member of the set")
    if d not in s or not d.is_tope:
        raise ValueError(f"{d} is not a tope of the set")
    if not leq(a, d) or a == d:
        raise ValueError("need a nested pair: a <= d and a != d")
    all_topes = topes(s)
    lhs = 0
    for face in s.members:
        if leq(a, face) and leq(face, d):
            coeff = sum(x.get(c, 0) for c in all_topes if compose(face, c) == d)
            if coeff:
                lhs += (-1) ** poset_rank(s, face) * coeff
    target = compose(a, -d)
    rhs_sum = sum(x.get(c, 0) for c in all_topes if compose(a, c) == target)
    rhs = (-1) ** poset_rank(s, d) * rhs_sum
    return lhs == rhs
