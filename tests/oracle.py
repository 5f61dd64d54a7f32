"""Independent reference implementations and shared corpus builders.

Everything here deliberately avoids the package's optimized code paths:
the determinant oracle is a permutation expansion (no elimination), the
axiom oracle is a direct quantifier translation over sign tuples, the
elimination-witness oracle scans member pairs and every member per
separated index with no deduplication, the closure oracle composes every
ordered pair of SignVector objects, the boundary-maximum oracle compares
each index's candidates below each tope pairwise, the enumeration oracle
runs a feasibility test on every sign vector, the feasibility oracle is
Gaussian substitution of the equalities over Fraction followed by
Fourier-Motzkin on the reduced forms, the incremental enumeration oracle
extends the covectors one hyperplane at a time by integer
Fourier-Motzkin tests, with no cocircuit, the chain oracle is a
recursive longest-path search, the specialization oracle is the general
substitution homomorphism built from polynomial products and powers, the
elimination oracle is the fused Bareiss kernel that expands every
intermediate entry (it also lists each step's minors), the side-swap
oracle is that substitution exchanging each a_i^+ with a_i^-, the
entry oracle builds each distance monomial from the separation set of two
topes and the entry-residue oracle each entry's residue from two sign masks,
one product per variable, the degree-bound oracle reads the row maxima off the polynomial entries
rather than the tope masks, the support oracle reads them and the used
variables off the masks one interpreted step per tope pair, the
modular determinant oracle eliminates on lists of residues, one
interpreted step per entry, and so does the norm oracle on the regular
representation of a matrix over F_p[s]/(s^2 - w), the primality oracle is
Miller-Rabin on the 12 prime witnesses up to 37, the closed-form oracle builds one base
per face from that face's own weight monomial, and the cocircuit oracle runs
one Bareiss elimination per (r-1)-subset of the distinct lines, sharing no
prefix.  The sign-text oracle reads a string one character at a time, and
the wiring oracle builds one SignVector per cell, segment and vertex in
every sweep column.  The line-sweep converter turns seeded affine line
arrangements into wiring diagrams, so that the two generators can check
each other.

The polynomial helpers the tests need but the package does not (the text
parser, exact division and the constant term) live here as well, and so
do the checkers of the paper's lemmas: Witt's alternating sum, with ranks
from the chain oracle, and the distance factorization through a face.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import gcd, lcm

from omdet.polyring import (
    FactoredPoly,
    IntPolynomial,
    _accumulate_product,
    _divide_exact,
    _strip_and_check,
    pack_monomial,
    var_index,
    var_label,
)
from omdet.realizable import (
    RationalArrangement, _integer_rows, _pivot_columns, arrangement_fiber, enumerate_covectors, sign_feasible
)
from omdet.signvec import (
    CovectorSet,
    FiberError,
    FiberView,
    SignVector,
    _cocircuit_check,
    check_covector_axioms,
    compose,
    leq,
    multiplicity,
    separation,
    topal_fiber,
    topes,
    weight_exponents,
)
from omdet.wiring import WiringDiagram


def distance(v: SignVector, w: SignVector, free_indices, nvars: int | None = None) -> IntPolynomial:
    """Aguiar-Mahajan distance monomial between two topes of one fiber, one separated free index at a time.

    The exponent sign comes from the first argument: a_i^+ where v is positive.
    """
    if not v.is_tope or not w.is_tope:
        raise ValueError("distance is defined between topes only")
    sep = separation(v, w)
    exps = {2 * (i - 1) + (0 if v.sign(i) > 0 else 1): 1 for i in free_indices if i in sep}
    return IntPolynomial.monomial(2 * v.n if nvars is None else nvars, exps)


def permutation_determinant(entries, nvars: int) -> IntPolynomial:
    """Sum over permutations with inversion-count signs; no elimination."""
    m = len(entries)
    total = IntPolynomial.zero(nvars)
    for perm in permutations(range(m)):
        inversions = sum(
            1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j]
        )
        term = IntPolynomial.one(nvars)
        for r in range(m):
            term = term * entries[r][perm[r]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def mul_sub_div(p, q, r, s, denominator):
    """(p*q - r*s) / denominator with the division known to be exact.

    The fused elimination kernel: p*q and (-r)*s accumulate into one raw
    term dict and the heap division runs on it, with no intermediate product.
    """
    for other in (q, r, s, denominator):
        if p.nvars != other.nvars:
            raise ValueError("variable universes differ")
    acc: dict[int, int] = {}
    _accumulate_product(acc, p._terms, q._terms)
    _accumulate_product(acc, (-r)._terms, s._terms)
    num = _strip_and_check(p.nvars, acc)
    return IntPolynomial(p.nvars, _divide_exact(p.nvars, num, denominator._terms))


def fused_bareiss(rows, nvars: int) -> IntPolynomial:
    """Fraction-free elimination that expands every entry; each division is exact."""
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


def bareiss_minors(rows, nvars: int):
    """The fused elimination's active submatrix after each step, with no row swaps (a zero pivot raises).

    Entry (i, j) after step k is the minor of rows on the first k + 1 rows
    and columns plus row k + 1 + i and column k + 1 + j.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    prev = IntPolynomial.one(nvars)
    steps = []
    for k in range(m - 1):
        pivot = a[k][k]
        if pivot.is_zero:
            raise ValueError(f"zero pivot at step {k}")
        for i in range(k + 1, m):
            aik = a[i][k]
            for j in range(k + 1, m):
                a[i][j] = mul_sub_div(pivot, a[i][j], aik, a[k][j], prev)
        prev = pivot
        steps.append([row[k + 1 :] for row in a[k + 1 :]])
    return steps


def swap_sides(p: IntPolynomial) -> IntPolynomial:
    """p with every a_i^+ and a_i^- exchanged, by substitution."""
    return substitute(p, {v: IntPolynomial.variable(p.nvars, v ^ 1) for v in range(p.nvars)})


def naive_axiom_check(members) -> bool:
    """Direct translation of the four covector axioms over sign tuples."""
    vecs = {tuple(m.sign(i) for i in range(1, m.n + 1)) for m in members}
    n = len(next(iter(vecs)))
    if tuple([0] * n) not in vecs:
        return False
    for u in vecs:
        if tuple(-x for x in u) not in vecs:
            return False
    for u in vecs:
        for v in vecs:
            w = tuple(u[i] if u[i] else v[i] for i in range(n))
            if w not in vecs:
                return False
    for u in vecs:
        for v in vecs:
            sep = [i for i in range(n) if u[i] == -v[i] != 0]
            comp = tuple(u[i] if u[i] else v[i] for i in range(n))
            for j in sep:
                if not any(
                    w[j] == 0
                    and all(w[i] == comp[i] for i in range(n) if i not in sep)
                    for w in vecs
                ):
                    return False
    return True


def first_composition_gap(members):
    """First (u, v, u o v) in member order whose composition u o v is not a member."""
    members = list(members)
    index = set(members)
    for u in members:
        for v in members:
            if compose(u, v) not in index:
                return u, v, compose(u, v)
    return None


def first_elimination_failure(members):
    """First (u, v, j) over pairs u before v in member order, j ascending in S(u, v),
    such that no member is zero at j and equals u o v outside S(u, v)."""
    members = list(members)
    for a, u in enumerate(members):
        for v in members[a + 1 :]:
            sep = separation(u, v)
            outside = [i for i in range(1, u.n + 1) if i not in sep]
            comp = compose(u, v)
            for j in sorted(sep):
                if not any(
                    w.sign(j) == 0 and all(w.sign(i) == comp.sign(i) for i in outside) for w in members
                ):
                    return u, v, j
    return None


def closure(vectors):
    """The zero vector, the vectors and their negatives, closed under composition pair by pair."""
    vectors = list(vectors)
    closed = {SignVector.zero(vectors[0].n)} | set(vectors) | {-v for v in vectors}
    while True:
        grown = closed | {compose(u, v) for u in closed for v in closed}
        if grown == closed:
            return CovectorSet.of(closed)
        closed = grown


def bmax_table(f, i: int) -> dict:
    """Per-tope maximum of the i-th boundary, by a pairwise scan of the candidates below each tope."""
    bit = 1 << (i - 1)
    on_hyperplane = [w for w in f.members if not (w.support_mask & bit)]
    table = {}
    for t in f.topes:
        cands = [w for w in on_hyperplane if leq(w, t)]
        if not cands:
            table[t] = None
            continue
        best = max(cands, key=lambda w: bin(w.support_mask).count("1"))
        for w in cands:
            if not leq(w, best):
                raise FiberError(
                    f"boundary of tope {t} at index {i} has no unique maximum "
                    f"({w} and {best} are incomparable); not a valid fiber"
                )
        table[t] = best
    return table


def boundary_multiplicity(f, u, table=bmax_table) -> int:
    """multiplicity(f, u) from table(f, i): half the topes whose i-boundary maximum is u, the same at every i."""
    admissible = sorted(i for i in u.zero_set() if i in f.free)
    if not admissible:
        raise FiberError(f"{u} has no zero index inside the free set")
    values = []
    for i in admissible:
        count = sum(1 for w in table(f, i).values() if w == u)
        if count % 2:
            raise FiberError(f"odd boundary count {count} for {u} at index {i}; not a valid fiber")
        values.append(count // 2)
    if len(set(values)) > 1:
        detail = ", ".join(f"i={i}: {v}" for i, v in zip(admissible, values))
        raise FiberError(f"multiplicity of {u} depends on the index choice ({detail})")
    return values[0]


def longest_chain_to(members, target) -> int:
    """Recursive longest chain from the all-zeros vector up to target."""
    below = [m for m in members if m != target and leq(m, target)]
    if not below:
        return 0
    return 1 + max(longest_chain_to(members, m) for m in below)


@cache
def chain_ranks(members) -> dict:
    """Longest-chain rank of every member, once per member tuple."""
    return {m: longest_chain_to(members, m) for m in members}


# paper lemmas


def cfd_check(f, c: SignVector, d: SignVector, face: SignVector) -> bool:
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
    ranks = chain_ranks(s.members)
    all_topes = topes(s)
    lhs = 0
    for face in s.members:
        if leq(a, face) and leq(face, d):
            coeff = sum(x.get(c, 0) for c in all_topes if compose(face, c) == d)
            if coeff:
                lhs += (-1) ** ranks[face] * coeff
    target = compose(a, -d)
    rhs_sum = sum(x.get(c, 0) for c in all_topes if compose(a, c) == target)
    rhs = (-1) ** ranks[d] * rhs_sum
    return lhs == rhs


# shared corpus


def one_line():
    return enumerate_covectors(RationalArrangement.of([[1]]))


def coord_lines():
    return enumerate_covectors(RationalArrangement.of([[1, 0], [0, 1]]))


def concurrent_lines():
    return enumerate_covectors(RationalArrangement.of([[1, 0], [0, 1], [1, -1]]))


def parallel_affine():
    return arrangement_fiber(RationalArrangement.of([[1], [1]], [0, 1], affine=True))


def parallel_affine_central():
    from omdet.realizable import homogenize

    central, _, _ = homogenize(RationalArrangement.of([[1], [1]], [0, 1], affine=True))
    return enumerate_covectors(central)


def whole_fiber(s: CovectorSet):
    return topal_fiber(s, range(1, s.n + 1), s.members[0])


def corpus_sets():
    """The named central corpus sets (verified covector sets)."""
    return {
        "one_line": one_line(),
        "coord_lines": coord_lines(),
        "concurrent_lines": concurrent_lines(),
        "parallel_affine_central": parallel_affine_central(),
    }


def corpus_fibers():
    """The named corpus fibers used across the determinant tests."""
    return {
        "one_line": whole_fiber(one_line()),
        "coord_lines": whole_fiber(coord_lines()),
        "concurrent_lines": whole_fiber(concurrent_lines()),
        "parallel_affine": parallel_affine(),
    }


def random_central_arrangement(rng: random.Random) -> RationalArrangement:
    """Random rational central arrangement within d <= 3, n <= 6.

    Sizes are weighted so the symbolic verification zone (<= 16 topes)
    stays within test-suite runtime; see the acceptance module.
    """
    d = rng.choice((1, 1, 2, 2, 2, 3))
    if d == 3:
        n = rng.choice((2, 3, 3, 4, 5, 6))
    else:
        n = rng.randint(1, 6)
    normals = []
    while len(normals) < n:
        vec = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        if any(vec):
            normals.append(vec)
    return RationalArrangement.of(normals)


def random_wiring(rng: random.Random, max_wires: int = 6) -> WiringDiagram:
    """Random valid wiring diagram on <= max_wires wires.

    Event counts for 5 and 6 wires are capped so the mandatory-symbolic
    fibers stay small; large fibers are produced by the full-event runs.
    """
    n = rng.randint(2, max_wires)
    if n <= 4:
        target = rng.randint(0, n * (n - 1) // 2)
    elif n == 5:
        target = rng.choice((0, 2, 4, 5, 6, 7))
    else:
        target = rng.choice((0, 2, 4, 6, 12, 13, 14, 15))
    crossed: set[tuple[int, int]] = set()
    perm = list(range(1, n + 1))
    events: list[tuple[int, int]] = []
    stall = 0
    while len(events) < target and stall < 200:
        # occasionally emit a triple point when three adjacent wires allow it
        k = rng.randrange(n - 1)
        if rng.random() < 0.2 and k + 2 < n:
            trio = perm[k : k + 3]
            pairs = [tuple(sorted(p)) for p in ((trio[0], trio[1]), (trio[0], trio[2]), (trio[1], trio[2]))]
            if all(p not in crossed for p in pairs):
                crossed.update(pairs)
                events.append((k, k + 2))
                perm[k : k + 3] = reversed(perm[k : k + 3])
                continue
        pair = tuple(sorted((perm[k], perm[k + 1])))
        if pair in crossed:
            stall += 1
            continue
        crossed.add(pair)
        events.append((k, k + 1))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
    return WiringDiagram.of(n, events)


def sign_text_loop(text: str) -> SignVector:
    """SignVector.from_string by one step per character, the first invalid one named."""
    plus = minus = 0
    for pos, ch in enumerate(text):
        if ch not in "+-0":
            raise ValueError(f"invalid sign character {ch!r} (expected one of '+-0')")
        if ch == "+":
            plus |= 1 << pos
        elif ch == "-":
            minus |= 1 << pos
    return SignVector(len(text), plus, minus)


def column_sweep(wd: WiringDiagram) -> set[SignVector]:
    """The faces of a valid diagram: every sweep column's cells and segments, and each event's vertex, each
    built as a SignVector."""
    n = wd.wires
    perm = list(range(1, n + 1))
    members: set[SignVector] = set()

    def column():
        # cell c lies above the wires at positions < c and below the rest; the segment at position k
        # is zero on its own wire
        total = sum(1 << (w - 1) for w in perm)
        passed = 0
        members.add(SignVector(n, 0, total))
        for w in perm:
            bit = 1 << (w - 1)
            members.add(SignVector(n, passed, total & ~passed & ~bit))
            passed |= bit
            members.add(SignVector(n, passed, total & ~passed))

    column()
    for lo, hi in wd.events:
        plus = sum(1 << (w - 1) for w in perm[:lo])
        minus = sum(1 << (w - 1) for w in perm[hi + 1 :])
        members.add(SignVector(n, plus, minus))
        perm[lo : hi + 1] = reversed(perm[lo : hi + 1])
        column()
    return members


def random_blocks_wiring(rng: random.Random, wires: int, events: int) -> WiringDiagram:
    """Up to ``events`` blocks of 2 to 4 adjacent wires that have not crossed yet; pairs never drawn stay
    parallel."""
    crossed: set[tuple[int, int]] = set()
    perm = list(range(1, wires + 1))
    out: list[tuple[int, int]] = []
    for _ in range(20 * events):
        if len(out) == events:
            break
        size = rng.choice((2, 2, 3, 4))
        if size > wires:
            continue
        lo = rng.randrange(wires - size + 1)
        pairs = set(combinations(sorted(perm[lo : lo + size]), 2))
        if pairs & crossed:
            continue
        crossed |= pairs
        out.append((lo, lo + size - 1))
        perm[lo : lo + size] = reversed(perm[lo : lo + size])
    return WiringDiagram.of(wires, out)


def checked_covectors(arr: RationalArrangement) -> CovectorSet:
    """enumerate_covectors(arr), whose guard passed, checked in full on a fresh copy of its members.

    The guard checks only the cocircuits, so its passing verdict must equal
    _cocircuit_check's on the whole set, and the four axioms must pass.
    """
    out = enumerate_covectors(arr)
    fresh = CovectorSet.of(out.members, n=out.n)
    assert out.verified and _cocircuit_check(fresh) and check_covector_axioms(fresh).ok
    return out


def checked_fiber(arr: RationalArrangement) -> FiberView:
    """arrangement_fiber(arr) of a central arrangement, whose covectors checked_covectors checks first."""
    checked_covectors(arr)
    return arrangement_fiber(arr)


def cocircuits_per_subset(arr: RationalArrangement) -> set[tuple[int, int]]:
    """The cocircuits as (plus, minus) masks, by one elimination of r - 1 rows from all rows per
    (r-1)-subset of the distinct lines: each subset reduces every row from the start, and the last
    step builds its reduced rows and divides exactly before the row sums are read."""
    rows = _integer_rows(arr)
    columns = _pivot_columns(rows)
    rows = [[row[j] for j in columns] for row in rows]
    lines = {}
    for i, row in enumerate(rows):
        g = gcd(*row) if next(filter(None, row)) > 0 else -gcd(*row)
        lines.setdefault(tuple(c // g for c in row), i)
    found = set()
    for subset in combinations(lines.values(), len(columns) - 1):
        reduced, previous = rows, 1
        for s in subset:
            head = reduced[s]
            j = next((j for j, c in enumerate(head) if c), None)
            if j is None:
                break
            reduced = [[(head[j] * a - row[j] * b) // previous for a, b in zip(row, head)] for row in reduced]
            previous = head[j]
        else:
            plus = minus = 0
            for i, row in enumerate(reduced):
                value = sum(row)
                if value > 0:
                    plus |= 1 << i
                elif value < 0:
                    minus |= 1 << i
            found.add((plus, minus))
            found.add((minus, plus))
    return found


def random_affine_lines(rng: random.Random) -> RationalArrangement:
    """3 to 7 distinct affine lines a x + b y = c in R^2, none vertical, as a sweep can draw them.

    Each line after the second is, about a third of the time each, drawn
    through the crossing of two earlier lines (a multiple point) or parallel
    to an earlier line; b is a nonzero fraction of either sign, so the
    normals have mixed denominators and some lines are reoriented against
    the sweep's "+ above" convention.
    """
    drawn: list[tuple[Fraction, Fraction]] = []  # (slope, intercept) of y = m x + k
    n = rng.randint(3, 7)
    while len(drawn) < n:
        m, k = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(-3, 3))
        roll = rng.random() if len(drawn) >= 2 else 1
        crossing = [(p, q) for p, q in combinations(drawn, 2) if p[0] != q[0]]
        if roll < 1 / 3 and crossing:
            (m1, k1), (m2, k2) = rng.choice(crossing)
            x = (k2 - k1) / (m1 - m2)
            k = m1 * x + k1 - m * x
        elif roll < 2 / 3:
            m = rng.choice(drawn)[0]
        if (m, k) not in drawn:
            drawn.append((m, k))
    normals, offsets = [], []
    for m, k in drawn:
        b = Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, 5)))
        normals.append([-m * b, b])
        offsets.append(k * b)
    return RationalArrangement.of(normals, offsets, affine=True)


def lines_to_wiring(arr: RationalArrangement) -> tuple[WiringDiagram, list[int], list[bool]]:
    """(the wiring diagram of the affine lines swept left to right, each line's wire, whether each line is reoriented).

    Far to the left the lines lie bottom to top by falling slope, parallel
    ones by rising intercept, and that order numbers the wires; each
    crossing is one block event (``sweep_events``).  A line a x + b y = c is
    positive above itself exactly when b > 0.
    """
    lines = [(-normal[0] / normal[1], offset / normal[1]) for normal, offset in arr.hyperplanes]
    order = sorted(range(arr.n), key=lambda i: (-lines[i][0], lines[i][1]))
    points: dict[tuple[Fraction, Fraction], set[int]] = {}
    for i, j in combinations(range(arr.n), 2):
        (m1, k1), (m2, k2) = lines[i], lines[j]
        if m1 != m2:
            x = (k2 - k1) / (m1 - m2)
            points.setdefault((x, m1 * x + k1), set()).update((i, j))
    wire = [0] * arr.n
    for position, i in enumerate(order):
        wire[i] = position + 1
    flipped = [normal[1] < 0 for normal, _ in arr.hyperplanes]
    return WiringDiagram.of(arr.n, sweep_events(order, points)), wire, flipped


def sweep_events(order, points) -> list[tuple[int, int]]:
    """The block events of a left-to-right sweep of curves that cross at most once.

    order lists the curves bottom to top far to the left, and points maps
    each crossing (x, y) to the curves through it.  The crossings are
    visited by x, then y; the curves through one are adjacent just before
    it and reverse their order there.
    """
    perm, events = list(order), []
    for point in sorted(points):
        positions = sorted(perm.index(c) for c in points[point])
        lo, hi = positions[0], positions[-1]
        assert positions == list(range(lo, hi + 1)), (point, points[point])
        events.append((lo, hi))
        perm[lo : hi + 1] = reversed(perm[lo : hi + 1])
    return events


def exhaustive_covectors(arr: RationalArrangement, feasible=sign_feasible) -> tuple[SignVector, ...]:
    """Every sigma in {+,0,-}^n that feasible accepts, in canonical order.

    One independent feasibility test per sign vector (3^n of them), with no
    incremental construction and no use of symmetry.
    """
    candidates = (SignVector.from_string("".join(s)) for s in product("-0+", repeat=arr.n))
    return tuple(sigma for sigma in candidates if feasible(arr, sigma))


def _int_normalized(constraints):
    """Integer constraints divided by the gcd of their entries (positive, so
    every direction is kept and deduping is exact), with 0 = 0 dropped; None
    on the contradiction 0 > 0."""
    out = {}
    for row, strict in constraints:
        g = gcd(*row)
        if not g:
            if strict:
                return None
            continue
        out[tuple(c // g for c in row), strict] = None
    return list(out)


def _int_fm_feasible(constraints) -> bool:
    """Feasibility of integer constraints row . x > 0 (strict) / = 0.

    Variable k is eliminated through an equality that involves it when there
    is one, by the fraction-free substitution row -> e[k]*row - row[k]*e with
    e[k] > 0, which keeps every kind.  Otherwise it is eliminated by a
    Fourier-Motzkin step; then only strict rows involve k, so every
    combination is strict.  All constraints are homogeneous, so the only
    failure mode is deriving the contradiction 0 > 0.
    """
    active = _int_normalized(constraints)
    k = 0
    while active:
        eq = next((row for row, strict in active if not strict and row[k]), None)
        if eq is not None:
            if eq[k] < 0:
                eq = tuple(-c for c in eq)
            active = _int_normalized(
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
                active = _int_normalized(
                    untouched
                    + [
                        (tuple(-nrow[k] * a + prow[k] * b for a, b in zip(prow, nrow)), True)
                        for prow, nrow in product(pos, neg)
                    ]
                )
        k += 1
    return active is not None


def _int_feasible(rows, plus: int, minus: int) -> bool:
    """Is there a point where row i is positive if bit i of plus is set,
    negative if bit i of minus is set, and zero otherwise?"""
    constraints = []
    for i, row in enumerate(rows):
        if minus >> i & 1:
            row = tuple(-c for c in row)
        constraints.append((row, bool((plus | minus) >> i & 1)))
    return _int_fm_feasible(constraints)


def fm_covectors(arr: RationalArrangement) -> tuple[SignVector, ...]:
    """Covectors of a central arrangement, one hyperplane at a time, in
    canonical order.

    Each covector of the first k hyperplanes misses, cuts or lies in
    hyperplane k+1, so it extends by one sign, by all three, or by 0 alone;
    at most two integer Fourier-Motzkin tests per antipodal pair decide
    which.  No cocircuit is computed.
    """
    n = arr.n
    rows = []
    for normal, _ in arr.hyperplanes:
        scale = lcm(*(c.denominator for c in normal))
        rows.append(tuple(c.numerator * (scale // c.denominator) for c in normal))
    reps = [(0, 0)]  # (plus, minus) masks over the hyperplanes added so far
    for k in range(n):
        bit = 1 << k
        head = rows[: k + 1]
        grown = []
        for plus, minus in reps:
            if not plus | minus:
                # the zero vector is its own antipode: keep + and drop its mirror -
                grown += [(bit, 0), (0, 0)] if _int_feasible(head, bit, 0) else [(0, 0)]
                continue
            up = _int_feasible(head, plus | bit, minus)
            down = _int_feasible(head, plus, minus | bit)
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
    found = {SignVector(n, plus, minus) for plus, minus in reps} | {SignVector(n, minus, plus) for plus, minus in reps}
    return tuple(sorted(found, key=lambda v: [v.sign(i) for i in range(1, n + 1)]))


# feasibility over Fraction


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


def fraction_feasible(arr: RationalArrangement, sigma: SignVector) -> bool:
    """sign_feasible over Fraction: Gaussian substitution of the zero-sign
    equalities, then Fourier-Motzkin on the reduced forms."""
    if arr.affine:
        raise ValueError("fraction_feasible expects a central (or homogenized) arrangement")
    if sigma.n != arr.n:
        raise ValueError(f"sign vector length {sigma.n} does not match {arr.n} hyperplanes")
    zero_set = [i - 1 for i in sorted(sigma.zero_set())]
    forms = _reduced_forms([normal for normal, _ in arr.hyperplanes], zero_set)
    return forms is not None and _signed_feasible(forms, sigma.plus)


def residue_oracle(p: IntPolynomial, assignment, prime: int) -> int:
    """p at {flat variable: value} mod prime, one pow per variable of each monomial."""
    total = 0
    for exps, coeff in p.monomial_exponents():
        term = coeff
        for v, e in exps.items():
            term *= pow(assignment[v], e, prime)
        total += term
    return total % prime


def per_face_formula(f) -> FactoredPoly:
    """prod (1 - b_u)^beta_u with one base per non-tope member u, each b_u its own monomial; FactoredPoly merges
    the equal bases of the faces on one flat."""
    nvars = 2 * f.n
    factors = []
    for u in f.members:
        if not u.is_tope:
            weight = IntPolynomial.monomial(nvars, dict.fromkeys(weight_exponents(u), 1))
            factors.append((IntPolynomial.one(nvars) - weight, multiplicity(f, u)))
    return FactoredPoly(nvars, factors)


def degree_bound(entries, formula: FactoredPoly) -> int:
    """Total-degree bound on det(entries) - formula, read off the polynomial entries.

    Every term of the determinant takes one entry from each row, so the sum
    of the row maxima bounds its degree; the formula side is bounded by its
    own total degree.
    """
    rows = sum(max(e.total_degree() for e in row) for row in entries)
    return max(rows, formula.total_degree())


def mask_support(matrix, specialize=None) -> tuple[list[int], int]:
    """``VarchenkoMatrix.support`` over every tope pair's sign masks, one pair at a time.

    Entry (r, c) uses a_i^+ over plus[r] & minus[c] and a_i^- over
    minus[r] & plus[c]; it is zero when one of them is sent to 0, and a
    constant image adds no variable and no degree.
    """
    images = tuple((1, v) for v in range(matrix.nvars)) if specialize is None else specialize.images
    zero, var = [0, 0], [0, 0]
    for v, (c, t) in enumerate(images):
        if c == 0:
            zero[v & 1] |= 1 << (v >> 1)
        elif t is not None:
            var[v & 1] |= 1 << (v >> 1)
    (zero_p, zero_m), (var_p, var_m) = zero, var
    used_p = used_m = degree = 0
    for pr, mr in zip(matrix.plus, matrix.minus):
        top = 0
        for pc, mc in zip(matrix.plus, matrix.minus):
            s, t = pr & mc, mr & pc
            if not (s & zero_p or t & zero_m):
                s &= var_p
                t &= var_m
                used_p |= s
                used_m |= t
                top = max(top, s.bit_count() + t.bit_count())
        degree += top
    used = {images[2 * i][1] for i in range(used_p.bit_length()) if used_p >> i & 1}
    used.update(images[2 * i + 1][1] for i in range(used_m.bit_length()) if used_m >> i & 1)
    return sorted(used), degree


def entry_residues(matrix, values, prime: int) -> list[list[int]]:
    """The entries of M(u, v) mod prime at the source values, one product per entry over its two masks.

    Entry (r, c) is the product of a_i^+ (``values[2i - 2]``) over
    plus[r] & minus[c] and of a_i^- (``values[2i - 1]``) over
    minus[r] & plus[c], every free index included.
    """
    rows = []
    for pr, mr in zip(matrix.plus, matrix.minus):
        row = []
        for pc, mc in zip(matrix.plus, matrix.minus):
            x = 1
            for mask, side in ((pr & mc, 0), (mr & pc, 1)):
                while mask:
                    low = mask & -mask
                    x = x * values[2 * low.bit_length() - 2 + side] % prime
                    mask ^= low
            row.append(x)
        rows.append(row)
    return rows


def substitute(p: IntPolynomial, mapping, nvars: int | None = None) -> IntPolynomial:
    """Homomorphic image of p under {flat variable: polynomial-or-int}.

    Variables absent from the mapping are kept as themselves, which is only
    meaningful when the target universe equals the source one.
    """
    images: dict[int, IntPolynomial] = {}
    target = nvars
    for v, img in mapping.items():
        if isinstance(img, IntPolynomial):
            if target is None:
                target = img.nvars
            elif img.nvars != target:
                raise ValueError("substitution images live in different universes")
            images[v] = img
        else:
            images[v] = int(img)  # resolved once target is known
    if target is None:
        target = p.nvars
    for v, img in images.items():
        if isinstance(img, int):
            images[v] = IntPolynomial.const(target, img)
    result = IntPolynomial.zero(target)
    for exps, coeff in p.monomial_exponents():
        term = IntPolynomial.const(target, coeff)
        for v, e in exps.items():
            img = images.get(v)
            if img is None:
                if target != p.nvars:
                    raise ValueError(f"variable {var_label(v, p.nvars)} has no image in the target universe")
                img = IntPolynomial.variable(target, v)
            term = term * img**e
        result = result + term
    return result


def substitute_factored(f: FactoredPoly, mapping, nvars: int) -> FactoredPoly:
    """substitute applied to every base of a factored product."""
    return FactoredPoly(nvars, [(substitute(base, mapping, nvars), exp) for base, exp in f.factors])


def specialization_mapping(nvars_in: int, values):
    """(mapping, target nvars) for substitute, read from {variable: int or "a"}.

    Any "a" sends the listed variables to the one variable of a fresh
    universe; otherwise the listed variables become constants in place.
    """
    if "a" in values.values():
        a = IntPolynomial.variable(1, 0)
        return {v: a if c == "a" else IntPolynomial.const(1, c) for v, c in values.items()}, 1
    return {v: IntPolynomial.const(nvars_in, c) for v, c in values.items()}, nvars_in


def row_det_mod(rows: list[list[int]], prime: int) -> int:
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


def miller_rabin_12(n: int) -> bool:
    """Miller-Rabin on the 12 prime witnesses up to 37, each also a trial divisor; deterministic below 3.3e24."""
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if any(n % a == 0 for a in witnesses):
        return n in witnesses
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in witnesses:
        x = pow(a, d, n)
        if x not in (1, n - 1) and all(pow(x, 2**j, n) != n - 1 for j in range(1, s)):
            return False
    return True


def norm_det_mod(a: list[list[int]], c: list[list[int]], w: int, prime: int) -> int:
    """N(det(A + sC)) over F_p[s]/(s^2 - w): the field determinant of the regular representation [[A, C], [wC, A]]."""
    return row_det_mod([ra + rc for ra, rc in zip(a, c)] + [[w * x for x in rc] + ra for ra, rc in zip(a, c)], prime)


def _lane_bits(prime: int, m: int) -> int:
    """Bits per lane of m-column packed rows mod prime: 2(a - k + 1), rounded up to bytes.

    k = bitlen(prime) and a = 2k + bitlen(3m + 1): lanes stay below 2^a, and
    the pivot row's Barrett product takes 2(a - k + 1) bits.
    """
    k = prime.bit_length()
    a = 2 * k + (3 * m + 1).bit_length()
    return 8 * -(-2 * (a - k + 1) // 8)


def pack_rows(rows: list[list[int]], prime: int) -> list[int]:
    """Square rows of lanes in [0, prime^2) as packed rows, lane c at bit (m - 1 - c) * w, unreduced."""
    m = len(rows)
    w = _lane_bits(prime, m)
    for row in rows:
        if not all(0 <= x < prime * prime for x in row):
            raise ValueError("lane outside [0, prime^2)")
    return [sum(x << (w * (m - 1 - c)) for c, x in enumerate(row)) for row in rows]


# polynomial helpers used by the tests only


def exact_div(p: IntPolynomial, divisor) -> IntPolynomial:
    """Exact quotient p / divisor; raises ExactDivisionError otherwise."""
    q = p._coerce(divisor)
    if q is None:
        raise TypeError(f"cannot divide by {divisor!r}")
    return IntPolynomial(p.nvars, _divide_exact(p.nvars, dict(p._terms), q._terms))


def constant_term(p: IntPolynomial) -> int:
    return p._terms.get(0, 0)


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(\^)|(\*)|(\+)|(-))")


def parse_poly(text: str, nvars: int | None = None) -> IntPolynomial:
    """Parse the canonical text syntax back into a polynomial.

    Variables are "a{i}p" / "a{i}m", or the single collapsed symbol "a"
    (universe of one variable).  Round-trips poly_str output.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize polynomial text at {text[pos:]!r}")
            break
        pos = m.end()
        if m.group(1):
            tokens.append(("int", m.group(1)))
        elif m.group(2):
            tokens.append(("var", m.group(2)))
        elif m.group(3):
            tokens.append(("pow", "^"))
        elif m.group(4):
            tokens.append(("mul", "*"))
        elif m.group(5):
            tokens.append(("plus", "+"))
        elif m.group(6):
            tokens.append(("minus", "-"))

    collapsed = any(kind == "var" and text == "a" for kind, text in tokens)
    indexed = any(kind == "var" and text != "a" for kind, text in tokens)
    if collapsed and indexed:
        raise ValueError("cannot mix the collapsed variable 'a' with indexed variables")

    def var_of(label: str) -> int:
        return 0 if label == "a" else var_index(label)

    max_var = -1
    for kind, tok in tokens:
        if kind == "var":
            max_var = max(max_var, var_of(tok))
    if nvars is None:
        if collapsed:
            nvars = 1
        elif max_var >= 0:
            nvars = max_var + 1 + (max_var + 1) % 2  # whole a_i^+/a_i^- pairs
        else:
            nvars = 0
    elif max_var >= nvars:
        raise ValueError(f"variable index {max_var} outside universe of {nvars}")

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None)

    terms: dict[int, int] = {}
    while i < len(tokens):
        sign = 1
        kind, _ = peek()
        if kind == "plus":
            i += 1
        elif kind == "minus":
            sign = -1
            i += 1
        coeff = sign
        exps: dict[int, int] = {}
        saw_factor = False
        while True:
            kind, tok = peek()
            if kind == "int":
                coeff *= int(tok)
                i += 1
            elif kind == "var":
                v = var_of(tok)
                i += 1
                e = 1
                if peek()[0] == "pow":
                    i += 1
                    pk, ptok = peek()
                    if pk != "int":
                        raise ValueError("expected integer exponent after '^'")
                    e = int(ptok)
                    i += 1
                exps[v] = exps.get(v, 0) + e
            else:
                raise ValueError("expected a coefficient or variable")
            saw_factor = True
            if peek()[0] == "mul":
                i += 1
                continue
            break
        if not saw_factor:
            raise ValueError("empty term")
        key = pack_monomial(nvars, exps)
        s = terms.get(key, 0) + coeff
        if s:
            terms[key] = s
        elif key in terms:
            del terms[key]
    return IntPolynomial(nvars, terms)
