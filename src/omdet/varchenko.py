"""Tope distance matrices, their exact determinants, and the factored form.

The distance between two topes v, w of a fiber with free set I is the
monomial prod_{i in S(v,w) cap I} a_i^{v_i}, with the exponent sign taken
from the first argument; the distance of a tope to itself is 1.  The fiber's
matrix puts entry (row r, column c) = distance(tope_r, tope_c) over the
canonical tope order.  (The transpose convention changes nothing observable:
the determinant is transpose-invariant.)

The determinant has a closed factored form: one factor (1 - b_v)^(beta_v)
per non-tope fiber member v, with b_v the weight monomial over v's zero
indices and beta_v its multiplicity.  ``verify`` checks the two sides against
each other, either symbolically or by random modular evaluation.

The symbolic determinant comes from fraction-free Bareiss elimination, whose
divisions are exact over the integer polynomial ring.  Its intermediates
factor like the determinant, so each entry is kept as a leftover term dict
times a multiset of binomials 1 - c*x^b, the formula's bases (specialized
when a specialization is given).  An update expands only the cofactors
outside the binomials both products share, cancels the shared ones that the
previous pivot also carries, divides by that pivot's other binomials (a
linear recurrence) and its leftover, and re-factors the result by trial
division.  Under a specialization the bases can share factors and the
leftover division can then be inexact; the kept binomials are multiplied
back in and the division repeated.  The tests compare this against the fused
kernel that expands every entry (``tests/oracle.py``).  The intermediates are
minors, a_ij = det M[{1..k, i}, {1..k, j}], so a variable swap sigma with
sigma(M) = M^T gives sigma(a_ij) = a_ji.  The distance matrix has one:
d(w, v) is d(v, w) with a_i^+ and a_i^- exchanged (the identity under all=a).
So only the upper triangle is eliminated, unless a zero pivot turns up; the
elimination then restarts on every entry, with row swaps.  Either way a row
whose multiplier is zero is skipped, which is common: the distance is
multiplicative along shortest galleries, so many minors vanish.  An entry
is the leading minor d_k times a Schur-complement entry that a zero
multiplier leaves unchanged, so skipped steps s..k-1 only scale the row by
d_k / d_s; its next update divides by d_s instead of d_k, and the pivot row,
the last entry and a mirrored multiplier are rescaled when they are read.

A binomial multiset is one integer with a 16-bit lane per candidate, laid out
like a packed monomial key: multisets add as integers, and their common part
is a SWAR lane-wise minimum (``_lane_min``).  With the swap mirror the
candidates are closed under sigma, which permutes the lanes.

Under a one-variable map, ``bareiss_determinant``, when D*K stays within
``_KRONECKER_BITS`` (D the sum of the rows' largest entry degrees, the
crossover measured on the full reversals), keeps each leftover L as the
exact integer L(2^K) and each candidate as 1 - c*2^(K deg b).  Evaluation
at 2^K is a ring map Z[a] -> Z, so the same pass and updates run on
CPython's big integers: a product, the subtraction, and exact and trial
division by divmod, the latter only when the candidates' gcd divides the
leftover.  K is the bit length of the Hadamard bound
prod_r sqrt(sum_c ||e_rc||_1^2) plus 2; the determinant's coefficients are
below 2^(K-2), so ``bareiss_determinant`` reads them off the balanced
base-2^K digits of its value.  An integer trial division may succeed where
the polynomial one fails, which changes the factors but not the value, so
``factored_bareiss``, whose factors are its result, always keeps term dicts,
as do multivariate eliminations and larger univariate ones.

``build_matrix(f, specialize)`` is the one place where a map reaches the
matrix, and it first checks that the map's source is the fiber's 2n
variables.  The matrix keeps the topes' sign masks on the free set, which fix
every entry, and each source variable's image under the map.  Only the k
separating indices, where the topes take both signs, enter an entry, so each
tope is coded once as its k-bit plus mask on them, in the fewest balanced
chunks whose subset tables hold no more products than the matrix has
entries: one chunk exactly when 2^k <= m^2 (``_chunk_bounds``).  The matrix
is read three ways from that coding: the polynomial ``entries``, which only
the symbolic path builds, over each chunk's tables of the a_i^+ and the
a_i^- images; ``support`` (the variables to draw and the degree bound), off
the codes and the map; and ``det_residues`` (a group of evaluations'
determinants), over each chunk's table of the w_i below, at each source
variable's value mod p (``values``).  A face weight depends only on the
face's zero set, its flat: ``_face_masks`` (cached on the fiber) holds each
face's zero mask and multiplicity, ``face_multiplicities`` (cached too)
builds one weight per flat on it, and ``product_formula`` one base per
flat.  A randomized
``verify`` reads the flats as zero masks alone (``_flat_residues``) and
builds no polynomial; its report builds the weights and the formula only
when they are read, and prints both, in either mode, from the zero masks
under the map (``_FlatText``).  A symbolic ``verify``
checks the size guard, builds its one matrix and its one closed form and
eliminates the entries with the formula's binomials as candidates
(``_bareiss``).  It decides agreement without expanding the formula
(``_agrees``): with one variable by the values of both sides at 2^K, K wide
enough for the coefficients of either; with several by comparing the
elimination's factored result with the formula, their non-constant factors
and their constants' products where a map leaves constants, and only where
the non-constant factors differ by expanding the formula.
``determinant`` does the same without the report, and takes the distinct
1 - b_v of the non-tope members as candidates where the multiplicities are
not well defined.

The randomized check eliminates M(1, w).  With u_i, v_i the values of
a_i^+, a_i^-, w_i = u_i v_i and P_r tope r's plus mask on the free set,
where every tope is full, entry (r, c) is
U(P_r - P_c) V(P_c - P_r) = U(P_r) V(P_c) / W(P_r & P_c), so M = D_U G D_V
with G_rc = W(P_r & P_c)^-1 symmetric, and det M = prod_r W(P_r) det G
depends on the w_i alone.  So det M(u, v) = det M(1, uv), a polynomial
identity that holds at a zero w_i too, and entry (r, c) of M(1, w) is
W(P_c - P_r): one lookup per chunk in the table of that chunk's w_i's
subset products, each chunk's product reduced below p before the next
multiplies it, so every lane starts below p^2; with one chunk each row is
one join of the table's lane bytes.  When the codes on the
separating indices F are closed under complement, as a central
arrangement's are, order the topes (T, -T), h = m/2: then
prod_r W(P_r) = W(F)^h, and with A_rc = W(P_r & P_c)^-1,
C_rc = W(P_r | P_c)^-1 over T and s^2 = W(F),
det M = (prod_{r in T} W(P_r))^2 N(det(A + sC)) over R = F_p[s]/(s^2 - W(F)),
N(x + sy) = x^2 - W(F) y^2 being the F_p-determinant of [[A, C], [W(F) C, A]].
A and C read the chunk tables at the complements: W(s)^-1 = W(F - s)/W(F).
No square root is taken: ``_eliminate_norm`` eliminates h rows over R, and
M(1, w) is eliminated instead when W(F) is 0 or a column holds only zero
divisors.  The formula's residue is prod (1 - prod_{i in Z} w_i)^beta_Z
over the flats Z, from the same values, computed once per evaluation for
both sides; its variables and total degree are read from the same masks.
The evaluations are drawn and eliminated in consecutive groups whose packed
rows stay within ``_GROUP_BYTES``, so that one group holds a few small
matrices and a matrix near the tope cap goes alone; the residues do not
depend on the grouping.

The modular elimination works on packed rows: each row is one integer with
a lane of w bits per column, the column to eliminate in the top lane, so a
row update is one big-integer mask, shift, multiply and add rather than one
interpreted step per entry.  Updates add a non-negative multiple of the
pivot row instead of subtracting, and never reduce: a lane starts below p^2
and stays below (3m+1)p^2, which w bits hold, so no lane carries into the
next.  Only the pivot row is reduced, below 3p in every lane at once, by a
Barrett reduction on the whole packed integer.  A group's matrices are
eliminated in lockstep: each step picks every live matrix's pivot, inverts
all the pivots (or norms) with one pow by Montgomery's trick (one inverse
and three products per value), and updates the rows; a matrix leaves at a
zero column.  ``det_mod`` takes a list of integer rows and packs them
for the same elimination, as a group of one.  The tests compare it against
the row-list elimination (``tests/oracle.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress, repeat
from math import gcd, isqrt, prod
from operator import and_, itemgetter, not_, or_

from .polyring import (
    LANE_BITS,
    MAX_EXPONENT,
    ExactDivisionError,
    ExponentOverflowError,
    FactoredPoly,
    IntPolynomial,
    Specialization,
    _accumulate_product,
    _divide_exact,
    _guard_mask,
    _lanes,
    _strip_and_check,
    divide_binomial,
    monomial_str,
    pack_monomial,
    poly_str,
    product_str,
    residues_mod,
    term_str,
    used_variables,
    var_label,
)
from .signvec import (
    FiberError,
    FiberView,
    SignVector,
    _ascending,
    _loop_free,
    _multiplicity,
    validate_fiber,
    weight_exponents,
)

SYMBOLIC_LIMIT = 16


class SizeGuardError(ValueError):
    """Symbolic determinant requested beyond the tope-count guard."""


def _check_size_guard(topes: int, force: bool):
    """The symbolic size guard, checked on the tope count before any matrix work.

    Multivariate intermediate swell makes large symbolic determinants
    expensive, so more than ``SYMBOLIC_LIMIT`` topes require ``force``.
    """
    if topes > SYMBOLIC_LIMIT and not force:
        raise SizeGuardError(
            f"symbolic determinant of {topes} topes exceeds the guard of {SYMBOLIC_LIMIT}; "
            "use randomized mode or force it (--force-symbolic on the command line)"
        )


def weight_monomial(u: SignVector, nvars: int | None = None) -> IntPolynomial:
    """b_u: the product a_i^+ a_i^- over the zero indices of a non-tope."""
    if nvars is None:
        nvars = 2 * u.n
    return IntPolynomial.monomial(nvars, {var: 1 for var in weight_exponents(u)})


def _subset_products(values, modulus: int) -> list[int]:
    """Products mod modulus over every subset of values, indexed by the subset's bitmask."""
    table = [1]
    for x in values:
        table += [y * x % modulus for y in table]
    return table


def _getter(indices: list[int]):
    """itemgetter(*indices), returning a tuple for one index too."""
    return itemgetter(*indices) if len(indices) > 1 else lambda items: (items[indices[0]],)


def _positions(rows: list[list[int]]):
    """(getter of the distinct indices that rows read, one getter per row of their positions in what it returns)."""
    used = sorted(set().union(*rows))
    position = dict(zip(used, range(len(used))))  # one int object per position, shared by every row
    return _getter(used), [_getter(list(map(position.__getitem__, row))) for row in rows]


def _packed_rows(getters, lanes: list[bytes]) -> list[int]:
    """One packed row per getter, its lanes picked from lanes and joined."""
    return [int.from_bytes(b"".join(row(lanes)), "big") for row in getters]


def _subset_terms(images, nvars: int) -> list[tuple[int, int]]:
    """(coefficient, packed key) products over every subset of the images (c, t), by the subset's bitmask."""
    table = [(1, 0)]
    for c, t in images:
        key = 0 if t is None else pack_monomial(nvars, {t: 1})
        table += [(a * c, k + key) for a, k in table]
    return table


def _chunk_bounds(k: int, m: int) -> list[int]:
    """Bounds of the fewest balanced chunks of k indices whose subset tables, sum_j 2^(k_j) products, cost no
    more than one lookup per entry of an m x m matrix, m^2; one chunk per index if none do.

    So the tables never hold more values than the matrix, and there is one
    chunk exactly when 2^k <= m^2 (a separating index needs two topes).
    """
    for count in range(1, max(k, 1) + 1):
        bounds = [j * k // count for j in range(count + 1)]
        if sum(1 << (hi - lo) for lo, hi in zip(bounds, bounds[1:])) <= m * m:
            break
    return bounds


def _product_rows(tables, codes, masks, op, prime: int, width: int) -> list[int]:
    """Packed rows of entry (r, c) = prod_j tables[j][op(codes[j][c], masks[j][r])], lanes of width bytes; each
    chunk's product is reduced below prime before the next multiplies it, so every lane is below prime^2."""
    rows = []
    for row_masks in zip(*masks):
        row = None
        for table, cols, mask in zip(tables, codes, row_masks):
            picked = map(table.__getitem__, map(op, cols, repeat(mask)))
            row = list(picked) if row is None else [a % prime * b for a, b in zip(row, picked)]
        rows.append(_pack(row, width))
    return rows


@dataclass(frozen=True)
class VarchenkoMatrix:
    """Square matrix of pairwise tope distances over the canonical order, under a variable map.

    ``plus[r]`` and ``minus[r]`` are tope r's sign masks on the free set
    (bit i-1 for index i), and they fix every entry: (r, c) is the product
    of a_i^+ over plus[r] & minus[c] and of a_i^- over minus[r] & plus[c].
    ``images`` and ``nvars`` are the map's, as in ``Specialization`` (the
    identity when there is none).  The matrix is read three ways, all from
    the topes' codes on the separating indices in chunks (``_core``): the
    polynomial ``entries``, built on first use; ``support``, off the codes
    and the images; and ``det_residues``, through M(1, w), whose determinant
    is M's (module docstring), or its half-size split when the topes pair up.
    """

    fiber: FiberView
    tope_order: tuple[SignVector, ...]
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    images: tuple
    nvars: int

    @property
    def size(self) -> int:
        return len(self.tope_order)

    @cached_property
    def entries(self) -> tuple[tuple[IntPolynomial, ...], ...]:
        """The polynomial entries: for each chunk, tables of (coefficient, packed key) products over its
        a_i^+ and its a_i^- images, whose keys add, read at code_r & ~code_c and code_c & ~code_r."""
        pluses, minuses = self._sides
        tables = [
            (_subset_terms(pluses[lo:hi], self.nvars), _subset_terms(minuses[lo:hi], self.nvars), codes)
            for lo, hi, codes in self._core[2]
        ]
        rows = []
        for r in range(self.size):
            row = [(1, 0)] * self.size
            for p_k, m_k, codes in tables:
                code = codes[r]
                lookups = [(p_k[code & ~c], m_k[c & ~code]) for c in codes]
                row = [(a * x * y, k + kx + ky) for (a, k), ((x, kx), (y, ky)) in zip(row, lookups)]
            rows.append(tuple(IntPolynomial(self.nvars, {k: a}) for a, k in row))
        return tuple(rows)

    def support(self) -> tuple[list[int], int]:
        """(sorted variables of the nonzero entries, sum of the rows' largest entry degrees), off the codes.

        Entry (r, c) takes a_j^+ at the separating indices j where r is +
        and c is -, and a_j^- where r is - and c is +.  Column c's code
        doubled marks c + at bit j and c - at bit k + j; row r's masks of the
        variable and of the zero images (a_j^- with r - at bit j, a_j^+ with
        r + at bit k + j) pick the entry's variable factors, whose count is
        its degree, and the factors that make it 0.  A zero entry uses no
        variable and has degree 0; the diagonal entry is 1.
        """
        separating, codes, _, _ = self._core
        k, full = len(separating), (1 << len(separating)) - 1
        zero = [sum(1 << j for j, (c, _) in enumerate(side) if c == 0) for side in self._sides]
        var = [sum(1 << j for j, (c, t) in enumerate(side) if c and t is not None) for side in self._sides]
        cols = [c | (full ^ c) << k for c in codes]
        every, used, degree = reduce(or_, cols), 0, 0
        for code in codes:
            zeros = (full ^ code) & zero[1] | (code & zero[0]) << k
            row = list(compress(cols, map(not_, map(and_, cols, repeat(zeros))))) if zeros else cols
            mask = (full ^ code) & var[1] | (code & var[0]) << k
            degree += max(map(int.bit_count, map(and_, row, repeat(mask))))
            used |= (reduce(or_, row) if zeros else every) & mask
        pluses, minuses = self._sides
        targets = {minuses[j - 1][1] for j in _ascending(used & full)}
        targets.update(pluses[j - 1][1] for j in _ascending(used >> k))
        return sorted(targets), degree

    def det_residue(self, assignment, prime: int) -> int:
        """The determinant mod prime at {target variable: residue}."""
        return self.det_residues([self.values(assignment, prime)], prime)[0]

    def det_residues(self, values, prime: int) -> list[int]:
        """The determinant mod prime at each evaluation's source values (``values``), eliminated in lockstep.

        Each is det M(1, w) (module docstring), or with a half the scaled
        norm, from one table of the w_i's subset products per chunk.  The
        group's W(F) are inverted in one batch (``_inverses``).  The pairs
        (A, C) go to one ``_eliminate_norm`` call, and every M(1, w), those
        whose W(F) is 0 or whose norm met a column of zero divisors included,
        to one ``_eliminate`` call.  All the rows are held at once, so
        callers keep a group within ``_GROUP_BYTES`` (``_group_size``).
        """
        half = self._core[3]
        width = _lane_bytes(prime, self.size)
        ws = [[x[2 * i - 2] * x[2 * i - 1] % prime for i in self._core[0]] for x in values]
        dets = [None] * len(ws)
        if half is not None:
            totals = [prod(w) % prime for w in ws]
            units = [j for j, total in enumerate(totals) if total]
            inverses = _inverses([totals[j] for j in units], prime)
            pairs = {j: self._half_rows(ws[j], inverse, prime, width) for j, inverse in zip(units, inverses)}
            for j, norm in zip(pairs, _eliminate_norm(list(pairs.values()), [totals[j] for j in pairs], prime)):
                if norm is not None:
                    dets[j] = norm * prod(map(pow, ws[j], half[0], repeat(prime))) % prime
        rest = [j for j, det in enumerate(dets) if det is None]
        for j, det in zip(rest, _eliminate([self._w_rows(ws[j], prime, width) for j in rest], prime)):
            dets[j] = det
        return dets

    def values(self, assignment, prime: int) -> list[int]:
        """Each source variable's image mod prime at {target variable: residue}, unlisted ones at 0.

        Variables that no nonzero entry uses may be left out of the assignment.
        """
        return [(c * assignment.get(t, 0) if t is not None else c) % prime for c, t in self.images]

    def _w_rows(self, w: list[int], prime: int, width: int) -> list[int]:
        """M(1, w)'s packed rows at the separating indices' w_i: entry (r, c) is W(code_c & ~code_r), one
        lookup per chunk; with one chunk, only the table entries that the rows read become lane bytes."""
        tables = [_subset_products(w[lo:hi], prime) for lo, hi, _ in self._core[2]]
        if len(tables) == 1:
            used, getters = self._core_getters
            return _packed_rows(getters, [y.to_bytes(width, "big") for y in used(tables[0])])
        codes = [codes for _, _, codes in self._core[2]]
        return _product_rows(tables, codes, [[~c for c in cs] for cs in codes], and_, prime, width)

    def _half_rows(self, w: list[int], inverse: int, prime: int, width: int) -> tuple[list[int], list[int]]:
        """(A's, C's packed rows) at the w_i, inverse being W(F)^-1: A_rc = W(P_r & P_c)^-1 and
        C_rc = W(P_r | P_c)^-1 over T, W(s)^-1 being W(F - s) times the inverse.  So each chunk's table is read
        reversed, at the complements, and the first one's products, or the entries that one table gives, scaled."""
        _, _, chunks, (_, t) = self._core
        tables = [_subset_products(w[lo:hi], prime)[::-1] for lo, hi, _ in chunks]
        if len(tables) == 1:
            used, a_rows, c_rows = self._half_getters
            lanes = [(y * inverse % prime).to_bytes(width, "big") for y in used(tables[0])]
            return _packed_rows(a_rows, lanes), _packed_rows(c_rows, lanes)
        tables[0] = [y * inverse % prime for y in tables[0]]
        codes = [[cs[r] for r in t] for _, _, cs in chunks]
        return tuple(_product_rows(tables, codes, codes, op, prime, width) for op in (and_, or_))

    @cached_property
    def _core(self):
        """(separating free indices, each tope's code, chunks, half).

        An index where every tope is + never lies in P_c - P_r, and one where
        none is never appears.  Bit j of a code stands for the j-th
        separating index.  ``chunks`` split them by ``_chunk_bounds``, each
        as (lo, hi, each tope's code on separating[lo:hi]).  ``half`` is None
        unless the codes are closed under complement, and then (twice how
        many topes of T are + at each index, T's rows), T being the topes
        without bit k-1.
        """
        every, some = reduce(and_, self.plus), reduce(or_, self.plus)
        separating = _ascending(some & ~every)
        bits = [1 << (i - 1) for i in separating]
        codes = [sum(1 << j for j, b in enumerate(bits) if p & b) for p in self.plus]
        bounds = _chunk_bounds(len(bits), self.size)
        chunks = tuple((lo, hi, [c >> lo & (1 << hi - lo) - 1 for c in codes]) for lo, hi in zip(bounds, bounds[1:]))
        full, half = (1 << len(bits)) - 1, None
        if full and sorted(codes) == sorted(c ^ full for c in codes):
            t = [r for r, c in enumerate(codes) if c < c ^ full]
            half = [2 * sum(codes[r] >> j & 1 for r in t) for j in range(len(bits))], t
        return separating, codes, chunks, half

    @cached_property
    def _sides(self) -> tuple[list, list]:
        """The images of the a_i^+ and of the a_i^- over the separating indices, in their order."""
        return tuple([self.images[2 * i - 2 + side] for i in self._core[0]] for side in (0, 1))

    @cached_property
    def _core_getters(self) -> tuple:
        """``_positions`` of M(1, w)'s table indices with one chunk, built on first use: with a half, only an
        evaluation whose W(F) is 0 or whose norm meets a column of zero divisors reads them."""
        codes = self._core[1]
        return _positions([[c & ~code for c in codes] for code in codes])

    @cached_property
    def _half_getters(self) -> tuple:
        """(getter of the indices that A and C read in the table of W at the complements, one getter per row of
        A and one per row of C over their positions) with one chunk, built on first use."""
        t = [self._core[1][r] for r in self._core[3][1]]
        used, rows = _positions([[r & c for c in t] for r in t] + [[r | c for c in t] for r in t])
        return used, rows[: len(t)], rows[len(t) :]


def _valid_topes(f: FiberView) -> tuple[SignVector, ...]:
    """A valid fiber's topes; a fiber without any has neither a matrix nor a closed form."""
    if f.base.verified:
        _loop_free(f.base)
    else:
        problems = validate_fiber(f)
        if problems:
            raise FiberError("; ".join(problems))
    if not f.topes:
        raise FiberError("the fiber has no topes; the distance matrix is empty")
    return f.topes


def build_matrix(f: FiberView, specialize: Specialization | None = None) -> VarchenkoMatrix:
    """Distance matrix of a fiber under the optional map; deterministic in the canonical tope order.

    The map's source must be the fiber's 2n variables, which is checked first.
    """
    if specialize is not None and len(specialize.images) != 2 * f.n:
        raise ValueError(
            f"the map is on {len(specialize.images)} variables, but the fiber has {2 * f.n} (2 per hyperplane)"
        )
    ts = _valid_topes(f)
    free = f.free_mask
    plus, minus = tuple(t.plus & free for t in ts), tuple(t.minus & free for t in ts)
    return VarchenkoMatrix(f, ts, plus, minus, *_map_of(f.n, specialize))


def _binomial(base: IntPolynomial):
    """(b, c) when base is 1 - c*x^b with a nonconstant key b, else None."""
    terms = base._terms
    if len(terms) != 2 or terms.get(0) != 1:
        return None
    b = max(terms)
    return b, -terms[b]


def _lane_check(x: int, guard: int) -> int:
    """x, unless a lane reached its guard bit, which is past MAX_EXPONENT."""
    if x & guard:
        raise ExponentOverflowError(f"binomial power exceeds exponent limit {MAX_EXPONENT}")
    return x


def _lane_min(x: int, y: int, guard: int) -> int:
    """The lane-wise minimum of two multisets: (x | guard) - y keeps a lane's guard bit exactly where
    x >= y, with no borrow between lanes, and t - (t >> 15) makes each kept bit a mask selecting y."""
    t = ((x | guard) - y) & guard
    return x ^ ((x ^ y) & (t - (t >> (LANE_BITS - 1))))


class _TermDicts:
    """Leftovers as term dicts over ``nvars`` variables, candidates as (b, c) for 1 - c*x^b."""

    __slots__ = ("nvars",)
    zero, one = {}, {0: 1}  # never mutated

    def __init__(self, nvars: int):
        self.nvars = nvars

    def product(self, x: dict, y: dict) -> dict:
        if len(x) == 1 == len(y):
            ((k1, c1),), ((k2, c2),) = x.items(), y.items()
            return {k1 + k2: c1 * c2}
        out: dict[int, int] = {}
        _accumulate_product(out, x, y)
        return out

    def times_binomials(self, terms: dict, fac: int, candidates) -> dict:
        """terms times the binomials of fac; zero coefficients are left in."""
        for j, e in _lanes(len(candidates), fac):
            b, c = candidates[j]
            for _ in range(e):
                out = dict(terms)
                for k, v in terms.items():
                    out[k + b] = out.get(k + b, 0) - c * v
                terms = out
        return terms

    def difference(self, x, y) -> dict:
        """x - y, None standing for 0 and x updated in place, with zero coefficients stripped and
        exponents checked."""
        if x is None:
            x = {}
        if y:
            for k, v in y.items():
                x[k] = x.get(k, 0) - v
        return _strip_and_check(self.nvars, x)

    def divide_out(self, terms: dict, fac: int, lo: dict, candidates) -> dict:
        """terms / (lo times the binomials of fac), exact or ExactDivisionError."""
        for j, e in _lanes(len(candidates), fac) if fac else ():
            for _ in range(e):
                terms = divide_binomial(self.nvars, terms, *candidates[j])
        return terms if lo == {0: 1} else _divide_exact(self.nvars, dict(terms), lo)

    def refactor(self, terms: dict, fac: int, candidates, guard: int) -> tuple[dict, int]:
        """(leftover, fac plus every candidate binomial that divides terms), by trial division.

        A binomial with c = 1 vanishes where every variable is 1, so it is
        tried only while the coefficients sum to zero.
        """
        if not terms:
            return terms, 0
        found, n = 0, len(candidates)
        at_ones = sum(terms.values())
        for j, (b, c) in enumerate(candidates):
            while c != 1 or at_ones == 0:
                try:
                    terms = divide_binomial(self.nvars, terms, b, c)
                except ExactDivisionError:
                    break
                found += 1 << LANE_BITS * (n - 1 - j)
                at_ones = sum(terms.values())
        return terms, _lane_check(fac + found, guard)


class _Integers:
    """Leftovers as the integers L(2^K), candidates as the integers 1 - c*2^(K deg b).

    Evaluation at 2^K is a ring map, and every (telescoped) Bareiss quotient
    is a minor's value, so each division is exact; ``gcd`` is the candidates'.
    """

    __slots__ = ("gcd",)
    zero, one = 0, 1

    def __init__(self, gcd: int):
        self.gcd = gcd

    def product(self, x: int, y: int) -> int:
        return x * y

    def times_binomials(self, x: int, fac: int, candidates) -> int:
        for j, e in _lanes(len(candidates), fac):
            x *= candidates[j] ** e
        return x

    def difference(self, x, y) -> int:
        """x - y, None standing for 0."""
        return (x or 0) - (y or 0)

    def divide_out(self, x: int, fac: int, lo: int, candidates) -> int:
        quotient, remainder = divmod(x, self.times_binomials(lo, fac, candidates) if fac else lo)
        if remainder:
            raise ExactDivisionError("nonzero remainder after dividing by the leftover and binomials")
        return quotient

    def refactor(self, x: int, fac: int, candidates, guard: int) -> tuple[int, int]:
        """(leftover, fac plus every candidate that divides x), by trial division, tried only if the
        candidates' gcd divides x.

        Under all=a the candidates 1 - a^(2k) share 1 - a^2, so the gcd test
        turns most leftovers away at once.  Without it the ``symbolic`` bench
        workload (seed 1, 40 s runs on a 2-core host) fell from 143.5 to
        133.4 verdicts/s, medians of 6 alternating pairs.
        """
        if not x:
            return x, 0
        if x % self.gcd:
            return x, fac
        found, n = 0, len(candidates)
        for j, candidate in enumerate(candidates):
            quotient, remainder = divmod(x, candidate)
            while not remainder:
                x, found = quotient, found + (1 << LANE_BITS * (n - 1 - j))
                quotient, remainder = divmod(x, candidate)
        return x, _lane_check(fac + found, guard)


def _update(ring, p, q, r, s, prev, candidates, guard: int):
    """(p*q - r*s) / prev on factored entries (leftover, binomial multiset), in ``ring``'s leftovers.

    Binomials shared by both products are kept out of the expansion (a zero
    product shares all of the other's); those that prev also carries cancel
    against it, the rest stay in the result.
    """
    (pt, pf), (qt, qf), (rt, rf), (st, sf), (lo, lf) = p, q, r, s, prev
    f1, f2 = pf + qf, rf + sf
    _lane_check(f1 | f2, guard)
    pq = rs = None
    if pt and qt:
        g = _lane_min(f1, f2, guard) if rt and st else f1
        pq = ring.product(pt, qt)
        if f1 != g:
            pq = ring.times_binomials(pq, f1 - g, candidates)
    else:
        g = f2
    if rt and st:
        rs = ring.product(rt, st)
        if f2 != g:
            rs = ring.times_binomials(rs, f2 - g, candidates)
    num = ring.difference(pq, rs)
    h = _lane_min(g, lf, guard) if lf else 0
    kept, rest = g - h, lf - h
    try:
        quotient = ring.divide_out(num, rest, lo, candidates)
    except ExactDivisionError:
        quotient, kept = _expanded_quotient(ring, num, kept, rest, lo, candidates), 0
    return ring.refactor(quotient, kept, candidates, guard)


def _expanded_quotient(ring, num, kept: int, rest: int, lo, candidates):
    """num times the kept binomials, over lo times the rest: nothing is kept aside.

    The first division fails only when a kept binomial shares a factor with
    prev's leftover or binomials.  That takes a specialization (1 - a^2
    divides 1 - a^6, and 1 - 4x^2 factors): without one, distinct binomials
    1 - b_v are irreducible and coprime, and no leftover has one as a factor.
    """
    expanded = ring.difference(ring.times_binomials(num, kept, candidates), None)
    return ring.divide_out(expanded, rest, lo, candidates)


def _same(x):
    return x


def _mirror(rows: list[list[IntPolynomial]], nvars: int):
    """The key map of sigma with sigma(rows[r][c]) = rows[c][r] for every r and c, the diagonal included:
    the identity if rows is symmetric, else (nvars even) the swap a_i^+ <-> a_i^- if it does, else None."""
    pairs = [(x._terms, rows[c][r]._terms) for r, row in enumerate(rows) for c, x in enumerate(row) if c >= r]
    if all(x == y for x, y in pairs):
        return _same
    top = LANE_BITS * nvars
    plus = sum(((1 << LANE_BITS) - 1) << LANE_BITS * lane for lane in range(1, nvars, 2))  # the a_i^+ lanes

    def key(k: int) -> int:
        return k >> top << top | (k & plus) >> LANE_BITS | (k & plus >> LANE_BITS) << LANE_BITS

    return None if nvars % 2 or any({key(k): v for k, v in x.items()} != y for x, y in pairs) else key


def _entry_mirror(key, candidates):
    """sigma on factored entries: key on the leftover's terms, the lane permutation it makes of the
    sigma-closed candidates on the binomials; the identity stays the identity."""
    if key is _same:
        return _same
    n = len(candidates)
    lane = {bc: n - 1 - j for j, bc in enumerate(candidates)}
    shift = [LANE_BITS * lane[key(b), c] for b, c in candidates]
    return lambda entry: (
        {key(k): v for k, v in entry[0].items()},
        sum(e << shift[j] for j, e in _lanes(n, entry[1])),
    )


def _factored_pass(start: list, ring, candidates, guard: int, mirror=None):
    """(last pivot, sign) of eliminating a copy of the factored entries ``start``; with a mirror, only
    the upper triangle, with column k read as the mirror of row k, and None at a zero pivot.

    A row whose multiplier is zero is left as it is, its entries those of step at[i]: the current
    ones are d[k] / d[at[i]] times them, d[k] being the leading k-minor.  Its next update divides
    by d[at[i]] instead of d[k]; the pivot row, the last entry and a mirrored multiplier are
    rescaled, by an update with a zero cofactor, when they are read.
    """
    a = [list(row) for row in start]
    m, sign = len(a), 1
    zero = (ring.zero, 0)
    d, at = [(ring.one, 0)], [0] * m

    def rescale(x, s: int, k: int):  # d[k] * x / d[s]: an entry of step s at step k
        return x if s == k else _update(ring, d[k], x, zero, zero, d[s], candidates, guard)

    for k in range(m - 1):
        if not a[k][k][0]:
            if mirror:
                return None
            for r in range(k + 1, m):
                if a[r][k][0]:
                    a[k], a[r], at[k], at[r] = a[r], a[k], at[r], at[k]
                    sign = -sign
                    break
            else:
                return zero, 1
        row_k = a[k]
        if at[k] < k:
            row_k[k:] = [rescale(x, at[k], k) for x in row_k[k:]]
        pivot = row_k[k]
        d.append(pivot)
        for i in range(k + 1, m):
            row_i, s = a[i], at[i]
            aik = row_k[i] if mirror else row_i[k]
            if not aik[0]:
                continue
            if mirror:
                aik = rescale(mirror(aik), k, s)
            for j in range(i if mirror else k + 1, m):
                row_i[j] = _update(ring, pivot, row_i[j], aik, row_k[j], d[s], candidates, guard)
            at[i] = k + 1
    return rescale(a[m - 1][m - 1], at[m - 1], m - 1), sign


# A univariate elimination keeps its leftovers as the integers L(2^K) while D*K is at most this
# many bits, D the sum of the rows' largest entry degrees and K the width of ``_kronecker_width``;
# past it, term dicts are faster.  ``bareiss_determinant`` on the full reversals under all=a,
# integers against term dicts on a 2-core host, medians of 9 alternating pairs (5 at 14 wires):
# 8 wires (D*K = 26.6k) 1.59x faster, 10 wires (83.5k) 1.08x, 11 wires (137k) 0.92x,
# 12 wires (214k) 0.63x, 14 wires (479k) 0.38x.
_KRONECKER_BITS = 100_000


def _kronecker_width(rows: list[list[IntPolynomial]], nvars: int) -> int | None:
    """K when the elimination keeps its leftovers as integers L(2^K); None for several variables
    or past ``_KRONECKER_BITS``.

    K is the bit length of the Hadamard bound prod_r sqrt(sum_c ||e_rc||_1^2),
    plus 2.  The bound is at least max |det(z)| on |z| = 1, which bounds
    every coefficient of the determinant, so the balanced base-2^K digits of
    its value are its coefficients.
    """
    if nvars != 1:
        return None
    norms, degree = 1, 0
    for row in rows:
        terms = [e._terms for e in row]
        norms *= sum(sum(map(abs, t.values())) ** 2 for t in terms)
        degree += max([max(t) for t in terms if t], default=0) >> LANE_BITS
    width = (isqrt(norms) + 1).bit_length() + 2
    return width if degree * width <= _KRONECKER_BITS else None


def _digits(x: int, width: int) -> dict:
    """The univariate term dict of L with L(2^width) = x and every coefficient in [-2^(width-1), 2^(width-1))."""
    terms, half, mask, e = {}, 1 << (width - 1), (1 << width) - 1, 0
    while x:
        digit = ((x + half) & mask) - half
        if digit:
            terms[pack_monomial(1, {0: e})] = digit
        x, e = (x - digit) >> width, e + 1
    return terms


def _value_at(terms: dict, width: int) -> int:
    """A univariate term dict's value at x = 2^width."""
    x = 0
    for k, c in terms.items():
        x += c << width * (k >> LANE_BITS)
    return x


def _eliminated(rows: list[list[IntPolynomial]], nvars: int, bases, width: int | None = None):
    """(leftover, [((b, c), e)]) of the factored elimination, the determinant being the leftover
    (sign included) times prod (1 - c*x^b)^e: a term dict L, or with a width K the integer L(2^K)."""
    key = _mirror(rows, nvars)
    bcs = {bc for bc in map(_binomial, bases) if bc}
    pairs = sorted(bcs if key is None else bcs | {(key(b), c) for b, c in bcs})
    guard = _guard_mask(len(pairs))
    if width is None:
        ring, candidates, start = _TermDicts(nvars), pairs, [[e._terms for e in row] for row in rows]
    else:
        candidates = [_value_at({0: 1, b: -c}, width) for b, c in pairs]
        ring = _Integers(gcd(*candidates) or 1)
        start = [[_value_at(e._terms, width) for e in row] for row in rows]
    start = [[ring.refactor(x, 0, candidates, guard) for x in row] for row in start]
    result = key and _factored_pass(start, ring, candidates, guard, _entry_mirror(key, pairs))
    (lo, fac), sign = result or _factored_pass(start, ring, candidates, guard)
    lo = sign * lo if width else {k: sign * v for k, v in lo.items()}
    return lo, [(pairs[j], e) for j, e in _lanes(len(pairs), fac)]


def factored_bareiss(rows: list[list[IntPolynomial]], nvars: int, bases=()) -> FactoredPoly:
    """Fraction-free elimination over entries kept as leftover * prod (1 - c*x^b)^e.

    ``bases`` are the candidate binomials 1 - c*x^b (other polynomials, such
    as constants, are ignored); each update result is re-factored over
    them, smallest monomial first.  With no candidates this is plain
    elimination on the leftovers.  Returns the determinant as the leftover
    (sign included) times the binomial powers.

    When ``_mirror`` finds sigma with sigma(M) = M^T, only the upper triangle
    is eliminated, the lower one being its mirror; a zero pivot then restarts
    the elimination from the input, on every entry and with row swaps.  The
    candidates are closed under sigma, so that it permutes the lanes.  Rows
    whose multiplier is zero, common since the distance is multiplicative
    along shortest galleries, are left at the step they were last updated
    at and caught up by their next update (``_factored_pass``).
    """
    lo, binomials = _eliminated(rows, nvars, bases)
    factors = [(IntPolynomial(nvars, {0: 1, b: -c}), e) for (b, c), e in binomials]
    return FactoredPoly(nvars, factors + [(IntPolynomial(nvars, lo), 1)])


def _bareiss(rows: list[list[IntPolynomial]], nvars: int, bases) -> tuple[IntPolynomial, FactoredPoly | None]:
    """(determinant, its factored form) by factored fraction-free elimination: on integers L(2^K), the
    balanced base-2^K digits of its value and no factored form, else the factored result and its expansion."""
    width = _kronecker_width(rows, nvars)
    if width is None:
        factored = factored_bareiss(rows, nvars, bases)
        return factored.expand(), factored
    x, binomials = _eliminated(rows, nvars, bases, width)
    value = x * prod(_value_at({0: 1, b: -c}, width) ** e for (b, c), e in binomials)
    return IntPolynomial(1, _digits(value, width)), None


def bareiss_determinant(rows: list[list[IntPolynomial]], nvars: int, bases=()) -> IntPolynomial:
    """Exact determinant by factored fraction-free elimination (``_bareiss``)."""
    return _bareiss(rows, nvars, bases)[0]


def _agrees(det: IntPolynomial, factored: FactoredPoly | None, formula: FactoredPoly) -> bool:
    """det == formula.expand(), decided without expanding the formula where possible.

    With one variable: equal values at 2^K, K the bit length of the larger
    of det's largest |coefficient| and prod ||base||_1^beta, plus 2.  Every
    coefficient of either side is then below 2^(K-2), and balanced base-2^K
    digits are unique.  With several: the elimination's factored form equals
    the formula, which suffices, and with no map is also necessary.  A map
    with constants can group them differently (a leftover 9 against
    (-3)^2), so a formula with a zero base agrees exactly when det is 0, and
    where the two have the same non-constant factors, exactly when their
    constant factors have the same product.  Failing all that, the expansion
    decides.
    """
    if det.nvars == 1:
        norms = prod(sum(map(abs, base._terms.values())) ** e for base, e in formula.factors)
        width = max(max(map(abs, det._terms.values()), default=0), norms).bit_length() + 2
        value = prod(_value_at(base._terms, width) ** e for base, e in formula.factors)
        return _value_at(det._terms, width) == value
    if factored == formula:
        return True
    if any(base.is_zero for base, _ in formula.factors):
        return det.is_zero
    if factored is not None:
        (rest, constant), (formula_rest, formula_constant) = map(_split_constants, (factored, formula))
        if rest == formula_rest:
            return constant == formula_constant
    return det == formula.expand()


def _split_constants(f: FactoredPoly) -> tuple[tuple, int]:
    """(f's non-constant factors in order, the product of its constant factors)."""
    constant = prod(base._terms.get(0, 0) ** e for base, e in f.factors if not base.total_degree())
    return tuple((base, e) for base, e in f.factors if base.total_degree()), constant


def _face_masks(f: FiberView) -> tuple:
    """(covector, zero mask, multiplicity) for every non-tope member of a fiber with topes, cached on the fiber;
    a face's weight depends only on its zero mask, its flat."""
    cached = f._cache.get("masks")
    if cached is not None:
        return cached
    _valid_topes(f)
    free, faces = f.free_mask, []
    for u in f.members:
        mask = u.zero_mask
        if mask:  # not a tope
            faces.append((u, mask, _multiplicity(f, u, _ascending(mask & free))))
    f._cache["masks"] = faces = tuple(faces)
    return faces


def face_multiplicities(f: FiberView) -> tuple:
    """(covector, weight, multiplicity) for every non-tope member of a fiber with topes, cached on the fiber;
    the faces on one flat share one weight object."""
    cached = f._cache.get("faces")
    if cached is not None:
        return cached
    nvars, weights, faces = 2 * f.n, {}, []
    for u, mask, beta in _face_masks(f):
        weight = weights.get(mask)
        if weight is None:
            weight = weights[mask] = weight_monomial(u, nvars)
        faces.append((u, weight, beta))
    f._cache["faces"] = faces = tuple(faces)
    return faces


def _flat_betas(f: FiberView) -> dict[int, int]:
    """{zero mask Z: the summed beta of the faces on flat Z} over the flats whose sum is positive."""
    betas: dict[int, int] = {}
    for _, mask, beta in _face_masks(f):
        if beta:
            betas[mask] = betas.get(mask, 0) + beta
    return betas


def product_formula(f: FiberView, specialize: Specialization | None = None) -> FactoredPoly:
    """The determinant's closed form prod (1 - b_v)^(beta_v), beta_v > 0, optionally specialized; the betas of the
    faces on one flat, which share b_v, are summed first, so each flat gives one base."""
    weights = {mask: weight for (_, mask, _), (_, weight, _) in zip(_face_masks(f), face_multiplicities(f))}
    one = IntPolynomial.one(2 * f.n)
    formula = FactoredPoly(2 * f.n, [(one - weights[mask], beta) for mask, beta in _flat_betas(f).items()])
    return formula if specialize is None else specialize.apply_factored(formula)


def _map_of(n: int, specialize: Specialization | None) -> tuple[tuple, int]:
    """(images, target nvars) of the map on 2n source variables, as in ``Specialization``; the identity for None."""
    if specialize is None:
        return tuple((1, v) for v in range(2 * n)), 2 * n
    return specialize.images, specialize.nvars


class _FlatText:
    """The text of the flats' weights and of the closed form under a map, read from zero masks alone.

    ``weight(Z)`` is what ``poly_str`` prints for the image of b_Z, the
    product of a_i^+ a_i^- over i in the zero mask Z, and ``formula(betas)``
    what ``factored_str`` prints for the image of prod (1 - b_Z)^beta_Z over
    {Z: beta_Z}: ``product_formula`` under the map.  The image of b_Z is one
    term c*x^K.  A base 1 - c*x^K is 1 at c = 0 and dropped, a constant
    1 - c when K is 0, and merged with the bases of equal image; the bases
    are ordered by ``IntPolynomial.sort_key``, which this reads off c and the
    packed K.
    """

    def __init__(self, images, nvars: int):
        self.images, self.nvars = images, nvars
        self._terms: dict[int, tuple[int, str, dict]] = {}

    def _term(self, mask: int) -> tuple[int, str, dict]:
        """(c, the text of x^K, {target: exponent}) of the image c*x^K of b_Z, Z = mask."""
        term = self._terms.get(mask)
        if term is None:
            coeff, exps = 1, {}
            for i in _ascending(mask):
                for c, t in self.images[2 * i - 2 : 2 * i]:
                    coeff *= c
                    if t is not None:
                        exps[t] = exps.get(t, 0) + 1
            term = self._terms[mask] = coeff, monomial_str(sorted(exps.items()), self.nvars), exps
        return term

    def weight(self, mask: int) -> str:
        coeff, mon, _ = self._term(mask)
        return term_str(coeff, mon) if coeff else "0"

    def formula(self, betas: dict[int, int]) -> str:
        bases: dict[tuple, list] = {}  # IntPolynomial.sort_key of each base: [its text, its exponent]
        for mask, beta in betas.items():
            coeff, mon, exps = self._term(mask)
            if not coeff:
                continue
            if exps:
                key = pack_monomial(self.nvars, exps)
                sort_key, text = (sum(exps.values()), ((-key, -coeff), (0, 1))), "1" + term_str(-coeff, mon, False)
            else:
                sort_key, text = (0, ((0, 1 - coeff),) if coeff != 1 else ()), str(1 - coeff)
            base = bases.setdefault(sort_key, [text, 0])
            base[1] += beta
        return product_str(base for _, base in sorted(bases.items()))


def determinant(
    f: FiberView,
    specialize: Specialization | None = None,
    *,
    force: bool = False,
) -> IntPolynomial:
    """Exact symbolic determinant of a fiber's distance matrix, optionally specialized.

    The size guard runs on the tope count before any matrix work.  The
    formula's binomials 1 - b_v are the candidates of the factored
    elimination; they only speed it up.  A fiber whose multiplicities are
    not well defined (which the determinant alone does not need) has no
    formula, and its candidates are the distinct 1 - b_v of its non-tope
    members, specialized.
    """
    _check_size_guard(len(f.topes), force)
    matrix = build_matrix(f, specialize)
    try:
        bases = [base for base, _ in product_formula(f, specialize).factors]
    except FiberError:
        one = IntPolynomial.one(2 * f.n)
        flats = {u.zero_mask: u for u in f.members if not u.is_tope}
        bases = {one - weight_monomial(u) for u in flats.values()}
        if specialize is not None:
            bases = {specialize.apply_poly(base) for base in bases}
    return bareiss_determinant(matrix.entries, matrix.nvars, bases)


# modular evaluation

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin after trial division by the 12 witnesses: deterministic below 2^64 on the 7 bases
    of ``_MR_BASES_64``, each reduced mod n and skipped at 0, and on the 12 witnesses below 3.3e24."""
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
    for a in _MR_BASES_64 if n < 1 << 64 else _MR_WITNESSES:
        a %= n
        if not a:
            continue
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


def draw_prime(rng: random.Random) -> int:
    """A random 61-bit prime."""
    candidate = rng.randrange(1 << 60, 1 << 61) | 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def _row_bits(prime: int, m: int) -> int:
    """a = 2 bitlen(p) + bitlen(3m + 1): every lane of an m-column row stays below (3m + 1)p^2 < 2^a."""
    return 2 * prime.bit_length() + (3 * m + 1).bit_length()


def _lane_bytes(prime: int, m: int) -> int:
    """Bytes per lane of an m-column packed row mod prime.

    Lanes stay below 2^a (``_row_bits``, see ``_eliminate``), and the pivot
    row's Barrett product needs 2(a - k + 1) bits, k = bitlen(p) (see
    ``_lane_reducer``), which is a + bitlen(3m + 1) + 2 and so the larger:
    a lane is that many bits, rounded up to whole bytes.
    """
    return -(-2 * (_row_bits(prime, m) - prime.bit_length() + 1) // 8)


def _pack(lanes, width: int) -> int:
    """Non-negative lanes of width bytes each, lane 0 highest, as one integer."""
    return int.from_bytes(b"".join(map(int.to_bytes, lanes, repeat(width), repeat("big"))), "big")


def _lane_reducer(prime: int, m: int):
    """reduce(t): every lane of a packed row t, each below 2^a, taken below 3p, all at once.

    SWAR Barrett reduction, with k = bitlen(p), a = ``_row_bits(prime, m)``,
    the lane width w of ``_lane_bytes(prime, m)``, s = a - k + 1,
    mu = 2^a // p and M the mask of each lane's low s bits:
    q = ((((t >> (k-1)) & M) * mu) >> s) & M holds, in each lane, the
    estimate q = floor(floor(x / 2^(k-1)) * mu / 2^s) of floor(x / p) for
    that lane's x, and t - q*p leaves x - q*p there.

    - x - q*p >= 0, so no lane borrows: floor(x / 2^(k-1)) <= x / 2^(k-1)
      and mu <= 2^a / p, so q <= x / p.
    - x - q*p < 3p: below p, q = 0.  From p >= 2^(k-1) on,
      floor(x / 2^(k-1)) > x / 2^(k-1) - 1 >= 0 and mu > 2^a / p - 1 > 0,
      so their product over 2^s exceeds x/p - x/2^a - 2^(k-1)/p > x/p - 2
      (x < 2^a), and the floor loses less than 1 more: q > x/p - 3.  The
      bound is reached: remainders of 2p and more occur.
    - Lanes do not mix: x >> (k-1) < 2^s and mu <= 2^s, so a lane's product
      is below 2^(2s) <= 2^w, and each right shift moves the low bits of the
      lane above to bits w - s and up (w >= 2s > a), which M clears.
    """
    k, a = prime.bit_length(), _row_bits(prime, m)
    s, mu = a - k + 1, (1 << a) // prime
    mask = int.from_bytes(((1 << s) - 1).to_bytes(_lane_bytes(prime, m), "big") * m, "big")

    def reduce(t: int) -> int:
        return t - ((((t >> (k - 1)) & mask) * mu >> s) & mask) * prime

    return reduce


def _inverses(values: list[int], prime: int) -> list[int]:
    """The inverses mod prime of nonzero residues, by Montgomery's trick: one pow and three products per value."""
    prefix, running = [], 1
    for x in values:
        prefix.append(running)
        running = running * x % prime
    inverse, out = pow(running, -1, prime), []
    for x, before in zip(reversed(values), reversed(prefix)):
        out.append(inverse * before % prime)
        inverse = inverse * x % prime
    return out[::-1]


def _eliminate(matrices: list[list[int]], prime: int) -> list[int]:
    """Determinants mod prime of m x m matrices given as packed rows, which it consumes, in lockstep.

    Each row is one integer with a lane of w bits per column, w = 8 *
    _lane_bytes(prime, m), the active submatrix's first column in the top
    lane: column c of a step's m' active columns sits at bit (m'-1-c)w.  A
    lane starts below p^2.  Eliminating that column with pivot row P sets
    row <- (row & low) + g * tail, where low masks the lanes below the top,
    g = top(row) * (p - pivot^-1) mod p and tail is P's lower lanes, each
    reduced below 3p by ``_lane_reducer``: adding g*y is subtracting
    top(row)/pivot * y mod p, and the top lane (now zero mod p) is dropped.
    Lanes are never reduced in an update and never go negative.
    Invariant: each of fewer than m steps adds at most (p-1)(3p-1) < 3p^2
    to a lane, so every lane stays below p^2 + 3(m-1)p^2 < (3m+1)p^2 < 2^a,
    the bound the pivot row's reduction needs, and no carry crosses a lane.

    Every step picks and swaps each live matrix's pivot, inverts all the
    pivots with one pow (``_inverses``), then updates the rows; a matrix
    leaves at a column of zeros, its determinant 0.  The last step needs no
    inverse.  ``_compare`` keeps the matrices within ``_GROUP_BYTES``.
    """
    dets = [1] * len(matrices)
    m = len(matrices[0]) if matrices else 0
    w = 8 * _lane_bytes(prime, m)
    reduce = _lane_reducer(prime, m)
    live = range(len(matrices))
    for k in range(m):
        top = (m - 1 - k) * w
        stepping, pivots = [], []
        for j in live:
            a = matrices[j]
            for r in range(k, m):
                pivot = (a[r] >> top) % prime
                if pivot:
                    break
            else:
                dets[j] = 0
                continue
            a[k], a[r] = a[r], a[k]
            dets[j] = dets[j] * (pivot if r == k else prime - pivot) % prime
            stepping.append(j)
            pivots.append(pivot)
        if not top:
            break
        low = (1 << top) - 1
        for j, inverse in zip(stepping, _inverses(pivots, prime)):
            a = matrices[j]
            tail, neg = reduce(a[k] & low), prime - inverse
            a[k + 1 :] = [(row & low) + (row >> top) * neg % prime * tail for row in a[k + 1 :]]
        live = stepping
    return dets


def _eliminate_norm(pairs: list[tuple[list[int], list[int]]], ws: list[int], prime: int) -> list[int | None]:
    """N(det(A + sC)) mod prime over R = F_p[s]/(s^2 - w), N(x + sy) = x^2 - w y^2, for each pair (xs, ys)
    of the packed rows of A and of C, which it consumes, and its w in ws, in lockstep; 0 at a zero column,
    None at one of zero divisors with no unit.

    Rows are packed as for ``_eliminate`` on m = 2h columns, h = len(xs).  A
    step pivots on a top x + sy of nonzero norm n, a unit, and multiplies
    the pivot row's tail, reduced, by (x - sy)/n into TX + s TY, reduced
    again, as is w TY.  A row below, top (x, y), gains -x and -y mod p times
    TX + s TY and s(TX + s TY): X += -x TX - y w TY, Y += -x TY - y TX.  Each
    of fewer than h steps adds below 6p^2 to a lane, which stays below
    (6h+1)p^2 = (3m+1)p^2, ``_eliminate``'s bound.  N is multiplicative and
    N(-1) = 1, so the result is the product of the pivots' norms.  As in
    ``_eliminate``, every step inverts all the live pairs' norms with one pow.
    """
    dets: list = [1] * len(pairs)
    h = len(pairs[0][0]) if pairs else 0
    width = 8 * _lane_bytes(prime, 2 * h)
    reduce = _lane_reducer(prime, 2 * h)
    live = range(len(pairs))
    for k in range(h):
        top = (h - 1 - k) * width
        stepping, norms = [], []
        for j in live:
            (xs, ys), w = pairs[j], ws[j]
            for r in range(k, h):
                x, y = (xs[r] >> top) % prime, (ys[r] >> top) % prime
                norm = (x * x - w * y * y) % prime
                if norm:
                    break
            else:
                dets[j] = None if any((xs[r] >> top) % prime or (ys[r] >> top) % prime for r in range(k, h)) else 0
                continue
            xs[k], xs[r], ys[k], ys[r] = xs[r], xs[k], ys[r], ys[k]
            dets[j] = dets[j] * norm % prime
            stepping.append((j, x, y))
            norms.append(norm)
        if not top:
            break
        low = (1 << top) - 1
        for (j, x, y), inverse in zip(stepping, _inverses(norms, prime)):
            (xs, ys), w = pairs[j], ws[j]
            c, d = x * inverse % prime, -y * inverse % prime
            tail_x, tail_y = reduce(xs[k] & low), reduce(ys[k] & low)
            tx, ty = reduce(c * tail_x + w * d % prime * tail_y), reduce(c * tail_y + d * tail_x)
            tw = reduce(w * ty)
            for i in range(k + 1, h):
                nx, ny = -(xs[i] >> top) % prime, -(ys[i] >> top) % prime
                xs[i], ys[i] = (xs[i] & low) + nx * tx + ny * tw, (ys[i] & low) + nx * ty + ny * tx
        live = [j for j, _, _ in stepping]
    return dets


def det_mod(rows: list[list[int]], prime: int) -> int:
    """Determinant of an integer matrix in the prime field: its rows reduced, packed and eliminated."""
    width = _lane_bytes(prime, len(rows))
    return _eliminate([[_pack([x % prime for x in row], width) for row in rows]], prime)[0]


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
    """Comparison of the matrix determinant against its factored form.

    ``faces`` and ``formula``, the fiber's under the map ``specialize``, are
    built on first read unless verify passed in the formula it eliminated
    with (``_formula``): a caller that reads only the verdict builds neither.
    ``lines`` and ``to_json`` build neither, in either mode: they print the
    weights and the formula from the flats' zero masks (``_face_masks``,
    ``_flat_betas``) through ``_FlatText``.
    """

    mode: str
    tope_count: int
    agreement: bool
    fiber: FiberView = field(repr=False)
    specialize: Specialization | None = None
    determinant: IntPolynomial | None = None
    prime: int | None = None
    degree_bound: int | None = None
    evals: tuple[EvalRecord, ...] = ()
    _formula: FactoredPoly | None = field(default=None, repr=False, compare=False)

    @cached_property
    def faces(self) -> tuple:
        """(covector, weight under the map, beta) for every non-tope member."""
        faces = face_multiplicities(self.fiber)
        if self.specialize is None:
            return faces
        images = {w: self.specialize.apply_poly(w) for w in {w for _, w, _ in faces}}  # one per flat
        return tuple((u, images[w], beta) for u, w, beta in faces)

    @cached_property
    def formula(self) -> FactoredPoly:
        return product_formula(self.fiber, self.specialize) if self._formula is None else self._formula

    def _text(self) -> _FlatText:
        return _FlatText(*_map_of(self.fiber.n, self.specialize))

    def lines(self) -> list[str]:
        formula = self._text().formula(_flat_betas(self.fiber))
        out = [f"mode: {self.mode}", f"topes: {self.tope_count}", f"formula: {formula}"]
        if self.mode == "symbolic":
            out.append(f"determinant: {poly_str(self.determinant)}")
        else:
            out += [f"prime: {self.prime}", f"degree bound: {self.degree_bound}"]
            for idx, rec in enumerate(self.evals):
                status = "match" if rec.match else "MISMATCH"
                out.append(f"eval {idx}: det={rec.det_residue} formula={rec.formula_residue} {status}")
        out.append(f"agreement: {'true' if self.agreement else 'false'}")
        return out

    def to_json(self) -> dict:
        text, faces = self._text(), _face_masks(self.fiber)
        doc = {
            "mode": self.mode,
            "topes": self.tope_count,
            "faces": [{"covector": str(u), "weight": text.weight(mask), "beta": beta} for u, mask, beta in faces],
            "formula": text.formula(_flat_betas(self.fiber)),
            "agreement": self.agreement,
        }
        if self.determinant is not None:
            doc["determinant"] = poly_str(self.determinant)
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


def _flat_residues(matrix: VarchenkoMatrix, flats: dict[int, int]):
    """(target variables, residue(values, prime), total degree) of prod (1 - b_Z)^beta_Z over the flats
    {zero mask Z: beta_Z} under the matrix's map, b_Z being the product of a_i^+ a_i^- over i in Z.

    The image of b_Z is 0 if an image coefficient is, and the base 1 - 0
    drops out; else it has one degree per source variable sent to a target.
    Its residue is the product of their values ``matrix.values(assignment, prime)``.
    """
    images = matrix.images
    targets, degree, getters = set(), 0, []
    for mask, beta in flats.items():
        vs = [v for i in _ascending(mask) for v in (2 * i - 2, 2 * i - 1)]
        if all(images[v][0] for v in vs):
            mapped = [images[v][1] for v in vs if images[v][1] is not None]
            targets.update(mapped)
            degree += beta * len(mapped)
        # a flat has at least one index, so a getter of its variables always returns a tuple
        getters.append((itemgetter(*vs), beta))

    def residue(values, prime: int) -> int:
        return prod(pow(1 - prod(get(values)), beta, prime) for get, beta in getters) % prime

    return targets, residue, degree


# One group of evaluations keeps its packed rows within this many bytes: at a 61-bit prime, 6 evaluations of
# 134 topes, and one at a time from 242 topes on, as at the 2,081-tope cap.
_GROUP_BYTES = 1 << 21


def _group_size(prime: int, m: int) -> int:
    """How many evaluations of an m x m matrix one group holds: m^2 lanes each within ``_GROUP_BYTES``, at least one."""
    return max(1, _GROUP_BYTES // max(1, m * m * _lane_bytes(prime, m)))


def _compare(var_order, residues, nvars: int, seed: int, evals: int, size: int):
    """(prime, records): the determinant against the formula at random points, residues(assignments, prime) giving
    each assignment's pair of residues.

    Deterministic for a fixed seed: one 61-bit prime, then ``evals``
    assignments of var_order's variables in order, drawn and evaluated in
    consecutive groups of ``_group_size(prime, size)``.  The records name
    the variables in a universe of nvars.
    """
    if evals < 1:
        raise ValueError("at least one evaluation is required")
    rng = random.Random(seed)
    prime = draw_prime(rng)
    labels = [var_label(v, nvars) for v in var_order]
    group, records = _group_size(prime, size), []
    for start in range(0, evals, group):
        assignments = [{v: rng.randrange(prime) for v in var_order} for _ in range(min(group, evals - start))]
        for assignment, (det_r, formula_r) in zip(assignments, residues(assignments, prime)):
            records.append(EvalRecord(dict(zip(labels, assignment.values())), det_r, formula_r))
    return prime, tuple(records)


def randomized_compare(
    entries,
    formula: FactoredPoly,
    seed: int = 0,
    evals: int = 5,
    workers: int = 1,
):
    """Compare det(entries) with the factored form at random modular points.

    The points are drawn for the variables of the entries and the formula,
    in sorted order; ``verify`` draws the same ones from the matrix's masks.
    ``workers`` is accepted for compatibility and has no effect.
    """
    flat = [e for row in entries for e in row]
    m = len(entries)

    def residues(assignments, prime):
        width = _lane_bytes(prime, m)
        matrices = []
        for assignment in assignments:
            x = residues_mod(flat, assignment, prime)
            matrices.append([_pack(x[r * m : (r + 1) * m], width) for r in range(m)])
        return zip(_eliminate(matrices, prime), [formula.eval_mod(a, prime) for a in assignments])

    var_order = used_variables(flat + [base for base, _ in formula.factors])
    return _compare(var_order, residues, formula.nvars, seed, evals, m)


def verify(
    f: FiberView,
    mode: str = "auto",
    seed: int = 0,
    evals: int = 5,
    specialize: Specialization | None = None,
    *,
    force_symbolic: bool = False,
) -> VerificationReport:
    """Check determinant = factored product on a fiber.

    ``mode`` is "symbolic", "randomized", or "auto" (symbolic up to the
    tope-count guard, randomized beyond it).  Disagreement is report
    content, not an exception.  The report's face weights and formula are
    under the specialization, as is the determinant.  A symbolic verdict is
    det == formula.expand(), decided from its one elimination (``_agrees``).
    A randomized one reads the flats as zero masks (``_flat_residues``) and
    builds no weight or formula polynomial; its report builds them on first
    read.
    """
    if mode not in ("auto", "symbolic", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    size = len(f.topes)
    if mode == "auto":
        mode = "symbolic" if size <= SYMBOLIC_LIMIT else "randomized"
    # the guard's errors come first, then the matrix's, the multiplicities' and only then the elimination
    if mode == "symbolic":
        _check_size_guard(size, force_symbolic)
    matrix = build_matrix(f, specialize)
    if mode == "symbolic":
        formula = product_formula(f, specialize)
        det, factored = _bareiss(matrix.entries, matrix.nvars, [base for base, _ in formula.factors])
        agreement = _agrees(det, factored, formula)
        return VerificationReport("symbolic", size, agreement, f, specialize, det, _formula=formula)
    targets, formula_residue, formula_degree = _flat_residues(matrix, _flat_betas(f))
    used, row_degree = matrix.support()
    var_order = sorted(targets.union(used))

    def residues(assignments, prime):  # each evaluation's source values, shared by both sides
        values = [matrix.values(a, prime) for a in assignments]
        return zip(matrix.det_residues(values, prime), [formula_residue(x, prime) for x in values])

    prime, records = _compare(var_order, residues, matrix.nvars, seed, evals, matrix.size)
    return VerificationReport(
        "randomized",
        size,
        all(r.match for r in records),
        f,
        specialize,
        prime=prime,
        # the Schwartz-Zippel bound: the sum of the row maxima bounds the determinant's degree
        degree_bound=max(row_degree, formula_degree),
        evals=records,
    )
